// Structured event tracing.
//
// The simulator's end-of-run aggregates (RunMetrics, MessageLedger) hide
// everything between t=0 and the final table. The tracer makes the
// dynamics the paper argues about — HELP-interval adaptation, community
// churn, evacuation timelines — inspectable: instrumented code emits typed
// records (sim time, node id, event kind, key/value payload) into a
// pluggable TraceSink.
//
// Overhead contract: the default state is "no sink". Every emission site
// is guarded by Tracer::active(), a single pointer test, and TraceEvent is
// a trivially copyable stack value whose payload holds only numbers and
// pointers to static strings — building and emitting an event never
// allocates. Benchmarks therefore pay one predictable branch per site.
// A traced site pays for what it writes: each with() is inlined to a
// bounds check plus three stores (the overflow abort is out of line), one
// virtual call hands the event to the sink, and a lineage id is a plain
// increment unless the tracer was built for several emitting threads
// (Tracer::IdMode::kShared, the agile cluster).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace realtor::obs {

/// Allocator of causal discovery-episode ids. An episode is one complete
/// arc of the paper's survivability argument: a threshold-exceeded trigger
/// opens it with a HELP flood, the solicited PLEDGEs echo its id back, and
/// the admission decision / migration outcome close it. Ids start at 1 so
/// 0 can mean "outside any episode" (unsolicited status pledges, push
/// adverts). The counter is atomic (relaxed) so the threaded Agile runtime
/// can share one source across reactor threads; allocation never feeds
/// back into protocol decisions, so traced and untraced runs stay
/// identical.
class EpisodeSource {
 public:
  std::uint64_t next() {
    return counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Episodes allocated so far (the last id handed out).
  std::uint64_t issued() const {
    return counter_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> counter_{0};
};

/// Everything the instrumented layers can report. Grouped: protocol
/// events, task/node lifecycle events, engine/sampler records.
enum class EventKind : std::uint8_t {
  // Protocol events.
  kHelpSent = 0,       // HELP flood left this node
  kHelpReceived,       // HELP arrived (answered or not)
  kPledgeSent,         // availability reply / unsolicited status pledge
  kPledgeReceived,     // pledge folded into the pledge list
  kAdvertSent,         // PUSH-based availability flood
  kGossipRound,        // anti-entropy digests sent this round
  kHelpInterval,       // Algorithm H changed its solicitation interval
  kThresholdCrossing,  // Algorithm P's occupancy signal crossed the level
  kCommunityJoin,      // first answer to an organizer's refresh
  kCommunityExpire,    // membership lapsed without a refresh
  kSolicit,            // emergency solicitation (attack warning)
  // Task / node lifecycle events.
  kTaskArrival,
  kTaskAdmitLocal,
  kTaskAdmitMigrated,
  kTaskRejected,
  kTaskCompleted,
  kMigrationAttempt,
  kMigrationAbort,
  kMigrationSuccess,
  kNodeKilled,
  kNodeRestored,
  kEvacuation,
  kEscalation,     // inter-group solicitation (federation runs)
  kDeadlineMiss,   // EDF completion landed past its CUS deadline (agile)
  kUnreachableDrop,  // unicast died at a partition edge (record-and-drop)
  // Engine / sampler records.
  kEngineStep,    // sampled every N processed events
  kNodeSample,    // periodic per-node occupancy/utilization/soft-state
  kSystemSample,  // periodic system-wide gauges (one record per metric)
  // Live telemetry plane (obs/live).
  kLiveTick,      // engine-driven window-advancement boundary (sim time)
  kAlertFiring,   // an alert rule's condition started holding at a tick
  kAlertCleared,  // a firing alert's condition stopped holding
  kCount,
};

/// Stable snake_case name used in the JSONL "kind" field.
const char* to_string(EventKind kind);

/// Inverse of to_string(); returns false for unknown names.
bool parse_event_kind(std::string_view name, EventKind& out);

inline constexpr std::size_t kMaxTraceFields = 8;

/// One typed key/value payload entry. Keys and string values must point to
/// storage that outlives the sink's use of the event (string literals, or
/// names the emitter owns, such as the live plane's alert-rule names).
///
/// Deliberately uninitialized: fields live in TraceEvent's fixed array and
/// only entries [0, field_count) are ever written or read, so default
/// construction must not cost a 320-byte clear at every emission site.
/// The value members share storage — with() writes exactly one of them and
/// readers dispatch on `type` to touch only the matching member, so the
/// union keeps every contract while making the field (and therefore the
/// flight recorder's per-event copy) 24 bytes instead of 40.
struct TraceField {
  enum class Type : std::uint8_t { kNone = 0, kUint, kDouble, kString, kBool };

  const char* key;
  Type type;
  union {
    std::uint64_t u;
    double d;
    const char* s;
    bool b;
  };
};
static_assert(sizeof(TraceField) == 24);

/// A trace record: when, where, what, plus a bounded payload. Build with
/// the fluent with() calls; excess fields beyond kMaxTraceFields abort
/// (payloads are chosen statically at the emission site).
struct TraceEvent {
  SimTime time = 0.0;
  /// kInvalidNode marks system-wide records (engine steps, system samples).
  NodeId node = kInvalidNode;
  EventKind kind = EventKind::kCount;
  std::uint32_t field_count = 0;
  /// Entries past field_count are uninitialized — see TraceField.
  std::array<TraceField, kMaxTraceFields> fields;

  TraceEvent() = default;
  TraceEvent(SimTime t, NodeId n, EventKind k) : time(t), node(n), kind(k) {}

  template <typename T>
  TraceEvent& with(const char* key, T value) {
    TraceField& field = next(key);
    if constexpr (std::is_same_v<T, bool>) {
      field.type = TraceField::Type::kBool;
      field.u = 0;  // all eight value bytes defined, as for the other types
      field.b = value;
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      field.type = TraceField::Type::kUint;
      field.u = static_cast<std::uint64_t>(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      field.type = TraceField::Type::kDouble;
      field.d = value;
    } else {
      static_assert(std::is_convertible_v<T, const char*>,
                    "trace field values are numbers, bools or C strings");
      field.type = TraceField::Type::kString;
      field.s = value;
    }
    return *this;
  }

 private:
  TraceField& next(const char* key) {
    if (field_count >= kMaxTraceFields) [[unlikely]] payload_too_large();
    TraceField& field = fields[field_count++];
    field.key = key;
    return field;
  }
  [[noreturn]] static void payload_too_large();
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay allocation-free");

/// Receiver of trace events. Implementations decide representation
/// (JSONL file, in-memory vector, ...). Sinks used from the threaded
/// Agile runtime must make on_event() thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// In-memory sink for tests and tooling. Not thread-safe: use with the
/// single-threaded simulation harness.
class MemorySink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  std::size_t count(EventKind kind) const;
  /// Events of `node` in emission order (which is time order under the
  /// deterministic engine).
  std::vector<TraceEvent> events_of(NodeId node) const;

  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// The facade instrumented code holds. Default-constructed it is inert:
/// active() is false and emit() is a no-op, which is the zero-overhead
/// null-sink path every benchmark runs on.
class Tracer {
 public:
  bool active() const { return sink_ != nullptr; }

  /// `sink` is borrowed and must outlive all emissions; nullptr disables.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  void emit(const TraceEvent& event) const {
    if (sink_ != nullptr) sink_->on_event(event);
  }

  void flush() const {
    if (sink_ != nullptr) sink_->flush();
  }

  /// How issue_id() hands out lineage ids. kSingleWriter (the default,
  /// one per Simulation) loads and stores the counter: the simulation
  /// emits from one thread and must not pay a locked read-modify-write
  /// per message event. kShared uses fetch_add, for a tracer that several
  /// threads emit through (the agile cluster's reactors).
  enum class IdMode : std::uint8_t { kSingleWriter, kShared };

  Tracer() = default;
  explicit Tracer(IdMode ids) : shared_ids_(ids == IdMode::kShared) {}

  /// Allocates the next lineage event id (1-based; 0 means "no lineage").
  /// Events that produce messages carry their id in an "id" payload field,
  /// and the message carries it as its cause_id, so receive-side events can
  /// point back at their producer and episodes form an explicit causality
  /// DAG. The counter is per-Tracer (one per Simulation), so sweeps stay
  /// byte-identical across --jobs values; callers only allocate on traced
  /// paths, so untraced runs never touch it.
  std::uint64_t issue_id() {
    if (shared_ids_) {
      return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    const std::uint64_t id = next_id_.load(std::memory_order_relaxed) + 1;
    next_id_.store(id, std::memory_order_relaxed);
    return id;
  }
  /// Lineage ids allocated so far (the last id handed out).
  std::uint64_t issued_ids() const {
    return next_id_.load(std::memory_order_relaxed);
  }

 private:
  TraceSink* sink_ = nullptr;
  bool shared_ids_ = false;
  std::atomic<std::uint64_t> next_id_{0};
};

}  // namespace realtor::obs

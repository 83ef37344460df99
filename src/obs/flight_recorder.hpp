// Always-on binary flight recorder.
//
// JSONL tracing makes every run inspectable but costs a string format and
// a stream write per event — far too much to leave enabled at the 10k-node
// scale. The flight recorder is the cheap alternative that can stay on:
// each source (one per simulation, one per agile host) copies raw trace
// events into a bounded ring that overwrites its oldest entries, so
// steady-state cost is one bounded memcpy per event (header plus only the
// fields the event carries) and memory stays capped at capacity × slot
// size (216 bytes). The slots are uninitialised storage, so making a ring
// touches none of them: a large ring's pages are committed as records
// land, and a run that records fewer events than the capacity never pays
// for the rest. When something interesting happens (an attack wave, end
// of run) the rings are packed into canonical fixed-width records and
// dumped to a compact binary file that flight_reader.hpp converts back
// into the exact event model the JSONL pipeline produces — realtor_trace,
// the span builder and the invariant checker run unchanged on dumps.
//
// No strings and no hashing on the hot path: payload keys and string
// values are const char* pointers to static storage (the TraceField
// contract), so the ring stores the pointers as-is and defers interning
// them into the dump's shared name table (16-bit ids, written once into
// the header) to dump time.
//
// Record layout (native-endian, fixed width):
//   FileHeader   magic "RLTRFLT1", name table, ring count
//   per ring     source id, recorded / dropped / stored counters,
//                `stored` Records oldest → newest
//   Record       {f64 time, u64 episode, u32 node, u8 kind,
//                 u8 field_count, u16 pad, 8 × Field} — 152 bytes
//   Field        {u64 bits, u16 key id, u8 type, 5 pad bytes} — 16 bytes
//
// The episode header slot duplicates the "episode" payload field (when the
// event carries one) so scans can filter by episode without touching the
// payload; the reader reconstructs events from the payload alone, keeping
// binary → JSONL round trips field-for-field identical.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace realtor::obs {

inline constexpr char kFlightMagic[8] = {'R', 'L', 'T', 'R',
                                         'F', 'L', 'T', '1'};
inline constexpr std::size_t kDefaultFlightCapacity = 65536;

/// Interns const char* → dense u16 id, first-encounter order. Two pointers
/// with equal content get distinct ids (only content matters to the
/// reader, which maps ids back to the stored bytes). Interning goes
/// through a Session, which holds the table's mutex for a whole batch:
/// FlightRing::snapshot() opens one per ring, so packing takes one lock
/// per snapshot rather than one per field, and never runs on the event
/// hot path.
class NameTable {
 public:
  class Session {
   public:
    explicit Session(NameTable& table) : table_(table), lock_(table.mutex_) {}
    std::uint16_t intern(const char* text);

   private:
    NameTable& table_;
    std::lock_guard<std::mutex> lock_;
  };

  /// Stable snapshot of the interned strings, id order.
  std::vector<std::string> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<const char*, std::uint16_t> ids_;
  std::vector<std::string> names_;
};

/// One packed payload entry: the value's raw bits plus the interned key.
/// u64 alignment pads the tail; the padding is zero-initialized so dumps
/// of one run are byte-identical.
struct FlightField {
  std::uint64_t bits = 0;
  std::uint16_t key = 0;
  std::uint8_t type = 0;  // TraceField::Type
  std::array<std::uint8_t, 5> pad{};
};
static_assert(sizeof(FlightField) == 16);

/// One packed trace record. kInvalidNode is stored as 0xFFFFFFFF.
struct FlightRecord {
  double time = 0.0;
  std::uint64_t episode = 0;
  std::uint32_t node = 0;
  std::uint8_t kind = 0;
  std::uint8_t field_count = 0;
  std::uint16_t pad = 0;
  std::array<FlightField, kMaxTraceFields> fields{};
};
static_assert(sizeof(FlightRecord) == 24 + 16 * kMaxTraceFields);

/// Per-ring counters as serialized into a dump.
struct FlightRingInfo {
  std::uint64_t source = 0;
  std::uint64_t recorded = 0;  // total on_event() calls
  std::uint64_t dropped = 0;   // overwritten by wrap-around
  std::uint64_t stored = 0;    // records present in the dump
};

/// Fixed-capacity overwrite-oldest ring behind the TraceSink interface.
/// The hot path is "record now, understand later": on_event() copies the
/// raw TraceEvent (header plus the fields it actually carries — pointers
/// to static strings stay pointers) into the next slot and bumps a
/// counter. The slot array is allocated, never constructed: a slot is
/// first written by the event that lands in it, and snapshot() reads only
/// slots that hold a record. Interning, episode lifting and canonical
/// FlightRecord packing all happen at snapshot()/dump() time, which runs
/// once per attack or exit rather than once per event; a snapshot holds
/// the ring's mutex (thread-safe rings) and the name table's lock once for
/// the whole ring. Single-writer by default (the deterministic
/// simulation); pass thread_safe=true when the writer and the dumper are
/// different threads (agile: reactor threads write, the driver dumps).
class FlightRing final : public TraceSink {
 public:
  FlightRing(std::uint64_t source, std::size_t capacity, NameTable& names,
             bool thread_safe = false);
  ~FlightRing() override;
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  void on_event(const TraceEvent& event) override;

  std::uint64_t source() const { return source_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    const std::uint64_t head = recorded();
    return head > capacity_ ? head - capacity_ : 0;
  }

  /// Current content oldest → newest packed into canonical FlightRecords
  /// (replacing `out`'s content), plus the counters at snapshot time.
  /// Interns every key and string value under one name-table lock.
  FlightRingInfo snapshot(std::vector<FlightRecord>& out) const;

 private:
  std::uint64_t source_;
  NameTable& names_;
  std::size_t capacity_;
  TraceEvent* slots_;  // uninitialised; a slot is written before it is read
  std::atomic<std::uint64_t> head_{0};
  std::size_t cursor_ = 0;  // head_ mod capacity, wrap-maintained
  bool thread_safe_;
  mutable std::mutex mutex_;  // used only when thread_safe_
};

/// A set of rings sharing one name table, dumpable as one file.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity_per_ring =
                              kDefaultFlightCapacity)
      : capacity_(capacity_per_ring == 0 ? 1 : capacity_per_ring) {}

  /// Creates (first call) or returns the ring for `source`. Rings live as
  /// long as the recorder; creation is not thread-safe — make every ring
  /// before the writers start.
  FlightRing& ring(std::uint64_t source, bool thread_safe = false);

  std::size_t capacity_per_ring() const { return capacity_; }
  std::size_t ring_count() const { return rings_.size(); }
  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;

  /// Writes every ring's current content to `path`. Safe to call
  /// mid-flight (attack dumps) and again later (exit dump). Every ring is
  /// snapshotted first (that completes the name table), then the small
  /// header is written from a buffer and each ring's info and packed
  /// records straight from its snapshot vector — the dump is never copied
  /// whole in memory. Returns false with "cannot write <path>" when the
  /// file cannot be opened, "short write to <path>" when a write or the
  /// close fails.
  bool dump(const std::string& path, std::string* error = nullptr) const;

 private:
  std::size_t capacity_;
  NameTable names_;
  std::vector<std::unique_ptr<FlightRing>> rings_;
};

/// Owning single-ring recorder that dumps to a fixed path on flush() (and
/// on destruction when never flushed) — the per-run sink shape sweeps
/// need: experiment::run_one flushes after the run and destroys the sink.
class FlightDumpSink final : public TraceSink {
 public:
  FlightDumpSink(std::string path, std::size_t capacity);

  void on_event(const TraceEvent& event) override {
    recorder_.ring(0).on_event(event);
  }
  void flush() override;
  ~FlightDumpSink() override;

  const FlightRecorder& recorder() const { return recorder_; }

 private:
  std::string path_;
  FlightRecorder recorder_;
  bool dumped_ = false;
};

}  // namespace realtor::obs

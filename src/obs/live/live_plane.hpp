// The live telemetry plane: a TraceSink that tees the event stream into
// sliding windows, evaluates alert rules, and writes Prometheus-text
// exposition snapshots — while forwarding every event to an optional
// downstream sink (JSONL, flight ring, ...).
//
// Determinism contract. The plane holds no clock of its own: windows
// advance and rules evaluate only on live_tick trace events, which the
// simulation engine emits at ScenarioConfig::live_cadence boundaries.
// Every number in a snapshot and every alert transition is therefore a
// pure function of the trace-event stream — and the stream is already
// byte-identical across --jobs values and --exec=thread|fork (the
// warm-start executor replays the shared prefix into each forked child's
// sink, live_tick events included, so a fresh child plane regenerates
// exactly the window state the thread path built live). Fixed seed in,
// identical exposition file and identical alert_firing events out,
// regardless of parallelism.
//
// Overhead contract: same as Tracer — nothing is attached when live
// telemetry is off, so untraced/not-live runs pay only the existing
// active() pointer test. When on, ingest is a switch plus a few window
// pushes per event; the perf_regression obs matrix gates the paired
// overhead at the flight recorder's <=5% budget.
//
// Not thread-safe: one plane per single-threaded simulation run, or one
// per agile::Cluster run, whose tracer sink serializes the reactor
// threads and the workload driver on a mutex around on_event(). The
// cluster's driver emits the live_tick events there, so only the tick
// timing is wall-clock; every number is still computed from events.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/live/rules.hpp"
#include "obs/live/window.hpp"
#include "obs/trace.hpp"

namespace realtor::obs::live {

struct LiveConfig {
  /// Exposition destination: a file path, "fd:<n>" (an inherited file
  /// descriptor), "-" (stdout), or empty (no exposition — rules still
  /// evaluate and alert events still flow downstream).
  std::string out;
  /// Default time-window span (sim seconds) for rate/latency signals.
  double window = 30.0;
  /// Rule specs (rules.hpp grammar). Empty = default_alert_rules().
  std::vector<std::string> rules;
  /// Topology size hint for the nodes_alive gauge (0 = unknown, gauge
  /// reports kills/restores relative to 0).
  std::uint64_t node_count = 0;
  /// true: write each snapshot to `out` as it is produced (single-run
  /// operator mode). File targets are rewritten in place so the file
  /// always holds the latest scrapeable snapshot; fd/stdout targets
  /// append. false: buffer the whole snapshot history in memory and
  /// write it on flush() — what sweep runs use, so forked children
  /// regenerate the full history from the replayed prefix and produce
  /// byte-identical files.
  bool write_through = false;
};

/// Called on every alert transition (realtor_sim uses it for
/// dump-on-alert into the flight recorder).
using AlertListener = std::function<void(
    const AlertRule& rule, bool firing, SimTime time, double value)>;

class LivePlane final : public TraceSink {
 public:
  /// `downstream` is borrowed (may be nullptr); set_owned_downstream()
  /// hands the plane ownership instead (sweep factory composition).
  explicit LivePlane(LiveConfig config, TraceSink* downstream = nullptr);
  ~LivePlane() override;

  /// False when a rule spec failed to parse or the exposition target
  /// could not be opened; error() explains.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void set_owned_downstream(std::unique_ptr<TraceSink> downstream);
  /// Borrowed downstream (must outlive the plane); nullptr detaches.
  void set_downstream(TraceSink* downstream) { downstream_ = downstream; }
  void set_alert_listener(AlertListener listener) {
    alert_listener_ = std::move(listener);
  }

  void on_event(const TraceEvent& event) override;
  /// Writes the buffered exposition (buffered mode) and flushes the
  /// downstream sink.
  void flush() override;

  // Introspection (tests, tools).
  std::uint64_t snapshots() const { return snapshots_; }
  std::uint64_t alerts_fired() const { return alerts_fired_; }
  std::uint64_t events_seen() const { return events_seen_; }
  std::size_t open_episodes() const { return open_.size(); }
  /// Exposition text accumulated so far (buffered mode only).
  const std::string& exposition() const { return text_; }
  /// Current firing state of rule `name`; false for unknown rules.
  bool alert_firing(const std::string& name) const;
  std::vector<AlertRule> rules() const;

 private:
  struct RuleState {
    AlertRule rule;
    bool firing = false;
    double last_value = 0.0;
    /// Count-windowed signals own a tail window; rate/latency signals own
    /// a sliding window; gauges own neither.
    std::optional<TailWindow> tail;
    std::optional<SlidingWindow> sliding;
  };

  void ingest(const TraceEvent& event);
  void on_decision(SimTime now, bool admitted, std::uint64_t episode);
  void on_message(SimTime now, RuleSignal rated_signal);
  void feed_rated(RuleSignal signal, SimTime now);
  void tick(SimTime now, bool final_tick);
  double evaluate(RuleState& state, SimTime now, double* effective_bound);
  void emit_downstream(const TraceEvent& event);
  void write_snapshot(SimTime now, bool final_tick);
  void render_snapshot(std::string& out, SimTime now, bool final_tick);
  void fail(const std::string& message);

  LiveConfig config_;
  TraceSink* downstream_ = nullptr;
  std::unique_ptr<TraceSink> owned_downstream_;
  AlertListener alert_listener_;
  bool ok_ = true;
  std::string error_;

  std::vector<RuleState> rules_;

  // Default exposition windows.
  TailWindow decisions_;
  SlidingWindow helps_;
  SlidingWindow messages_;
  SlidingWindow rejections_;
  SlidingWindow episode_latency_;

  // Gauges derived from the stream.
  std::int64_t alive_ = 0;
  std::map<std::uint64_t, SimTime> open_;  // episode id -> open time
  std::array<std::uint64_t, static_cast<std::size_t>(EventKind::kCount)>
      kind_totals_{};
  std::uint64_t decisions_total_ = 0;
  std::uint64_t helps_total_ = 0;
  std::uint64_t messages_total_ = 0;
  std::uint64_t rejections_total_ = 0;

  std::uint64_t events_seen_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t alerts_fired_ = 0;

  // Exposition output.
  bool has_output_ = false;
  std::string text_;  // buffered mode: the whole snapshot history
  int fd_ = -1;       // "fd:<n>" target
  bool to_stdout_ = false;
};

}  // namespace realtor::obs::live

// Discovery-episode spans reconstructed from traces.
//
// An episode is the causal arc the paper's survivability argument rests
// on: an overloaded (or warned) node opens a HELP round, the flood
// solicits PLEDGEs that echo the round's id, and the admission controller
// later consults the resulting candidate list to migrate work — so
// "trigger → HELP → PLEDGE → migration" becomes one analyzable unit. The
// protocols stamp every such event with an obs::EpisodeSource id; this
// layer groups the stamped events back into Episode records and derives
// the latencies the end-of-run aggregates cannot show: time from the HELP
// to the first usable PLEDGE, and time from the HELP to the migration it
// enabled.
//
// One reduction, from a loaded EventStore (JSONL trace or flight dump,
// realtor_trace). Tests that record into a MemorySink render the events
// with append_jsonl and load them with load_trace_buffer, the same path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/event_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace realtor::obs {

/// One trace record reduced to the fields span/invariant analysis needs.
/// Absent numeric fields read as the documented sentinels, so checks never
/// confuse "missing" with a real 0.
struct SpanEvent {
  SimTime time = 0.0;
  NodeId node = kInvalidNode;
  EventKind kind = EventKind::kCount;
  /// Discovery episode; 0 = outside any episode (push adverts,
  /// unsolicited status pledges, pre-solicitation migrations).
  std::uint64_t episode = 0;
  /// The other node of the record: HELP origin, pledge organizer /
  /// pledger, migration target — whichever one key the kind carries.
  NodeId peer = kInvalidNode;
  /// Advertised free fraction (pledge events); negative = absent.
  double availability = -1.0;
  /// Algorithm-H solicitation interval (help_interval); negative = absent.
  double interval = -1.0;
  /// HELP degree of demand; negative = absent.
  double urgency = -1.0;
  /// help_received only: did the receiver pledge?
  bool answered = false;
  /// node_restored only: the node came back with its protocol state
  /// rebuilt (a cold restart), not carried across the outage.
  bool cold = false;
  /// Lineage id of this event ("id" field); 0 = no lineage (untraced
  /// producers or kinds outside the causal message path).
  std::uint64_t lineage = 0;
  /// Lineage id of the event that caused this one ("cause" field); 0 =
  /// root of its chain (help_sent, unsolicited sends).
  std::uint64_t cause = 0;
  /// help_sent only: Algorithm-H backoff — how long the interval gate
  /// suppressed qualifying demand before this HELP went out. Negative =
  /// absent (kinds without the field).
  double backoff = -1.0;
};

/// Reduces every record of `store`: payload keys are looked up once as
/// interned ids and kinds come from the interner's cached EventKind — no
/// per-event string comparisons. Unknown payload keys are ignored, and
/// records of unknown kinds are skipped, not treated as data.
std::vector<SpanEvent> normalize_events(const EventStore& store);

/// One reconstructed discovery episode.
struct Episode {
  std::uint64_t id = 0;
  /// The soliciting node (from help_sent; kInvalidNode if the trace
  /// started after the HELP, e.g. a truncated file).
  NodeId origin = kInvalidNode;
  /// Time of the opening help_sent.
  SimTime start_time = 0.0;
  bool started = false;
  double urgency = -1.0;
  std::uint64_t helps_received = 0;
  std::uint64_t pledges_sent = 0;
  std::uint64_t pledges_received = 0;
  SimTime first_pledge_time = -1.0;  // pledge_received at the origin
  std::uint64_t migration_attempts = 0;
  std::uint64_t migration_aborts = 0;
  std::uint64_t migrations = 0;
  /// First task_admit_migrated stamped with this episode (the admission
  /// decision that consumed the episode's pledges); negative = none.
  SimTime first_admission_time = -1.0;
  /// deadline_miss / unreachable_drop records stamped with this episode.
  std::uint64_t deadline_misses = 0;
  std::uint64_t unreachable_drops = 0;
  SimTime first_migration_time = -1.0;
  NodeId first_migration_target = kInvalidNode;
  std::uint64_t rejections = 0;  // task_rejected stamped with this episode

  bool has_pledge() const { return first_pledge_time >= 0.0; }
  /// HELP-to-first-pledge latency; meaningless unless started && has_pledge.
  SimTime time_to_first_pledge() const {
    return first_pledge_time - start_time;
  }
  bool has_migration() const { return first_migration_time >= 0.0; }
  SimTime time_to_migration() const {
    return first_migration_time - start_time;
  }
  bool has_admission() const { return first_admission_time >= 0.0; }
};

/// Groups episode-stamped events by id, ascending. Events with episode 0
/// are ignored; events must be in emission (time) order.
std::vector<Episode> build_episodes(const std::vector<SpanEvent>& events);

/// Aggregate latency view over a set of episodes — the percentile report
/// behind `realtor_trace --episodes`.
struct EpisodeSummary {
  std::uint64_t episodes = 0;
  std::uint64_t with_pledge = 0;
  std::uint64_t with_migration = 0;
  Histogram time_to_first_pledge;
  Histogram time_to_migration;
};

EpisodeSummary summarize_episodes(const std::vector<Episode>& episodes);

}  // namespace realtor::obs

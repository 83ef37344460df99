// Survivability scorecard: "how well did we survive this attack?" as a
// first-class report derived from any trace (JSONL or flight-recorder
// dump).
//
// Per attack wave (all node_killed records sharing one timestamp):
//   - the warning time (earliest victim solicitation before the kill; the
//     kill itself when the wave struck without grace),
//   - what was at stake (tasks resident on the victims) and what perished,
//   - the recovery work attributed to the wave: discovery episodes opened
//     by victims inside the wave's window, their pledges, and the
//     migrations that re-homed displaced work,
//   - MTTR: warning → last attributed migration_success, i.e. how long
//     until displaced work had found a new home,
//   - deadline misses and partition-dropped unicasts inside the window.
//
// Across all episodes, the discovery→pledge→admission→migration stage
// breakdown as reservoir-histogram percentiles:
//   help_to_pledge          help_sent → first pledge_received
//   pledge_to_admission     first pledge → task_admit_migrated decision
//   admission_to_migration  decision → registered migration_success
//   help_to_migration       the full arc
//
// Rendering is byte-deterministic (std::to_chars shortest doubles, fixed
// field order), so repeated runs of one seed produce identical JSON — the
// property the scorecard tests pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/event_store.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace realtor::obs {

struct AttackReport {
  std::size_t index = 0;
  SimTime warn_time = 0.0;
  SimTime kill_time = 0.0;
  std::vector<NodeId> victims;  // ascending
  /// Tasks that perished with the victims (node_killed "lost").
  std::uint64_t lost = 0;
  /// Evacuation totals over the wave's victims.
  std::uint64_t evac_resident = 0;
  std::uint64_t evac_saved = 0;
  /// Discovery episodes opened by victims inside the wave window.
  std::uint64_t episodes = 0;
  std::uint64_t pledges = 0;  // pledge_received in attributed episodes
  /// migration_success records on victims inside the window.
  std::uint64_t migrations = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t unreachable_drops = 0;
  /// warn_time → last attributed migration; negative = nothing re-homed.
  SimTime mttr = -1.0;
  bool has_mttr() const { return mttr >= 0.0; }
  /// No work perished with the nodes.
  bool recovered = false;
};

/// Per-episode deadline-miss / unreachable-drop attribution (only
/// episodes where either count is nonzero).
struct EpisodeAttribution {
  std::uint64_t episode = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t unreachable_drops = 0;
};

struct Scorecard {
  std::uint64_t records = 0;
  std::uint64_t episodes = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t unreachable_drops = 0;
  Histogram help_to_pledge;
  Histogram pledge_to_admission;
  Histogram admission_to_migration;
  Histogram help_to_migration;
  std::vector<AttackReport> attacks;
  std::vector<EpisodeAttribution> episode_attribution;  // ascending id
};

/// Builds the scorecard from a loaded trace (JSONL or flight dump).
/// Events must be in time order (both loaders guarantee it).
Scorecard build_scorecard(const EventStore& store);

/// Machine-readable form; byte-identical for identical inputs.
std::string render_scorecard_json(const Scorecard& scorecard);

/// Human-readable form (realtor_trace --scorecard default output).
std::string render_scorecard_text(const Scorecard& scorecard);

}  // namespace realtor::obs

#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <locale>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/format.hpp"
#include "obs/metrics.hpp"

namespace realtor::obs {
namespace {

/// Chain-walk safety cap: a lineage chain longer than this can only be a
/// corrupt trace (cycles are impossible in well-formed output because ids
/// are allocated monotonically and causes point backward).
constexpr std::size_t kMaxChain = 4096;

Phase classify(EventKind from, EventKind to) {
  using K = EventKind;
  if (from == K::kHelpSent && to == K::kHelpReceived) {
    return Phase::kFloodPropagation;
  }
  if (from == K::kHelpReceived && to == K::kPledgeSent) {
    return Phase::kPledgeWait;
  }
  if (from == K::kPledgeSent && to == K::kPledgeReceived) {
    return Phase::kPledgeWait;
  }
  if ((from == K::kPledgeReceived || from == K::kMigrationAbort) &&
      to == K::kMigrationAttempt) {
    return Phase::kAdmissionDecision;
  }
  if (from == K::kMigrationAttempt &&
      (to == K::kMigrationSuccess || to == K::kMigrationAbort)) {
    return Phase::kMigrationTransfer;
  }
  if ((from == K::kMigrationSuccess && to == K::kTaskAdmitMigrated) ||
      (from == K::kMigrationAbort && to == K::kTaskRejected)) {
    return Phase::kAdmissionDecision;
  }
  return Phase::kUnattributed;
}

/// Terminal preference: the admission record that consumed the episode
/// beats the raw migration outcome beats the first returned pledge.
int terminal_rank(EventKind kind) {
  switch (kind) {
    case EventKind::kTaskAdmitMigrated:
      return 3;
    case EventKind::kMigrationSuccess:
      return 2;
    case EventKind::kPledgeReceived:
      return 1;
    default:
      return 0;
  }
}

void append_row(std::ostringstream& out, const char* name,
                const Histogram& h) {
  // Widest row: a 20-column name, a 20-digit count and five 31-char
  // numbers, each after a space (205 bytes with the terminator).
  char row[224];
  const OnlineStats& stats = h.stats();
  // Locale-independent doubles; the %12s widths reproduce the historical
  // %12.3f padding byte for byte.
  char mean[32], p50[32], p90[32], p99[32], max[32];
  format_double(mean, sizeof mean, "%.3f",
                stats.count() > 0 ? stats.mean() * 1e3 : 0.0);
  format_double(p50, sizeof p50, "%.3f", h.p50() * 1e3);
  format_double(p90, sizeof p90, "%.3f", h.p90() * 1e3);
  format_double(p99, sizeof p99, "%.3f", h.p99() * 1e3);
  format_double(max, sizeof max, "%.3f",
                stats.count() > 0 ? stats.max() * 1e3 : 0.0);
  std::snprintf(row, sizeof(row),
                "  %-20s %8llu %12s %12s %12s %12s %12s\n", name,
                static_cast<unsigned long long>(stats.count()), mean, p50,
                p90, p99, max);
  out << row;
}

}  // namespace

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kBackoff:
      return "algo_h_backoff";
    case Phase::kFloodPropagation:
      return "flood_propagation";
    case Phase::kPledgeWait:
      return "pledge_wait";
    case Phase::kAdmissionDecision:
      return "admission_decision";
    case Phase::kMigrationTransfer:
      return "migration_transfer";
    case Phase::kUnattributed:
      return "unattributed";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

CriticalPathAnalysis analyze_critical_paths(
    const std::vector<SpanEvent>& events) {
  CriticalPathAnalysis analysis;

  std::unordered_map<std::uint64_t, std::size_t> by_lineage;
  by_lineage.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].lineage != 0) by_lineage.emplace(events[i].lineage, i);
  }

  // Pick each episode's terminal: highest rank, then earliest (events are
  // time-ordered, so the first sighting of a rank is the earliest one).
  std::map<std::uint64_t, std::size_t> terminal_of;  // ordered by episode
  std::map<std::uint64_t, bool> episode_seen;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& event = events[i];
    if (event.episode == 0) continue;
    episode_seen[event.episode] = true;
    const int rank = terminal_rank(event.kind);
    if (rank == 0 || event.lineage == 0) continue;
    const auto it = terminal_of.find(event.episode);
    if (it == terminal_of.end() ||
        rank > terminal_rank(events[it->second].kind)) {
      terminal_of.emplace(event.episode, i).first->second = i;
    }
  }
  analysis.episodes_without_terminal =
      episode_seen.size() - terminal_of.size();

  for (const auto& [episode, terminal_index] : terminal_of) {
    // Walk the cause chain backward from the terminal.
    std::vector<std::size_t> chain;
    std::size_t cursor = terminal_index;
    chain.push_back(cursor);
    while (chain.size() < kMaxChain) {
      const std::uint64_t cause = events[cursor].cause;
      if (cause == 0) break;
      const auto it = by_lineage.find(cause);
      if (it == by_lineage.end()) {
        ++analysis.unresolved_causes;
        break;
      }
      // Stale evidence: an admission may cite the last pledge a node
      // received, which can belong to an earlier solicitation round. The
      // path stays within its own episode, so latency attribution never
      // reaches back across episodes.
      if (events[it->second].episode != episode) break;
      cursor = it->second;
      chain.push_back(cursor);
    }
    std::reverse(chain.begin(), chain.end());

    EpisodePath path;
    path.episode = episode;
    const SpanEvent& root = events[chain.front()];
    const SpanEvent& terminal = events[chain.back()];
    path.origin = root.node;
    path.root_kind = root.kind;
    path.terminal_kind = terminal.kind;
    path.start = root.time;
    path.end = terminal.time;
    if (root.kind == EventKind::kHelpSent && root.backoff > 0.0) {
      path.backoff = root.backoff;
    }
    path.edges.reserve(chain.size() - 1);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const SpanEvent& from = events[chain[i]];
      const SpanEvent& to = events[chain[i + 1]];
      CriticalEdge edge;
      edge.phase = classify(from.kind, to.kind);
      edge.from_kind = from.kind;
      edge.to_kind = to.kind;
      edge.from_node = from.node;
      edge.to_node = to.node;
      edge.from_time = from.time;
      edge.to_time = to.time;
      edge.episode = episode;
      path.edges.push_back(edge);
    }
    analysis.paths.push_back(std::move(path));
  }
  return analysis;
}

std::string render_critical_path(const CriticalPathAnalysis& analysis) {
  std::ostringstream out;
  out.imbue(std::locale::classic());  // no grouping under exotic globals
  out << "critical paths: " << analysis.paths.size() << " episodes ("
      << analysis.episodes_without_terminal << " without terminal, "
      << analysis.unresolved_causes << " unresolved causes)\n";

  Histogram per_phase[static_cast<std::size_t>(Phase::kCount)];
  Histogram totals;
  for (const EpisodePath& path : analysis.paths) {
    totals.observe(path.total());
    if (path.root_kind == EventKind::kHelpSent) {
      per_phase[static_cast<std::size_t>(Phase::kBackoff)].observe(
          path.backoff);
    }
    for (const CriticalEdge& edge : path.edges) {
      per_phase[static_cast<std::size_t>(edge.phase)].observe(
          edge.duration());
    }
  }

  if (analysis.paths.empty()) return out.str();
  out << "  phase                   count      mean_ms       p50_ms"
         "       p90_ms       p99_ms       max_ms\n";
  for (std::size_t p = 0; p < static_cast<std::size_t>(Phase::kCount); ++p) {
    if (per_phase[p].stats().count() == 0) continue;
    append_row(out, to_string(static_cast<Phase>(p)), per_phase[p]);
  }
  append_row(out, "total", totals);
  return out.str();
}

std::string render_blame(const CriticalPathAnalysis& analysis,
                         std::size_t top_k) {
  std::vector<const CriticalEdge*> edges;
  for (const EpisodePath& path : analysis.paths) {
    for (const CriticalEdge& edge : path.edges) edges.push_back(&edge);
  }
  std::sort(edges.begin(), edges.end(),
            [](const CriticalEdge* a, const CriticalEdge* b) {
              if (a->duration() != b->duration()) {
                return a->duration() > b->duration();
              }
              if (a->episode != b->episode) return a->episode < b->episode;
              return a->from_time < b->from_time;
            });
  if (edges.size() > top_k) edges.resize(top_k);

  std::ostringstream out;
  out.imbue(std::locale::classic());  // no grouping under exotic globals
  out << "blame: top " << edges.size() << " slowest edges\n";
  char row[224];
  for (const CriticalEdge* edge : edges) {
    char dur[32], from_t[40], to_t[40];
    format_double(dur, sizeof dur, "%.3f", edge->duration() * 1e3);
    format_double(from_t, sizeof from_t, "%.6f", edge->from_time);
    format_double(to_t, sizeof to_t, "%.6f", edge->to_time);
    std::snprintf(row, sizeof(row),
                  "  %10s ms  ep %-6llu %-18s %s@%u t=%s -> %s@%u "
                  "t=%s\n",
                  dur, static_cast<unsigned long long>(edge->episode),
                  to_string(edge->phase), to_string(edge->from_kind),
                  edge->from_node, from_t, to_string(edge->to_kind),
                  edge->to_node, to_t);
    out << row;
  }
  return out.str();
}

std::vector<std::string> check_critical_paths(
    const CriticalPathAnalysis& analysis) {
  std::vector<std::string> violations;
  char buf[192];
  for (const EpisodePath& path : analysis.paths) {
    double edge_sum = 0.0;
    for (std::size_t i = 0; i < path.edges.size(); ++i) {
      const CriticalEdge& edge = path.edges[i];
      if (edge.to_time < edge.from_time) {
        std::snprintf(buf, sizeof(buf),
                      "episode %llu: edge %zu runs backward in time",
                      static_cast<unsigned long long>(path.episode), i);
        violations.emplace_back(buf);
      }
      if (i > 0 && edge.from_time != path.edges[i - 1].to_time) {
        std::snprintf(buf, sizeof(buf),
                      "episode %llu: edge %zu is not contiguous with its "
                      "predecessor",
                      static_cast<unsigned long long>(path.episode), i);
        violations.emplace_back(buf);
      }
      edge_sum += edge.duration();
    }
    if (std::abs(edge_sum - (path.end - path.start)) > 1e-9) {
      char sum[40], span[40];
      format_double(sum, sizeof sum, "%.9f", edge_sum);
      format_double(span, sizeof span, "%.9f", path.end - path.start);
      std::snprintf(buf, sizeof(buf),
                    "episode %llu: edge durations sum to %s, span is %s",
                    static_cast<unsigned long long>(path.episode), sum,
                    span);
      violations.emplace_back(buf);
    }
    if (path.backoff < 0.0) {
      std::snprintf(buf, sizeof(buf), "episode %llu: negative backoff",
                    static_cast<unsigned long long>(path.episode));
      violations.emplace_back(buf);
    }
  }
  return violations;
}

}  // namespace realtor::obs

#include "obs/invariants.hpp"

#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/format.hpp"

namespace realtor::obs {
namespace {

/// Expands the "%g" conversions of `fmt` with the leading arguments in
/// order. Every catalog detail uses only %g, and routing each conversion
/// through format_double keeps violation messages byte-identical across
/// process locales (a comma radix would garble the CI --check output).
std::string format_detail(const char* fmt, double a, double b = 0.0,
                          double c = 0.0, double d = 0.0) {
  const double args[4] = {a, b, c, d};
  std::size_t next = 0;
  std::string out;
  char buf[32];
  for (const char* p = fmt; *p != '\0'; ++p) {
    if (p[0] == '%' && p[1] == 'g' && next < 4) {
      const int n = format_double(buf, sizeof buf, "%g", args[next++]);
      if (n > 0) out.append(buf, static_cast<std::size_t>(n));
      ++p;
      continue;
    }
    out += *p;
  }
  return out;
}

class Checker {
 public:
  explicit Checker(const InvariantConfig& config) : config_(config) {}

  void feed(const SpanEvent& event) {
    switch (event.kind) {
      case EventKind::kHelpSent:
        on_help_sent(event);
        break;
      case EventKind::kHelpInterval:
        on_interval(event);
        break;
      case EventKind::kPledgeSent:
        on_pledge_sent(event);
        break;
      case EventKind::kPledgeReceived:
        on_pledge_received(event);
        break;
      case EventKind::kMigrationSuccess:
        on_migration(event);
        break;
      case EventKind::kCommunityJoin:
        joined_.insert({event.node, event.peer});
        break;
      case EventKind::kCommunityExpire:
        on_expire(event);
        break;
      case EventKind::kNodeRestored:
        if (event.cold) cold_restored_.insert(event.node);
        break;
      default:
        break;
    }
  }

  std::vector<Violation> take() { return std::move(violations_); }

 private:
  void report(const char* invariant, const SpanEvent& event,
              std::string detail) {
    violations_.push_back(
        Violation{invariant, event.time, event.node, std::move(detail)});
  }

  double tracked_interval(NodeId node) const {
    const auto it = interval_.find(node);
    return it != interval_.end() ? it->second
                                 : config_.initial_help_interval;
  }

  void check_bounds(const SpanEvent& event, double interval) {
    if (interval < config_.help_interval_floor - config_.tolerance ||
        interval > config_.help_upper_limit + config_.tolerance) {
      report("help_interval_bounds", event,
             format_detail("interval %g outside [%g, %g]", interval,
                           config_.help_interval_floor,
                           config_.help_upper_limit));
    }
  }

  void on_help_sent(const SpanEvent& event) {
    if (event.interval >= 0.0) check_bounds(event, event.interval);
    if (event.episode > 0) {
      auto [it, inserted] = last_episode_.try_emplace(event.node, 0);
      if (!inserted && event.episode <= it->second) {
        report("episode_monotone", event,
               format_detail("help episode %g not above previous %g",
                             static_cast<double>(event.episode),
                             static_cast<double>(it->second)));
      }
      it->second = event.episode;
      opened_[event.node].insert(event.episode);
    }
  }

  double grow_step(double prev) const {
    const double grown = prev + prev * config_.alpha;
    return grown < config_.help_upper_limit ? grown
                                            : config_.help_upper_limit;
  }

  double shrink_step(double prev) const {
    const double shrunk = prev - prev * config_.beta;
    return shrunk > config_.help_interval_floor ? shrunk
                                                : config_.help_interval_floor;
  }

  bool is_step(double prev, double interval) const {
    return std::fabs(interval - grow_step(prev)) <= config_.tolerance ||
           std::fabs(interval - shrink_step(prev)) <= config_.tolerance;
  }

  void on_interval(const SpanEvent& event) {
    if (event.interval < 0.0) return;
    check_bounds(event, event.interval);
    const double prev = tracked_interval(event.node);
    // After a cold restore the first move may also start over from the
    // initial interval: the restarted node's Algorithm H was rebuilt.
    const bool restarted = cold_restored_.erase(event.node) > 0 &&
                           is_step(config_.initial_help_interval,
                                   event.interval);
    if (!restarted && !is_step(prev, event.interval)) {
      report("help_interval_step", event,
             format_detail("interval %g from %g is neither the alpha step "
                           "%g nor the beta step %g",
                           event.interval, prev, grow_step(prev),
                           shrink_step(prev)));
    }
    interval_[event.node] = event.interval;
  }

  void on_pledge_sent(const SpanEvent& event) {
    if (event.episode == 0) return;  // unsolicited status update: exempt
    if (event.availability < 0.0) return;
    const double min_avail = 1.0 - config_.pledge_threshold;
    if (event.availability < min_avail - config_.tolerance) {
      report("solicited_pledge_threshold", event,
             format_detail("solicited pledge with availability %g below %g "
                           "(sender was over the pledge threshold)",
                           event.availability, min_avail));
    }
  }

  void on_pledge_received(const SpanEvent& event) {
    if (event.peer != kInvalidNode) {
      pledgers_[event.node].insert(event.peer);
    }
    if (event.episode > 0) {
      const auto it = opened_.find(event.node);
      if (it == opened_.end() || it->second.count(event.episode) == 0) {
        report("episode_echo", event,
               format_detail("pledge echoes episode %g which node %g never "
                             "opened",
                             static_cast<double>(event.episode),
                             static_cast<double>(event.node)));
      }
    }
  }

  void on_migration(const SpanEvent& event) {
    if (event.episode == 0) return;  // push/gossip: no pledges by design
    if (event.peer == kInvalidNode) return;
    const auto it = pledgers_.find(event.node);
    if (it == pledgers_.end() || it->second.count(event.peer) == 0) {
      report("migration_has_pledge", event,
             format_detail("migration to node %g without a prior pledge "
                           "from it (episode %g)",
                           static_cast<double>(event.peer),
                           static_cast<double>(event.episode)));
    }
  }

  void on_expire(const SpanEvent& event) {
    const auto key = std::make_pair(event.node, event.peer);
    const auto it = joined_.find(key);
    if (it == joined_.end()) {
      report("community_expire_has_join", event,
             format_detail("membership in organizer %g expired without a "
                           "recorded join",
                           static_cast<double>(event.peer)));
      return;
    }
    joined_.erase(it);
  }

  InvariantConfig config_;
  std::vector<Violation> violations_;
  std::map<NodeId, double> interval_;
  std::map<NodeId, std::uint64_t> last_episode_;
  std::map<NodeId, std::set<std::uint64_t>> opened_;
  std::map<NodeId, std::set<NodeId>> pledgers_;
  std::set<std::pair<NodeId, NodeId>> joined_;
  std::set<NodeId> cold_restored_;  // no interval move since the restore
};

}  // namespace

std::vector<Violation> check_invariants(const std::vector<SpanEvent>& events,
                                        const InvariantConfig& config) {
  Checker checker(config);
  for (const SpanEvent& event : events) {
    checker.feed(event);
  }
  return checker.take();
}

std::vector<Violation> check_invariants(const EventStore& store,
                                        const InvariantConfig& config) {
  return check_invariants(normalize_events(store), config);
}

}  // namespace realtor::obs

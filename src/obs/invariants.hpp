// Checkable protocol invariants over traces — the correctness oracle
// behind `realtor_trace --check`.
//
// Each invariant is a property the paper's algorithms guarantee by
// construction; a trace that breaks one is evidence of an implementation
// bug (or a truncated/hand-edited file). The catalog:
//
//   help_interval_bounds       Algorithm H's solicitation interval stays
//                              inside [help_interval_floor,
//                              help_upper_limit] (Fig. 2's Upper_limit and
//                              the floor the reward rule respects).
//   help_interval_step         every interval change is one Fig. 2 move:
//                              grow by alpha (capped at the upper limit) on
//                              timeout, or shrink by beta (floored) on
//                              success — never an arbitrary jump. After
//                              a node_restored marked cold=true (the
//                              agile cluster rebuilds a restarted host's
//                              protocol), the node's first move may also
//                              step from the initial interval; a plain
//                              restore (the simulation keeps Algorithm H
//                              across an outage) continues the old walk.
//   solicited_pledge_threshold a node only answers HELP while below the
//                              pledge threshold (Fig. 3 first rule), so a
//                              solicited pledge (episode > 0) must
//                              advertise availability above
//                              1 - pledge_threshold. Unsolicited status
//                              pledges (episode 0) are exempt: crossing
//                              *up* deliberately advertises ~0.
//   migration_has_pledge       a migration attributed to a discovery
//                              episode only targets hosts that pledged to
//                              the organizer earlier (the candidate list is
//                              built from pledges). Push/gossip schemes
//                              never solicit, so their migrations carry
//                              episode 0 and are exempt.
//   community_expire_has_join  membership soft state only lapses after it
//                              existed: every community_expire for
//                              (node, organizer) follows a community_join.
//   episode_monotone           a node's successive HELP rounds carry
//                              strictly increasing episode ids (the shared
//                              counter never hands an id out twice).
//   episode_echo               a pledge_received's episode matches a HELP
//                              round previously opened by the receiving
//                              node — pledges cannot answer rounds that
//                              never happened.
#pragma once

#include <string>
#include <vector>

#include "obs/span.hpp"

namespace realtor::obs {

/// Protocol parameters the checks replay. Defaults mirror
/// proto::ProtocolConfig; override when the traced run did.
struct InvariantConfig {
  double initial_help_interval = 1.0;
  double help_upper_limit = 100.0;
  double help_interval_floor = 0.1;
  double alpha = 1.0;
  double beta = 0.5;
  double pledge_threshold = 0.9;
  /// Absolute slack for floating-point comparisons.
  double tolerance = 1e-6;
};

struct Violation {
  /// Catalog name (static storage), e.g. "help_interval_step".
  const char* invariant = "";
  SimTime time = 0.0;
  NodeId node = kInvalidNode;
  /// Human-readable specifics (observed vs expected values).
  std::string detail;
};

/// Runs the whole catalog over a normalized trace (events must be in
/// emission order). Empty result = trace is consistent.
std::vector<Violation> check_invariants(const std::vector<SpanEvent>& events,
                                        const InvariantConfig& config = {});

/// Convenience overload that normalizes first.
std::vector<Violation> check_invariants(const EventStore& store,
                                        const InvariantConfig& config = {});

}  // namespace realtor::obs

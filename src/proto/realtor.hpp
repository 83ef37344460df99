// REALTOR ("REsource ALlocaTOR") — the paper's contribution.
//
// "Combination of Push-.9 and Pull-100" (§5): the pull side is Algorithm H
// (adaptive HELP interval with reward/penalty and Upper_limit); the push
// side is Algorithm P (answer HELP when below threshold, and *additionally*
// send an unsolicited PLEDGE to every community this host belongs to
// whenever its own usage crosses the threshold in either direction —
// crossing up warns organizers we are no longer available, crossing down
// re-advertises capacity).
//
// All state is soft: pledge entries expire after a TTL, community
// membership lapses when HELP refreshes stop, and every message is
// idempotent — the stateless, inherently fault-tolerant design of §4.
#pragma once

#include "proto/algorithm_h.hpp"
#include "proto/algorithm_p.hpp"
#include "proto/community.hpp"
#include "proto/discovery_protocol.hpp"
#include "proto/pledge_list.hpp"
#include "sim/timer.hpp"

namespace realtor::proto {

class RealtorProtocol final : public DiscoveryProtocol {
 public:
  RealtorProtocol(NodeId self, const ProtocolConfig& config, ProtocolEnv env);

  const char* name() const override { return "realtor"; }

  void on_status_change(double occupancy) override;
  void on_task_arrival(double occupancy_with_task) override;
  void on_message(NodeId from, const Message& msg) override;
  using DiscoveryProtocol::migration_candidates;
  std::vector<NodeId> migration_candidates(
      const CandidateQuery& query) override;
  void on_migration_result(NodeId target, double fraction,
                           bool success) override;
  void on_self_killed() override;
  void solicit() override;
  ProtocolProbe probe(SimTime now) const override;

  // Introspection for tests and ablations.
  const AlgorithmH& algorithm_h() const { return algo_h_; }
  const PledgeList& pledge_list() const { return pledge_list_; }
  std::uint32_t community_count() { return membership_.count(now()); }
  std::uint64_t unsolicited_pledges() const { return unsolicited_pledges_; }

 private:
  void send_help(double urgency);
  void handle_help(const HelpMsg& help);
  void handle_pledge(const PledgeMsg& pledge);
  /// `communities` is the live membership count the pledge reports.
  /// `episode` is the id of the HELP round this pledge answers; 0 for the
  /// unsolicited threshold-crossing updates of Fig. 3's second rule.
  /// `cause` is the lineage id of the help_received event that triggered
  /// this pledge (0 for unsolicited pledges / untraced runs).
  void send_pledge_to(NodeId organizer, double occupancy,
                      std::uint32_t communities, std::uint64_t episode = 0,
                      std::uint64_t cause = 0);
  /// Emits a help_interval record attributing the change to `reason`
  /// ("timeout" / "reward"); no-op when untraced.
  void trace_interval(const char* reason) const;

  AlgorithmH algo_h_;           // organizer side: when to solicit
  AlgorithmP algo_p_;           // member side: when to pledge
  PledgeList pledge_list_;      // organizer side: who pledged to us
  CommunityMembership membership_;  // member side: whose HELPs we answered
  sim::Timer help_timer_;
  std::uint64_t unsolicited_pledges_ = 0;
};

}  // namespace realtor::proto

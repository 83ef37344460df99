#include "proto/realtor.hpp"

#include <algorithm>

#include "common/profile.hpp"

namespace realtor::proto {

namespace {
const char* crossing_name(node::Crossing crossing) {
  return crossing == node::Crossing::kUp ? "up" : "down";
}
}  // namespace

RealtorProtocol::RealtorProtocol(NodeId self, const ProtocolConfig& config,
                                 ProtocolEnv env)
    : DiscoveryProtocol(self, config, std::move(env)),
      algo_h_(config),
      algo_p_(config),
      pledge_list_(config.soft_state_ttl, config.availability_floor),
      membership_(config.soft_state_ttl, config.max_communities),
      help_timer_(*env_.engine) {}

void RealtorProtocol::trace_interval(const char* reason) const {
  if (!tracing()) return;
  trace(trace_event(obs::EventKind::kHelpInterval)
            .with("interval", algo_h_.interval())
            .with("reason", reason));
}

void RealtorProtocol::on_status_change(double occupancy) {
  if (!env_.topology->alive(self_)) return;
  const node::Crossing crossing = algo_p_.note_status(now(), occupancy);
  if (crossing == node::Crossing::kNone) return;
  if (tracing()) {
    trace(trace_event(obs::EventKind::kThresholdCrossing)
              .with("direction", crossing_name(crossing))
              .with("occupancy", occupancy)
              .with("threshold", algo_p_.threshold()));
  }
  // Fig. 3 second rule: status crossed the threshold — update every
  // community we belong to. Crossing up advertises (near-)zero
  // availability so organizers stop counting on us.
  if (tracing()) {
    std::vector<NodeId> expired;
    membership_.prune(now(), &expired);
    for (const NodeId organizer : expired) {
      trace(trace_event(obs::EventKind::kCommunityExpire)
                .with("organizer", organizer));
    }
  } else {
    membership_.prune(now());
  }
  const std::uint32_t communities = membership_.count(now());
  for (const NodeId organizer : membership_.active_organizers(now())) {
    send_pledge_to(organizer, occupancy, communities);
    ++unsolicited_pledges_;
  }
}

void RealtorProtocol::on_task_arrival(double occupancy_with_task) {
  if (!env_.topology->alive(self_)) return;
  if (!algo_h_.should_send_help(now(), occupancy_with_task)) {
    // Qualifying demand suppressed by the interval gate: remember when the
    // wait began so the eventual HELP can report its Algorithm-H backoff.
    algo_h_.note_blocked(now(), occupancy_with_task);
    return;
  }
  send_help(
      std::min(1.0, std::max(0.0, occupancy_with_task - config_.help_threshold)));
}

void RealtorProtocol::solicit() {
  if (!env_.topology->alive(self_)) return;
  if (tracing()) trace(trace_event(obs::EventKind::kSolicit));
  send_help(1.0);  // emergency: bypass the Algorithm-H interval gate
}

void RealtorProtocol::send_help(double urgency) {
  const SimTime backoff = algo_h_.blocked_time(now());
  HelpMsg help;
  help.origin = self_;
  help.member_count = static_cast<std::uint32_t>(pledge_list_.size(now()));
  help.urgency = urgency;
  help.episode = open_episode();
  help.cause = issue_trace_id();  // the help_sent event below
  env_.transport->flood(self_, Message{help});
  const SimTime timeout = algo_h_.note_help_sent(now());
  help_timer_.arm(timeout, [this] {
    algo_h_.note_timeout();
    trace_interval("timeout");
  });
  if (tracing()) {
    trace(trace_event(obs::EventKind::kHelpSent)
              .with("urgency", urgency)
              .with("interval", algo_h_.interval())
              .with("members", help.member_count)
              .with("episode", help.episode)
              .with("id", help.cause)
              .with("backoff", backoff));
  }
}

void RealtorProtocol::on_message(NodeId /*from*/, const Message& msg) {
  obs::ProfileScope scope("proto/realtor");
  if (const auto* help = std::get_if<HelpMsg>(&msg)) {
    handle_help(*help);
  } else if (const auto* pledge = std::get_if<PledgeMsg>(&msg)) {
    handle_pledge(*pledge);
  }
}

void RealtorProtocol::handle_help(const HelpMsg& help) {
  if (!env_.topology->alive(self_)) return;
  const double occupancy = local_occupancy();
  // Fig. 3 first rule: answer iff below threshold. Answering *is* the
  // membership refresh (§4: a member keeps responding to refresh messages
  // or de-facto leaves). The membership budget only bounds how many
  // communities receive our future unsolicited status updates — the reply
  // itself is unconditional.
  const bool answered = algo_p_.should_pledge_on_help(occupancy);
  const std::uint64_t received_id = issue_trace_id();
  if (tracing()) {
    trace(trace_event(obs::EventKind::kHelpReceived)
              .with("origin", help.origin)
              .with("urgency", help.urgency)
              .with("answered", answered)
              .with("episode", help.episode)
              .with("id", received_id)
              .with("cause", help.cause));
  }
  if (!answered) return;
  const bool was_member = membership_.is_member_of(help.origin, now());
  // A refresh that returns true leaves us a member of the organizer's
  // community, so the join needs no second lookup, and the pledge's
  // community count is the one the join record reports.
  const bool member = membership_.note_refresh_answered(help.origin, now());
  const std::uint32_t communities = membership_.count(now());
  if (!was_member && member && tracing()) {
    trace(trace_event(obs::EventKind::kCommunityJoin)
              .with("organizer", help.origin)
              .with("communities", communities));
  }
  send_pledge_to(help.origin, occupancy, communities, help.episode,
                 received_id);
}

void RealtorProtocol::send_pledge_to(NodeId organizer, double occupancy,
                                     std::uint32_t communities,
                                     std::uint64_t episode,
                                     std::uint64_t cause) {
  PledgeMsg pledge;
  pledge.pledger = self_;
  pledge.availability = 1.0 - occupancy;
  pledge.community_count = communities;
  pledge.grant_probability = algo_p_.grant_probability(now());
  pledge.security_level = local_security();
  pledge.episode = episode;
  pledge.cause = issue_trace_id();  // the pledge_sent event below
  env_.transport->unicast(self_, organizer, Message{pledge});
  if (tracing()) {
    trace(trace_event(obs::EventKind::kPledgeSent)
              .with("organizer", organizer)
              .with("availability", pledge.availability)
              .with("grant_probability", pledge.grant_probability)
              .with("episode", episode)
              .with("id", pledge.cause)
              .with("cause", cause));
  }
}

void RealtorProtocol::handle_pledge(const PledgeMsg& pledge) {
  if (algo_h_.note_pledge()) {
    // Fig. 2 "reset_timer": the round stays open while pledges keep coming.
    help_timer_.restart(config_.help_timeout);
  }
  pledge_list_.update(pledge.pledger, pledge.availability,
                      pledge.grant_probability, now(),
                      pledge.security_level);
  last_evidence_ = issue_trace_id();  // the pledge_received event below
  if (tracing()) {
    trace(trace_event(obs::EventKind::kPledgeReceived)
              .with("pledger", pledge.pledger)
              .with("availability", pledge.availability)
              .with("list_size", pledge_list_.held())
              .with("episode", pledge.episode)
              .with("id", last_evidence_)
              .with("cause", pledge.cause));
  }
  if (config_.reward_policy == HelpRewardPolicy::kOnFirstUsefulPledge &&
      pledge.availability > config_.availability_floor) {
    if (algo_h_.claim_round_reward()) trace_interval("reward");
  }
}

std::vector<NodeId> RealtorProtocol::migration_candidates(
    const CandidateQuery& query) {
  pledge_list_.expire(now());
  return pledge_list_.candidates(
      now(), rng_, PledgeQuery{query.min_availability, query.min_security});
}

void RealtorProtocol::on_migration_result(NodeId target, double fraction,
                                          bool success) {
  if (success) {
    pledge_list_.debit(target, fraction);
    if (config_.reward_policy == HelpRewardPolicy::kOnMigrationSuccess) {
      // Fig. 2 "a node is found for migration": the list delivered.
      algo_h_.note_success();
      trace_interval("reward");
    }
  } else {
    pledge_list_.remove(target);
  }
}

void RealtorProtocol::on_self_killed() {
  pledge_list_.clear();
  membership_.clear();
  help_timer_.cancel();
}

ProtocolProbe RealtorProtocol::probe(SimTime now) const {
  ProtocolProbe out;
  out.table_size = pledge_list_.size(now);
  out.communities = membership_.count(now);
  out.help_interval = algo_h_.interval();
  return out;
}

}  // namespace realtor::proto

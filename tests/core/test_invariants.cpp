// The trace invariant checker: clean passes over real runs of all six
// protocols, and a named violation for each synthetic break of the
// catalog.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/simulation.hpp"
#include "obs/invariants.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "proto/factory.hpp"

namespace realtor::obs {
namespace {

using experiment::AttackWave;
using experiment::ScenarioConfig;
using experiment::Simulation;

ScenarioConfig overloaded_scenario(proto::ProtocolKind kind) {
  ScenarioConfig config;
  config.protocol_kind = kind;
  config.lambda = 12.0;
  config.duration = 120.0;
  config.seed = 7;
  config.sample_interval = 20.0;
  config.attacks.push_back(AttackWave{60.0, 3, 2.0, 30.0});
  return config;
}

std::vector<std::string> violated_names(
    const std::vector<Violation>& violations) {
  std::vector<std::string> names;
  for (const Violation& violation : violations) {
    names.emplace_back(violation.invariant);
  }
  return names;
}

SpanEvent make(SimTime time, NodeId node, EventKind kind) {
  SpanEvent event;
  event.time = time;
  event.node = node;
  event.kind = kind;
  return event;
}

// Every scheme — pull, push and gossip — must produce a trace the whole
// catalog accepts: the checker's exemptions (episode-0 pledges, episode-0
// migrations) have to line up with what the protocols actually emit.
TEST(Invariants, CleanOnAllSixProtocolsUnderAttack) {
  for (const proto::ProtocolKind kind : proto::kExtendedProtocolKinds) {
    Simulation sim(overloaded_scenario(kind));
    MemorySink sink;
    sim.set_trace_sink(&sink);
    sim.run();
    const std::vector<Violation> violations =
        check_invariants(sink.events());
    EXPECT_TRUE(violations.empty())
        << proto::to_string(kind) << ": first violation "
        << violations.front().invariant << " at t=" << violations.front().time
        << " (" << violations.front().detail << ")";
  }
}

TEST(Invariants, EmptyTraceIsClean) {
  EXPECT_TRUE(check_invariants(std::vector<SpanEvent>{}).empty());
}

TEST(Invariants, FlagsIntervalOutOfBounds) {
  SpanEvent event = make(1.0, 2, EventKind::kHelpInterval);
  event.interval = 250.0;  // above help_upper_limit = 100
  const auto violations = check_invariants({event});
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(std::string(violations.front().invariant),
            "help_interval_bounds");
  EXPECT_EQ(violations.front().node, 2u);

  SpanEvent low = make(1.0, 2, EventKind::kHelpInterval);
  low.interval = 0.01;  // below help_interval_floor = 0.1
  const auto low_violations = check_invariants({low});
  ASSERT_FALSE(low_violations.empty());
  EXPECT_EQ(std::string(low_violations.front().invariant),
            "help_interval_bounds");
}

TEST(Invariants, FlagsArbitraryIntervalJump) {
  // From the initial 1.0, legal next values are 2.0 (alpha grow) or 0.5
  // (beta shrink); 3.7 is neither.
  SpanEvent event = make(5.0, 1, EventKind::kHelpInterval);
  event.interval = 3.7;
  const auto violations = check_invariants({event});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(std::string(violations.front().invariant), "help_interval_step");
  EXPECT_NE(violations.front().detail.find("3.7"), std::string::npos);
}

TEST(Invariants, AcceptsLegalIntervalWalk) {
  // 1 -> 2 -> 4 (timeouts) -> 2 (reward) -> 1 -> 0.5 -> 0.25 -> 0.125 ->
  // 0.1 (floored) stays clean, including the cap at the upper limit.
  std::vector<SpanEvent> events;
  const double walk[] = {2.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.1, 0.1};
  double t = 1.0;
  for (const double interval : walk) {
    SpanEvent event = make(t, 4, EventKind::kHelpInterval);
    event.interval = interval;
    events.push_back(event);
    t += 1.0;
  }
  EXPECT_TRUE(check_invariants(events).empty());
}

/// Node 4 walks 1 -> 2 -> 4 -> 8, is restored (cold or not), then moves
/// to `after`.
std::vector<SpanEvent> restored_walk(double after, bool cold) {
  std::vector<SpanEvent> events;
  double t = 1.0;
  for (const double interval : {2.0, 4.0, 8.0}) {
    SpanEvent event = make(t++, 4, EventKind::kHelpInterval);
    event.interval = interval;
    events.push_back(event);
  }
  SpanEvent restore = make(t++, 4, EventKind::kNodeRestored);
  restore.cold = cold;
  events.push_back(restore);
  SpanEvent event = make(t, 4, EventKind::kHelpInterval);
  event.interval = after;
  events.push_back(event);
  return events;
}

TEST(Invariants, WarmRestoreContinuesItsInterval) {
  // The simulation keeps Algorithm H across an outage: from 8 the legal
  // moves are 16 and 4, and starting over from the initial interval is a
  // jump.
  for (const double after : {16.0, 4.0}) {
    EXPECT_TRUE(check_invariants(restored_walk(after, false)).empty())
        << after;
  }
  for (const double after : {2.0, 0.5}) {
    const auto violations = check_invariants(restored_walk(after, false));
    ASSERT_EQ(violations.size(), 1u) << after;
    EXPECT_EQ(std::string(violations.front().invariant),
              "help_interval_step");
  }
}

TEST(Invariants, ColdRestoreMayRestartItsInterval) {
  // A cold restore rebuilt the node's protocol: its first move may step
  // from the initial 1 (to 2 or 0.5) as well as continue from 8.
  for (const double after : {16.0, 4.0, 2.0, 0.5}) {
    EXPECT_TRUE(check_invariants(restored_walk(after, true)).empty())
        << after;
  }
}

TEST(Invariants, FlagsArbitraryIntervalJumpAfterColdRestore) {
  const auto violations = check_invariants(restored_walk(3.7, true));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(std::string(violations.front().invariant), "help_interval_step");

  // Only the first move after the restore may start over.
  std::vector<SpanEvent> events = restored_walk(2.0, true);
  SpanEvent again = make(10.0, 4, EventKind::kHelpInterval);
  again.interval = 2.0;  // from 2.0 the legal moves are 4.0 and 1.0
  events.push_back(again);
  const auto later = check_invariants(events);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later.front().time, 10.0);
}

TEST(Invariants, FlagsSolicitedPledgeFromOverloadedSender) {
  SpanEvent event = make(2.0, 7, EventKind::kPledgeSent);
  event.episode = 4;
  event.availability = 0.02;  // occupancy 0.98 > pledge_threshold 0.9
  const auto violations = check_invariants({event});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(std::string(violations.front().invariant),
            "solicited_pledge_threshold");

  // The same availability with episode 0 is the deliberate crossing-up
  // status update of Fig. 3 — exempt.
  event.episode = 0;
  EXPECT_TRUE(check_invariants({event}).empty());
}

TEST(Invariants, FlagsMigrationWithoutPriorPledge) {
  SpanEvent help = make(1.0, 3, EventKind::kHelpSent);
  help.episode = 1;
  SpanEvent migration = make(2.0, 3, EventKind::kMigrationSuccess);
  migration.episode = 1;
  migration.peer = 11;  // no pledge_received from 11 beforehand
  const auto violations = check_invariants({help, migration});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(std::string(violations.front().invariant),
            "migration_has_pledge");

  // With the pledge in front the chain is causal and clean.
  SpanEvent pledge = make(1.5, 3, EventKind::kPledgeReceived);
  pledge.episode = 1;
  pledge.peer = 11;
  EXPECT_TRUE(check_invariants({help, pledge, migration}).empty());

  // Episode-0 migrations (push/gossip candidate tables) are exempt.
  migration.episode = 0;
  EXPECT_TRUE(check_invariants({migration}).empty());
}

TEST(Invariants, FlagsExpireWithoutJoin) {
  SpanEvent expire = make(9.0, 5, EventKind::kCommunityExpire);
  expire.peer = 2;  // organizer
  const auto violations = check_invariants({expire});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(std::string(violations.front().invariant),
            "community_expire_has_join");

  SpanEvent join = make(1.0, 5, EventKind::kCommunityJoin);
  join.peer = 2;
  EXPECT_TRUE(check_invariants({join, expire}).empty());
  // A second expire without a fresh join violates again (the join was
  // consumed).
  SpanEvent again = expire;
  again.time = 12.0;
  const auto reuse = check_invariants({join, expire, again});
  ASSERT_EQ(reuse.size(), 1u);
  EXPECT_EQ(std::string(reuse.front().invariant),
            "community_expire_has_join");
}

TEST(Invariants, FlagsNonMonotoneEpisodeIds) {
  SpanEvent first = make(1.0, 6, EventKind::kHelpSent);
  first.episode = 10;
  SpanEvent second = make(2.0, 6, EventKind::kHelpSent);
  second.episode = 10;  // reused id
  const auto violations = check_invariants({first, second});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(std::string(violations.front().invariant), "episode_monotone");

  // Different nodes may interleave ids freely — the counter is shared.
  SpanEvent other = make(1.5, 7, EventKind::kHelpSent);
  other.episode = 11;
  EXPECT_TRUE(check_invariants({first, other}).empty());
}

TEST(Invariants, FlagsPledgeEchoingUnknownEpisode) {
  SpanEvent help = make(1.0, 3, EventKind::kHelpSent);
  help.episode = 1;
  SpanEvent pledge = make(2.0, 3, EventKind::kPledgeReceived);
  pledge.peer = 8;
  pledge.episode = 42;  // node 3 never opened round 42
  const auto violations = check_invariants({help, pledge});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(std::string(violations.front().invariant), "episode_echo");

  pledge.episode = 1;
  EXPECT_TRUE(check_invariants({help, pledge}).empty());
}

TEST(Invariants, ConfigOverridesChangeTheVerdict) {
  // interval 3.0 from initial 1.0 is illegal with alpha=1 but legal with
  // alpha=2 (1 + 1*2 = 3).
  SpanEvent event = make(1.0, 0, EventKind::kHelpInterval);
  event.interval = 3.0;
  EXPECT_FALSE(check_invariants({event}).empty());
  InvariantConfig config;
  config.alpha = 2.0;
  EXPECT_TRUE(check_invariants({event}, config).empty());
}

TEST(Invariants, ViolationNamesTheWholeCatalogDistinctly) {
  // One stream violating several invariants at once reports each by name.
  std::vector<SpanEvent> events;
  SpanEvent jump = make(1.0, 0, EventKind::kHelpInterval);
  jump.interval = 55.5;
  events.push_back(jump);
  SpanEvent pledge = make(2.0, 1, EventKind::kPledgeSent);
  pledge.episode = 3;
  pledge.availability = 0.0;
  events.push_back(pledge);
  SpanEvent expire = make(3.0, 2, EventKind::kCommunityExpire);
  expire.peer = 0;
  events.push_back(expire);
  const auto names = violated_names(check_invariants(events));
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "help_interval_step");
  EXPECT_EQ(names[1], "solicited_pledge_threshold");
  EXPECT_EQ(names[2], "community_expire_has_join");
}

}  // namespace
}  // namespace realtor::obs

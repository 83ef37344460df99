#include <gtest/gtest.h>

#include "net/cost_model.hpp"
#include "net/failure.hpp"
#include "net/message_ledger.hpp"

namespace realtor::net {
namespace {

TEST(CostModel, PaperAccountingOnMesh) {
  const Topology mesh = make_mesh(5, 5);
  const CostModel model(mesh, CostMode::kPaperAverage, 4.0);
  // §5: "HELP message requires the number of links for flooding, while
  // PLEDGE message takes the average number of shortest paths, which is 4".
  EXPECT_DOUBLE_EQ(model.flood_cost(), 40.0);
  EXPECT_DOUBLE_EQ(model.unicast_cost(0, 24), 4.0);
  EXPECT_DOUBLE_EQ(model.unicast_cost(0, 1), 4.0);  // averaged, not exact
}

TEST(CostModel, AverageModeWithoutPinUsesComputedMean) {
  const Topology mesh = make_mesh(5, 5);
  const CostModel model(mesh, CostMode::kPaperAverage);
  EXPECT_NEAR(model.unicast_cost(0, 1), 10.0 / 3.0, 1e-9);
}

TEST(CostModel, ExactModeUsesHopDistance) {
  const Topology mesh = make_mesh(5, 5);
  const CostModel model(mesh, CostMode::kExactHops);
  EXPECT_DOUBLE_EQ(model.unicast_cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.unicast_cost(0, 24), 8.0);
}

TEST(CostModel, FloodCostShrinksWhenNodesDie) {
  Topology mesh = make_mesh(5, 5);
  const CostModel model(mesh, CostMode::kPaperAverage, 4.0);
  EXPECT_DOUBLE_EQ(model.flood_cost(), 40.0);
  mesh.set_alive(12, false);  // center has 4 links
  EXPECT_DOUBLE_EQ(model.flood_cost(), 36.0);
}

TEST(CostModel, ExactModeRefreshesAfterLivenessChange) {
  Topology mesh = make_mesh(3, 3);
  const CostModel model(mesh, CostMode::kExactHops);
  EXPECT_DOUBLE_EQ(model.unicast_cost(3, 5), 2.0);
  mesh.set_alive(4, false);
  EXPECT_DOUBLE_EQ(model.unicast_cost(3, 5), 4.0);  // detour
}

TEST(MessageLedger, RecordsAndTotals) {
  MessageLedger ledger;
  ledger.record(MessageKind::kHelp, 40.0);
  ledger.record(MessageKind::kPledge, 4.0, 3);
  ledger.record(MessageKind::kMigration, 4.0);
  EXPECT_EQ(ledger.sends(MessageKind::kHelp), 1u);
  EXPECT_EQ(ledger.sends(MessageKind::kPledge), 3u);
  EXPECT_DOUBLE_EQ(ledger.cost(MessageKind::kHelp), 40.0);
  EXPECT_DOUBLE_EQ(ledger.total_cost(), 48.0);
  // Overhead excludes the migration payload.
  EXPECT_DOUBLE_EQ(ledger.overhead_cost(), 44.0);
  EXPECT_EQ(ledger.total_sends(), 5u);
}

TEST(MessageLedger, MergeAndReset) {
  MessageLedger a, b;
  a.record(MessageKind::kHelp, 40.0);
  b.record(MessageKind::kHelp, 40.0);
  b.record(MessageKind::kNegotiation, 8.0);
  a.merge(b);
  EXPECT_EQ(a.sends(MessageKind::kHelp), 2u);
  EXPECT_DOUBLE_EQ(a.total_cost(), 88.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.total_cost(), 0.0);
  EXPECT_EQ(a.total_sends(), 0u);
}

TEST(MessageLedger, SnapshotIsAValueCopy) {
  MessageLedger ledger;
  ledger.record(MessageKind::kHelp, 40.0);
  ledger.record(MessageKind::kPledge, 4.0, 3);
  ledger.record(MessageKind::kMigration, 4.0);
  const LedgerSnapshot snap = ledger.snapshot();
  EXPECT_EQ(snap.sends_of(MessageKind::kPledge), 3u);
  EXPECT_DOUBLE_EQ(snap.cost_of(MessageKind::kHelp), 40.0);
  EXPECT_EQ(snap.total_sends, 5u);
  EXPECT_DOUBLE_EQ(snap.total_cost, 48.0);
  EXPECT_DOUBLE_EQ(snap.overhead_cost, 44.0);
  // The snapshot must not track the live ledger.
  ledger.record(MessageKind::kGossip, 10.0);
  EXPECT_EQ(snap.sends_of(MessageKind::kGossip), 0u);
  EXPECT_DOUBLE_EQ(snap.total_cost, 48.0);
}

// merge() of a populated ledger into a reset() one must reproduce the
// original exactly, for every MessageKind — the property sweep aggregation
// relies on.
TEST(MessageLedger, MergeAfterResetRoundTripsEveryKind) {
  MessageLedger original;
  for (std::size_t i = 0; i < static_cast<std::size_t>(MessageKind::kCount);
       ++i) {
    const auto kind = static_cast<MessageKind>(i);
    original.record(kind, 1.5 * static_cast<double>(i + 1),
                    static_cast<std::uint64_t>(i + 1));
  }
  MessageLedger target;
  target.record(MessageKind::kHelp, 99.0);  // stale state to wipe
  target.reset();
  target.merge(original);
  const LedgerSnapshot a = original.snapshot();
  const LedgerSnapshot b = target.snapshot();
  for (std::size_t i = 0; i < static_cast<std::size_t>(MessageKind::kCount);
       ++i) {
    const auto kind = static_cast<MessageKind>(i);
    EXPECT_EQ(b.sends_of(kind), a.sends_of(kind)) << to_string(kind);
    EXPECT_DOUBLE_EQ(b.cost_of(kind), a.cost_of(kind)) << to_string(kind);
  }
  EXPECT_EQ(b.total_sends, a.total_sends);
  EXPECT_DOUBLE_EQ(b.total_cost, a.total_cost);
  EXPECT_DOUBLE_EQ(b.overhead_cost, a.overhead_cost);
}

TEST(MessageLedger, KindNames) {
  EXPECT_STREQ(to_string(MessageKind::kHelp), "HELP");
  EXPECT_STREQ(to_string(MessageKind::kPledge), "PLEDGE");
  EXPECT_STREQ(to_string(MessageKind::kPushAdvert), "PUSH");
  EXPECT_STREQ(to_string(MessageKind::kNegotiation), "NEGOTIATION");
  EXPECT_STREQ(to_string(MessageKind::kMigration), "MIGRATION");
}

TEST(FailureInjector, KillAndRestoreFlipLiveness) {
  sim::Engine engine;
  Topology mesh = make_mesh(3, 3);
  FailureInjector injector(engine, mesh);
  injector.schedule_kill(4, 10.0);
  injector.schedule_restore(4, 20.0);
  engine.run_until(15.0);
  EXPECT_FALSE(mesh.alive(4));
  engine.run_until(25.0);
  EXPECT_TRUE(mesh.alive(4));
  EXPECT_EQ(injector.kills(), 1u);
  EXPECT_EQ(injector.restores(), 1u);
}

TEST(FailureInjector, ListenersNotified) {
  sim::Engine engine;
  Topology mesh = make_mesh(3, 3);
  FailureInjector injector(engine, mesh);
  std::vector<std::pair<NodeId, bool>> events;
  injector.add_listener([&](NodeId n, bool alive) {
    events.emplace_back(n, alive);
  });
  injector.schedule_kill(2, 1.0);
  injector.schedule_restore(2, 2.0);
  engine.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<NodeId, bool>{2, false}));
  EXPECT_EQ(events[1], (std::pair<NodeId, bool>{2, true}));
}

TEST(FailureInjector, DuplicateKillIsIdempotent) {
  sim::Engine engine;
  Topology mesh = make_mesh(3, 3);
  FailureInjector injector(engine, mesh);
  int notifications = 0;
  injector.add_listener([&](NodeId, bool) { ++notifications; });
  injector.schedule_kill(2, 1.0);
  injector.schedule_kill(2, 1.5);
  engine.run();
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(injector.kills(), 1u);
}

}  // namespace
}  // namespace realtor::net

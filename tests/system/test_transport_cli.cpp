// Direct unit tests of the DES transport (scoping, accounting, hop
// delays) and the CLI flag -> ScenarioConfig mapping.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/cli_config.hpp"
#include "experiment/sim_transport.hpp"
#include "realtor.hpp"  // umbrella header must stay self-contained

namespace realtor::experiment {
namespace {

struct Delivery {
  NodeId to;
  NodeId from;
  SimTime at;
};

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest()
      : topo_(net::make_mesh(5, 5)),
        cost_(topo_, net::CostMode::kPaperAverage, 4.0) {}

  SimTransport make(SimTime delay) {
    return SimTransport(engine_, topo_, cost_, ledger_, delay,
                        [this](NodeId to, NodeId from, const proto::Message&) {
                          deliveries_.push_back(
                              Delivery{to, from, engine_.now()});
                        });
  }

  sim::Engine engine_;
  net::Topology topo_;
  net::CostModel cost_;
  net::MessageLedger ledger_;
  std::vector<Delivery> deliveries_;
};

TEST_F(SimTransportTest, FloodReachesAllAliveAndChargesLinks) {
  auto transport = make(0.0);
  topo_.set_alive(7, false);
  transport.flood(0, proto::Message{proto::HelpMsg{0, 0, 0.5}});
  engine_.run();
  EXPECT_EQ(deliveries_.size(), 23u);  // 25 - origin - dead node
  // Flood cost: alive links (node 7 is interior-ish with 4 links: 36).
  EXPECT_DOUBLE_EQ(ledger_.cost(net::MessageKind::kHelp), 36.0);
  for (const Delivery& d : deliveries_) {
    EXPECT_NE(d.to, 0u);
    EXPECT_NE(d.to, 7u);
  }
}

TEST_F(SimTransportTest, UnicastChargesPinnedAverage) {
  auto transport = make(0.0);
  transport.unicast(0, 24, proto::Message{proto::PledgeMsg{0, 0.5, 0, 1.0}});
  engine_.run();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].to, 24u);
  EXPECT_DOUBLE_EQ(ledger_.cost(net::MessageKind::kPledge), 4.0);
}

TEST_F(SimTransportTest, HopAccurateDelaysScaleWithDistance) {
  auto transport = make(0.5);
  transport.unicast(0, 1, proto::Message{proto::PledgeMsg{0, 0.5, 0, 1.0}});
  transport.unicast(0, 24, proto::Message{proto::PledgeMsg{0, 0.5, 0, 1.0}});
  engine_.run();
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_DOUBLE_EQ(deliveries_[0].at, 0.5);  // 1 hop
  EXPECT_DOUBLE_EQ(deliveries_[1].at, 4.0);  // 8 hops x 0.5
}

TEST_F(SimTransportTest, FloodWithDelayArrivesNearFirst) {
  auto transport = make(0.25);
  transport.flood(12, proto::Message{proto::HelpMsg{12, 0, 0.5}});
  engine_.run();
  ASSERT_EQ(deliveries_.size(), 24u);
  // Deliveries are processed in time order; the first are the center's
  // four 1-hop neighbors, the last a 4-hop corner.
  EXPECT_DOUBLE_EQ(deliveries_.front().at, 0.25);
  EXPECT_DOUBLE_EQ(deliveries_.back().at, 1.0);
}

TEST_F(SimTransportTest, GroupScopedFloodStaysInGroup) {
  net::Topology big = net::make_mesh(10, 10);
  net::CostModel cost(big, net::CostMode::kExactHops);
  const auto groups = federation::GroupMap::mesh_blocks(10, 10, 5, 5);
  SimTransport transport(engine_, big, cost, ledger_, 0.0,
                         [this](NodeId to, NodeId from,
                                const proto::Message&) {
                           deliveries_.push_back(
                               Delivery{to, from, engine_.now()});
                         });
  transport.set_group_map(&groups);
  transport.flood(0, proto::Message{proto::HelpMsg{0, 0, 0.5}});
  engine_.run();
  EXPECT_EQ(deliveries_.size(), 24u);  // own 5x5 block minus origin
  for (const Delivery& d : deliveries_) {
    EXPECT_EQ(groups.group_of(d.to), 0u);
  }
  // Charged at the block's internal links, not the whole mesh's 180.
  EXPECT_DOUBLE_EQ(ledger_.cost(net::MessageKind::kHelp), 40.0);
}

TEST_F(SimTransportTest, EscalateReachesTargetGroupWithTransitCharge) {
  net::Topology big = net::make_mesh(10, 10);
  net::CostModel cost(big, net::CostMode::kPaperAverage, 4.0);
  const auto groups = federation::GroupMap::mesh_blocks(10, 10, 5, 5);
  SimTransport transport(engine_, big, cost, ledger_, 0.0,
                         [this](NodeId to, NodeId from,
                                const proto::Message&) {
                           deliveries_.push_back(
                               Delivery{to, from, engine_.now()});
                         });
  transport.set_group_map(&groups);
  transport.escalate(0, 3, proto::Message{proto::HelpMsg{0, 0, 1.0}});
  engine_.run();
  EXPECT_EQ(deliveries_.size(), 25u);  // whole remote block
  for (const Delivery& d : deliveries_) {
    EXPECT_EQ(groups.group_of(d.to), 3u);
  }
  // 2 transit unicasts (2 x 4) + the remote block's 40 internal links.
  EXPECT_DOUBLE_EQ(ledger_.cost(net::MessageKind::kHelp), 48.0);
}

// ----------------------------------------------------------- cli_config

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(CliConfig, DefaultsMatchPaperSetup) {
  const auto config = scenario_from_flags(make_flags({}));
  EXPECT_EQ(config.topology.kind, TopologyKind::kMesh);
  EXPECT_EQ(config.topology.width, 5u);
  EXPECT_DOUBLE_EQ(config.queue_capacity, 100.0);
  EXPECT_DOUBLE_EQ(config.mean_task_size, 5.0);
  EXPECT_EQ(config.protocol_kind, proto::ProtocolKind::kRealtor);
  EXPECT_EQ(config.migration.max_tries, 1u);
  ASSERT_TRUE(config.fixed_unicast_cost.has_value());
  EXPECT_DOUBLE_EQ(*config.fixed_unicast_cost, 4.0);
}

TEST(CliConfig, ProtocolAcceptsPaperLabels) {
  EXPECT_EQ(scenario_from_flags(make_flags({"--protocol=Push-1"}))
                .protocol_kind,
            proto::ProtocolKind::kPurePush);
  EXPECT_EQ(scenario_from_flags(make_flags({"--protocol=gossip"}))
                .protocol_kind,
            proto::ProtocolKind::kGossip);
}

TEST(CliConfig, NonMeshTopologyDropsPinnedUnicast) {
  const auto config =
      scenario_from_flags(make_flags({"--topology=ring", "--nodes=12"}));
  EXPECT_EQ(config.topology.kind, TopologyKind::kRing);
  EXPECT_EQ(config.topology.nodes, 12u);
  EXPECT_FALSE(config.fixed_unicast_cost.has_value());
}

TEST(CliConfig, AttackSpecParsesMultipleWaves) {
  const auto config = scenario_from_flags(
      make_flags({"--attack=100:5:1:60,200:3:0.5:30"}));
  ASSERT_EQ(config.attacks.size(), 2u);
  EXPECT_DOUBLE_EQ(config.attacks[0].time, 100.0);
  EXPECT_EQ(config.attacks[0].count, 5u);
  EXPECT_DOUBLE_EQ(config.attacks[1].grace, 0.5);
  EXPECT_DOUBLE_EQ(config.attacks[1].outage, 30.0);
}

TEST(CliConfig, MalformedAttackEntryIsPositionedError) {
  const auto error_of = [](const char* flag) -> std::string {
    try {
      scenario_from_flags(make_flags({flag}));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string expected =
      "': expected time:count:grace:outage (non-negative numbers, integer "
      "count)";
  EXPECT_EQ(error_of("--attack=garbage,50:2:1:10"),
            "attack entry 0 'garbage" + expected);
  EXPECT_EQ(error_of("--attack=50:2:1:10,1:2:3:4x"),
            "attack entry 1 '1:2:3:4x" + expected);
  EXPECT_EQ(error_of("--attack=50:-2:1:10"),
            "attack entry 0 '50:-2:1:10" + expected);
  EXPECT_EQ(error_of("--attack=-5:2:1:10"),
            "attack entry 0 '-5:2:1:10" + expected);
  EXPECT_EQ(error_of("--attack=50:2.5:1:10"),
            "attack entry 0 '50:2.5:1:10" + expected);
  EXPECT_EQ(error_of("--attack=50:2:1"), "attack entry 0 '50:2:1" + expected);
  EXPECT_EQ(error_of("--attack=50:2:1:10:5"),
            "attack entry 0 '50:2:1:10:5" + expected);
  EXPECT_EQ(error_of("--attack=50:2:1:nan"),
            "attack entry 0 '50:2:1:nan" + expected);
  EXPECT_EQ(error_of("--attack=50:2:1:10,,60:1:1:10"),
            "attack entry 1 '" + expected);
  // The whole grammar still parses, exponents included.
  EXPECT_EQ(error_of("--attack=5e1:2:0.5:10"), "no error");
  EXPECT_TRUE(scenario_from_flags(make_flags({"--attack="})).attacks.empty());
}

TEST(CliConfig, FederationBlockSpec) {
  const auto config = scenario_from_flags(
      make_flags({"--federate=5x5", "--width=10", "--height=10"}));
  EXPECT_TRUE(config.federation.enabled);
  EXPECT_EQ(config.federation.block_width, 5u);
  EXPECT_EQ(config.federation.block_height, 5u);
}

TEST(CliConfig, ExtensionTogglesMapThrough) {
  const auto config = scenario_from_flags(make_flags(
      {"--multires", "--bw-mean=0.2", "--elusive=15", "--sample-interval=10",
       "--flood=spanning", "--cost=exact", "--tries=3"}));
  EXPECT_TRUE(config.multi_resource.enabled);
  EXPECT_DOUBLE_EQ(config.multi_resource.mean_bandwidth_share, 0.2);
  EXPECT_TRUE(config.elusiveness.enabled);
  EXPECT_DOUBLE_EQ(config.elusiveness.period, 15.0);
  EXPECT_DOUBLE_EQ(config.sample_interval, 10.0);
  EXPECT_EQ(config.flood_mode, net::FloodMode::kSpanningTree);
  EXPECT_EQ(config.cost_mode, net::CostMode::kExactHops);
  EXPECT_EQ(config.migration.max_tries, 3u);
}

TEST(CliConfig, ProtocolKnobsMapThrough) {
  const auto config = scenario_from_flags(make_flags(
      {"--alpha=2", "--beta=0.25", "--upper-limit=50", "--max-communities=3",
       "--reward=pledge"}));
  EXPECT_DOUBLE_EQ(config.protocol.alpha, 2.0);
  EXPECT_DOUBLE_EQ(config.protocol.beta, 0.25);
  EXPECT_DOUBLE_EQ(config.protocol.help_upper_limit, 50.0);
  EXPECT_EQ(config.protocol.max_communities, 3u);
  EXPECT_EQ(config.protocol.reward_policy,
            proto::HelpRewardPolicy::kOnFirstUsefulPledge);
}

}  // namespace
}  // namespace realtor::experiment

// Attack / evacuation experiments — the survivability behaviour the paper
// motivates in §1 ("components may want to migrate to locations that are
// not being attacked").
#include <gtest/gtest.h>

#include "experiment/simulation.hpp"
#include "proto/factory.hpp"

namespace realtor::experiment {
namespace {

ScenarioConfig attacked_config(proto::ProtocolKind kind, double grace) {
  ScenarioConfig c;
  c.protocol_kind = kind;
  c.lambda = 4.0;  // moderate load so destinations have room
  c.duration = 200.0;
  c.seed = 21;
  AttackWave wave;
  wave.time = 100.0;
  wave.count = 5;
  wave.grace = grace;
  wave.outage = 50.0;
  c.attacks = {wave};
  return c;
}

TEST(Survivability, NoGraceLosesResidentWork) {
  Simulation sim(attacked_config(proto::ProtocolKind::kRealtor, 0.0));
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.lost_to_attack, 0u);
  EXPECT_EQ(m.evacuation_candidates, 0u);  // no warning, no evacuation
}

TEST(Survivability, GracePeriodEvacuatesWork) {
  Simulation sim(attacked_config(proto::ProtocolKind::kRealtor, 1.0));
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.evacuation_candidates, 0u);
  EXPECT_GT(m.evacuated, 0u);
  // Everything resident was either rescued or perished. lost_to_attack can
  // exceed the shortfall: tasks admitted to a victim after its evacuation
  // (or evacuated onto another victim) die at the kill instant.
  EXPECT_GE(m.evacuated + m.lost_to_attack, m.evacuation_candidates);
}

TEST(Survivability, RealtorEvacuatesMostResidentWork) {
  // At moderate load REALTOR's soft-state lists find live destinations for
  // the bulk of the work on attacked nodes.
  Simulation sim(attacked_config(proto::ProtocolKind::kRealtor, 1.0));
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.evacuation_success_rate(), 0.5);
}

TEST(Survivability, ArrivalsAtDeadNodesAccounted) {
  ScenarioConfig c = attacked_config(proto::ProtocolKind::kRealtor, 0.0);
  c.attacks[0].outage = 0.0;  // nodes stay dead
  c.attacks[0].count = 10;
  Simulation sim(c);
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.arrivals_at_dead_nodes, 0u);
  EXPECT_EQ(m.generated, m.admitted_local + m.admitted_migrated + m.rejected +
                             m.arrivals_at_dead_nodes);
}

TEST(Survivability, SystemRecoversAfterOutage) {
  ScenarioConfig c = attacked_config(proto::ProtocolKind::kRealtor, 1.0);
  c.duration = 400.0;  // run well past the 150s restore point
  Simulation sim(c);
  const RunMetrics& m = sim.run();
  // After restoration all 25 nodes serve again: late-arriving tasks are
  // admitted and the overall probability stays high at lambda=4.
  EXPECT_GT(m.admission_probability(), 0.9);
}

class SurvivabilityAllProtocols
    : public ::testing::TestWithParam<proto::ProtocolKind> {};

TEST_P(SurvivabilityAllProtocols, ConservationHoldsUnderAttack) {
  Simulation sim(attacked_config(GetParam(), 1.0));
  const RunMetrics& m = sim.run();
  EXPECT_EQ(m.generated, m.admitted_local + m.admitted_migrated + m.rejected +
                             m.arrivals_at_dead_nodes);
  EXPECT_GE(m.evacuated + m.lost_to_attack, m.evacuation_candidates);
}

TEST_P(SurvivabilityAllProtocols, DeadNodesNeitherSendNorReceive) {
  ScenarioConfig c = attacked_config(GetParam(), 0.0);
  c.attacks[0].count = 24;  // leave one node alive
  c.attacks[0].outage = 0.0;
  Simulation sim(c);
  const RunMetrics& m = sim.run();
  // The lone survivor cannot migrate anywhere: all migrations that happen
  // must have happened before the attack at t=100.
  EXPECT_EQ(m.generated, m.admitted_local + m.admitted_migrated + m.rejected +
                             m.arrivals_at_dead_nodes);
  EXPECT_GT(m.arrivals_at_dead_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SurvivabilityAllProtocols,
                         ::testing::ValuesIn(proto::kAllProtocolKinds),
                         [](const auto& tpi) {
                           std::string name = proto::to_string(tpi.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Survivability, StalePushStateHurtsEvacuationLessThanSoftState) {
  // The paper's claim 3: soft state handles adverse environments. Compare
  // REALTOR against pure PUSH under a two-wave attack where the first wave
  // poisons push tables with entries for nodes that die in the second.
  auto base = attacked_config(proto::ProtocolKind::kRealtor, 1.0);
  AttackWave second;
  second.time = 150.0;
  second.count = 5;
  second.grace = 1.0;
  second.outage = 50.0;
  base.attacks.push_back(second);

  auto push = base;
  push.protocol_kind = proto::ProtocolKind::kPurePush;
  Simulation realtor_sim(base);
  const RunMetrics& mr = realtor_sim.run();
  Simulation push_sim(push);
  const RunMetrics& mp = push_sim.run();
  // Both must still conserve; REALTOR's rescue rate is at least comparable
  // (soft state does not trail the stale push tables).
  EXPECT_GE(mr.evacuated + mr.lost_to_attack, mr.evacuation_candidates);
  EXPECT_GE(mp.evacuated + mp.lost_to_attack, mp.evacuation_candidates);
  EXPECT_GE(mr.evacuation_success_rate() + 0.15,
            mp.evacuation_success_rate());
}

}  // namespace
}  // namespace realtor::experiment

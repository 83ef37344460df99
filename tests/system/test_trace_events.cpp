// End-to-end tracing: a deterministic overloaded scenario with an attack
// wave must emit the full protocol + lifecycle event vocabulary in causal
// order, and attaching a sink must not perturb the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "experiment/simulation.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/trace.hpp"
#include "proto/factory.hpp"

namespace realtor::experiment {
namespace {

using obs::EventKind;
using obs::MemorySink;
using obs::TraceEvent;

// Overloaded 5x5 mesh (offered load 2.4x capacity) with one partial attack
// mid-run: exercises HELP/PLEDGE, threshold crossings, Algorithm-H
// adaptation, migrations, solicitation, evacuation and kills.
ScenarioConfig traced_scenario() {
  ScenarioConfig config;
  config.lambda = 12.0;
  config.duration = 120.0;
  config.seed = 7;
  config.sample_interval = 20.0;
  config.attacks.push_back(AttackWave{60.0, 3, 2.0, 30.0});
  return config;
}

std::optional<std::uint64_t> uint_field(const TraceEvent& event,
                                        const char* key) {
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    if (std::strcmp(event.fields[i].key, key) == 0) {
      return event.fields[i].u;
    }
  }
  return std::nullopt;
}

TEST(TraceEvents, EmitsFullVocabularyInTimeOrder) {
  ScenarioConfig config = traced_scenario();
  Simulation sim(config);
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();

  EXPECT_GT(sink.count(EventKind::kTaskArrival), 0u);
  EXPECT_GT(sink.count(EventKind::kTaskAdmitLocal), 0u);
  EXPECT_GT(sink.count(EventKind::kTaskCompleted), 0u);
  EXPECT_GT(sink.count(EventKind::kHelpSent), 0u);
  EXPECT_GT(sink.count(EventKind::kHelpReceived), 0u);
  EXPECT_GT(sink.count(EventKind::kPledgeSent), 0u);
  EXPECT_GT(sink.count(EventKind::kPledgeReceived), 0u);
  EXPECT_GT(sink.count(EventKind::kThresholdCrossing), 0u);
  EXPECT_GT(sink.count(EventKind::kHelpInterval), 0u);
  EXPECT_GT(sink.count(EventKind::kCommunityJoin), 0u);
  EXPECT_GT(sink.count(EventKind::kMigrationAttempt), 0u);
  EXPECT_GT(sink.count(EventKind::kNodeSample), 0u);
  EXPECT_GT(sink.count(EventKind::kSystemSample), 0u);
  // The attack wave: one solicit + one evacuation + one kill per victim,
  // and every victim restored after the outage.
  EXPECT_EQ(sink.count(EventKind::kSolicit), 3u);
  EXPECT_EQ(sink.count(EventKind::kEvacuation), 3u);
  EXPECT_EQ(sink.count(EventKind::kNodeKilled), 3u);
  EXPECT_EQ(sink.count(EventKind::kNodeRestored), 3u);

  // The deterministic engine delivers events in nondecreasing time order,
  // and the sink records in emission order.
  for (std::size_t i = 1; i < sink.events().size(); ++i) {
    ASSERT_LE(sink.events()[i - 1].time, sink.events()[i].time) << i;
  }
}

TEST(TraceEvents, LifecycleIsCausallyOrdered) {
  ScenarioConfig config = traced_scenario();
  Simulation sim(config);
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();

  // Every admission/rejection record for task T is preceded by T's arrival
  // record on the same node.
  std::vector<char> arrived;  // indexed by task id
  for (const TraceEvent& event : sink.events()) {
    const bool decision = event.kind == EventKind::kTaskAdmitLocal ||
                          event.kind == EventKind::kTaskAdmitMigrated ||
                          event.kind == EventKind::kTaskRejected;
    if (event.kind != EventKind::kTaskArrival && !decision) continue;
    const auto task = uint_field(event, "task");
    ASSERT_TRUE(task.has_value());
    if (*task >= arrived.size()) arrived.resize(*task + 1, 0);
    if (event.kind == EventKind::kTaskArrival) {
      arrived[*task] = 1;
    } else {
      EXPECT_TRUE(arrived[*task])
          << "decision for task " << *task << " before its arrival record";
    }
  }

  // Each killed node solicited and evacuated during the grace period
  // before it went down.
  for (const TraceEvent& kill : sink.events()) {
    if (kill.kind != EventKind::kNodeKilled) continue;
    bool solicited = false;
    bool evacuated = false;
    for (const TraceEvent& event : sink.events_of(kill.node)) {
      if (event.time >= kill.time) break;
      solicited |= event.kind == EventKind::kSolicit;
      evacuated |= event.kind == EventKind::kEvacuation;
    }
    EXPECT_TRUE(solicited) << "node " << kill.node;
    EXPECT_TRUE(evacuated) << "node " << kill.node;
  }
}

TEST(TraceEvents, NodeSamplesCarrySoftStateAndIntervals) {
  ScenarioConfig config = traced_scenario();
  Simulation sim(config);
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();

  bool saw_help_interval_field = false;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind == EventKind::kNodeSample) {
      ASSERT_GE(event.field_count, 3u);
      EXPECT_STREQ(event.fields[0].key, "occupancy");
      EXPECT_GE(event.fields[0].d, 0.0);
      EXPECT_LE(event.fields[0].d, 1.0);
      for (std::uint32_t i = 0; i < event.field_count; ++i) {
        saw_help_interval_field |=
            std::strcmp(event.fields[i].key, "help_interval") == 0;
      }
    }
    if (event.kind == EventKind::kHelpInterval) {
      for (std::uint32_t i = 0; i < event.field_count; ++i) {
        if (std::strcmp(event.fields[i].key, "reason") != 0) continue;
        const bool known = std::strcmp(event.fields[i].s, "timeout") == 0 ||
                           std::strcmp(event.fields[i].s, "reward") == 0;
        EXPECT_TRUE(known) << event.fields[i].s;
      }
    }
  }
  EXPECT_TRUE(saw_help_interval_field);
}

// The overhead contract's other half: attaching a sink must not change a
// single decision — traced and untraced runs of one seed are identical.
TEST(TraceEvents, TracingDoesNotPerturbTheRun) {
  ScenarioConfig config = traced_scenario();
  Simulation untraced(config);
  untraced.run();

  Simulation traced(config);
  MemorySink sink;
  traced.set_trace_sink(&sink);
  traced.run();

  const RunMetrics& a = untraced.metrics();
  const RunMetrics& b = traced.metrics();
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.admitted_local, b.admitted_local);
  EXPECT_EQ(a.admitted_migrated, b.admitted_migrated);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.evacuated, b.evacuated);
  EXPECT_EQ(a.lost_to_attack, b.lost_to_attack);
  EXPECT_EQ(a.ledger.total_sends(), b.ledger.total_sends());
  EXPECT_DOUBLE_EQ(a.ledger.total_cost(), b.ledger.total_cost());
  EXPECT_GT(sink.events().size(), 0u);
}

// Episode threading rides the existing message flow: HELP records carry a
// fresh nonzero episode id and solicited PLEDGE records echo one.
TEST(TraceEvents, EpisodeIdsThreadThroughTheVocabulary) {
  ScenarioConfig config = traced_scenario();
  Simulation sim(config);
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();

  std::uint64_t max_episode = 0;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind == EventKind::kHelpSent) {
      const auto episode = uint_field(event, "episode");
      ASSERT_TRUE(episode.has_value());
      EXPECT_GT(*episode, 0u);
      max_episode = std::max(max_episode, *episode);
    }
  }
  EXPECT_GT(max_episode, 0u);
  // The shared source issued exactly the ids the HELPs consumed.
  EXPECT_EQ(sim.episodes().issued(), max_episode);
}

// Determinism, bit-for-bit: two traced runs of the same seed serialize to
// the identical JSONL byte stream — episode allocation is part of the
// deterministic event order, not a side channel.
TEST(TraceEvents, SameSeedYieldsIdenticalTrace) {
  const ScenarioConfig config = traced_scenario();
  std::vector<std::string> lines[2];
  for (std::vector<std::string>& run : lines) {
    Simulation sim(config);
    MemorySink sink;
    sim.set_trace_sink(&sink);
    sim.run();
    run.reserve(sink.events().size());
    for (const TraceEvent& event : sink.events()) {
      run.push_back(obs::format_jsonl(event));
    }
  }
  ASSERT_EQ(lines[0].size(), lines[1].size());
  for (std::size_t i = 0; i < lines[0].size(); ++i) {
    ASSERT_EQ(lines[0][i], lines[1][i]) << "line " << i;
  }
}

// Golden Fig. 6 message-economy totals (seed 7, 5x5 mesh, no attacks),
// captured before episode threading landed: threading ids through
// HELP/PLEDGE must not add, drop or reorder a single message.
TEST(TraceEvents, EpisodeThreadingPreservesMessageEconomy) {
  struct Golden {
    proto::ProtocolKind kind;
    std::uint64_t sends;
    double cost;
  };
  const Golden golden[] = {
      {proto::ProtocolKind::kRealtor, 3212u, 22408.0},
      {proto::ProtocolKind::kPurePull, 5617u, 48468.0},
      {proto::ProtocolKind::kPurePush, 3315u, 122092.0},
      {proto::ProtocolKind::kAdaptivePush, 153u, 3764.0},
      {proto::ProtocolKind::kAdaptivePull, 2380u, 18096.0},
      {proto::ProtocolKind::kGossip, 12252u, 49640.0},
  };
  for (const Golden& expected : golden) {
    ScenarioConfig config = traced_scenario();
    config.attacks.clear();
    config.protocol_kind = expected.kind;
    Simulation sim(config);
    sim.run();
    EXPECT_EQ(sim.metrics().ledger.total_sends(), expected.sends)
        << proto::to_string(expected.kind);
    EXPECT_DOUBLE_EQ(sim.metrics().ledger.total_cost(), expected.cost)
        << proto::to_string(expected.kind);
  }
}

TEST(TraceEvents, SamplerHonorsConfiguredInterval) {
  ScenarioConfig config = traced_scenario();
  config.attacks.clear();
  config.duration = 100.0;
  config.sample_interval = 25.0;
  Simulation sim(config);
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  // Ticks at 25/50/75/100 with 25 alive nodes each.
  EXPECT_EQ(sink.count(EventKind::kNodeSample), 4u * 25u);
}

// The sampled time series (ScenarioConfig::sample_interval): cadence and
// the last-sample-at-end rule the live plane's final snapshot depends on,
// read off the system_sample records a whole Simulation writes.
ScenarioConfig quiet_sampled_scenario(SimTime interval, SimTime duration) {
  ScenarioConfig config;
  config.lambda = 2.0;
  config.duration = duration;
  config.seed = 3;
  config.sample_interval = interval;
  return config;
}

/// One entry per sample: the time its six system_sample records share.
std::vector<SimTime> sample_times(const MemorySink& sink) {
  std::vector<SimTime> times;
  std::size_t records = 0;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind != EventKind::kSystemSample) continue;
    if (records++ % 6 == 0) times.push_back(event.time);
    EXPECT_EQ(event.time, times.back());
  }
  EXPECT_EQ(records, 6 * times.size());
  return times;
}

std::vector<SimTime> run_sampled(SimTime interval, SimTime duration) {
  Simulation sim(quiet_sampled_scenario(interval, duration));
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  return sample_times(sink);
}

TEST(Sampler, IntervalLongerThanHorizonStillSamplesAtEnd) {
  EXPECT_EQ(run_sampled(50.0, 30.0), (std::vector<SimTime>{30.0}));
}

TEST(Sampler, NonDividingIntervalGetsAFinalPartialSample) {
  EXPECT_EQ(run_sampled(10.0, 35.0),
            (std::vector<SimTime>{10.0, 20.0, 30.0, 35.0}));
}

TEST(Sampler, AlignedHorizonIsNotSampledTwice) {
  // The tick at exactly t=30 fires inside the run, so the end adds none.
  EXPECT_EQ(run_sampled(10.0, 30.0),
            (std::vector<SimTime>{10.0, 20.0, 30.0}));
}

TEST(Sampler, ReArmsAcrossDrainedStretches) {
  // A warm-start split drains the engine up to the barrier; the tick must
  // keep rescheduling itself so the remainder is still sampled.
  Simulation sim(quiet_sampled_scenario(10.0, 45.0));
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.begin_run();
  sim.run_prefix(15.0);
  EXPECT_EQ(sample_times(sink), (std::vector<SimTime>{10.0}));
  sim.finish_run();
  EXPECT_EQ(sample_times(sink),
            (std::vector<SimTime>{10.0, 20.0, 30.0, 40.0, 45.0}));
}

TEST(Sampler, TickWritesSixSystemSamplesInOrder) {
  // The t=80 tick of the traced scenario: overloaded, three nodes down.
  Simulation sim(traced_scenario());
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  std::string tick;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind != EventKind::kSystemSample || event.time != 80.0) continue;
    tick += obs::format_jsonl(event);
    tick += '\n';
  }
  EXPECT_EQ(tick,
            "{\"t\":80,\"kind\":\"system_sample\",\"name\":\"messages.cost\","
            "\"value\":10372}\n"
            "{\"t\":80,\"kind\":\"system_sample\",\"name\":\"nodes.alive\","
            "\"value\":22}\n"
            "{\"t\":80,\"kind\":\"system_sample\",\"name\":\"occupancy.mean\","
            "\"value\":0.9102596462503769}\n"
            "{\"t\":80,\"kind\":\"system_sample\",\"name\":\"tasks.admitted\","
            "\"value\":875}\n"
            "{\"t\":80,\"kind\":\"system_sample\",\"name\":\"tasks.generated\","
            "\"value\":920}\n"
            "{\"t\":80,\"kind\":\"system_sample\",\"name\":\"tasks.rejected\","
            "\"value\":21}\n");
}

}  // namespace
}  // namespace realtor::experiment

// End-to-end tests of the threaded Agile Objects runtime. Time-compressed
// so each cluster run takes well under a second of wall time.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "agile/cluster.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_store.hpp"
#include "obs/jsonl_sink.hpp"
#include "proto/factory.hpp"

namespace realtor::agile {
namespace {

ClusterConfig small_config(double lambda) {
  ClusterConfig c;
  c.num_hosts = 4;
  c.queue_capacity = 20.0;
  c.lambda = lambda;
  c.mean_task_size = 2.0;
  c.model_duration = 30.0;
  c.time_compression = 0.003;
  c.seed = 17;
  return c;
}

TEST(HostRuntime, AdmissionRpcBooksWork) {
  ClusterConfig config = small_config(1.0);
  Cluster cluster(config);
  HostRuntime& host = cluster.host(0);
  // A host that is not running refuses the negotiation outright.
  EXPECT_FALSE(host.request_admission(5.0).has_value());
  host.start();
  const auto r1 = host.request_admission(5.0);
  ASSERT_TRUE(r1.has_value());
  const auto r2 = host.request_admission(15.0);  // exactly fills 20s
  ASSERT_TRUE(r2.has_value());
  EXPECT_GT(r2->completion_time, r1->completion_time);
  EXPECT_FALSE(host.request_admission(0.5).has_value());  // full
  EXPECT_NEAR(host.occupancy(), 1.0, 0.05);
  host.stop();
}

TEST(HostRuntime, CusDeadlineMatchesFifoCompletion) {
  // With server utilization 1, the CUS deadline coincides with the FIFO
  // completion instant for back-to-back requests.
  ClusterConfig config = small_config(1.0);
  Cluster cluster(config);
  HostRuntime& host = cluster.host(1);
  host.start();
  const auto r = host.request_admission(4.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->deadline, r->completion_time, 1e-6);
  host.stop();
}

TEST(ClusterRun, LightLoadAdmitsEverything) {
  Cluster cluster(small_config(0.5));
  const ClusterMetrics m = cluster.run();
  EXPECT_GT(m.generated, 0u);
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_DOUBLE_EQ(m.admission_probability(), 1.0);
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_GT(m.completions, 0u);
}

TEST(ClusterRun, ArrivalAccountingBalances) {
  Cluster cluster(small_config(4.0));  // overload: 4 hosts x mean 2s
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, OverloadTriggersMigrationAndRejection) {
  ClusterConfig config = small_config(6.0);  // 300% load
  config.model_duration = 60.0;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_GT(m.rejected, 0u);
  EXPECT_GT(m.helps, 0u);
  EXPECT_GT(m.pledges, 0u);
  EXPECT_LT(m.admission_probability(), 1.0);
  // Every inbound transfer corresponds to a migrated admission.
  EXPECT_EQ(m.transfers, m.admitted_migrated);
}

TEST(ClusterRun, NamingTracksMigrations) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  // Every migration rebinds its component in the naming service.
  EXPECT_GE(m.naming_updates, m.admitted_migrated);
}

class ClusterLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(ClusterLossSweep, AccountingHoldsAtEveryLossRate) {
  ClusterConfig config = small_config(5.0);
  config.model_duration = 40.0;
  config.loss_probability = GetParam();
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  if (GetParam() > 0.0) {
    EXPECT_GT(m.datagrams_dropped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, ClusterLossSweep,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5));

TEST(ClusterRun, SurvivesDatagramLoss) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.loss_probability = 0.2;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_GT(m.datagrams_dropped, 0u);
  // Loss degrades discovery but never breaks accounting (idempotent
  // soft-state protocol).
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, NoDeadlineMissesUnderCusAdmission) {
  ClusterConfig config = small_config(5.0);
  config.model_duration = 60.0;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  // Admission control never over-books the server, so every admitted
  // timer expires by its CUS deadline.
  EXPECT_EQ(m.deadline_misses, 0u);
}

TEST(ClusterRun, SpeculativeMigrationConserves) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.speculative_migration = true;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  EXPECT_GT(m.speculative_accepted + m.speculative_rejected, 0u);
  EXPECT_EQ(m.speculative_accepted, m.admitted_migrated);
}

TEST(ClusterRun, NetworkDelayStillConserves) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.network_delay = 0.2;  // model seconds
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, SpeculativeMigrationCutsLatency) {
  // §3: speculation overlaps the state transfer with the negotiation. With
  // a one-way delay d the sequential path costs ~3d (request + reply +
  // transfer) while the speculative path costs ~d.
  ClusterConfig base = small_config(6.0);
  base.model_duration = 90.0;
  base.network_delay = 0.5;
  base.time_compression = 0.01;  // keep wall delays well above jitter

  Cluster sequential(base);
  const ClusterMetrics ms = sequential.run();

  ClusterConfig spec_config = base;
  spec_config.speculative_migration = true;
  Cluster speculative(spec_config);
  const ClusterMetrics mp = speculative.run();

  ASSERT_GT(ms.migration_latency_samples, 0u);
  ASSERT_GT(mp.migration_latency_samples, 0u);
  EXPECT_GT(ms.mean_migration_latency(), 2.0 * base.network_delay);
  EXPECT_LT(mp.mean_migration_latency(), 2.0 * base.network_delay);
  EXPECT_LT(mp.mean_migration_latency(), ms.mean_migration_latency());
}

TEST(ClusterRun, KilledHostDropsTrafficAndClusterSurvives) {
  ClusterConfig config = small_config(3.0);
  config.model_duration = 40.0;
  ClusterConfig::Attack attack;
  attack.time = 10.0;
  attack.victim = 2;
  attack.outage = 0.0;  // never comes back
  config.attacks = {attack};
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.hosts_killed, 1u);
  EXPECT_EQ(m.hosts_restored, 0u);
  // Arrivals addressed to the dead host after t=10 bounce off its closed
  // inbox; everything that *was* processed still balances.
  EXPECT_GT(m.datagrams_dropped, 0u);
  EXPECT_LT(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, RestartedHostRejoinsCold) {
  ClusterConfig config = small_config(3.0);
  config.model_duration = 60.0;
  ClusterConfig::Attack attack;
  attack.time = 15.0;
  attack.victim = 1;
  attack.outage = 15.0;  // back at t=30
  config.attacks = {attack};
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.hosts_killed, 1u);
  EXPECT_EQ(m.hosts_restored, 1u);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  // The restored reactor processes arrivals again: with 1/4 of hosts down
  // for only a quarter of the run, most arrivals are still processed.
  EXPECT_GT(static_cast<double>(m.arrivals_processed) /
                static_cast<double>(m.generated),
            0.85);
}

class ClusterDiscoveryModes
    : public ::testing::TestWithParam<proto::ProtocolKind> {};

TEST_P(ClusterDiscoveryModes, EveryModeConservesUnderOverload) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.discovery = GetParam();
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  EXPECT_GT(m.admitted_migrated, 0u) << "discovery mode found no targets";
}

TEST_P(ClusterDiscoveryModes, TrafficMatchesTheScheme) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.discovery = GetParam();
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  const bool pull = GetParam() == proto::ProtocolKind::kRealtor ||
                    GetParam() == proto::ProtocolKind::kAdaptivePull ||
                    GetParam() == proto::ProtocolKind::kPurePull;
  if (pull) {
    EXPECT_GT(m.helps, 0u);
  } else {
    // PUSH-based schemes and gossip never solicit; their adverts and
    // digests are counted on the same channel stat as pledges.
    EXPECT_EQ(m.helps, 0u);
    EXPECT_GT(m.pledges, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ClusterDiscoveryModes,
                         ::testing::ValuesIn(proto::kExtendedProtocolKinds),
                         [](const auto& tpi) {
                           std::string name = proto::to_string(tpi.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

/// Runs `config` traced into one shared JSONL sink, `setup` wall time after
/// constructing the cluster, and loads the trace back. `metrics`, when
/// given, receives the run's metrics.
obs::EventStore traced_cluster_run(ClusterConfig config,
                                   std::chrono::milliseconds setup = {},
                                   ClusterMetrics* metrics = nullptr) {
  std::ostringstream out;
  obs::JsonlSink sink(out);
  config.trace_sink_factory = [&sink](NodeId) -> obs::TraceSink* {
    return &sink;
  };
  {
    Cluster cluster(config);
    std::this_thread::sleep_for(setup);
    const ClusterMetrics m = cluster.run();
    EXPECT_GT(m.helps, 0u);
    EXPECT_GT(m.pledges, 0u);
    if (metrics != nullptr) *metrics = m;
  }
  sink.flush();
  obs::EventStore store;
  obs::IngestStats stats;
  std::string error;
  EXPECT_TRUE(obs::load_trace_buffer(out.str(), store, stats, &error))
      << error;
  EXPECT_EQ(stats.malformed, 0u) << stats.first_error;
  return store;
}

TEST(ClusterTrace, LineageIdsAreUniqueAcrossHosts) {
  // Every host's protocol stamps lineage ids; with one cluster tracer they
  // never collide in the merged trace, and every cause resolves in it.
  ClusterConfig config = small_config(6.0);
  config.num_hosts = 6;
  config.model_duration = 40.0;
  const obs::EventStore store = traced_cluster_run(config);

  std::unordered_set<std::uint64_t> ids;
  std::unordered_set<NodeId> stamping_hosts;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<std::uint64_t>(store[i].number("id"));
    if (id == 0) continue;
    EXPECT_TRUE(ids.insert(id).second)
        << "duplicate lineage id " << id << " at event " << i;
    stamping_hosts.insert(store[i].node());
  }
  EXPECT_GT(stamping_hosts.size(), 1u);
  std::size_t causes = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto cause = static_cast<std::uint64_t>(store[i].number("cause"));
    if (cause == 0) continue;
    ++causes;
    EXPECT_TRUE(ids.count(cause) == 1)
        << "cause " << cause << " of event " << i << " names no id";
  }
  EXPECT_GT(causes, 0u);
}

TEST(ClusterTrace, SetupBeforeRunDoesNotShiftModelTime) {
  // Wall time spent between constructing the cluster and run() (trace
  // rings, the workload) must not start a host's engine ahead of model
  // time: early events would be stamped late and lineage edges between
  // hosts would run backward.
  ClusterConfig config = small_config(6.0);
  config.model_duration = 20.0;
  const auto setup = std::chrono::milliseconds(30);  // 10 model seconds
  const obs::EventStore store = traced_cluster_run(config, setup);

  double first_help = kNeverTime;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store[i].kind_enum() == obs::EventKind::kHelpSent) {
      first_help = std::min(first_help, store[i].time());
    }
  }
  EXPECT_LT(first_help, 10.0);
  const auto analysis =
      obs::analyze_critical_paths(obs::normalize_events(store));
  EXPECT_GT(analysis.paths.size(), 0u);
  EXPECT_TRUE(obs::check_critical_paths(analysis).empty());
}

/// small_config with host 1 killed at t=10 and restored at t=20.
ClusterConfig attacked_config() {
  ClusterConfig config = small_config(4.0);
  ClusterConfig::Attack attack;
  attack.time = 10.0;
  attack.victim = 1;
  attack.outage = 10.0;
  config.attacks = {attack};
  return config;
}

TEST(ClusterTrace, DecisionEventsMatchTheCounters) {
  // Every admission counter bump is traced where it happens, the
  // speculative path included.
  for (const bool speculative : {false, true}) {
    ClusterConfig config = small_config(6.0);
    config.speculative_migration = speculative;
    ClusterMetrics m;
    const obs::EventStore store = traced_cluster_run(config, {}, &m);
    std::map<obs::EventKind, std::uint64_t> counts;
    for (std::size_t i = 0; i < store.size(); ++i) {
      ++counts[store[i].kind_enum()];
      if (store[i].kind_enum() == obs::EventKind::kTaskAdmitMigrated ||
          store[i].kind_enum() == obs::EventKind::kTaskRejected) {
        EXPECT_EQ(store[i].number("id"), 0.0) << "decisions carry no id";
      }
    }
    EXPECT_EQ(counts[obs::EventKind::kTaskAdmitLocal], m.admitted_local);
    EXPECT_EQ(counts[obs::EventKind::kTaskAdmitMigrated],
              m.admitted_migrated);
    EXPECT_EQ(counts[obs::EventKind::kTaskRejected], m.rejected);
    EXPECT_GT(m.admitted_migrated + m.rejected, 0u);
  }
}

TEST(ClusterTrace, KilledHostIsSilentUntilRestored) {
  // The driver traces node_killed after the victim's reactor joined and
  // node_restored, marked cold, before it respawns: in stream order no
  // event of the victim falls between the two.
  const ClusterConfig config = attacked_config();
  const obs::EventStore store = traced_cluster_run(config);
  const NodeId victim = config.attacks[0].victim;
  int kills = 0;
  int restores = 0;
  bool down = false;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store[i].node() != victim) continue;
    const obs::EventKind kind = store[i].kind_enum();
    if (kind == obs::EventKind::kNodeKilled) {
      ++kills;
      down = true;
    } else if (kind == obs::EventKind::kNodeRestored) {
      ++restores;
      EXPECT_TRUE(down);
      down = false;
      // restart() rebuilds the host's protocol: the restore is cold.
      const obs::StoredField* cold = store[i].find("cold");
      ASSERT_NE(cold, nullptr);
      EXPECT_EQ(cold->type, obs::FieldType::kBool);
      EXPECT_TRUE(cold->boolean);
    } else {
      EXPECT_FALSE(down) << to_string(kind) << " at t=" << store[i].time()
                         << " from a killed host";
    }
  }
  EXPECT_EQ(kills, 1);
  EXPECT_EQ(restores, 1);
}

/// One exposition snapshot: its header time and its unlabelled samples.
struct LiveSnapshot {
  double time = 0.0;
  bool final_tick = false;
  std::map<std::string, double> values;
};

std::vector<LiveSnapshot> parse_exposition(const std::string& text) {
  std::vector<LiveSnapshot> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# realtor_live snapshot ", 0) == 0) {
      LiveSnapshot snapshot;
      const std::size_t t = line.find(" t=");
      snapshot.time = std::stod(line.substr(t + 3));
      snapshot.final_tick = line.find(" final") != std::string::npos;
      out.push_back(snapshot);
    } else if (!out.empty() && !line.empty() &&
               line.find('{') == std::string::npos) {
      const std::size_t space = line.find(' ');
      out.back().values[line.substr(0, space)] =
          std::stod(line.substr(space + 1));
    }
  }
  return out;
}

/// Runs the attacked config with the live plane on (no trace factory) and
/// returns the parsed snapshot history.
std::vector<LiveSnapshot> live_cluster_run(ClusterMetrics* metrics) {
  ClusterConfig config = attacked_config();
  config.live.emplace();
  config.live_cadence = 5.0;
  Cluster cluster(config);
  *metrics = cluster.run();
  EXPECT_TRUE(cluster.live()->ok()) << cluster.live()->error();
  return parse_exposition(cluster.live()->exposition());
}

TEST(ClusterLive, FinalSnapshotCountsEveryDecision) {
  ClusterMetrics m;
  const std::vector<LiveSnapshot> snapshots = live_cluster_run(&m);
  ASSERT_FALSE(snapshots.empty());
  const LiveSnapshot& last = snapshots.back();
  EXPECT_TRUE(last.final_tick);
  EXPECT_GT(m.arrivals_processed, 0u);
  EXPECT_EQ(last.values.at("realtor_live_decisions_total"),
            static_cast<double>(m.admitted_total() + m.rejected));
}

TEST(ClusterLive, NodesAliveFollowsKillAndRestore) {
  ClusterMetrics m;
  const std::vector<LiveSnapshot> snapshots = live_cluster_run(&m);
  EXPECT_EQ(m.hosts_killed, 1u);
  EXPECT_EQ(m.hosts_restored, 1u);
  // Ticks every 5 model seconds up to the end (30 + 5 drain), then the
  // final one.
  ASSERT_EQ(snapshots.size(), 7u);
  const double hosts = 4.0;
  for (const LiveSnapshot& snapshot : snapshots) {
    EXPECT_EQ(snapshot.values.at("realtor_live_nodes_total"), hosts);
    const double alive = snapshot.values.at("realtor_live_nodes_alive");
    if (snapshot.time > 10.0 && snapshot.time < 20.0) {
      EXPECT_EQ(alive, hosts - 1.0) << "inside the outage, t=" << snapshot.time;
    } else if (snapshot.time < 10.0 || snapshot.time > 20.0) {
      EXPECT_EQ(alive, hosts) << "t=" << snapshot.time;
    }
  }
  EXPECT_EQ(snapshots.back().values.at("realtor_live_nodes_alive"), hosts);
}

TEST(ClusterLive, BadAlertSpecIsReported) {
  ClusterConfig config = small_config(1.0);
  config.live.emplace();
  config.live->rules = {"admission_low:no_such_signal<0.9"};
  Cluster cluster(config);
  ASSERT_NE(cluster.live(), nullptr);
  EXPECT_FALSE(cluster.live()->ok());
  EXPECT_FALSE(cluster.live()->error().empty());
}

TEST(ClusterRun, TwentyHostPaperScaleRuns) {
  ClusterConfig config;
  config.num_hosts = 20;       // paper's cluster size
  config.queue_capacity = 50;  // Fig. 9 queue_size
  config.lambda = 5.0;
  config.model_duration = 30.0;
  config.time_compression = 0.003;
  config.seed = 3;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_GT(m.admission_probability(), 0.8);
}

}  // namespace
}  // namespace realtor::agile

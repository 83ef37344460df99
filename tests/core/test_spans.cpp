// Discovery-episode spans: episode ids thread causally through
// HELP/PLEDGE/migration traces, the span builder reconstructs the arcs,
// and the summary derives latency percentiles from them.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "experiment/simulation.hpp"
#include "obs/event_store.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "span_events.hpp"

namespace realtor::obs {
namespace {

using experiment::AttackWave;
using experiment::ScenarioConfig;
using experiment::Simulation;

ScenarioConfig overloaded_scenario() {
  ScenarioConfig config;
  config.lambda = 12.0;
  config.duration = 120.0;
  config.seed = 7;
  config.sample_interval = 20.0;
  config.attacks.push_back(AttackWave{60.0, 3, 2.0, 30.0});
  return config;
}

std::vector<SpanEvent> run_traced(ScenarioConfig config) {
  Simulation sim(config);
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  return spans_of(sink.events());
}

TEST(EpisodeSource, IdsStartAtOneAndIncrease) {
  EpisodeSource source;
  EXPECT_EQ(source.issued(), 0u);
  EXPECT_EQ(source.next(), 1u);
  EXPECT_EQ(source.next(), 2u);
  EXPECT_EQ(source.issued(), 2u);
}

TEST(SpanNormalize, LiftsTypedFieldsFromTraceEvent) {
  TraceEvent event(4.5, 3, EventKind::kPledgeSent);
  event.with("organizer", 9)
      .with("availability", 0.625)
      .with("grant_probability", 0.5)
      .with("episode", std::uint64_t{17});
  const std::vector<SpanEvent> spans = spans_of({event});
  ASSERT_EQ(spans.size(), 1u);
  const SpanEvent& span = spans[0];
  EXPECT_DOUBLE_EQ(span.time, 4.5);
  EXPECT_EQ(span.node, 3u);
  EXPECT_EQ(span.kind, EventKind::kPledgeSent);
  EXPECT_EQ(span.peer, 9u);
  EXPECT_DOUBLE_EQ(span.availability, 0.625);
  EXPECT_EQ(span.episode, 17u);
  EXPECT_DOUBLE_EQ(span.interval, -1.0);  // absent sentinel
  EXPECT_DOUBLE_EQ(span.urgency, -1.0);
  EXPECT_DOUBLE_EQ(span.backoff, -1.0);
  EXPECT_EQ(span.lineage, 0u);
  EXPECT_EQ(span.cause, 0u);
  EXPECT_FALSE(span.answered);
}

TEST(SpanNormalize, JsonlRoundTripMatchesLiveEvent) {
  TraceEvent event(2.0, 6, EventKind::kHelpReceived);
  event.with("origin", 1)
      .with("urgency", 0.75)
      .with("answered", true)
      .with("episode", std::uint64_t{3})
      .with("id", std::uint64_t{41})
      .with("cause", std::uint64_t{40});
  EventStore store;
  IngestStats stats;
  ASSERT_TRUE(load_trace_buffer(
      format_jsonl(event) +
          "\n{\"t\":3,\"node\":6,\"kind\":\"no_such_kind\",\"episode\":3}\n",
      store, stats));
  ASSERT_EQ(store.size(), 2u);
  const std::vector<SpanEvent> spans = normalize_events(store);
  // A record of an unknown kind is skipped, not treated as data.
  ASSERT_EQ(spans.size(), 1u);
  const SpanEvent& span = spans[0];
  EXPECT_DOUBLE_EQ(span.time, 2.0);
  EXPECT_EQ(span.node, 6u);
  EXPECT_EQ(span.kind, EventKind::kHelpReceived);
  EXPECT_EQ(span.peer, 1u);
  EXPECT_EQ(span.episode, 3u);
  EXPECT_TRUE(span.answered);
  EXPECT_DOUBLE_EQ(span.urgency, 0.75);
  EXPECT_EQ(span.lineage, 41u);
  EXPECT_EQ(span.cause, 40u);
}

TEST(SpanNormalize, ColdRestoreMarkSurvivesBothPaths) {
  // A recorded event and a hand-written line carry the mark alike.
  const TraceEvent cold = TraceEvent(5.0, 2, EventKind::kNodeRestored)
                              .with("cold", true);
  const TraceEvent warm(6.0, 2, EventKind::kNodeRestored);
  const std::vector<SpanEvent> recorded = spans_of({cold, warm});
  ASSERT_EQ(recorded.size(), 2u);
  EXPECT_TRUE(recorded[0].cold);
  EXPECT_FALSE(recorded[1].cold);
  EventStore store;
  IngestStats stats;
  ASSERT_TRUE(load_trace_buffer(
      "{\"t\":5,\"node\":2,\"kind\":\"node_restored\",\"cold\":true}\n"
      "{\"t\":6,\"node\":2,\"kind\":\"node_restored\",\"cold\":1}\n",
      store, stats));
  const std::vector<SpanEvent> written = normalize_events(store);
  ASSERT_EQ(written.size(), 2u);
  EXPECT_TRUE(written[0].cold);
  EXPECT_FALSE(written[1].cold);  // only a JSON boolean marks a cold restore
}

// The tentpole's core property: every solicited PLEDGE echoes the episode
// of a HELP its receiver actually flooded, and HELP episodes are fresh
// ids, strictly increasing per node.
TEST(EpisodeThreading, PledgesEchoTheSolicitingHelp) {
  const std::vector<SpanEvent> events = run_traced(overloaded_scenario());

  std::map<NodeId, std::uint64_t> last_help;
  std::map<NodeId, std::set<std::uint64_t>> opened;
  std::uint64_t helps = 0;
  std::uint64_t solicited_pledges = 0;
  for (const SpanEvent& event : events) {
    if (event.kind == EventKind::kHelpSent) {
      ++helps;
      ASSERT_GT(event.episode, 0u) << "HELP without an episode id";
      const auto it = last_help.find(event.node);
      if (it != last_help.end()) {
        EXPECT_GT(event.episode, it->second) << "episode id not fresh";
      }
      last_help[event.node] = event.episode;
      opened[event.node].insert(event.episode);
    } else if (event.kind == EventKind::kPledgeReceived &&
               event.episode > 0) {
      ++solicited_pledges;
      ASSERT_TRUE(opened[event.node].count(event.episode))
          << "pledge echoes an episode node " << event.node
          << " never opened";
    }
  }
  EXPECT_GT(helps, 0u);
  EXPECT_GT(solicited_pledges, 0u);
}

// REALTOR's unsolicited status pledges (threshold crossings) carry
// episode 0 — they belong to no solicitation round.
TEST(EpisodeThreading, UnsolicitedStatusPledgesCarryNoEpisode) {
  const std::vector<SpanEvent> events = run_traced(overloaded_scenario());
  std::uint64_t unsolicited = 0;
  for (const SpanEvent& event : events) {
    if (event.kind == EventKind::kPledgeSent && event.episode == 0) {
      ++unsolicited;
    }
  }
  // The scenario produces many threshold crossings with joined
  // communities, so some status pledges must exist.
  EXPECT_GT(unsolicited, 0u);
}

TEST(EpisodeThreading, MigrationsAttributeToAnOpenedEpisode) {
  const std::vector<SpanEvent> events = run_traced(overloaded_scenario());
  std::set<std::uint64_t> all_opened;
  std::uint64_t attributed = 0;
  for (const SpanEvent& event : events) {
    if (event.kind == EventKind::kHelpSent) {
      all_opened.insert(event.episode);
    } else if (event.kind == EventKind::kMigrationSuccess) {
      if (event.episode == 0) continue;  // before the node's first HELP
      ++attributed;
      EXPECT_TRUE(all_opened.count(event.episode));
    }
  }
  EXPECT_GT(attributed, 0u);
}

TEST(EpisodeSpans, BuildsEpisodesWithLatencies) {
  ScenarioConfig config = overloaded_scenario();
  // A propagation delay separates the HELP from its pledges, making the
  // time-to-first-pledge latency strictly positive.
  config.network_delay = 0.05;
  const std::vector<SpanEvent> events = run_traced(config);
  const std::vector<Episode> episodes = build_episodes(events);
  ASSERT_FALSE(episodes.empty());

  std::uint64_t previous = 0;
  bool some_pledged = false;
  bool some_migrated = false;
  for (const Episode& episode : episodes) {
    EXPECT_GT(episode.id, previous);  // sorted ascending, ids unique
    previous = episode.id;
    ASSERT_TRUE(episode.started);
    EXPECT_NE(episode.origin, kInvalidNode);
    if (episode.has_pledge()) {
      some_pledged = true;
      EXPECT_GE(episode.time_to_first_pledge(), config.network_delay);
    }
    if (episode.has_migration()) {
      some_migrated = true;
      EXPECT_GE(episode.time_to_migration(), 0.0);
      EXPECT_NE(episode.first_migration_target, kInvalidNode);
    }
  }
  EXPECT_TRUE(some_pledged);
  EXPECT_TRUE(some_migrated);
}

TEST(EpisodeSpans, SummaryPercentilesAreOrdered) {
  ScenarioConfig config = overloaded_scenario();
  config.network_delay = 0.05;
  const EpisodeSummary summary =
      summarize_episodes(build_episodes(run_traced(config)));
  EXPECT_GT(summary.episodes, 0u);
  EXPECT_GT(summary.with_pledge, 0u);
  EXPECT_GT(summary.with_migration, 0u);
  EXPECT_EQ(summary.time_to_first_pledge.stats().count(),
            summary.with_pledge);
  EXPECT_EQ(summary.time_to_migration.stats().count(),
            summary.with_migration);
  const Histogram& ttfp = summary.time_to_first_pledge;
  EXPECT_GT(ttfp.p50(), 0.0);
  EXPECT_LE(ttfp.p50(), ttfp.p90());
  EXPECT_LE(ttfp.p90(), ttfp.p99());
  EXPECT_LE(ttfp.p99(), ttfp.stats().max());
  const Histogram& ttm = summary.time_to_migration;
  EXPECT_LE(ttm.p50(), ttm.p90());
  EXPECT_LE(ttm.p90(), ttm.p99());
}

// Adaptive pull threads episodes identically (shared base-class path).
TEST(EpisodeSpans, AdaptivePullThreadsEpisodesToo) {
  ScenarioConfig config = overloaded_scenario();
  config.protocol_kind = proto::ProtocolKind::kAdaptivePull;
  const std::vector<Episode> episodes =
      build_episodes(run_traced(config));
  ASSERT_FALSE(episodes.empty());
  const EpisodeSummary summary = summarize_episodes(episodes);
  EXPECT_GT(summary.with_pledge, 0u);
}

}  // namespace
}  // namespace realtor::obs

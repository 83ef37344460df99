// Perfetto/Chrome-trace export: structural validity of the built event
// list (flow pairing, per-track time order) and well-formedness of the
// rendered JSON, on both synthetic chains and a real traced run.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "experiment/simulation.hpp"
#include "obs/critical_path.hpp"
#include "obs/perfetto.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "span_events.hpp"

namespace realtor::obs {
namespace {

using experiment::ScenarioConfig;
using experiment::Simulation;

std::vector<SpanEvent> run_traced(std::uint32_t seed) {
  ScenarioConfig config;
  config.lambda = 12.0;
  config.duration = 60.0;
  config.seed = seed;
  Simulation sim(config);
  MemorySink sink;
  sim.set_trace_sink(&sink);
  sim.run();
  return spans_of(sink.events());
}

/// Every flow arrow must resolve: each "f" needs an "s" with its id, and
/// an "s" with no "f" would be a dangling arrow stub.
void expect_flows_paired(const std::vector<ChromeEvent>& events) {
  std::set<std::uint64_t> starts;
  std::set<std::uint64_t> finishes;
  for (const ChromeEvent& event : events) {
    if (event.ph == 's') {
      EXPECT_TRUE(starts.insert(event.flow_id).second)
          << "duplicate flow start " << event.flow_id;
    } else if (event.ph == 'f') {
      finishes.insert(event.flow_id);
    }
  }
  for (const std::uint64_t id : finishes) {
    EXPECT_EQ(starts.count(id), 1u) << "flow " << id << " has no start";
  }
  for (const std::uint64_t id : starts) {
    EXPECT_EQ(finishes.count(id), 1u) << "flow " << id << " has no finish";
  }
}

/// Slices on one (pid, tid) track must be in non-decreasing ts order
/// with enclosing slices first — what the sorted export guarantees.
void expect_tracks_monotone(const std::vector<ChromeEvent>& events) {
  std::map<std::pair<int, std::int64_t>, std::int64_t> last_ts;
  for (const ChromeEvent& event : events) {
    if (event.ph != 'X') continue;
    const auto key = std::make_pair(event.pid, event.tid);
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(event.ts, it->second)
          << "track (" << event.pid << ", " << event.tid << ")";
    }
    last_ts[key] = event.ts;
  }
}

/// Minimal JSON well-formedness scan: quotes pair up, braces and
/// brackets balance outside strings, and no control characters leak in.
void expect_json_well_formed(const std::string& json) {
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
            << "control character inside a JSON string";
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Perfetto, SyntheticChainProducesEpisodeAndFlowTracks) {
  std::vector<SpanEvent> events;
  auto add = [&](double t, NodeId node, EventKind kind, std::uint64_t id,
                 std::uint64_t cause) {
    SpanEvent e;
    e.time = t;
    e.node = node;
    e.kind = kind;
    e.episode = 5;
    e.lineage = id;
    e.cause = cause;
    events.push_back(e);
  };
  add(1.0, 0, EventKind::kHelpSent, 1, 0);
  add(1.2, 1, EventKind::kHelpReceived, 2, 1);
  add(1.2, 1, EventKind::kPledgeSent, 3, 2);
  add(1.5, 0, EventKind::kPledgeReceived, 4, 3);

  const std::vector<ChromeEvent> chrome =
      build_chrome_events(events, analyze_critical_paths(events));
  expect_flows_paired(chrome);
  expect_tracks_monotone(chrome);

  std::size_t episode_slices = 0;
  std::size_t flow_starts = 0;
  for (const ChromeEvent& event : chrome) {
    if (event.pid == 2 && event.ph == 'X') ++episode_slices;
    if (event.ph == 's') ++flow_starts;
  }
  // The episode slice plus its three phase-edge slices.
  EXPECT_EQ(episode_slices, 4u);
  // Three messages crossed the wire: help, plus the pledge's two hops.
  EXPECT_EQ(flow_starts, 3u);
}

TEST(Perfetto, ProfileEntriesNestIntoCumulativeSlices) {
  std::vector<ProfileEntry> profile;
  profile.push_back({"engine", 0, 10, 5'000'000});
  profile.push_back({"engine/proto", 1, 10, 3'000'000});
  profile.push_back({"engine/transport", 1, 10, 1'000'000});

  const std::vector<ChromeEvent> chrome = build_chrome_events(
      {}, CriticalPathAnalysis{}, profile);
  std::vector<const ChromeEvent*> slices;
  for (const ChromeEvent& event : chrome) {
    if (event.pid == 3 && event.ph == 'X') slices.push_back(&event);
  }
  ASSERT_EQ(slices.size(), 3u);
  // Parent spans [0, 5000) us; children tile inside it in order.
  EXPECT_EQ(slices[0]->name, "engine");
  EXPECT_EQ(slices[0]->ts, 0);
  EXPECT_EQ(slices[0]->dur, 5000);
  EXPECT_EQ(slices[1]->name, "proto");
  EXPECT_EQ(slices[1]->ts, 0);
  EXPECT_EQ(slices[1]->dur, 3000);
  EXPECT_EQ(slices[2]->name, "transport");
  EXPECT_EQ(slices[2]->ts, 3000);
  EXPECT_EQ(slices[2]->dur, 1000);
  expect_tracks_monotone(chrome);
}

TEST(Perfetto, RealRunExportIsValidAndDeterministic) {
  const std::vector<ChromeEvent> chrome = build_chrome_events(
      run_traced(7),
      analyze_critical_paths(run_traced(7)));
  ASSERT_FALSE(chrome.empty());
  expect_flows_paired(chrome);
  expect_tracks_monotone(chrome);

  const std::string json = render_chrome_json(chrome);
  expect_json_well_formed(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

  // Same seed, fresh run: byte-identical export.
  const std::string again = render_chrome_json(build_chrome_events(
      run_traced(7), analyze_critical_paths(run_traced(7))));
  EXPECT_EQ(json, again);
}

}  // namespace
}  // namespace realtor::obs

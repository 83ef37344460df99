// Trace-ingest reference gate: a deterministic synthetic 10k-node attack
// trace of 32 MiB, loaded serially and with 4 parse shards, must reproduce
// four values captured from the line-by-line reader the EventStore
// replaced (a parser independent of the store's): the event-stream
// fingerprint, the scorecard JSON, the invariant-violation list and the
// malformed-line accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/format.hpp"
#include "obs/event_store.hpp"
#include "obs/invariants.hpp"
#include "obs/scorecard.hpp"

namespace realtor::obs {
namespace {

// unsigned long long so results feed %llu without per-site casts.
unsigned long long trace_rng(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// ~target_bytes of synthetic 10k-node trace: the steady task flow,
/// HELP/pledge traffic, kill/evacuate/restore episodes, escaped string
/// payloads, and one malformed line per ~40k so the tolerant accounting is
/// exercised. All number formatting is integer-based (micros, millis), so
/// the bytes are locale-proof and identical on every platform.
std::string synthetic_trace(std::uint64_t target_bytes) {
  std::string out;
  out.reserve(target_bytes + 512);
  char line[320];
  std::uint64_t rng = 0x5851f42d4c957f2dULL;
  std::uint64_t micros = 0;  // simulated clock, integer microseconds
  unsigned long long task = 0;
  unsigned long long episode = 0;
  std::uint64_t lines = 0;
  constexpr unsigned kNodes = 10000;
  const auto emit = [&](int n) {
    out.append(line, static_cast<std::size_t>(n));
    out.push_back('\n');
    ++lines;
  };
  while (out.size() < target_bytes) {
    micros += 1 + trace_rng(rng) % 900;
    const unsigned long long ts = micros / 1000000;
    const unsigned long long tf = micros % 1000000;
    const unsigned node = static_cast<unsigned>(trace_rng(rng) % kNodes);
    if (lines % 40000 == 39999) {
      emit(std::snprintf(line, sizeof line,
                         "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":", ts, tf,
                         node));
      continue;
    }
    if (lines % 5000 == 4999) {
      // Attack episode: kill -> evacuate -> restore, the scorecard's food.
      const unsigned long long lost = trace_rng(rng) % 6;
      const unsigned long long resident = 4 + trace_rng(rng) % 12;
      const unsigned long long saved = resident - trace_rng(rng) % 3;
      emit(std::snprintf(line, sizeof line,
                         "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                         "\"node_killed\",\"episode\":%llu,\"lost\":%llu}",
                         ts, tf, node, episode, lost));
      emit(std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"evacuation\","
          "\"episode\":%llu,\"resident\":%llu,\"saved\":%llu}",
          ts, tf, node, episode, resident, saved));
      emit(std::snprintf(line, sizeof line,
                         "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                         "\"node_restored\",\"episode\":%llu}",
                         ts, tf, node, episode));
      ++episode;
      continue;
    }
    if (lines % 997 == 0) {
      // Escaped string payload: forces the arena-decode path (the value
      // cannot be a view into the input).
      emit(std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"escalation\","
          "\"cause\":\"grace \\\"expired\\\" -> retry\\n\",\"id\":%llu}",
          ts, tf, node, task));
      continue;
    }
    const std::uint64_t pick = trace_rng(rng) % 100;
    int n;
    if (pick < 28) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"task_arrival\","
          "\"id\":%llu,\"size\":%llu.%03llu,\"deadline\":%llu.%03llu}",
          ts, tf, node, ++task, 1 + trace_rng(rng) % 9, trace_rng(rng) % 1000,
          20 + trace_rng(rng) % 80, trace_rng(rng) % 1000);
    } else if (pick < 42) {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"task_admit_local\",\"id\":%llu}",
                        ts, tf, node, 1 + trace_rng(rng) % (task + 1));
    } else if (pick < 48) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"task_admit_migrated\","
          "\"id\":%llu,\"origin\":%llu}",
          ts, tf, node, 1 + trace_rng(rng) % (task + 1),
          trace_rng(rng) % kNodes);
    } else if (pick < 54) {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"task_rejected\",\"id\":%llu,\"cause\":\"full\"}",
                        ts, tf, node, 1 + trace_rng(rng) % (task + 1));
    } else if (pick < 70) {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"task_completed\",\"id\":%llu}",
                        ts, tf, node, 1 + trace_rng(rng) % (task + 1));
    } else if (pick < 78) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"help_sent\","
          "\"origin\":%u,\"urgency\":0.%03llu}",
          ts, tf, node, node, trace_rng(rng) % 1000);
    } else if (pick < 86) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"pledge_sent\","
          "\"pledger\":%u,\"origin\":%llu,\"availability\":0.%03llu}",
          ts, tf, node, node, trace_rng(rng) % kNodes,
          trace_rng(rng) % 1000);
    } else if (pick < 92) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"advert_sent\","
          "\"availability\":0.%03llu,\"answered\":%s}",
          ts, tf, node, trace_rng(rng) % 1000,
          trace_rng(rng) % 2 ? "true" : "false");
    } else if (pick < 97) {
      n = std::snprintf(
          line, sizeof line,
          "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":\"migration_success\","
          "\"id\":%llu,\"target\":%llu}",
          ts, tf, node, 1 + trace_rng(rng) % (task + 1),
          trace_rng(rng) % kNodes);
    } else {
      n = std::snprintf(line, sizeof line,
                        "{\"t\":%llu.%06llu,\"node\":%u,\"kind\":"
                        "\"gossip_round\",\"fanout\":%llu}",
                        ts, tf, node, 1 + trace_rng(rng) % 4);
    }
    emit(n);
  }
  return out;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
std::uint64_t fnv1a(std::uint64_t h, std::string_view text) {
  return fnv1a(h, text.data(), text.size());
}

/// Hashes one payload field. Numbers go through the locale-independent
/// %.17g (shortest round-trip superset), so the fingerprint is exact.
void hash_field(std::uint64_t& h, std::string_view key, FieldType type,
                bool boolean, double number, std::string_view text) {
  h = fnv1a(h, key);
  const unsigned char tag = static_cast<unsigned char>(type);
  h = fnv1a(h, &tag, 1);
  switch (type) {
    case FieldType::kNumber: {
      char buf[40];
      const int n = format_double(buf, sizeof buf, "%.17g", number);
      h = fnv1a(h, buf, static_cast<std::size_t>(n));
      break;
    }
    case FieldType::kString:
      h = fnv1a(h, text);
      break;
    case FieldType::kBool:
      h = fnv1a(h, boolean ? "1" : "0", 1);
      break;
    case FieldType::kNull:
      break;
  }
  h = fnv1a(h, "\x1e", 1);
}

void hash_header(std::uint64_t& h, double time, NodeId node,
                 std::string_view kind) {
  char buf[40];
  const int n = format_double(buf, sizeof buf, "%.17g", time);
  h = fnv1a(h, buf, static_cast<std::size_t>(n));
  const std::uint32_t id = node;
  h = fnv1a(h, &id, sizeof id);
  h = fnv1a(h, kind);
  h = fnv1a(h, "\x1f", 1);
}

std::uint64_t store_fingerprint(const EventStore& store) {
  std::uint64_t h = kFnvBasis;
  for (const EventRec& rec : store.records()) {
    hash_header(h, rec.time, rec.node, store.name(rec.kind));
    const StoredField* field = store.fields().data() + rec.field_begin;
    for (std::uint32_t i = 0; i < rec.field_count; ++i, ++field) {
      hash_field(h, store.name(field->key), field->type, field->boolean,
                 field->number, field->text);
    }
  }
  return h;
}

std::string render_violations(const std::vector<Violation>& violations) {
  std::string out;
  char buf[40];
  for (const Violation& v : violations) {
    out += v.invariant;
    out += '|';
    format_double(buf, sizeof buf, "%.17g", v.time);
    out += buf;
    out += '|';
    out += std::to_string(v.node);
    out += '|';
    out += v.detail;
    out += '\n';
  }
  return out;
}

std::string render_accounting(const TraceLoadStats& stats) {
  std::string out = "lines=" + std::to_string(stats.lines);
  out += ";events=" + std::to_string(stats.events);
  out += ";malformed=" + std::to_string(stats.malformed);
  out += ";first_line=" + std::to_string(stats.first_malformed_line);
  out += ";first_error=" + stats.first_error;
  return out;
}

/// The four values of the 32 MiB input, captured from the line-by-line
/// reader before it was removed. Hashes are FNV-1a: the event fingerprint
/// as store_fingerprint() computes it, the scorecard JSON and the rendered
/// violation list over their bytes.
struct TraceReference {
  std::uint64_t mib;
  std::uint64_t fingerprint;
  std::uint64_t scorecard;
  std::uint64_t violations;
  const char* accounting;
};
constexpr TraceReference kTraceReference = {
    32, 0x3971d2314596f75fULL, 0xa0e6355a2ffa90abULL, 0x14650fb0739d0383ULL,
    "lines=420906;events=420896;malformed=10;first_line=40000;"
    "first_error=expected value at offset 34"};

TEST(TraceReference, SerialAndShardedLoadsMatchEmbeddedReference) {
  const std::string trace = synthetic_trace(kTraceReference.mib << 20);
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    EventStore store;
    IngestStats stats;
    std::string error;
    ASSERT_TRUE(load_trace_buffer(trace, store, stats, &error, jobs))
        << error;
    EXPECT_EQ(stats.shards, jobs);
    EXPECT_EQ(store_fingerprint(store), kTraceReference.fingerprint);
    EXPECT_EQ(fnv1a(kFnvBasis, render_scorecard_json(build_scorecard(store))),
              kTraceReference.scorecard);
    EXPECT_EQ(fnv1a(kFnvBasis, render_violations(check_invariants(store))),
              kTraceReference.violations);
    EXPECT_EQ(render_accounting(stats), kTraceReference.accounting);
  }
}

// kTraceReference's synthetic trace breaks no law, so its violations
// value is the hash of an empty list. This trace breaks each of the seven
// laws (the first line two of them) and pins how every violation renders.
TEST(TraceReference, KnownViolationsRenderAsLiteral) {
  const std::string trace =
      "{\"t\":1,\"node\":2,\"kind\":\"help_interval\",\"interval\":250}\n"
      "{\"t\":2,\"node\":3,\"kind\":\"pledge_received\",\"pledger\":4,"
      "\"episode\":9,\"availability\":0.5}\n"
      "{\"t\":3,\"node\":5,\"kind\":\"community_expire\",\"organizer\":6}\n"
      "{\"t\":4,\"node\":7,\"kind\":\"migration_success\",\"target\":8,"
      "\"episode\":2}\n"
      "{\"t\":5,\"node\":1,\"kind\":\"help_sent\",\"episode\":4}\n"
      "{\"t\":6,\"node\":1,\"kind\":\"help_sent\",\"episode\":3}\n"
      "{\"t\":7,\"node\":9,\"kind\":\"pledge_sent\",\"organizer\":1,"
      "\"episode\":4,\"availability\":0.05}\n";
  EventStore store;
  IngestStats stats;
  std::string error;
  ASSERT_TRUE(load_trace_buffer(trace, store, stats, &error)) << error;
  EXPECT_EQ(render_violations(check_invariants(store)),
            "help_interval_bounds|1|2|interval 250 outside [0.1, 100]\n"
            "help_interval_step|1|2|interval 250 from 1 is neither the alpha "
            "step 2 nor the beta step 0.5\n"
            "episode_echo|2|3|pledge echoes episode 9 which node 3 never "
            "opened\n"
            "community_expire_has_join|3|5|membership in organizer 6 expired "
            "without a recorded join\n"
            "migration_has_pledge|4|7|migration to node 8 without a prior "
            "pledge from it (episode 2)\n"
            "episode_monotone|6|1|help episode 3 not above previous 4\n"
            "solicited_pledge_threshold|7|9|solicited pledge with availability "
            "0.05 below 0.1 (sender was over the pledge threshold)\n");
}

}  // namespace
}  // namespace realtor::obs

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/event_store.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace realtor::obs {
namespace {

TEST(TraceEvent, FluentPayloadTypes) {
  TraceEvent event(2.5, 3, EventKind::kHelpSent);
  event.with("urgency", 0.75)
      .with("members", std::uint32_t{7})
      .with("answered", true)
      .with("reason", "timeout");
  ASSERT_EQ(event.field_count, 4u);
  EXPECT_EQ(event.fields[0].type, TraceField::Type::kDouble);
  EXPECT_DOUBLE_EQ(event.fields[0].d, 0.75);
  EXPECT_EQ(event.fields[1].type, TraceField::Type::kUint);
  EXPECT_EQ(event.fields[1].u, 7u);
  EXPECT_EQ(event.fields[2].type, TraceField::Type::kBool);
  EXPECT_TRUE(event.fields[2].b);
  EXPECT_EQ(event.fields[3].type, TraceField::Type::kString);
  EXPECT_STREQ(event.fields[3].s, "timeout");
}

TEST(TraceEvent, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(EventKind::kCount);
       ++i) {
    const EventKind kind = static_cast<EventKind>(i);
    EventKind parsed = EventKind::kCount;
    ASSERT_TRUE(parse_event_kind(to_string(kind), parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  EventKind parsed;
  EXPECT_FALSE(parse_event_kind("no_such_kind", parsed));
}

// The null-sink contract: an inert tracer reports inactive and emitting
// through it is a no-op, so instrumented code pays one pointer test.
TEST(Tracer, NullSinkIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.active());
  tracer.emit(TraceEvent(1.0, 0, EventKind::kSolicit));  // must not crash
  tracer.flush();

  MemorySink sink;
  tracer.set_sink(&sink);
  EXPECT_TRUE(tracer.active());
  tracer.emit(TraceEvent(1.0, 0, EventKind::kSolicit));
  tracer.set_sink(nullptr);
  EXPECT_FALSE(tracer.active());
  tracer.emit(TraceEvent(2.0, 0, EventKind::kSolicit));
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(MemorySink, CountsAndFilters) {
  MemorySink sink;
  sink.on_event(TraceEvent(1.0, 0, EventKind::kHelpSent));
  sink.on_event(TraceEvent(2.0, 1, EventKind::kPledgeSent));
  sink.on_event(TraceEvent(3.0, 0, EventKind::kHelpSent));
  EXPECT_EQ(sink.count(EventKind::kHelpSent), 2u);
  EXPECT_EQ(sink.count(EventKind::kPledgeSent), 1u);
  EXPECT_EQ(sink.count(EventKind::kGossipRound), 0u);
  const auto of_zero = sink.events_of(0);
  ASSERT_EQ(of_zero.size(), 2u);
  EXPECT_DOUBLE_EQ(of_zero[0].time, 1.0);
  EXPECT_DOUBLE_EQ(of_zero[1].time, 3.0);
}

TEST(JsonlFormat, PlainRecord) {
  TraceEvent event(12.5, 3, EventKind::kHelpSent);
  event.with("urgency", 1.0).with("members", 7);
  EXPECT_EQ(format_jsonl(event),
            R"({"t":12.5,"node":3,"kind":"help_sent","urgency":1,"members":7})");
}

TEST(JsonlFormat, SystemRecordOmitsNode) {
  TraceEvent event(0.0, kInvalidNode, EventKind::kEngineStep);
  event.with("processed", std::uint64_t{1000});
  EXPECT_EQ(format_jsonl(event),
            R"({"t":0,"kind":"engine_step","processed":1000})");
}

TEST(JsonlFormat, EscapesStrings) {
  TraceEvent event(1.0, 0, EventKind::kSystemSample);
  event.with("name", "a\"b\\c\n\td\x01");
  EXPECT_EQ(format_jsonl(event),
            "{\"t\":1,\"node\":0,\"kind\":\"system_sample\","
            "\"name\":\"a\\\"b\\\\c\\n\\td\\u0001\"}");
}

TEST(JsonlFormat, NonFiniteDoublesAreQuoted) {
  TraceEvent event(1.0, 0, EventKind::kNodeSample);
  event.with("bad", std::numeric_limits<double>::quiet_NaN())
      .with("inf", std::numeric_limits<double>::infinity());
  const std::string line = format_jsonl(event);
  EXPECT_NE(line.find("\"bad\":\"nan\""), std::string::npos);
  EXPECT_NE(line.find("\"inf\":\"inf\""), std::string::npos);
  // And the reader still accepts the line.
  EventStore store;
  IngestStats stats;
  ASSERT_TRUE(load_trace_buffer(line + "\n", store, stats));
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(JsonlSink, WritesOneLinePerEvent) {
  std::ostringstream out;
  JsonlSink sink(out);
  ASSERT_TRUE(sink.ok());
  sink.on_event(TraceEvent(1.0, 0, EventKind::kHelpSent));
  sink.on_event(TraceEvent(2.0, 1, EventKind::kPledgeSent));
  sink.flush();
  EXPECT_EQ(sink.lines_written(), 2u);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(TraceReader, RoundTripsFormattedEvents) {
  TraceEvent event(3.25, 9, EventKind::kPledgeReceived);
  event.with("pledger", 4).with("availability", 0.625).with("fresh", true);
  EventStore store;
  IngestStats stats;
  ASSERT_TRUE(load_trace_buffer(format_jsonl(event), store, stats));
  ASSERT_EQ(stats.malformed, 0u) << stats.first_error;
  ASSERT_EQ(store.size(), 1u);
  const EventView parsed = store[0];
  EXPECT_DOUBLE_EQ(parsed.time(), 3.25);
  EXPECT_EQ(parsed.node(), 9u);
  EXPECT_EQ(parsed.kind(), "pledge_received");
  EXPECT_DOUBLE_EQ(parsed.number("pledger"), 4.0);
  EXPECT_DOUBLE_EQ(parsed.number("availability"), 0.625);
  const StoredField* fresh = parsed.find("fresh");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->type, FieldType::kBool);
  EXPECT_TRUE(fresh->boolean);
  EXPECT_EQ(parsed.find("absent"), nullptr);
  EXPECT_DOUBLE_EQ(parsed.number("absent", -1.0), -1.0);
}

TEST(TraceReader, RejectsMalformedLinesWithPosition) {
  for (const char* line : {
           "not json",
           R"({"node":1,"kind":"solicit"})",  // missing "t"
           R"({"t":1.0,"node":2})",           // missing "kind"
       }) {
    EventStore store;
    IngestStats stats;
    ASSERT_TRUE(load_trace_buffer(line, store, stats));
    EXPECT_EQ(store.size(), 0u) << line;
    EXPECT_EQ(stats.malformed, 1u) << line;
    EXPECT_NE(stats.first_error.find("offset"), std::string::npos) << line;
  }
}

TEST(TraceReader, LoadsFileAndReportsBadLineNumber) {
  const std::string path =
      ::testing::TempDir() + "realtor_trace_load_test.jsonl";
  {
    std::ofstream out(path);
    out << format_jsonl(TraceEvent(1.0, 0, EventKind::kHelpSent)) << '\n';
    out << '\n';  // blank lines are tolerated
    out << format_jsonl(TraceEvent(2.0, 1, EventKind::kPledgeSent)) << '\n';
  }
  EventStore store;
  IngestStats stats;
  std::string error;
  ASSERT_TRUE(load_trace_store(path, store, stats, &error)) << error;
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store[1].kind(), "pledge_sent");
  EXPECT_EQ(stats.malformed, 0u);

  {
    std::ofstream out(path, std::ios::app);
    out << "{broken\n";
  }
  ASSERT_TRUE(load_trace_store(path, store, stats, &error)) << error;
  // The position realtor_trace reports: blank lines count toward the
  // line number.
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.first_malformed_line, 4u);
  EXPECT_EQ(stats.first_error, "expected '\"' at offset 1");
  std::remove(path.c_str());
}

TEST(TraceReader, TolerantLoadCountsMalformedLinesInsteadOfAborting) {
  const std::string path =
      ::testing::TempDir() + "realtor_trace_tolerant_test.jsonl";
  {
    std::ofstream out(path);
    out << format_jsonl(TraceEvent(1.0, 0, EventKind::kHelpSent)) << '\n';
    out << "{truncated mid-write\n";  // e.g. a crash cut the line short
    out << format_jsonl(TraceEvent(2.0, 1, EventKind::kPledgeSent)) << '\n';
    out << "also not json\n";
  }
  EventStore store;
  IngestStats stats;
  std::string error;
  ASSERT_TRUE(load_trace_store(path, store, stats, &error)) << error;
  // Every parsable event survives; nothing is silently dropped.
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store[1].kind(), "pledge_sent");
  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.first_malformed_line, 2u);
  EXPECT_FALSE(stats.first_error.empty());
  std::remove(path.c_str());

  // Only an unreadable path fails the load.
  EXPECT_FALSE(load_trace_store(path, store, stats, &error));
  EXPECT_EQ(error, "cannot open " + path);
}

TEST(JsonlSink, BufferedModeKeepsOrderAndFlushDrains) {
  // Write the same events through a write-through sink and a buffered
  // one: the flush guarantee says the outputs are identical after
  // flush(), batching only changes when bytes move.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 10; ++i) {
    TraceEvent event(static_cast<double>(i), static_cast<NodeId>(i % 3),
                     EventKind::kGossipRound);
    event.with("seq", i);
    events.push_back(event);
  }

  std::ostringstream direct_out;
  JsonlSink direct(direct_out);
  for (const TraceEvent& event : events) direct.on_event(event);

  std::ostringstream buffered_out;
  JsonlSink buffered(buffered_out, /*flush_every=*/4);
  for (std::size_t i = 0; i < events.size(); ++i) {
    buffered.on_event(events[i]);
    if (i == 2) {
      // Not yet a full batch: nothing has reached the stream.
      EXPECT_TRUE(buffered_out.str().empty());
    }
    if (i == 4) {
      // One full batch (4 lines) drained; the 5th is still pending.
      const std::string drained = buffered_out.str();
      EXPECT_EQ(std::count(drained.begin(), drained.end(), '\n'), 4);
    }
  }
  EXPECT_EQ(buffered.lines_written(), 10u);
  buffered.flush();  // drains the partial tail batch
  EXPECT_EQ(buffered_out.str(), direct_out.str());
}

/// One record per row of the literal table below: every field type, a
/// system record, string and key escapes, non-finite values and the
/// doubles at the edges of the integer shortcut.
std::vector<TraceEvent> jsonl_table_events() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<TraceEvent> events;
  TraceEvent every(12.5, 3, EventKind::kPledgeReceived);
  every.with("pledger", std::numeric_limits<std::uint64_t>::max())
      .with("availability", 0.625)
      .with("reason", "timeout")
      .with("fresh", true)
      .with("stale", false)
      .with("gone", 0);
  every.fields[5].type = TraceField::Type::kNone;
  events.push_back(every);
  events.push_back(TraceEvent(0.0, kInvalidNode, EventKind::kEngineStep)
                       .with("processed", std::uint64_t{1000}));
  events.push_back(TraceEvent(1e-3, 4294967294u, EventKind::kSystemSample));
  events.push_back(TraceEvent(60.0, 7, EventKind::kNodeSample)
                       .with("name", "a\"b\\c\n\td\x01\r\x1f\x7f\xc3\xa9")
                       .with("k\"e\\y\n\t\x01", 1));
  events.push_back(TraceEvent(2.0, 0, EventKind::kNodeSample)
                       .with("nan", std::numeric_limits<double>::quiet_NaN())
                       .with("inf", kInf)
                       .with("ninf", -kInf));
  events.push_back(TraceEvent(-0.0, 1, EventKind::kLiveTick)
                       .with("nz", -0.0)
                       .with("tenth", 0.1)
                       .with("below", 99999.0)
                       .with("at", 100000.0)
                       .with("neg", -99999.0)
                       .with("big", 1e16));
  events.push_back(TraceEvent(99999.0, 2, EventKind::kAlertFiring)
                       .with("denorm", 5e-324)
                       .with("zero", 0.0)
                       .with("ten_k", 10000.0)
                       .with("neg_ten_k", -10000.0)
                       .with("half", -0.5)
                       .with("third", 1.0 / 3.0));
  events.push_back(
      TraceEvent(100000.0, 5, EventKind::kCount).with("empty", ""));
  return events;
}

// Pins the sink's bytes for the table above. Any formatter rewrite must
// reproduce these lines exactly: the trace readers, the perfbench
// fingerprints and every saved trace depend on them.
TEST(JsonlFormat, LiteralTable) {
  const std::vector<std::string> expected = {
      R"({"t":12.5,"node":3,"kind":"pledge_received","pledger":18446744073709551615,"availability":0.625,"reason":"timeout","fresh":true,"stale":false,"gone":null})",
      R"({"t":0,"kind":"engine_step","processed":1000})",
      R"({"t":0.001,"node":4294967294,"kind":"system_sample"})",
      R"({"t":60,"node":7,"kind":"node_sample","name":"a\"b\\c\n\td\u0001\r\u001f)"
      "\x7f\xc3\xa9"
      R"(","k\"e\\y\n\t\u0001":1})",
      R"({"t":2,"node":0,"kind":"node_sample","nan":"nan","inf":"inf","ninf":"-inf"})",
      R"({"t":-0,"node":1,"kind":"live_tick","nz":-0,"tenth":0.1,"below":99999,"at":1e+05,"neg":-99999,"big":1e+16})",
      R"({"t":99999,"node":2,"kind":"alert_firing","denorm":5e-324,"zero":0,"ten_k":10000,"neg_ten_k":-10000,"half":-0.5,"third":0.3333333333333333})",
      R"({"t":1e+05,"node":5,"kind":"?","empty":""})",
  };
  const std::vector<TraceEvent> events = jsonl_table_events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(format_jsonl(events[i]), expected[i]) << "row " << i;
  }
}

// Every number the formatter writes must be std::to_chars's shortest
// round-trip text, whichever internal path produced it.
TEST(JsonlFormat, NumbersMatchToCharsShortest) {
  const auto expect_shortest = [](double value) {
    char buf[32];
    const std::string text(buf,
                           std::to_chars(buf, buf + sizeof(buf), value).ptr);
    TraceEvent event(value, 0, EventKind::kNodeSample);
    event.with("v", value);
    ASSERT_EQ(format_jsonl(event), "{\"t\":" + text +
                                       ",\"node\":0,\"kind\":\"node_sample\","
                                       "\"v\":" + text + "}")
        << std::bit_cast<std::uint64_t>(value);
  };
  expect_shortest(-0.0);
  for (int i = -200000; i <= 200000; ++i) {
    expect_shortest(static_cast<double>(i));
  }
  std::mt19937_64 rng(20260418);
  std::uniform_real_distribution<double> near(-2e5, 2e5);
  std::uniform_int_distribution<std::int64_t> whole(-(std::int64_t{1} << 60),
                                                    std::int64_t{1} << 60);
  for (int i = 0; i < 100000; ++i) {
    double value = 0.0;
    switch (i % 4) {
      case 0:  // any finite bit pattern
        do {
          value = std::bit_cast<double>(rng());
        } while (!std::isfinite(value));
        break;
      case 1:
        value = near(rng);
        break;
      case 2:  // a few decimal places, like simulated times
        value = std::round(near(rng) * 100.0) / 100.0;
        break;
      default:
        value = static_cast<double>(whole(rng));
    }
    expect_shortest(value);
  }
}

// The key cache must not trust a pointer alone: a key string freed and
// replaced by a different one at the same address prints its own name.
TEST(JsonlFormat, KeyReusedAddressPrintsItsOwnBytes) {
  char key[16];
  const char* keys[] = {"alpha", "alphb", "alp", "alphabet", "x\"y", "alpha"};
  for (const char* text : keys) {
    std::strcpy(key, text);
    TraceEvent event(1.0, 0, EventKind::kNodeSample);
    event.with(key, 7);
    std::string escaped;
    for (const char* c = text; *c != '\0'; ++c) {
      if (*c == '"') escaped += '\\';
      escaped += *c;
    }
    EXPECT_EQ(format_jsonl(event),
              "{\"t\":1,\"node\":0,\"kind\":\"node_sample\",\"" + escaped +
                  "\":7}");
  }
}

// Write-through and every batch size write the same bytes for one event
// sequence: exactly the formatted lines, newline-terminated, in order.
TEST(JsonlSink, FlushModesWriteIdenticalBytes) {
  std::vector<TraceEvent> events;
  for (int round = 0; round < 5; ++round) {
    for (const TraceEvent& event : jsonl_table_events()) events.push_back(event);
  }
  std::string expected;
  for (const TraceEvent& event : events) expected += format_jsonl(event) + "\n";
  for (const std::size_t flush_every : {0u, 1u, 3u, 7u, 4096u}) {
    std::ostringstream out;
    {
      JsonlSink sink(out, flush_every);
      for (const TraceEvent& event : events) sink.on_event(event);
      EXPECT_EQ(sink.lines_written(), events.size());
    }
    EXPECT_EQ(out.str(), expected) << "flush_every=" << flush_every;
  }
}

TEST(MetricsRegistry, FindOrCreateKeepsReferencesStable) {
  Registry registry;
  Counter& admitted = registry.counter("tasks.admitted");
  admitted.add(3);
  EXPECT_EQ(&registry.counter("tasks.admitted"), &admitted);
  EXPECT_EQ(registry.counter("tasks.admitted").value(), 3u);
  registry.gauge("occupancy.mean").set(0.5);
  registry.histogram("response").observe(2.0);
  registry.histogram("response").observe(4.0);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, FlattensCountersGaugesThenHistograms) {
  Registry registry;
  registry.histogram("h").observe(1.0);
  registry.histogram("h").observe(3.0);
  registry.gauge("g").set(7.0);
  registry.counter("c").add(2);
  registry.histogram("empty");  // no observations: skipped entirely
  std::vector<std::pair<std::string, double>> flat;
  registry.for_each([&](const std::string& name, double value) {
    flat.emplace_back(name, value);
  });
  ASSERT_EQ(flat.size(), 9u);
  EXPECT_EQ(flat[0].first, "c");
  EXPECT_DOUBLE_EQ(flat[0].second, 2.0);
  EXPECT_EQ(flat[1].first, "g");
  EXPECT_DOUBLE_EQ(flat[1].second, 7.0);
  EXPECT_EQ(flat[2].first, "h.count");
  EXPECT_DOUBLE_EQ(flat[2].second, 2.0);
  EXPECT_EQ(flat[3].first, "h.mean");
  EXPECT_DOUBLE_EQ(flat[3].second, 2.0);
  EXPECT_EQ(flat[4].first, "h.min");
  EXPECT_DOUBLE_EQ(flat[4].second, 1.0);
  EXPECT_EQ(flat[5].first, "h.max");
  EXPECT_DOUBLE_EQ(flat[5].second, 3.0);
  EXPECT_EQ(flat[6].first, "h.p50");
  EXPECT_DOUBLE_EQ(flat[6].second, 2.0);  // midpoint of {1, 3}
  EXPECT_EQ(flat[7].first, "h.p90");
  EXPECT_EQ(flat[8].first, "h.p99");
  EXPECT_DOUBLE_EQ(flat[8].second, 2.98);  // interpolated toward max
}

TEST(HistogramQuantiles, ExactWithinReservoir) {
  Histogram histogram;
  // 1..100 shuffled deterministically: quantiles must come out exact.
  for (int i = 0; i < 100; ++i) {
    histogram.observe(static_cast<double>((i * 37) % 100 + 1));
  }
  EXPECT_TRUE(histogram.exact());
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(histogram.p50(), 50.5);
  EXPECT_NEAR(histogram.p90(), 90.1, 1e-9);
  EXPECT_NEAR(histogram.p99(), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(histogram.quantile(-0.5), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(histogram.quantile(2.0), 100.0);
}

TEST(HistogramQuantiles, EmptyAndSingle) {
  Histogram histogram;
  // Empty: no defined quantile anywhere on [0, 1] — report 0.
  EXPECT_DOUBLE_EQ(histogram.p50(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 0.0);
  // One sample IS every quantile, extremes included.
  histogram.observe(4.25);
  EXPECT_DOUBLE_EQ(histogram.p50(), 4.25);
  EXPECT_DOUBLE_EQ(histogram.p99(), 4.25);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 4.25);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 4.25);
  histogram.reset();
  EXPECT_DOUBLE_EQ(histogram.p50(), 0.0);
  EXPECT_EQ(histogram.stats().count(), 0u);
}

TEST(HistogramQuantiles, ReservoirSubsamplingIsDeterministic) {
  Histogram a(64);
  Histogram b(64);
  for (int i = 0; i < 10000; ++i) {
    const double v = static_cast<double>((i * 131) % 1000);
    a.observe(v);
    b.observe(v);
  }
  EXPECT_FALSE(a.exact());
  EXPECT_EQ(a.reservoir_size(), 64u);
  // Same observation sequence -> identical reservoir -> identical
  // quantiles (the subsampling RNG is internal and seed-fixed).
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p99(), b.p99());
  // And the estimate stays inside the observed range.
  EXPECT_GE(a.p50(), a.stats().min());
  EXPECT_LE(a.p50(), a.stats().max());
}

// Satellite: Counter/Gauge must tolerate concurrent updates from the
// Agile reactor threads without torn or lost counts.
TEST(MetricsAtomicity, ConcurrentCounterAddsAreLossless) {
  Counter counter;
  Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &gauge, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.add();
        gauge.set(static_cast<double>(t));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  // The gauge holds whichever thread wrote last — any of them, untorn.
  const double last = gauge.value();
  EXPECT_GE(last, 0.0);
  EXPECT_LT(last, static_cast<double>(kThreads));
}

TEST(Sampler, TicksAtIntervalAndFlattensRegistry) {
  sim::Engine engine;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  Registry registry;
  registry.counter("sent").add(5);
  Sampler sampler(engine, 10.0, tracer, &registry);
  int probed = 0;
  sampler.add_probe([&](SimTime) { ++probed; });
  sampler.start();
  engine.run_until(35.0);
  EXPECT_EQ(sampler.ticks(), 3u);
  EXPECT_EQ(probed, 3);
  ASSERT_EQ(sink.count(EventKind::kSystemSample), 3u);
  const TraceEvent& sample = sink.events().front();
  ASSERT_EQ(sample.field_count, 2u);
  EXPECT_STREQ(sample.fields[0].s, "sent");
  EXPECT_DOUBLE_EQ(sample.fields[1].d, 5.0);
}

// Cadence edge cases around Sampler::finish() — the last-sample-at-end
// contract the live plane's final exposition snapshot depends on.
TEST(Sampler, IntervalLongerThanHorizonStillSamplesAtEnd) {
  sim::Engine engine;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  Registry registry;
  registry.counter("sent").add(1);
  Sampler sampler(engine, 50.0, tracer, &registry);
  sampler.start();
  engine.run_until(30.0);
  // No interval boundary fits inside the horizon...
  EXPECT_EQ(sink.count(EventKind::kSystemSample), 0u);
  // ...so the final flush is the only gauge record the run gets.
  sampler.finish(30.0);
  EXPECT_EQ(sink.count(EventKind::kSystemSample), 1u);
  EXPECT_DOUBLE_EQ(sampler.last_tick(), 30.0);
  EXPECT_DOUBLE_EQ(sink.events().back().time, 30.0);
}

TEST(Sampler, NonDividingIntervalGetsAFinalPartialSample) {
  sim::Engine engine;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  Registry registry;
  registry.counter("sent").add(1);
  Sampler sampler(engine, 10.0, tracer, &registry);
  sampler.start();
  engine.run_until(35.0);
  EXPECT_EQ(sampler.ticks(), 3u);  // 10, 20, 30
  sampler.finish(35.0);
  EXPECT_EQ(sampler.ticks(), 4u);  // + the 35.0 tail
  ASSERT_EQ(sink.count(EventKind::kSystemSample), 4u);
  EXPECT_DOUBLE_EQ(sink.events().back().time, 35.0);
}

TEST(Sampler, FinishIsIdempotentAndSkipsAlignedHorizons) {
  sim::Engine engine;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  Registry registry;
  registry.counter("sent").add(1);
  Sampler sampler(engine, 10.0, tracer, &registry);
  sampler.start();
  engine.run_until(30.0);
  // run_until is inclusive: the tick scheduled at exactly t=30 fired, so
  // finish(30) must not double-sample the horizon...
  EXPECT_EQ(sampler.ticks(), 3u);
  sampler.finish(30.0);
  EXPECT_EQ(sampler.ticks(), 3u);
  // ...and a second finish at the same instant stays a no-op.
  sampler.finish(30.0);
  EXPECT_EQ(sampler.ticks(), 3u);
  EXPECT_EQ(sink.count(EventKind::kSystemSample), 3u);
}

TEST(Sampler, ReArmsAcrossDrainedStretches) {
  sim::Engine engine;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  Registry registry;
  registry.counter("sent").add(1);
  Sampler sampler(engine, 10.0, tracer, &registry);
  sampler.start();
  // Drain the queue in two bursts: the tick must keep rescheduling itself
  // through the first drain so the second stretch still gets sampled.
  engine.run_until(15.0);
  EXPECT_EQ(sampler.ticks(), 1u);
  engine.run_until(45.0);
  EXPECT_EQ(sampler.ticks(), 4u);  // 10, 20, 30, 40
  EXPECT_DOUBLE_EQ(sampler.last_tick(), 40.0);
  // finish() after the fast-forward closes out the tail as usual.
  sampler.finish(45.0);
  EXPECT_EQ(sampler.ticks(), 5u);
}

TEST(LogSinkSatellite, CapturesAndRestores) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  LogSink previous = set_log_sink([&](LogLevel level,
                                      const std::string& line) {
    captured.emplace_back(level, line);
  });
  REALTOR_INFO("hello " << 42);
  REALTOR_DEBUG("filtered out");
  set_log_sink(std::move(previous));
  set_log_level(before);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured[0].second, "hello 42");
  REALTOR_ERROR("back on stderr, not the dead capture");  // must not crash
}

}  // namespace
}  // namespace realtor::obs

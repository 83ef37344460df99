// EventStore ingest tests — the store's contract, pinned by oracles from
// outside its parser:
//
//   - whatever JsonlSink writes, load_trace_buffer() reads back as exactly
//     the TraceEvents that were written (randomized round-trip over every
//     payload type, escape-heavy strings included);
//   - shard boundaries are invisible: any --jobs value produces the same
//     store and the same malformed accounting, even when lines straddle
//     chunk edges;
//   - malformed lines are counted with fixed error strings, byte offsets
//     and line numbers (literal tables, captured from the line-by-line
//     reader the store replaced);
//   - flight dumps decode into the same event model as the JSONL trace of
//     the same events, and truncation salvage yields fixed counts;
//   - the parse hot loop does not allocate per event (global operator new
//     counter — this file is its own test binary so the override only
//     observes event-store work).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/trace.hpp"

// ---- global allocation counter ------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// The nothrow forms count and free like the throwing ones: the library
// allocates through them (std::stable_sort's buffer), and their default
// definitions do not pair with the replaced delete under a sanitizer's
// allocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

namespace {
// Kept out of line: GCC 12 reports -Wmismatched-new-delete when it inlines
// a bare free() into a caller that also sees the matching operator new,
// although every operator new above allocates with malloc or
// posix_memalign.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace realtor::obs {
namespace {

// ---- helpers ------------------------------------------------------------

/// The round-trip oracle is the source event itself: what JsonlSink wrote
/// must come back as exactly the record and payload that were traced.
void expect_store_matches_source(const EventStore& store,
                                 const std::vector<TraceEvent>& source) {
  ASSERT_EQ(store.size(), source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    const EventView view = store[i];
    const TraceEvent& event = source[i];
    EXPECT_EQ(view.time(), event.time) << "event " << i;
    EXPECT_EQ(view.node(), event.node) << "event " << i;
    EXPECT_EQ(view.kind(), to_string(event.kind)) << "event " << i;
    ASSERT_EQ(view.field_count(), event.field_count) << "event " << i;
    const StoredField* field = view.fields_begin();
    for (std::uint32_t f = 0; f < event.field_count; ++f) {
      const TraceField& traced = event.fields[f];
      const StoredField& stored = field[f];
      SCOPED_TRACE("event " + std::to_string(i) + " " + traced.key);
      EXPECT_EQ(store.name(stored.key), traced.key);
      switch (traced.type) {
        case TraceField::Type::kDouble:
          EXPECT_EQ(stored.type, FieldType::kNumber);
          EXPECT_EQ(stored.number, traced.d);
          break;
        case TraceField::Type::kUint:
          EXPECT_EQ(stored.type, FieldType::kNumber);
          EXPECT_EQ(stored.number, static_cast<double>(traced.u));
          break;
        case TraceField::Type::kBool:
          EXPECT_EQ(stored.type, FieldType::kBool);
          EXPECT_EQ(stored.boolean, traced.b);
          break;
        case TraceField::Type::kString:
          EXPECT_EQ(stored.type, FieldType::kString);
          EXPECT_EQ(stored.text, traced.s);
          break;
        case TraceField::Type::kNone:
          EXPECT_EQ(stored.type, FieldType::kNull);
          break;
      }
      if (stored.type != FieldType::kNumber) {
        // The StoredField contract span normalization relies on.
        EXPECT_EQ(stored.number, 0.0);
      }
    }
  }
}

/// Same records and payloads by name and value. Intern ids may differ:
/// a flight decode interns its name table first.
void expect_same_records(const EventStore& a, const EventStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const EventView va = a[i];
    const EventView vb = b[i];
    EXPECT_EQ(va.time(), vb.time()) << i;
    EXPECT_EQ(va.node(), vb.node()) << i;
    EXPECT_EQ(va.kind(), vb.kind()) << i;
    ASSERT_EQ(va.field_count(), vb.field_count()) << i;
    for (std::size_t f = 0; f < va.field_count(); ++f) {
      const StoredField& fa = va.fields_begin()[f];
      const StoredField& fb = vb.fields_begin()[f];
      EXPECT_EQ(a.name(fa.key), b.name(fb.key)) << i;
      EXPECT_EQ(fa.type, fb.type) << i << " " << a.name(fa.key);
      EXPECT_EQ(fa.boolean, fb.boolean) << i;
      EXPECT_EQ(fa.number, fb.number) << i;
      EXPECT_EQ(fa.text, fb.text) << i << " " << a.name(fa.key);
    }
  }
}

void expect_same_store(const EventStore& a, const EventStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.fields().size(), b.fields().size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const EventRec& ra = a.records()[i];
    const EventRec& rb = b.records()[i];
    EXPECT_EQ(ra.time, rb.time) << i;
    EXPECT_EQ(ra.node, rb.node) << i;
    // Ids must match exactly — the parallel merge reproduces serial
    // first-appearance interning, not just equivalent names.
    EXPECT_EQ(ra.kind, rb.kind) << i;
    EXPECT_EQ(a.name(ra.kind), b.name(rb.kind)) << i;
    EXPECT_EQ(ra.field_begin, rb.field_begin) << i;
    EXPECT_EQ(ra.field_count, rb.field_count) << i;
  }
  for (std::size_t f = 0; f < a.fields().size(); ++f) {
    const StoredField& fa = a.fields()[f];
    const StoredField& fb = b.fields()[f];
    EXPECT_EQ(fa.key, fb.key) << f;
    EXPECT_EQ(a.name(fa.key), b.name(fb.key)) << f;
    EXPECT_EQ(fa.type, fb.type) << f;
    EXPECT_EQ(fa.boolean, fb.boolean) << f;
    EXPECT_EQ(fa.text, fb.text) << f;
    if (fa.type == FieldType::kNumber) {
      EXPECT_EQ(fa.number, fb.number) << f;
    }
  }
}

// ---- randomized sink -> reader round trip -------------------------------

TEST(EventStoreRoundTrip, RandomizedSinkOutputParsesIdentically) {
  // Static pools: TraceEvent stores key/value pointers, not copies.
  static const char* kKeys[] = {"episode", "origin",  "urgency", "answered",
                                "reason",  "payload", "k0",      "k1",
                                "k2",      "k3"};
  static const char* kStrings[] = {
      "plain",
      "",
      "with space",
      "quote\"back\\slash",
      "line\nbreak\ttab",
      "ctl\x01\x02\x1f",  // sink escapes these as \u00XX
      "del\x7f",
      "utf8 \xc3\xa9\xc3\xbc",  // raw UTF-8 passes through both paths
  };
  std::mt19937 rng(20260807);
  std::uniform_real_distribution<double> time_dist(0.0, 1e4);
  std::uniform_real_distribution<double> value_dist(-1e6, 1e6);

  std::string buffer;
  std::vector<TraceEvent> source;
  for (int i = 0; i < 600; ++i) {
    const auto kind = static_cast<EventKind>(
        rng() % static_cast<std::uint32_t>(EventKind::kCount));
    const NodeId node =
        (rng() % 8 == 0) ? kInvalidNode : static_cast<NodeId>(rng() % 10000);
    TraceEvent event(time_dist(rng), node, kind);
    const auto fields =
        static_cast<std::uint32_t>(rng() % (kMaxTraceFields + 1));
    for (std::uint32_t f = 0; f < fields; ++f) {
      const char* key = kKeys[rng() % (sizeof kKeys / sizeof *kKeys)];
      switch (rng() % 4) {
        case 0:
          event.with(key, value_dist(rng));
          break;
        case 1:
          event.with(key, static_cast<std::uint64_t>(rng()));
          break;
        case 2:
          event.with(key, rng() % 2 == 0);
          break;
        default:
          event.with(key,
                     kStrings[rng() % (sizeof kStrings / sizeof *kStrings)]);
          break;
      }
    }
    buffer += format_jsonl(event);
    buffer += '\n';
    if (rng() % 16 == 0) buffer += '\n';  // blank lines are skipped
    source.push_back(event);
  }

  for (const unsigned jobs : {1u, 3u}) {
    EventStore store;
    IngestStats stats;
    std::string error;
    ASSERT_TRUE(load_trace_buffer(std::string(buffer), store, stats, &error,
                                  jobs))
        << error;
    EXPECT_EQ(stats.malformed, 0u);
    EXPECT_EQ(stats.events, 600u);
    expect_store_matches_source(store, source);
  }
}

// ---- shard boundaries ---------------------------------------------------

TEST(EventStoreSharding, JobCountNeverChangesTheStore) {
  // ~1.2 MB of lines of wildly varying length, so with kMinShardBytes =
  // 64 KiB every jobs value from 2..8 actually shards, and boundaries
  // land mid-line everywhere. Sprinkled malformed lines check the stats
  // merge across shards too.
  std::mt19937 rng(7);
  std::string buffer;
  std::size_t malformed = 0;
  std::size_t nonempty = 0;
  std::size_t first_malformed = 0;
  while (buffer.size() < 1200 * 1024) {
    if (rng() % 97 == 0) {
      buffer += "{\"t\":broken";
      buffer += '\n';
      ++nonempty;
      ++malformed;
      if (first_malformed == 0) first_malformed = nonempty;
      continue;
    }
    TraceEvent event(static_cast<double>(nonempty),
                     static_cast<NodeId>(rng() % 4000),
                     EventKind::kNodeSample);
    event.with("cpu", static_cast<double>(rng() % 1000) / 1000.0);
    if (rng() % 3 == 0) {
      // Long escaped payload: decodes through the arena slow path and
      // stretches some lines across shard boundaries.
      static std::string long_text;
      long_text.assign(40 + rng() % 400, 'x');
      long_text += "\ttail";
      event.with("blob", long_text.c_str());
      buffer += format_jsonl(event);
    } else {
      buffer += format_jsonl(event);
    }
    buffer += '\n';
    ++nonempty;
  }

  EventStore serial;
  IngestStats serial_stats;
  ASSERT_TRUE(load_trace_buffer(std::string(buffer), serial, serial_stats,
                                nullptr, 1));
  EXPECT_EQ(serial_stats.shards, 1u);
  EXPECT_EQ(serial_stats.lines, nonempty);
  EXPECT_EQ(serial_stats.malformed, malformed);
  EXPECT_EQ(serial_stats.first_malformed_line, first_malformed);

  for (unsigned jobs = 2; jobs <= 8; ++jobs) {
    EventStore parallel;
    IngestStats stats;
    ASSERT_TRUE(load_trace_buffer(std::string(buffer), parallel, stats,
                                  nullptr, jobs));
    EXPECT_GT(stats.shards, 1u) << jobs;
    EXPECT_EQ(stats.lines, serial_stats.lines) << jobs;
    EXPECT_EQ(stats.events, serial_stats.events) << jobs;
    EXPECT_EQ(stats.malformed, serial_stats.malformed) << jobs;
    EXPECT_EQ(stats.first_malformed_line, serial_stats.first_malformed_line)
        << jobs;
    EXPECT_EQ(stats.first_error, serial_stats.first_error) << jobs;
    expect_same_store(serial, parallel);
  }
}

// ---- malformed accounting ----------------------------------------------
//
// The expected values below are literals captured from the line-by-line
// reader the store replaced; the store reproduces it byte for byte.

TEST(EventStoreMalformed, AccountingMatchesLegacyReader) {
  const std::string buffer =
      "{\"t\":1,\"kind\":\"help_sent\"}\n"
      "\n"
      "{broken\n"
      "{\"t\":2,\"node\":3,\"kind\":\"pledge_sent\",\"episode\":4}\n"
      "[\"not an object\"]\n"
      "{\"t\":\"oops\",\"kind\":\"help_sent\"}\n"
      "{\"t\":3,\"kind\":\"help_sent\"} trailing\n"
      "{\"t\":4,\"kind\":\"help_sent\",\"s\":\"unterminated\n"
      "{\"t\":5,\"kind\":\"help_sent\",\"s\":\"bad\\q\"}\n"
      "{\"t\":6,\"kind\":\"help_sent\"}\n";

  EventStore store;
  IngestStats stats;
  ASSERT_TRUE(load_trace_buffer(std::string(buffer), store, stats));
  EXPECT_EQ(stats.lines, 9u);  // the blank line is not counted...
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.malformed, 6u);
  EXPECT_EQ(stats.first_malformed_line, 3u);  // ...but it is numbered
  EXPECT_EQ(stats.first_error, "expected '\"' at offset 1");

  ASSERT_EQ(store.size(), 3u);
  const double times[] = {1.0, 2.0, 6.0};
  const NodeId nodes[] = {kInvalidNode, 3, kInvalidNode};
  const char* kinds[] = {"help_sent", "pledge_sent", "help_sent"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(store[i].time(), times[i]) << i;
    EXPECT_EQ(store[i].node(), nodes[i]) << i;
    EXPECT_EQ(store[i].kind(), kinds[i]) << i;
  }
  EXPECT_EQ(store[0].field_count(), 0u);
  ASSERT_EQ(store[1].field_count(), 1u);
  EXPECT_EQ(store[1].fields_begin()->type, FieldType::kNumber);
  EXPECT_EQ(store[1].number("episode"), 4.0);
  EXPECT_EQ(store[2].field_count(), 0u);
}

TEST(EventStoreMalformed, ErrorStringsMatchParseJsonlLine) {
  struct BadLine {
    const char* line;
    const char* error;
  };
  const BadLine kBadLines[] = {
      {"{broken", "expected '\"' at offset 1"},
      {"[\"array\"]", "expected '{' at offset 0"},
      {"not json", "expected '{' at offset 0"},
      {"{", "expected '\"' at offset 1"},
      {"{1:2}", "expected '\"' at offset 1"},
      {"{\"t\":\"x\",\"kind\":\"help_sent\"}",
       "record has no \"t\" at offset 28"},
      {"{\"node\":3,\"kind\":\"help_sent\"}",
       "record has no \"t\" at offset 29"},
      {"{\"t\":1}", "record has no \"kind\" at offset 7"},
      {"{\"t\":1.0,\"node\":2}", "record has no \"kind\" at offset 18"},
      {"{\"t\":1,\"kind\":7}", "record has no \"kind\" at offset 16"},
      {"{\"t\":1,\"kind\":\"help_sent\"}  junk",
       "trailing garbage at offset 28"},
      {"{\"t\" 1,\"kind\":\"help_sent\"}", "expected ':' at offset 5"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":\"\\q\"}",
       "unknown escape at offset 33"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":\"\\u12\"}",
       "bad \\u escape at offset 33"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":\"\\uzzzz\"}",
       "bad \\u escape at offset 33"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":\"open",
       "unterminated string at offset 35"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":\"tail\\",
       "unterminated string at offset 36"},
      {"{\"t\":1,\"kind\":\"help_sent\",,}", "expected '\"' at offset 26"},
      {"{\"t\":1,\"kind\":\"help_sent\" \"s\":1}",
       "expected ',' or '}' at offset 26"},
      {"{\"t\":1e,\"kind\":\"help_sent\"}", "expected ',' or '}' at offset 6"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":}",
       "expected number at offset 30"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":nul}",
       "expected number at offset 30"},
  };
  for (const BadLine& bad : kBadLines) {
    EventStore store;
    IngestStats stats;
    ASSERT_TRUE(load_trace_buffer(std::string(bad.line) + "\n", store, stats));
    EXPECT_EQ(store.size(), 0u) << bad.line;
    EXPECT_EQ(stats.malformed, 1u) << bad.line;
    EXPECT_EQ(stats.first_malformed_line, 1u) << bad.line;
    EXPECT_EQ(stats.first_error, bad.error) << bad.line;
  }
}

// ---- flight dump direct decode ------------------------------------------

TEST(EventStoreFlight, DirectDecodeMatchesJsonlStore) {
  const std::string path = ::testing::TempDir() + "event_store_flight.bin";
  FlightRecorder recorder(/*capacity_per_ring=*/8);
  FlightRing& ring0 = recorder.ring(0);
  FlightRing& ring1 = recorder.ring(1);
  // What each ring will hold at dump time, oldest first.
  std::vector<TraceEvent> kept0;
  std::vector<TraceEvent> kept1;

  kept0.push_back(TraceEvent(1.0, 2, EventKind::kHelpSent)
                      .with("urgency", 0.75)
                      .with("episode", std::uint64_t{42}));
  kept0.push_back(TraceEvent(1.5, 3, EventKind::kPledgeSent)
                      .with("availability", 0.5)
                      .with("answered", true)
                      .with("reason", "solicited"));
  kept0.push_back(TraceEvent(2.0, kInvalidNode, EventKind::kEngineStep)
                      .with("processed", std::uint64_t{1000}));
  kept0.push_back(TraceEvent(3.0, 7, EventKind::kNodeSample)
                      .with("bad", std::numeric_limits<double>::quiet_NaN())
                      .with("inf", std::numeric_limits<double>::infinity())
                      .with("ninf", -std::numeric_limits<double>::infinity()));
  for (const TraceEvent& event : kept0) ring0.on_event(event);
  // Overflow ring1 so dropped > 0 in the dump counters; the last eight
  // survive, and ring0's t=3.0 record ties with ring1's first survivor.
  for (int i = 0; i < 12; ++i) {
    const TraceEvent event = TraceEvent(i - 1.0, 7, EventKind::kSystemSample)
                                 .with("i", static_cast<std::uint64_t>(i));
    ring1.on_event(event);
    if (i >= 4) kept1.push_back(event);
  }
  ASSERT_TRUE(recorder.dump(path));

  EventStore store;
  FlightStoreInfo info;
  TraceLoadStats stats;
  std::string error;
  ASSERT_TRUE(load_flight_file(path, store, info, stats, &error)) << error;
  std::remove(path.c_str());

  EXPECT_FALSE(info.truncated);
  ASSERT_EQ(info.rings.size(), 2u);
  EXPECT_EQ(info.rings[0].source, 0u);
  EXPECT_EQ(info.rings[0].recorded, 4u);
  EXPECT_EQ(info.rings[0].dropped, 0u);
  EXPECT_EQ(info.rings[0].stored, 4u);
  EXPECT_EQ(info.rings[1].source, 1u);
  EXPECT_EQ(info.rings[1].recorded, 12u);
  EXPECT_EQ(info.rings[1].dropped, 4u);
  EXPECT_EQ(info.rings[1].stored, 8u);
  EXPECT_EQ(info.total_recorded(), 16u);
  EXPECT_EQ(info.total_dropped(), 4u);
  EXPECT_EQ(stats.lines, 12u);
  EXPECT_EQ(stats.events, 12u);
  EXPECT_EQ(stats.malformed, 0u);

  // The JSONL trace of the same surviving events, in the dump's merge
  // order: by time, ties in ring order.
  std::vector<TraceEvent> merged = kept0;
  merged.insert(merged.end(), kept1.begin(), kept1.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  std::string jsonl;
  for (const TraceEvent& event : merged) jsonl += format_jsonl(event) + "\n";
  EventStore from_jsonl;
  IngestStats jsonl_stats;
  ASSERT_TRUE(load_trace_buffer(std::move(jsonl), from_jsonl, jsonl_stats));
  ASSERT_EQ(jsonl_stats.malformed, 0u);

  expect_same_records(store, from_jsonl);
  // Non-finite doubles come back as the strings the JSONL sink quotes.
  const EventView sample = store[3];
  ASSERT_EQ(sample.kind(), "node_sample");
  ASSERT_NE(sample.find("ninf"), nullptr);
  EXPECT_EQ(sample.find("ninf")->type, FieldType::kString);
  EXPECT_EQ(sample.find("ninf")->text, "-inf");
}

TEST(EventStoreFlight, TruncatedDumpSalvagesLikeLegacyReader) {
  const std::string path =
      ::testing::TempDir() + "event_store_flight_cut.bin";
  FlightRecorder recorder(/*capacity_per_ring=*/64);
  FlightRing& ring = recorder.ring(0);
  for (int i = 0; i < 40; ++i) {
    ring.on_event(TraceEvent(static_cast<double>(i),
                             static_cast<NodeId>(i % 5),
                             EventKind::kNodeSample)
                      .with("cpu", 0.25)
                      .with("tag", "steady"));
  }
  ASSERT_TRUE(recorder.dump(path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream tmp;
    tmp << in.rdbuf();
    bytes = tmp.str();
  }
  bytes.resize(bytes.size() * 3 / 5);  // cut mid-ring
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  EventStore store;
  FlightStoreInfo info;
  TraceLoadStats stats;
  std::string error;
  ASSERT_TRUE(load_flight_file(path, store, info, stats, &error)) << error;
  std::remove(path.c_str());

  // Literal salvage counts, captured from the record-vector decoder the
  // store decode replaced: 23 intact records before the cut, the other
  // 17 the ring header promised are accounted as lost.
  EXPECT_TRUE(info.truncated);
  ASSERT_EQ(info.rings.size(), 1u);
  EXPECT_EQ(stats.lines, 40u);
  EXPECT_EQ(stats.events, 23u);
  EXPECT_EQ(stats.malformed, 17u);
  EXPECT_EQ(stats.first_malformed_line, 24u);
  EXPECT_EQ(stats.first_error, "truncated record");
  ASSERT_EQ(store.size(), 23u);
  for (std::size_t i = 0; i < store.size(); ++i) {
    const EventView view = store[i];
    EXPECT_EQ(view.time(), static_cast<double>(i));
    EXPECT_EQ(view.node(), i % 5);
    EXPECT_EQ(view.kind(), "node_sample");
    EXPECT_EQ(view.number("cpu"), 0.25);
    ASSERT_NE(view.find("tag"), nullptr);
    EXPECT_EQ(view.find("tag")->text, "steady");
  }
}

// ---- allocation behavior ------------------------------------------------

TEST(EventStoreAlloc, ParseHotLoopAllocationsAreAmortized) {
  constexpr std::size_t kEvents = 50000;
  std::string buffer;
  buffer.reserve(kEvents * 96);
  char line[160];
  for (std::size_t i = 0; i < kEvents; ++i) {
    std::snprintf(line, sizeof line,
                  "{\"t\":%zu.5,\"node\":%zu,\"kind\":\"node_sample\","
                  "\"cpu\":0.25,\"queue\":%zu,\"state\":\"steady\"}\n",
                  i, i % 1000, i % 7);
    buffer += line;
  }

  EventStore store;
  IngestStats stats;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(load_trace_buffer(std::move(buffer), store, stats, nullptr, 1));
  const std::uint64_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(store.size(), kEvents);
  ASSERT_EQ(stats.malformed, 0u);
  // Growth is amortized (geometric vectors, 64 KiB arena chunks, one
  // interner rehash chain): a tiny fraction of one allocation per event.
  EXPECT_LT(delta, kEvents / 50) << "parse loop allocates per event";
}

}  // namespace
}  // namespace realtor::obs

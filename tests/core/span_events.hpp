// Test helper: reduces recorded trace events to SpanEvents through the
// path production uses. Each event is rendered with obs::append_jsonl,
// the text is loaded with obs::load_trace_buffer, and the store is
// normalized.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/event_store.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace realtor::obs {

inline std::vector<SpanEvent> spans_of(const std::vector<TraceEvent>& events) {
  std::string text;
  for (const TraceEvent& event : events) {
    append_jsonl(text, event);
    text.push_back('\n');
  }
  EventStore store;
  IngestStats stats;
  EXPECT_TRUE(load_trace_buffer(std::move(text), store, stats));
  EXPECT_EQ(stats.malformed, 0u) << stats.first_error;
  return normalize_events(store);
}

}  // namespace realtor::obs

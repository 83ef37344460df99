// JSONL trace sink: one flat JSON object per event, one event per line.
//
//   {"t":12.5,"node":3,"kind":"help_sent","urgency":1,"interval":2.5}
//
// "t", "kind" are always present; "node" is omitted for system-wide
// records. Numbers round-trip (shortest std::to_chars form), strings are
// escaped per RFC 8259. Lines are written under a mutex so the threaded
// Agile runtime can share one sink across reactor threads.
//
// One formatter, append_jsonl, writes every record: straight into the
// sink's buffer, through a bounded stack line buffer, with the
// `,"kind":"<name>"` fragments pre-rendered per kind and the escaped
// `,"key":` fragments cached per thread. A cache hit compares the key's
// bytes, not only its pointer, so a key string freed and replaced at the
// same address still prints its own name. Integer-valued doubles below
// 1e5 in magnitude print as integers, which is exactly the text
// std::to_chars's shortest form gives them; every other double goes
// through std::to_chars.
#pragma once

#include <fstream>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/trace.hpp"

namespace realtor::obs {

/// Appends the sink's line format for `event` to `out`, without the
/// trailing newline.
void append_jsonl(std::string& out, const TraceEvent& event);

/// append_jsonl into a fresh string; for tests and tools that want one
/// line at a time.
std::string format_jsonl(const TraceEvent& event);

/// Flush guarantee: events appear in the output in emission order in
/// every mode, and both modes write the same bytes. Each event is
/// formatted straight into the sink's buffer. With flush_every == 0 (the
/// default) the buffer goes to the stream after every event. With
/// flush_every == K > 0 lines are batched in memory and written + flushed
/// once K events accumulate — one syscall-ish write per K events instead
/// of per event. flush() (and the destructor) always drains the batch, so
/// after either returns every emitted event is in the stream; between
/// batch flushes up to K-1 events may be buffered and would be lost on a
/// crash. Ordering is protected by the same mutex in both modes, so the
/// threaded Agile runtime can share one buffered sink.
class JsonlSink final : public TraceSink {
 public:
  /// Writes to a borrowed stream (tests, stdout piping).
  explicit JsonlSink(std::ostream& out, std::size_t flush_every = 0);
  /// Opens `path` for writing; check ok() before use.
  explicit JsonlSink(const std::string& path, std::size_t flush_every = 0);
  ~JsonlSink() override;

  /// False when the file constructor failed to open the path.
  bool ok() const { return out_ != nullptr && out_->good(); }

  void on_event(const TraceEvent& event) override;
  void flush() override;

  std::uint64_t lines_written() const { return lines_; }
  std::size_t flush_every() const { return flush_every_; }

 private:
  void drain_locked();  // writes + flushes the pending batch

  std::ofstream file_;
  std::ostream* out_ = nullptr;
  std::mutex mutex_;
  std::uint64_t lines_ = 0;
  std::size_t flush_every_ = 0;
  std::size_t pending_ = 0;
  std::string buffer_;
};

}  // namespace realtor::obs

// Measurement plumbing shared by the perfbench workloads: an in-memory span
// log recorded from the benchmark's own code around calls into the
// simulator's public functions, self-time attribution over those spans and
// the compiled-in obs::Profiler scope tree, order statistics, output
// fingerprints and the machine/build record.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/profile.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// One timed interval. `parent` is another span's index (-1 = a root: one
/// timed unit of a workload); `lane` tells threads apart, so a parent may
/// have children running concurrently on worker threads.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  int parent = -1;
  unsigned lane = 0;
};

/// Spans kept in memory and written out once, at exit. Thread-safe: sweep
/// workers open and close spans concurrently. A disabled log (the untraced
/// units) records nothing and hands out id -1.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string_view name, int parent);
  void close(int id);

  /// The recorded spans; call only after every span has closed.
  const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated dump: a header, then one line per span (id, parent,
  /// lane, name, start_ns, end_ns).
  void write_tsv(std::ostream& out) const;

 private:
  bool enabled_ = false;
  std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span for synchronous calls on the current thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, int parent)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Totals of one name across every occurrence (span name or profiler scope
/// name): calls, inclusive and self seconds.
struct NameTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self time per span name. A span's self time is its duration minus the
/// part of its interval covered by its children (the union of their
/// intervals, so concurrent children on worker threads count once).
/// `unattributed_s` is the self time of the root spans: time inside a timed
/// unit during which no layer span was open on any thread.
struct SpanAttribution {
  std::map<std::string, NameTotals> by_name;
  double unattributed_s = 0.0;
};
SpanAttribution attribute_spans(const std::vector<Span>& spans);

/// Self time per scope name of the profiler tree (self = a node's time
/// minus its children's), plus the summed time of the top-level scopes,
/// which is the profiled share of whatever span enclosed them.
struct ProfileAttribution {
  std::map<std::string, NameTotals> by_scope;
  double root_total_s = 0.0;
};
ProfileAttribution attribute_profile(
    const std::vector<realtor::obs::ProfileEntry>& entries);

/// Order statistics over a copy of `values` (linear interpolation between
/// closest ranks); 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Incremental 64-bit FNV-1a, rendered as 16 hex digits.
class Fnv1a {
 public:
  void update(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
    h_ ^= 0xff;  // separator, so ("ab","c") and ("a","bc") differ
    h_ *= 1099511628211ULL;
  }
  /// Hashes the object representation of a trivially copyable value.
  template <typename T>
  void update_bits(const T& value) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    update(std::string_view(bytes, sizeof(T)));
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

inline std::string fingerprint_hex(std::string_view text) {
  Fnv1a h;
  h.update(text);
  return h.hex();
}

/// The machine and build the numbers come from, as one JSON object:
/// nproc (CPUs this process may run on), hw_threads, governor, compiler and
/// whether the build is optimised.
std::string machine_json();

/// True when compiled with optimisation and NDEBUG; the benchmark refuses
/// to report numbers otherwise.
bool optimized_build();

/// Sweep workers and ingest shards: one per usable CPU, at most 4.
unsigned worker_count();

/// Pins the calling thread to one of the CPUs it may run on, picked
/// round-robin by `turn`, and restores the previous affinity on
/// destruction. The benchmark's host runs its CPUs at independently varying
/// speeds (up to 1.8x apart for seconds at a time); rotating the
/// single-threaded part of a unit across them makes a run's median sample
/// every CPU instead of whichever one the scheduler kept it on.
class CpuTurn {
 public:
  explicit CpuTurn(std::size_t turn);
  ~CpuTurn();
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Peak resident set in MiB of this process or of any waited-for child,
/// whichever is larger.
double peak_rss_mib();

/// User + system CPU seconds of every waited-for child so far.
double children_cpu_s();

}  // namespace perfbench

#pragma once
// Hierarchical self-profiler: RAII scoped wall-clock timers feeding a
// shared scope tree ("engine/dispatch", "transport/flood", ...).
//
// The profiler lives in realtor_common — below realtor_sim and
// realtor_net — so the event-loop kernel and the shortest-path cache can
// be instrumented without a dependency on the obs library. It is exposed
// in namespace realtor::obs because it is part of the observability
// surface: realtor_sim --profile, perfbench and BENCH_obs.json consume
// its snapshots.
//
// Cost contract: when disabled (the default), a ProfileScope costs one
// relaxed atomic load and a predictable branch — no clock reads, no
// locks, no allocation. This keeps instrumented hot paths inside the
// tracing-overhead budget gated by bench/perf_regression. When enabled,
// entering a scope takes a mutex to intern the (parent, name) tree node;
// accumulation on exit is lock-free (relaxed atomic adds), and the
// per-thread scope stack is a thread_local node index, so concurrent
// sweep workers profile into one shared tree safely.

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace realtor::obs {

/// One flattened scope-tree node: pre-order position, "a/b/c" path,
/// nesting depth, and accumulated totals.
struct ProfileEntry {
  std::string path;
  int depth = 0;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

class Profiler {
 public:
  static Profiler& instance();

  /// The switch is a static atomic rather than state reached through
  /// instance(), so a disabled ProfileScope is one inline relaxed load:
  /// no call and no function-local static guard.
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded scope (the enabled flag is untouched). Must not
  /// race live ProfileScopes: call it between runs, when every scope on
  /// every thread has exited.
  void reset();

  /// Deterministic pre-order flattening of the scope tree; siblings are
  /// visited in name order, so two identical workloads produce entries in
  /// the same order (timings differ, structure does not).
  std::vector<ProfileEntry> snapshot() const;

  // Internal API used by ProfileScope: push `name` under the calling
  // thread's current node and return the previous node index; pop back to
  // `parent` after charging `ns` to the node being left.
  std::uint32_t enter(const char* name);
  void leave(std::uint32_t parent, std::uint64_t ns);

 private:
  Profiler();

  struct Node {
    std::string name;
    std::uint32_t parent = 0;
    std::vector<std::uint32_t> children;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };

  void flatten(std::uint32_t index, int depth, const std::string& prefix,
               std::vector<ProfileEntry>& out) const;

  static inline std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;       // guards nodes_ structure (not totals)
  std::deque<Node> nodes_;         // deque: stable addresses for atomics
};

/// RAII scope timer. Usage: `obs::ProfileScope scope("engine/dispatch");`
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    if (Profiler::enabled()) begin(name);
  }
  ~ProfileScope() {
    if (armed_) end();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  void begin(const char* name);
  void end();

  std::uint32_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  bool armed_ = false;
};

/// Tab-separated dump, one scope per line: depth, calls, ns, path.
/// Trivially parseable back with parse_profile_tsv (used by
/// `realtor_trace --export=perfetto --profile=FILE`).
void write_profile_tsv(std::ostream& out,
                       const std::vector<ProfileEntry>& entries);
std::vector<ProfileEntry> parse_profile_tsv(std::istream& in);

/// Human-readable indented tree with per-scope totals and call counts.
std::string render_profile_text(const std::vector<ProfileEntry>& entries);

}  // namespace realtor::obs

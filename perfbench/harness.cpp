#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

unsigned current_lane() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned lane = next.fetch_add(1);
  return lane;
}

/// Length of the union of [start, end) intervals.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = iv.empty() ? 0 : iv.front().first;
  for (const auto& [start, end] : iv) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int SpanLog::open(std::string_view name, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.lane = current_lane();
  span.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void SpanLog::write_tsv(std::ostream& out) const {
  out << "id\tparent\tlane\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.lane << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

SpanAttribution attribute_spans(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  SpanAttribution out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self =
        total - static_cast<double>(covered_ns(std::move(children[i]))) * 1e-9;
    NameTotals& t = out.by_name[s.name];
    ++t.calls;
    t.total_s += total;
    t.self_s += self;
    if (s.parent < 0) out.unattributed_s += self;
  }
  return out;
}

ProfileAttribution attribute_profile(
    const std::vector<realtor::obs::ProfileEntry>& entries) {
  // Entries come in pre-order with depths; scope names themselves contain
  // '/', so a node's own name is its path minus the parent's path.
  ProfileAttribution out;
  std::vector<std::size_t> stack;  // indices of the open ancestors
  std::vector<double> child_s(entries.size(), 0.0);
  const auto own_name = [&](std::size_t i) {
    const std::string& path = entries[i].path;
    if (stack.empty()) return path;
    return path.substr(entries[stack.back()].path.size() + 1);
  };
  std::vector<std::string> names(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    while (static_cast<int>(stack.size()) > entries[i].depth) stack.pop_back();
    names[i] = own_name(i);
    const double total = static_cast<double>(entries[i].ns) * 1e-9;
    if (stack.empty()) {
      out.root_total_s += total;
    } else {
      child_s[stack.back()] += total;
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    NameTotals& t = out.by_scope[names[i]];
    const double total = static_cast<double>(entries[i].ns) * 1e-9;
    t.calls += entries[i].calls;
    t.total_s += total;
    t.self_s += total - child_s[i];
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string Fnv1a::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

unsigned worker_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned usable = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    usable = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min(usable, 4u);
}

std::string machine_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string governor = "unknown";
  std::ifstream gov("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string line;
  if (gov && std::getline(gov, line) && !line.empty()) governor = line;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"hw_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"governor\": \"" + json_escape(governor) +
         "\", \"compiler\": \"" + json_escape(compiler) +
         "\", \"optimized\": " + (optimized_build() ? "true" : "false") +
         ", \"workers\": " + std::to_string(worker_count()) + "}";
}

CpuTurn::CpuTurn(std::size_t turn) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  std::vector<std::size_t> cpus;
  for (std::size_t cpu = 0; cpu < std::size_t{CPU_SETSIZE}; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[turn % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuTurn::~CpuTurn() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double peak_rss_mib() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

double children_cpu_s() {
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(kids.ru_utime) + secs(kids.ru_stime);
}

}  // namespace perfbench

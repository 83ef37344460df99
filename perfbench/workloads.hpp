// The benchmark's workloads. Each one builds its inputs from a seed, runs
// one "timed unit" of paper work through the simulator's public API, and
// fingerprints every output the unit produced so repeated units, an
// independent recomputation and the committed fingerprints can be compared.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// kFull is what the benchmark measures; kTiny shrinks every workload so
/// the self-check runs all of them, with their output checks, in seconds.
enum class Scale { kFull, kTiny };

/// Layer counts a workload adds up over its traced units, keyed by the
/// per-layer metric names of BENCHMARK.json.
using Counters = std::map<std::string, double>;

struct UnitContext {
  SpanLog& spans;
  /// Root span of this unit (-1 when untraced).
  int root = -1;
  /// Non-null in traced units only.
  Counters* counters = nullptr;
};

/// What a unit (or a reference recomputation) produced.
struct UnitResult {
  /// Fingerprint of every output; equal across units of one seed.
  std::string digest;
  /// Fingerprints of the warm-up unit's once-per-run analyses; they join
  /// the committed fingerprint but not the unit-to-unit comparison.
  std::string analysis;
  /// Operations attempted: simulation runs or analysis passes.
  std::uint64_t ops = 0;
  /// Operations whose own checks failed (each with a line in `problems`).
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The program's work before the timed units: sweep planning and
  /// Simulation construction, or recording the trace to analyse. Called
  /// several times; each call is timed for setup_s.
  virtual void setup() = 0;

  /// One timed unit of work; keeps its outputs for outputs().
  virtual void unit(UnitContext& ctx) = 0;

  /// Fingerprints and checks what the last unit produced (untimed).
  /// `first` adds the once-per-run analyses of the warm-up unit.
  virtual UnitResult outputs(bool first) = 0;

  /// Recomputes `first`'s outputs by an independent path (the serial
  /// executor, thread instead of fork execution, a run without the trace
  /// sink, a serial parse) and reports each disagreement as a failure.
  virtual UnitResult cross_check(const UnitResult& first) = 0;
};

/// Names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. Files the workload writes go under
/// `work_dir`. `profiled` marks an invocation whose traced units enable
/// obs::Profiler.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, Scale scale,
                                        const std::string& work_dir,
                                        bool profiled);

/// The committed fingerprint of the first unit's outputs for (workload,
/// scale, seed), or "" when none is committed for that seed.
std::string committed_fingerprint(std::string_view workload, Scale scale,
                                  std::uint64_t seed);

/// Seeds with committed fingerprints: the default and a held-out one.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7;

}  // namespace perfbench

// Shared flag plumbing for the figure-reproduction binaries.
//
// Scenario flags (workload, topology, protocol, --tries, accounting,
// attacks, ...) map through experiment::scenario_from_flags, the same
// mapping realtor_sim uses (see src/experiment/cli_config.hpp). The
// default --duration is 600 s; each bench may override it. On top of
// those, every binary accepts:
//   --lambdas=1,2,...   arrival-rate sweep (tasks/s system-wide)
//   --reps=N            replications per cell (default 5)
//   --jobs=N            sweep worker threads; 0 (default) = one per
//                       hardware thread, 1 = serial reference path.
//                       Results are byte-identical for every value.
//   --exec=thread|fork  sweep execution backend (default thread). fork
//                       snapshots shared pre-attack prefixes and finishes
//                       each point in a COW child (Linux only; results
//                       byte-identical to thread).
//   --csv=PATH          also write the table as CSV
//   --ci                print 95% confidence half-widths
//   --trace=PREFIX      JSONL trace per sweep run, named
//                       PREFIX.<proto>.lambda<L>.rep<R>.jsonl
//   --trace-flush-every=K  batch JSONL writes, K lines per flush
//   --flight-recorder[=N]  binary flight ring per sweep run (N records),
//                       dumped to <flight-out>.<proto>.lambda<L>.rep<R>.bin
//   --flight-out=PREFIX flight dump prefix (default "flight")
#pragma once

#include <string>
#include <vector>

#include "common/flags.hpp"
#include "experiment/cli_config.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sweep.hpp"

namespace realtor::benchutil {

inline std::vector<double> default_lambdas() {
  return {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0};
}

inline experiment::SweepOptions sweep_options(const Flags& flags) {
  experiment::SweepOptions options = experiment::paper_sweep_options(
      flags.get_double_list("lambdas", default_lambdas()),
      static_cast<std::uint32_t>(flags.get_int("reps", 5)));
  options.jobs = static_cast<unsigned>(flags.get_int("jobs", 0));
  if (const std::optional<experiment::SweepExec> exec =
          experiment::parse_exec(flags.get_string("exec", "thread"))) {
    options.exec = *exec;
  }
  // Same per-run tracing the CLI sweep offers (one suffixed file per run,
  // never shared across workers); tracing does not change any measured
  // metric, only wall-clock time.
  experiment::RunSinkOptions sinks;
  sinks.jsonl_prefix = flags.get_string("trace", "");
  sinks.jsonl_flush_every =
      static_cast<std::size_t>(flags.get_int("trace-flush-every", 0));
  if (flags.has("flight-recorder")) {
    sinks.flight_prefix = flags.get_string("flight-out", "flight");
    const std::int64_t n = flags.get_int(
        "flight-recorder",
        static_cast<std::int64_t>(obs::kDefaultFlightCapacity));
    sinks.flight_capacity = n > 0 ? static_cast<std::size_t>(n)
                                  : obs::kDefaultFlightCapacity;
    sinks.jsonl_prefix.clear();  // flight wins if both were passed
  }
  options.make_trace_sink =
      experiment::make_run_sink_factory(std::move(sinks));
  return options;
}

}  // namespace realtor::benchutil

// Preemptive single-CPU scheduler: static priority tiers with EDF inside a
// tier (the paper's Agile Objects job scheduler). Runs on the simulation
// clock. It is the reference for the deadline guarantee HostRuntime's
// Constant Utilization Server relies on: the CusEdfProperty tests run CUS
// deadlines through it and check that none is missed.
#pragma once

#include <functional>
#include <optional>
#include <set>

#include "common/types.hpp"
#include "sched/job.hpp"
#include "sim/engine.hpp"

namespace realtor::sched {

class EdfScheduler {
 public:
  /// (job, finish_time, met_deadline)
  using CompletionFn = std::function<void(const Job&, SimTime, bool)>;

  explicit EdfScheduler(sim::Engine& engine);
  EdfScheduler(const EdfScheduler&) = delete;
  EdfScheduler& operator=(const EdfScheduler&) = delete;

  void set_completion_handler(CompletionFn fn);

  /// Releases a job now; preempts the running job if this one dispatches
  /// ahead of it.
  void submit(Job job);

  /// Jobs released but not yet finished (including the running one).
  std::size_t pending() const;

  bool idle() const { return !running_.has_value() && ready_.empty(); }

  /// Remaining execution time of the running job (0 when idle).
  double running_remaining() const;

  /// Sum of remaining costs of all pending jobs.
  double backlog_seconds() const;

  std::uint64_t completed() const { return completed_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }

  /// Drops all pending work (host killed); returns number of jobs dropped.
  std::size_t clear();

 private:
  struct ActiveJob {
    Job job;
    double remaining = 0.0;
  };
  struct ActiveOrder {
    bool operator()(const ActiveJob& a, const ActiveJob& b) const {
      return JobOrder{}(a.job, b.job);
    }
  };

  void dispatch();
  void preempt_running();
  void on_finish();

  sim::Engine& engine_;
  CompletionFn completion_;
  std::multiset<ActiveJob, ActiveOrder> ready_;
  std::optional<ActiveJob> running_;
  SimTime run_started_ = 0.0;
  EventId finish_event_ = kInvalidEvent;
  std::uint64_t completed_ = 0;
  std::uint64_t deadline_misses_ = 0;
};

}  // namespace realtor::sched

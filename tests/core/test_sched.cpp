#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "sched/cus.hpp"
#include "sched/edf_scheduler.hpp"
#include "sim/engine.hpp"

namespace realtor::sched {
namespace {

Job make_job(JobId id, double cost, SimTime deadline, int priority = 0) {
  Job j;
  j.id = id;
  j.cost = cost;
  j.deadline = deadline;
  j.priority = priority;
  return j;
}

TEST(EdfScheduler, RunsSingleJob) {
  sim::Engine e;
  EdfScheduler s(e);
  std::vector<JobId> done;
  s.set_completion_handler([&](const Job& j, SimTime, bool met) {
    done.push_back(j.id);
    EXPECT_TRUE(met);
  });
  s.submit(make_job(1, 2.0, 10.0));
  e.run();
  EXPECT_EQ(done, (std::vector<JobId>{1}));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.completed(), 1u);
}

TEST(EdfScheduler, EdfOrderWithinPriority) {
  sim::Engine e;
  EdfScheduler s(e);
  std::vector<JobId> done;
  s.set_completion_handler(
      [&](const Job& j, SimTime, bool) { done.push_back(j.id); });
  // All released at t=0; the one with the earliest deadline runs first,
  // preempting nothing since submissions happen before any service.
  e.schedule_at(0.0, [&] {
    s.submit(make_job(1, 1.0, 30.0));
    s.submit(make_job(2, 1.0, 10.0));
    s.submit(make_job(3, 1.0, 20.0));
  });
  e.run();
  EXPECT_EQ(done, (std::vector<JobId>{2, 3, 1}));
}

TEST(EdfScheduler, EarlierDeadlinePreempts) {
  sim::Engine e;
  EdfScheduler s(e);
  std::vector<std::pair<JobId, SimTime>> done;
  s.set_completion_handler([&](const Job& j, SimTime t, bool) {
    done.emplace_back(j.id, t);
  });
  e.schedule_at(0.0, [&] { s.submit(make_job(1, 10.0, 100.0)); });
  e.schedule_at(2.0, [&] { s.submit(make_job(2, 3.0, 6.0)); });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 2u);
  EXPECT_DOUBLE_EQ(done[0].second, 5.0);   // 2 + 3
  EXPECT_EQ(done[1].first, 1u);
  EXPECT_DOUBLE_EQ(done[1].second, 13.0);  // 2 executed + 8 remaining + 3 paused
}

TEST(EdfScheduler, LaterDeadlineDoesNotPreempt) {
  sim::Engine e;
  EdfScheduler s(e);
  std::vector<JobId> done;
  s.set_completion_handler(
      [&](const Job& j, SimTime, bool) { done.push_back(j.id); });
  e.schedule_at(0.0, [&] { s.submit(make_job(1, 5.0, 10.0)); });
  e.schedule_at(1.0, [&] { s.submit(make_job(2, 1.0, 50.0)); });
  e.run();
  EXPECT_EQ(done, (std::vector<JobId>{1, 2}));
}

TEST(EdfScheduler, HigherStaticPriorityBeatsEarlierDeadline) {
  sim::Engine e;
  EdfScheduler s(e);
  std::vector<JobId> done;
  s.set_completion_handler(
      [&](const Job& j, SimTime, bool) { done.push_back(j.id); });
  e.schedule_at(0.0, [&] {
    s.submit(make_job(1, 1.0, 5.0, /*priority=*/0));
    s.submit(make_job(2, 1.0, 100.0, /*priority=*/1));
  });
  e.run();
  EXPECT_EQ(done, (std::vector<JobId>{2, 1}));
}

TEST(EdfScheduler, DeadlineMissesCounted) {
  sim::Engine e;
  EdfScheduler s(e);
  bool missed = false;
  s.set_completion_handler([&](const Job&, SimTime, bool met) {
    missed = !met;
  });
  s.submit(make_job(1, 5.0, 1.0));  // cannot possibly make it
  e.run();
  EXPECT_TRUE(missed);
  EXPECT_EQ(s.deadline_misses(), 1u);
}

TEST(EdfScheduler, BacklogTracksRemainingWork) {
  sim::Engine e;
  EdfScheduler s(e);
  e.schedule_at(0.0, [&] {
    s.submit(make_job(1, 4.0, 100.0));
    s.submit(make_job(2, 6.0, 200.0));
  });
  e.schedule_at(1.0, [&] { EXPECT_DOUBLE_EQ(s.backlog_seconds(), 9.0); });
  e.run();
  EXPECT_DOUBLE_EQ(s.backlog_seconds(), 0.0);
}

TEST(EdfScheduler, ClearDropsPendingWork) {
  sim::Engine e;
  EdfScheduler s(e);
  int completions = 0;
  s.set_completion_handler([&](const Job&, SimTime, bool) { ++completions; });
  e.schedule_at(0.0, [&] {
    s.submit(make_job(1, 5.0, 100.0));
    s.submit(make_job(2, 5.0, 100.0));
  });
  e.schedule_at(1.0, [&] { EXPECT_EQ(s.clear(), 2u); });
  e.run();
  EXPECT_EQ(completions, 0);
  EXPECT_TRUE(s.idle());
}

// Schedulability property: any job set with total utilization <= 1 under
// CUS deadline assignment meets all EDF deadlines.
class CusEdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CusEdfProperty, CusDeadlinesAreMetWhenUtilizationFits) {
  sim::Engine e;
  EdfScheduler s(e);
  std::uint64_t misses = 0;
  s.set_completion_handler([&](const Job&, SimTime, bool met) {
    if (!met) ++misses;
  });

  RngStream rng(GetParam(), "cus-prop");
  // Three servers with utilizations summing to 1.
  ConstantUtilizationServer servers[] = {
      ConstantUtilizationServer(0.5), ConstantUtilizationServer(0.3),
      ConstantUtilizationServer(0.2)};
  JobId next_id = 1;
  SimTime t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.exponential(1.0);
    const int which = static_cast<int>(rng.uniform_index(3));
    const double cost = rng.exponential(0.4);
    e.schedule_at(t, [&, which, cost] {
      Job j;
      j.id = next_id++;
      j.cost = cost;
      j.release = e.now();
      j.deadline = servers[which].assign_deadline(e.now(), cost);
      s.submit(j);
    });
  }
  e.run();
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(s.completed(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CusEdfProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(ConstantUtilizationServer, DeadlineRule) {
  ConstantUtilizationServer cus(0.5);
  // Idle server: d = t + e/U.
  EXPECT_DOUBLE_EQ(cus.assign_deadline(10.0, 1.0), 12.0);
  // Busy server (request before previous deadline): d = d_prev + e/U.
  EXPECT_DOUBLE_EQ(cus.assign_deadline(11.0, 1.0), 14.0);
  // After the deadline passed: back to t + e/U.
  EXPECT_DOUBLE_EQ(cus.assign_deadline(20.0, 2.0), 24.0);
  EXPECT_DOUBLE_EQ(cus.budgeted_work(), 4.0);
}

TEST(ConstantUtilizationServer, ResetForgetsDeadline) {
  ConstantUtilizationServer cus(1.0);
  cus.assign_deadline(0.0, 5.0);
  cus.reset();
  EXPECT_DOUBLE_EQ(cus.current_deadline(), 0.0);
  EXPECT_DOUBLE_EQ(cus.budgeted_work(), 0.0);
}

}  // namespace
}  // namespace realtor::sched

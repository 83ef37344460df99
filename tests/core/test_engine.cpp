#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace realtor::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.pending(id));
  e.cancel(id);
  EXPECT_FALSE(e.pending(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  e.run();
  e.cancel(id);  // must not crash or affect anything
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, CallbackMaySchedule) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      e.schedule_in(1.0, chain);
    }
  };
  e.schedule_in(1.0, chain);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, CallbackMayCancelLaterEvent) {
  Engine e;
  bool fired = false;
  const EventId victim = e.schedule_at(2.0, [&] { fired = true; });
  e.schedule_at(1.0, [&] { e.cancel(victim); });
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilAdvancesClockPastLastEvent) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(10.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_EQ(e.pending_count(), 1u);
  e.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesBoundaryEvents) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  e.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, NextEventTimeIsNeverWhenEmpty) {
  Engine e;
  EXPECT_EQ(e.next_event_time(), kNeverTime);
  const EventId id = e.schedule_at(2.0, [] {});
  e.cancel(id);
  EXPECT_EQ(e.next_event_time(), kNeverTime);
}

TEST(Engine, NextEventTimeSkipsCancelledHead) {
  Engine e;
  const EventId head = e.schedule_at(1.0, [] {});
  e.schedule_at(3.0, [] {});
  e.cancel(head);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 3.0);
  EXPECT_EQ(e.pending_count(), 1u);
}

TEST(Engine, NextEventTimeAfterRunUntil) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(4.0, [&] { ++fired; });
  e.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.next_event_time(), 4.0);
  e.run_until(4.0);
  EXPECT_EQ(e.next_event_time(), kNeverTime);
}

TEST(Engine, StepFiresLimitedEvents) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(static_cast<SimTime>(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(e.step(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.step(10), 3u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.step(1), 0u);
}

TEST(Engine, ScheduleInUsesCurrentTime) {
  Engine e;
  SimTime observed = -1.0;
  e.schedule_at(2.0, [&] {
    e.schedule_in(3.0, [&] { observed = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(observed, 5.0);
}

TEST(Engine, EventsProcessedCounts) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_in(1.0, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

// --- Slot-arena specifics: handle safety across slot reuse. -------------

TEST(Engine, CancelInvalidEventIsNoop) {
  Engine e;
  e.cancel(kInvalidEvent);
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(kInvalidEvent);
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, StaleHandleCannotCancelReusedSlot) {
  Engine e;
  bool survivor_fired = false;
  // Cancel the first event, freeing its slot; the second schedule reuses
  // that slot under a bumped generation.
  const EventId stale = e.schedule_at(1.0, [] { FAIL(); });
  e.cancel(stale);
  e.schedule_at(1.0, [&] { survivor_fired = true; });
  e.cancel(stale);  // double-cancel through the old handle
  EXPECT_FALSE(e.pending(stale));
  e.run();
  EXPECT_TRUE(survivor_fired);
}

TEST(Engine, HandleFromFiredEventCannotCancelReusedSlot) {
  Engine e;
  const EventId first = e.schedule_at(1.0, [] {});
  e.run();
  bool fired = false;
  e.schedule_at(2.0, [&] { fired = true; });  // reuses first's slot
  e.cancel(first);
  EXPECT_FALSE(e.pending(first));
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, FifoPreservedAcrossCancelAndReuse) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave doomed and surviving events at one instant; cancelling the
  // doomed ones (freeing slots mid-sequence) must not reorder survivors.
  for (int i = 0; i < 8; ++i) {
    doomed.push_back(e.schedule_at(5.0, [] { FAIL(); }));
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
    e.cancel(doomed.back());
    e.schedule_at(5.0, [&order, i] { order.push_back(100 + i); });
  }
  e.run();
  // FIFO among simultaneous events follows scheduling order, even though
  // later schedules reuse slots freed by the cancels.
  std::vector<int> sorted_by_schedule;
  for (int i = 0; i < 8; ++i) {
    sorted_by_schedule.push_back(i);
    sorted_by_schedule.push_back(100 + i);
  }
  EXPECT_EQ(order, sorted_by_schedule);
}

TEST(Engine, SlotReuseAcrossManyCycles) {
  Engine e;
  std::uint64_t fired = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i) {
      ids.push_back(e.schedule_in(1.0 + i, [&] { ++fired; }));
    }
    for (int i = 0; i < 20; i += 2) {
      e.cancel(ids[static_cast<std::size_t>(i)]);
    }
    e.run();
    EXPECT_EQ(e.pending_count(), 0u);
  }
  EXPECT_EQ(fired, 50u * 10u);
}

TEST(Engine, CancelHeavyDrainFiresSurvivorsInOrder) {
  // Cancel far more events than survive, triggering the engine's internal
  // dead-entry compaction; survivors must still fire in time order.
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(e.schedule_at(static_cast<SimTime>(i), [] {}));
  }
  std::vector<SimTime> fire_times;
  for (int i = 0; i < 2000; ++i) {
    if (i % 10 != 0) {
      e.cancel(ids[static_cast<std::size_t>(i)]);
    }
  }
  for (int i = 0; i < 2000; i += 10) {
    e.schedule_at(static_cast<SimTime>(i) + 0.5,
                  [&] { fire_times.push_back(e.now()); });
  }
  EXPECT_EQ(e.pending_count(), 400u);
  e.run();
  EXPECT_EQ(fire_times.size(), 200u);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    ASSERT_LT(fire_times[i - 1], fire_times[i]);
  }
}

TEST(Engine, LargeCaptureCallbackFires) {
  // Captures beyond EventFn's inline buffer take the heap path; they must
  // still move into the arena and fire with their payload intact.
  Engine e;
  std::array<char, 256> payload{};
  payload.fill('x');
  payload.back() = 'y';
  char observed = '?';
  e.schedule_at(1.0, [payload, &observed] { observed = payload.back(); });
  e.run();
  EXPECT_EQ(observed, 'y');
}

TEST(Engine, ObserverSeesProcessedAndPendingCounts) {
  Engine e;
  std::vector<std::uint64_t> processed_samples;
  std::vector<std::size_t> pending_samples;
  e.set_observer(2, [&](SimTime, std::uint64_t processed,
                        std::size_t pending) {
    processed_samples.push_back(processed);
    pending_samples.push_back(pending);
  });
  for (int i = 0; i < 6; ++i) {
    e.schedule_at(static_cast<SimTime>(i + 1), [] {});
  }
  e.run();
  EXPECT_EQ(processed_samples, (std::vector<std::uint64_t>{2, 4, 6}));
  EXPECT_EQ(pending_samples, (std::vector<std::size_t>{4, 2, 0}));
}

// Property: random schedule/cancel interleavings preserve ordering.
class EngineOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrderProperty, MonotoneFiringTimes) {
  Engine e;
  RngStream rng(GetParam(), "engine-prop");
  std::vector<SimTime> fire_times;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = rng.uniform(0.0, 100.0);
    ids.push_back(e.schedule_at(t, [&fire_times, &e] {
      fire_times.push_back(e.now());
    }));
  }
  // Cancel ~25% at random.
  std::size_t cancelled = 0;
  for (const EventId id : ids) {
    if (rng.bernoulli(0.25)) {
      e.cancel(id);
      ++cancelled;
    }
  }
  e.run();
  EXPECT_EQ(fire_times.size(), 500u - cancelled);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    ASSERT_LE(fire_times[i - 1], fire_times[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrderProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace realtor::sim

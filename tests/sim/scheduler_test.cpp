// The pump contract both engines share, run over SimScheduler and the
// locality engine at one and three localities, then the cases that differ
// by engine. Conductor-staged work without an affinity lands on locality 0,
// which runs on this (the conductor) thread, so the tests need no locks.
#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/value.h"
#include "src/sim/parallel_sched.h"

namespace fargo::sim {
namespace {

/// 0 = SimScheduler, N = ParallelScheduler(N).
class SchedulerContractTest : public ::testing::TestWithParam<int> {
 protected:
  SchedulerContractTest() {
    if (GetParam() == 0) {
      sched_ = std::make_unique<SimScheduler>();
    } else {
      sched_ = std::make_unique<ParallelScheduler>(GetParam());
    }
  }

  Scheduler& s() { return *sched_; }

 private:
  std::unique_ptr<Scheduler> sched_;
};

INSTANTIATE_TEST_SUITE_P(
    Engines, SchedulerContractTest, ::testing::Values(0, 1, 3),
    [](const ::testing::TestParamInfo<int>& info) {
      return info.param == 0 ? std::string("Sim")
                             : "Localities" + std::to_string(info.param);
    });

TEST_P(SchedulerContractTest, ExecutesInTimeOrder) {
  std::vector<int> order;
  s().ScheduleAt(Millis(30), [&] { order.push_back(3); });
  s().ScheduleAt(Millis(10), [&] { order.push_back(1); });
  s().ScheduleAt(Millis(20), [&] { order.push_back(2); });
  s().RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s().Now(), Millis(30));
}

TEST_P(SchedulerContractTest, SameTimeIsFifoFromOneProducer) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s().ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  // A task's own same-time follow-ups queue behind what is already there.
  s().ScheduleAt(Millis(5), [&] {
    for (int i = 10; i < 13; ++i)
      s().ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  });
  s().RunUntilIdle();
  ASSERT_EQ(order.size(), 13u);
  for (int i = 0; i < 13; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_P(SchedulerContractTest, PastTimesClampToNow) {
  s().ScheduleAt(Millis(10), [] {});
  s().RunUntilIdle();
  bool ran = false;
  s().ScheduleAt(Millis(1), [&] { ran = true; });  // in the past
  s().RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s().Now(), Millis(10));  // clock never goes backwards
}

TEST_P(SchedulerContractTest, CancelPreventsExecution) {
  bool ran = false;
  bool kept = false;
  TaskId id = s().ScheduleAfter(Millis(1), [&] { ran = true; });
  s().ScheduleAfter(Millis(2), [&] { kept = true; });
  s().Cancel(id);
  EXPECT_EQ(s().PendingCount(), 1u);
  s().RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(kept);
  // A task cancels a same-locality task of its own.
  bool late = false;
  s().ScheduleAfter(Millis(1), [&] {
    const TaskId victim = s().ScheduleAfter(Millis(5), [&] { late = true; });
    s().Cancel(victim);
  });
  s().RunUntilIdle();
  EXPECT_FALSE(late);
  EXPECT_EQ(s().Now(), Millis(3));  // the cancelled time drags nothing
}

TEST_P(SchedulerContractTest, PendingCountIgnoresCancelsOfTasksThatRan) {
  const TaskId ran = s().ScheduleAt(1, [] {});
  s().RunUntilIdle();
  s().Cancel(ran);  // already ran: a no-op
  EXPECT_EQ(s().PendingCount(), 0u);
  s().ScheduleAt(5, [] {});
  EXPECT_EQ(s().PendingCount(), 1u);
  s().RunUntilIdle();
  EXPECT_EQ(s().PendingCount(), 0u);
}

// A cancel releases what its closure captured within a bounded number of
// later cancels, long before the task would have been due. A live task
// ahead of them keeps the cancelled ones from simply reaching the head.
TEST_P(SchedulerContractTest, CancelReleasesCapturesBeforeTheTaskIsDue) {
  bool first = false;
  s().ScheduleAt(Seconds(1), [&] { first = true; });
  auto held = std::make_shared<int>(0);
  std::vector<TaskId> ids;
  for (int i = 0; i < 10000; ++i)
    ids.push_back(s().ScheduleAt(Seconds(30), [held] { ++*held; }));
  ASSERT_EQ(held.use_count(), 10001);
  for (TaskId id : ids) s().Cancel(id);
  int later = 0;
  for (; held.use_count() > 1 && later < 100; ++later)
    s().Cancel(s().ScheduleAt(Seconds(30), [] {}));
  EXPECT_EQ(held.use_count(), 1) << "after " << later << " more cancels";
  EXPECT_EQ(s().PendingCount(), 1u);
  EXPECT_EQ(s().Now(), 0);
  s().RunUntilIdle();
  EXPECT_TRUE(first);
  EXPECT_EQ(*held, 0);
  EXPECT_EQ(s().Now(), Seconds(1));  // no cancelled time dragged the clock
}

// Cancels that force several compactions, from the conductor and from a
// task, leave the survivors running in exactly (at, schedule) order. With
// 90% of 4000 tasks cancelled, compactions fall near the 2001st (conductor),
// 3002nd and 3503rd cancel (task).
TEST_P(SchedulerContractTest, CompactionKeepsSurvivorOrder) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> ms(1, 200);
  constexpr int kTasks = 4000;
  std::vector<std::pair<SimTime, int>> keys;
  std::vector<TaskId> ids;
  std::vector<int> order;
  for (int i = 0; i < kTasks; ++i) {
    keys.emplace_back(Millis(ms(rng)), i);
    ids.push_back(
        s().ScheduleAt(keys.back().first, [&order, i] { order.push_back(i); }));
  }
  std::vector<int> victims(kTasks);
  for (int i = 0; i < kTasks; ++i) victims[static_cast<std::size_t>(i)] = i;
  std::shuffle(victims.begin(), victims.end(), rng);
  victims.resize(kTasks * 9 / 10);
  const std::size_t first = victims.size() * 2 / 3;
  for (std::size_t v = 0; v < first; ++v)
    s().Cancel(ids[static_cast<std::size_t>(victims[v])]);
  s().ScheduleAt(0, [&] {  // the rest from inside a task
    for (std::size_t v = first; v < victims.size(); ++v)
      s().Cancel(ids[static_cast<std::size_t>(victims[v])]);
  });
  s().RunUntilIdle();

  std::vector<bool> cancelled(kTasks, false);
  for (int v : victims) cancelled[static_cast<std::size_t>(v)] = true;
  std::vector<std::pair<SimTime, int>> survivors;
  for (const auto& k : keys)
    if (!cancelled[static_cast<std::size_t>(k.second)]) survivors.push_back(k);
  std::sort(survivors.begin(), survivors.end());
  std::vector<int> expected;
  for (const auto& k : survivors) expected.push_back(k.second);
  EXPECT_EQ(order, expected);
}

// A cancelled closure's captures may schedule and cancel tasks from their
// destructor, wherever the queue destroys the closure: in a compaction or
// when a cancelled task reaches the head.
TEST_P(SchedulerContractTest, CancelledClosureMayReenterFromItsDestructor) {
  struct Reenter {
    Scheduler* s;
    int* followups;
    int* forbidden;
    ~Reenter() {
      s->ScheduleAfter(Millis(1), [f = followups] { ++*f; });
      s->Cancel(s->ScheduleAfter(Millis(2), [f = forbidden] { ++*f; }));
    }
  };
  int followups = 0;
  int forbidden = 0;
  int kept = 0;
  constexpr int kCancelled = 300;
  std::vector<TaskId> ids;
  for (int i = 0; i < kCancelled; ++i) {
    std::shared_ptr<Reenter> r(new Reenter{&s(), &followups, &forbidden});
    ids.push_back(s().ScheduleAt(Millis(10 + i % 3), [r] {}));
    s().ScheduleAt(Millis(10 + i % 3), [&kept] { ++kept; });
  }
  for (TaskId id : ids) s().Cancel(id);
  s().RunUntilIdle();
  EXPECT_EQ(followups, kCancelled);
  EXPECT_EQ(forbidden, 0);
  EXPECT_EQ(kept, kCancelled);
  EXPECT_EQ(s().PendingCount(), 0u);
}

TEST_P(SchedulerContractTest, RunForAdvancesClockExactly) {
  int count = 0;
  s().ScheduleAt(Millis(5), [&] { ++count; });
  s().ScheduleAt(Millis(15), [&] { ++count; });
  s().RunFor(Millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s().Now(), Millis(10));
  s().RunFor(Millis(10));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s().Now(), Millis(20));
  s().RunFor(Millis(5));  // past an empty queue
  EXPECT_EQ(s().Now(), Millis(25));
}

TEST_P(SchedulerContractTest, RunUntilThrowsOnDrain) {
  s().ScheduleAfter(Millis(1), [] {});
  EXPECT_THROW(s().RunUntil([] { return false; }), FargoError);
}

TEST_P(SchedulerContractTest, RunUntilOrTimesOut) {
  int ticks = 0;
  // Self-rescheduling ticker keeps the queue non-empty.
  std::function<void()> tick = [&] {
    ++ticks;
    s().ScheduleAfter(Millis(1), tick);
  };
  s().ScheduleAfter(Millis(1), tick);
  bool ok = s().RunUntilOr([] { return false; }, Millis(50));
  EXPECT_FALSE(ok);
  EXPECT_EQ(s().Now(), Millis(50));
  EXPECT_GE(ticks, 49);
}

TEST_P(SchedulerContractTest, RunUntilOrStopsAtDeadlineOrPredicate) {
  bool flag = false;
  s().ScheduleAt(Millis(3), [&] { flag = true; });
  s().ScheduleAt(Millis(100), [] {});
  EXPECT_TRUE(s().RunUntilOr([&] { return flag; }, Millis(1000)));
  EXPECT_EQ(s().Now(), Millis(3));
  flag = false;
  EXPECT_FALSE(s().RunUntilOr([&] { return flag; }, Millis(50)));
  EXPECT_EQ(s().Now(), Millis(50));
  EXPECT_EQ(s().PendingCount(), 1u);  // the 100 ms task still waits
}

TEST_P(SchedulerContractTest, ExecutedCounterCounts) {
  for (int i = 0; i < 5; ++i) s().ScheduleAfter(Millis(1), [] {});
  const TaskId gone = s().ScheduleAfter(Millis(1), [] {});
  s().Cancel(gone);
  s().RunUntilIdle();
  EXPECT_EQ(s().executed(), 5u);
}

TEST_P(SchedulerContractTest, NoPumpScopeRejectsEveryPump) {
  s().ScheduleAt(1, [] {});
  Scheduler::NoPumpScope guard(s());
  EXPECT_THROW(s().RunOne(), FargoError);
  EXPECT_THROW(s().RunUntilIdle(), FargoError);
  EXPECT_THROW(s().RunUntil([] { return true; }), FargoError);
  EXPECT_THROW(s().RunUntilOr([] { return true; }, 10), FargoError);
  EXPECT_THROW(s().RunFor(10), FargoError);
  EXPECT_EQ(s().executed(), 0u);
}

TEST_P(SchedulerContractTest, TasksMayNotPump) {
  // Pumping is a conductor privilege under both engines: a task that calls
  // any pump throws, and the pump that ran it carries on.
  int threw = 0;
  s().ScheduleAt(1, [&] {
    s().ScheduleAt(2, [] {});
    try {
      s().RunUntilIdle();
    } catch (const FargoError&) {
      ++threw;
    }
    try {
      s().RunUntil([] { return true; });
    } catch (const FargoError&) {
      ++threw;
    }
  });
  s().RunUntilIdle();
  EXPECT_EQ(threw, 2);
  EXPECT_EQ(s().executed(), 2u);
  // Back on the conductor, pumping is legal again.
  s().ScheduleAt(3, [] {});
  s().RunUntilIdle();
  EXPECT_EQ(s().executed(), 3u);
}

// Sim-only behavior: RunOne runs one task (the locality engine runs one
// timestamp, parallel_sched_test).

TEST(SchedulerTest, RunOneRunsOneTask) {
  SimScheduler s;
  int ran = 0;
  s.ScheduleAt(Millis(5), [&] { ++ran; });
  s.ScheduleAt(Millis(5), [&] { ++ran; });
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(s.RunOne());
  EXPECT_EQ(s.Now(), Millis(5));
}

TEST(PeriodicTaskTest, FiresAtInterval) {
  SimScheduler s;
  int fires = 0;
  PeriodicTask task(s, Millis(10), [&] { ++fires; });
  s.RunFor(Millis(100));
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTaskTest, StopHaltsFiring) {
  SimScheduler s;
  int fires = 0;
  PeriodicTask task(s, Millis(10), [&] { ++fires; });
  s.RunFor(Millis(35));
  task.Stop();
  s.RunFor(Millis(100));
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestroyFromOwnCallbackIsSafe) {
  SimScheduler s;
  std::unique_ptr<PeriodicTask> task;
  int fires = 0;
  task = std::make_unique<PeriodicTask>(s, Millis(10), [&] {
    ++fires;
    task.reset();  // destroy the task from inside its own callback
  });
  s.RunFor(Millis(100));
  EXPECT_EQ(fires, 1);
}

}  // namespace
}  // namespace fargo::sim

// ParallelScheduler: the FARGO_PARALLEL locality engine, tested as a
// scheduler in isolation (runtime-level equivalence lives in
// tests/integration/parallel_equivalence_test.cpp). The conductor — this
// test's thread — owns the pumps; everything asserted between pumps is
// safe to read because the workers are parked on the round barrier.
#include "src/sim/parallel_sched.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/value.h"

namespace fargo::sim {
namespace {

TEST(ParallelSchedulerTest, RunsEventsAtTheirVirtualTime) {
  ParallelScheduler sched(2);
  std::vector<std::pair<int, SimTime>> order;
  std::mutex mu;
  auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order.emplace_back(tag, sched.Now());
    };
  };
  sched.ScheduleAt(30, record(3));
  sched.ScheduleAt(10, record(1));
  sched.ScheduleAt(20, record(2));
  sched.RunUntilIdle();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (std::pair<int, SimTime>{1, 10}));
  EXPECT_EQ(order[1], (std::pair<int, SimTime>{2, 20}));
  EXPECT_EQ(order[2], (std::pair<int, SimTime>{3, 30}));
  EXPECT_EQ(sched.Now(), 30);
  EXPECT_EQ(sched.executed(), 3u);
  EXPECT_EQ(sched.PendingCount(), 0u);
}

TEST(ParallelSchedulerTest, MatchesSimSchedulerOnAChainedWorkload) {
  // The same recursive workload — each event schedules two more until a
  // depth limit — must produce identical virtual end times, executed
  // counts and per-timestamp hit totals in both engines.
  auto run = [](Scheduler& s) {
    std::mutex mu;
    std::map<SimTime, int> hits;
    std::function<void(int)> spawn = [&](int depth) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++hits[s.Now()];
      }
      if (depth == 0) return;
      s.ScheduleAfter(5, [&spawn, depth] { spawn(depth - 1); });
      s.ScheduleAfter(7, [&spawn, depth] { spawn(depth - 1); });
    };
    s.ScheduleAt(0, [&spawn] { spawn(6); });
    s.RunUntilIdle();
    return std::make_tuple(s.Now(), s.executed(), hits);
  };
  SimScheduler sim;
  ParallelScheduler par(4);
  EXPECT_EQ(run(sim), run(par));
}

TEST(ParallelSchedulerTest, DeterministicAcrossRunsForFixedN) {
  // The engine's determinism contract is per-locality: each locality
  // drains its inbox in sorted (at, src, seq) order, so the execution
  // order WITHIN a locality is a pure function of the workload. (The
  // cross-locality interleaving is concurrent by design — same-time events
  // on different localities genuinely race, which is what mode-invariance
  // of observables, not event order, accounts for.)
  constexpr int kLoc = 3;
  auto run = [] {
    ParallelScheduler s(kLoc);
    std::mutex mu;
    // Recorded per executing locality, keyed by the task's affinity.
    std::array<std::vector<std::uint64_t>, kLoc> order;
    for (std::uint64_t i = 0; i < 64; ++i) {
      s.Post(i, 10 + (i % 4), [&, i] {
        {
          std::lock_guard<std::mutex> lock(mu);
          order[i % kLoc].push_back(i);
        }
        // Fan one hop to another locality from inside a worker.
        if (i % 8 == 0)
          s.Post(i + 1, s.Now(), [&, i] {
            std::lock_guard<std::mutex> lock2(mu);
            order[(i + 1) % kLoc].push_back(1000 + i);
          });
      });
    }
    s.RunUntilIdle();
    return order;
  };
  const auto a = run();
  const auto b = run();
  std::size_t total = 0;
  for (int l = 0; l < kLoc; ++l) {
    EXPECT_EQ(a[static_cast<std::size_t>(l)], b[static_cast<std::size_t>(l)])
        << "locality " << l << " diverged between identical runs";
    total += a[static_cast<std::size_t>(l)].size();
  }
  EXPECT_EQ(total, 64u + 8u);
}

TEST(ParallelSchedulerTest, PostRoutesToTheOwningLocality) {
  ParallelScheduler sched(4);
  EXPECT_EQ(sched.localities(), 4);
  EXPECT_EQ(sched.LocalityOf(0), 0);
  EXPECT_EQ(sched.LocalityOf(5), 1);
  EXPECT_EQ(sched.LocalityOf(7), 3);
  // Worker-side cross-locality posts are the sanctioned handoff (and the
  // thing the telemetry counts — conductor staging is not a handoff).
  std::atomic<int> ran{0};
  sched.Post(0, 1, [&] {
    for (std::uint64_t dest = 1; dest < 4; ++dest)
      sched.Post(dest, sched.Now(),
                 [&] { ran.fetch_add(1, std::memory_order_relaxed); });
  });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_GE(sched.telemetry().handoffs, 3u);
  EXPECT_GT(sched.telemetry().rounds, 0u);
}

TEST(ParallelSchedulerTest, TasksMayNotPump) {
  // Pumping is a conductor privilege: a task calling RunUntil & friends
  // must throw instead of deadlocking the round barrier — on a worker
  // (locality 1) and on the conductor's own locality-0 step alike.
  for (std::uint64_t aff : {0u, 1u}) {
    ParallelScheduler sched(2);
    std::atomic<bool> threw{false};
    sched.Post(aff, 1, [&] {
      try {
        sched.RunUntil([] { return true; });
      } catch (const FargoError&) {
        threw.store(true, std::memory_order_relaxed);
      }
    });
    sched.RunUntilIdle();
    EXPECT_TRUE(threw.load()) << "locality " << aff;
    EXPECT_EQ(sched.PumpDepth(), 0);
  }
}

TEST(ParallelSchedulerTest, NoPumpScopeRejectsConductorPumps) {
  ParallelScheduler sched(2);
  Scheduler::NoPumpScope guard(sched);
  EXPECT_THROW(sched.RunUntilIdle(), FargoError);
}

TEST(ParallelSchedulerTest, CancelStopsLocalAndCrossLocalityTasks) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  auto bump = [&] { ran.fetch_add(1, std::memory_order_relaxed); };
  // Conductor-staged tasks for both localities, one of each cancelled.
  TaskId keep0 = sched.Post(0, 10, bump);
  TaskId kill0 = sched.Post(0, 10, bump);
  TaskId keep1 = sched.Post(1, 10, bump);
  TaskId kill1 = sched.Post(1, 10, bump);
  (void)keep0;
  (void)keep1;
  sched.Cancel(kill0);
  sched.Cancel(kill1);
  // A worker cancelling a task it posted to the *other* locality: the
  // cancellation must chase the handoff.
  sched.ScheduleAt(5, [&] {
    TaskId cross = sched.Post(1, 10, bump);
    sched.Cancel(cross);
  });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 2);
  // Cancelling an already-run id is a harmless no-op.
  sched.Cancel(keep0);
}

TEST(ParallelSchedulerTest, ClearDiscardsQueuedWorkWithoutRunningIt) {
  ParallelScheduler sched(3);
  auto hits = std::make_shared<std::atomic<int>>(0);
  for (std::uint64_t i = 0; i < 12; ++i)
    sched.Post(i, 100, [hits] { hits->fetch_add(1); });
  EXPECT_GT(sched.PendingCount(), 0u);
  sched.Clear();
  EXPECT_EQ(sched.PendingCount(), 0u);
  sched.RunUntilIdle();
  EXPECT_EQ(hits->load(), 0);
  // The engine stays usable after a Clear.
  sched.ScheduleAt(200, [hits] { hits->fetch_add(10); });
  sched.RunUntilIdle();
  EXPECT_EQ(hits->load(), 10);
}

TEST(ParallelSchedulerTest, RunUntilOrStopsAtDeadlineOrPredicate) {
  ParallelScheduler sched(2);
  std::atomic<bool> flag{false};
  sched.ScheduleAt(50, [&] { flag.store(true); });
  sched.ScheduleAt(500, [] {});
  EXPECT_TRUE(sched.RunUntilOr([&] { return flag.load(); }, 1000));
  EXPECT_EQ(sched.Now(), 50);
  flag.store(false);
  EXPECT_FALSE(sched.RunUntilOr([&] { return flag.load(); }, 200));
  EXPECT_EQ(sched.Now(), 200);
  EXPECT_EQ(sched.PendingCount(), 1u);  // the 500 event still waits
}

TEST(ParallelSchedulerTest, RunForAdvancesTheClockPastAnEmptyQueue) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  sched.ScheduleAt(30, [&] { ran.fetch_add(1); });
  sched.RunFor(100);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(sched.Now(), 100);
  sched.RunFor(50);
  EXPECT_EQ(sched.Now(), 150);
}

TEST(ParallelSchedulerTest, ExceptionsFromTasksSurfaceAtThePump) {
  // A task that throws — on a worker, or on the conductor's locality 0 —
  // must not kill its thread or hang the barrier: the rest of the round
  // runs, the pump rethrows the error, and the engine keeps executing.
  for (std::uint64_t thrower : {0u, 1u}) {
    ParallelScheduler sched(3);
    std::atomic<int> others{0};
    sched.Post(thrower, 1, [] { throw FargoError("task exploded"); });
    for (std::uint64_t aff = 0; aff < 3; ++aff)
      if (aff != thrower) sched.Post(aff, 1, [&] { others.fetch_add(1); });
    sched.Post(thrower, 2, [&] { others.fetch_add(10); });
    EXPECT_THROW(sched.RunUntilIdle(), FargoError) << "locality " << thrower;
    EXPECT_EQ(others.load(), 2);
    EXPECT_EQ(detail::tl_worker_locality, -1);
    sched.RunUntilIdle();
    EXPECT_EQ(others.load(), 12);
  }
}

TEST(ParallelSchedulerTest, AffinityScopeRoutesConductorWork) {
  // Core entry points hold an AffinityScope so conductor-side ScheduleAt
  // lands on the Core's home locality; verify the ambient key is honored
  // by checking cross-locality ordering: two same-time tasks with the same
  // ambient key must run in FIFO order (same locality queue), which would
  // be unordered if each landed on a default locality.
  ParallelScheduler sched(4);
  std::vector<int> order;
  std::mutex mu;
  {
    Scheduler::AffinityScope aff(3);
    for (int i = 0; i < 16; ++i)
      sched.ScheduleAt(10, [&, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
  }
  sched.RunUntilIdle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Locality 0 runs on the conductor, inside its pump. Its tasks must see
// the same thread-local context a worker's do (see also TasksMayNotPump
// and ExceptionsFromTasksSurfaceAtThePump).

TEST(ParallelSchedulerTest, LocalityZeroRunsOnTheConductor) {
  const std::thread::id conductor = std::this_thread::get_id();
  for (int n : {1, 3}) {
    ParallelScheduler sched(n);
    std::atomic<bool> zero_here{false};
    std::atomic<bool> other_elsewhere{n == 1};
    sched.Post(0, 1, [&] {
      zero_here.store(std::this_thread::get_id() == conductor &&
                      detail::tl_worker_locality == 0);
    });
    if (n > 1)
      sched.Post(1, 1, [&] {
        other_elsewhere.store(std::this_thread::get_id() != conductor &&
                              detail::tl_worker_locality == 1);
      });
    sched.RunUntilIdle();
    EXPECT_TRUE(zero_here.load()) << "N=" << n;
    EXPECT_TRUE(other_elsewhere.load()) << "N=" << n;
    EXPECT_EQ(detail::tl_worker_locality, -1);
  }
}

TEST(ParallelSchedulerTest, LocalityZeroIgnoresThePumpCallersAffinityScope) {
  // A Core entry point pumps inside its own AffinityScope. A locality-0
  // task that schedules without a scope must keep its follow-up on
  // locality 0, not route it to the pump caller's Core.
  ParallelScheduler sched(4);
  std::atomic<int> follow_up_on{-2};
  sched.Post(0, 10, [&] {
    sched.ScheduleAt(sched.Now() + 1, [&] {
      follow_up_on.store(detail::tl_worker_locality);
    });
  });
  {
    Scheduler::AffinityScope aff(2);
    sched.RunUntilIdle();
    // The conductor's own scope is back once the pump returns.
    std::uint64_t key = 0;
    ASSERT_TRUE(Scheduler::AffinityScope::Current(key));
    EXPECT_EQ(key, 2u);
  }
  EXPECT_EQ(follow_up_on.load(), 0);
  EXPECT_EQ(sched.telemetry().handoffs, 0u);
}

}  // namespace
}  // namespace fargo::sim

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
#include <string>
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
  }
}

TEST(ParallelSchedulerTest, CancelStopsLocalAndCrossLocalityTasks) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  auto bump = [&] { ran.fetch_add(1, std::memory_order_relaxed); };
  // Conductor-staged tasks for both localities, one of each cancelled: the
  // conductor may cancel a task on any locality.
  TaskId keep0 = sched.Post(0, 10, bump);
  TaskId kill0 = sched.Post(0, 10, bump);
  TaskId keep1 = sched.Post(1, 10, bump);
  TaskId kill1 = sched.Post(1, 10, bump);
  (void)keep1;
  sched.Cancel(kill0);
  sched.Cancel(kill1);
  EXPECT_EQ(sched.PendingCount(), 2u);
  // A task cancelling a task it posted to the *other* locality throws: a
  // task is cancelled only where it is queued. The handoff stands.
  sched.ScheduleAt(5, [&] {
    TaskId cross = sched.Post(1, 10, bump);
    sched.Cancel(cross);
  });
  EXPECT_THROW(sched.RunUntilIdle(), FargoError);
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 3);
  // Cancelling an already-run id is a harmless no-op.
  sched.Cancel(keep0);
  EXPECT_EQ(sched.PendingCount(), 0u);
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
      zero_here.store(std::this_thread::get_id() == conductor);
    });
    if (n > 1)
      sched.Post(1, 1, [&] {
        other_elsewhere.store(std::this_thread::get_id() != conductor);
      });
    sched.RunUntilIdle();
    EXPECT_TRUE(zero_here.load()) << "N=" << n;
    EXPECT_TRUE(other_elsewhere.load()) << "N=" << n;
  }
}

TEST(ParallelSchedulerTest, LocalityZeroIgnoresThePumpCallersAffinityScope) {
  // A Core entry point pumps inside its own AffinityScope. A locality-0
  // task that schedules without a scope must keep its follow-up on
  // locality 0, not route it to the pump caller's Core.
  ParallelScheduler sched(4);
  const std::thread::id conductor = std::this_thread::get_id();
  std::atomic<bool> follow_up_on_zero{false};
  sched.Post(0, 10, [&] {
    sched.ScheduleAt(sched.Now() + 1, [&] {
      follow_up_on_zero.store(std::this_thread::get_id() == conductor);
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
  EXPECT_TRUE(follow_up_on_zero.load());
  EXPECT_EQ(sched.telemetry().handoffs, 0u);
}

// Lookahead windows: with a lookahead L installed, RunFor and RunUntilIdle
// run one round per window [T, T + L - 1]; the predicate pumps run one
// timestamp per round whatever L is.

constexpr SimTime kLookahead = 100;
SimTime Lookahead() { return kLookahead; }

TEST(ParallelSchedulerTest, NowInsideAStepIsTheRunningTasksTime) {
  ParallelScheduler sched(3);
  sched.SetLookahead(Lookahead);
  std::mutex mu;
  std::vector<std::pair<SimTime, SimTime>> seen;  // (at, Now() inside)
  auto check = [&](SimTime at) {
    return [&, at] {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(at, sched.Now());
    };
  };
  for (SimTime at : {SimTime{10}, SimTime{37}, SimTime{55}, SimTime{99}})
    for (std::uint64_t aff = 0; aff < 3; ++aff)
      sched.Post(aff, at + static_cast<SimTime>(aff),
                 check(at + static_cast<SimTime>(aff)));
  // Local work scheduled inside the window runs in it, on the same clock.
  sched.Post(1, 20, [&] { sched.ScheduleAfter(7, check(27)); });
  sched.RunUntilIdle();
  ASSERT_EQ(seen.size(), 13u);
  for (const auto& [at, now] : seen) EXPECT_EQ(now, at);
  EXPECT_EQ(sched.telemetry().rounds, 1u);  // everything fits [10, 109]
  EXPECT_EQ(sched.Now(), 101);  // the latest time any locality ran
}

TEST(ParallelSchedulerTest, WindowIsClampedToTheRunForHorizon) {
  ParallelScheduler sched(2);
  sched.SetLookahead(Lookahead);
  std::atomic<int> ran{0};
  sched.Post(0, 10, [&] { ran.fetch_or(1); });
  sched.Post(1, 40, [&] { ran.fetch_or(2); });
  sched.Post(1, 60, [&] { ran.fetch_or(4); });
  sched.RunFor(50);
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(sched.Now(), 50);
  EXPECT_EQ(sched.telemetry().rounds, 1u);
  sched.RunFor(50);
  EXPECT_EQ(ran.load(), 7);
  EXPECT_EQ(sched.Now(), 100);
  EXPECT_EQ(sched.telemetry().rounds, 2u);
}

TEST(ParallelSchedulerTest, CrossLocalityWorkInsideTheWindowThrows) {
  std::atomic<int> ran{0};
  {
    // Dated before the window's end [10, 109]: it would run late.
    ParallelScheduler sched(2);
    sched.SetLookahead(Lookahead);
    sched.Post(0, 10, [&] {
      sched.Post(1, sched.Now() + kLookahead - 1, [&] { ran.fetch_add(1); });
    });
    EXPECT_THROW(sched.RunUntilIdle(), FargoError);
  }
  {
    // A task cancelling a task of another locality throws: the target runs
    // on its own clock and may already have run in this window.
    ParallelScheduler sched(2);
    sched.SetLookahead(Lookahead);
    const TaskId victim = sched.Post(0, 500, [&] { ran.fetch_add(1); });
    sched.Post(1, 10, [&sched, victim] { sched.Cancel(victim); });
    EXPECT_THROW(sched.RunUntilIdle(), FargoError);
  }
  EXPECT_EQ(ran.load(), 0);
  {
    // One lookahead later is past the window: it rides into the next round.
    ParallelScheduler sched(2);
    sched.SetLookahead(Lookahead);
    sched.Post(0, 10, [&] {
      sched.Post(1, sched.Now() + kLookahead, [&] { ran.fetch_add(1); });
    });
    sched.RunUntilIdle();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(sched.telemetry().rounds, 2u);
  }
  {
    // A predicate pump's one-timestamp rounds take the handoff, but a
    // cross-locality cancel throws in any round.
    ParallelScheduler sched(2);
    sched.SetLookahead(Lookahead);
    const TaskId victim = sched.Post(0, 500, [&] { ran.fetch_add(100); });
    sched.Post(1, 10, [&sched, &ran, victim] {
      sched.Post(0, sched.Now() + 1, [&] { ran.fetch_add(1); });
      sched.Cancel(victim);
    });
    EXPECT_THROW(sched.RunUntilOr([] { return false; }, 1000), FargoError);
    EXPECT_FALSE(sched.RunUntilOr([] { return false; }, 1000));
    EXPECT_EQ(ran.load(), 102);
  }
}

TEST(ParallelSchedulerTest, PredicatePumpsRunOneTimestampPerRound) {
  // Three busy timestamps inside one lookahead window.
  auto load = [](ParallelScheduler& s, std::atomic<int>& ran) {
    s.SetLookahead(Lookahead);
    for (SimTime at : {SimTime{10}, SimTime{20}, SimTime{30}})
      for (std::uint64_t aff = 0; aff < 2; ++aff)
        s.Post(aff, at, [&ran] { ran.fetch_add(1); });
  };
  {
    ParallelScheduler s(2);
    std::atomic<int> ran{0};
    load(s, ran);
    s.RunUntilIdle();
    EXPECT_EQ(s.telemetry().rounds, 1u);
    EXPECT_EQ(s.Now(), 30);
  }
  {
    ParallelScheduler s(2);
    std::atomic<int> ran{0};
    load(s, ran);
    EXPECT_FALSE(s.RunUntilOr([] { return false; }, 1000));
    EXPECT_EQ(s.telemetry().rounds, 3u);
    EXPECT_EQ(s.Now(), 1000);
  }
  {
    ParallelScheduler s(2);
    std::atomic<int> ran{0};
    load(s, ran);
    s.RunUntil([&] { return ran.load() == 4; });
    EXPECT_EQ(s.telemetry().rounds, 2u);
    EXPECT_EQ(s.Now(), 20);
  }
  {
    ParallelScheduler s(2);
    std::atomic<int> ran{0};
    load(s, ran);
    for (SimTime at : {SimTime{10}, SimTime{20}, SimTime{30}}) {
      EXPECT_TRUE(s.RunOne());
      EXPECT_EQ(s.Now(), at);
    }
    EXPECT_EQ(s.telemetry().rounds, 3u);
    EXPECT_EQ(ran.load(), 6);
  }
}

TEST(ParallelSchedulerTest, SameTimeLocalTaskAndHandoffRunInKeyOrder) {
  // Locality 1 receives five tasks for t=200: handoffs from locality 0 and
  // local tasks of its own, scheduled at 5, 10 and 50. They run by the
  // producer clock at production, local before handoff at a tie — the
  // order one-timestamp rounds insert them in — whether the window holds
  // every producer (RunUntilIdle) or one timestamp (RunUntilOr).
  auto run = [](bool windows) {
    ParallelScheduler s(2);
    s.SetLookahead(Lookahead);
    std::vector<std::string> order;  // written by locality 1 only
    auto log = [&order](const char* tag) {
      return [&order, tag] { order.emplace_back(tag); };
    };
    s.Post(1, 50, [&] { s.ScheduleAt(200, log("local@50")); });
    s.Post(1, 10, [&] { s.ScheduleAt(200, log("local@10")); });
    s.Post(0, 50, [&] { s.Post(1, 200, log("handoff@50")); });
    s.Post(0, 10, [&] { s.Post(1, 200, log("handoff@10")); });
    s.Post(0, 5, [&] { s.Post(1, 200, log("handoff@5")); });
    if (windows) {
      s.RunUntilIdle();
    } else {
      s.RunUntilOr([] { return false; }, 1000);
    }
    return order;
  };
  const std::vector<std::string> want = {"handoff@5", "local@10",
                                         "handoff@10", "local@50",
                                         "handoff@50"};
  EXPECT_EQ(run(true), want);
  EXPECT_EQ(run(false), want);
}

TEST(ParallelSchedulerTest, SameClockRoundsOrderByProductionRound) {
  // Locality 0 at t=10 hands locality 1 a task for t=50 and a same-time
  // task that, in the next round at t=10, schedules a local task for t=50.
  // The handoff entered locality 1's queue at the start of that round and
  // the local task during it; the production round in the key keeps that
  // order although both were made at t=10.
  ParallelScheduler s(2);  // no lookahead: one-timestamp rounds
  std::vector<std::string> order;  // written by locality 1 only
  s.Post(0, 10, [&] {
    s.Post(1, 50, [&] { order.emplace_back("handoff"); });
    s.Post(1, s.Now(), [&] {
      s.ScheduleAt(50, [&] { order.emplace_back("local"); });
    });
  });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"handoff", "local"}));
  EXPECT_EQ(s.telemetry().rounds, 3u);
}

}  // namespace
}  // namespace fargo::sim

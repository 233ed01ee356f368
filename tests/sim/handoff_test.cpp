// Cross-locality handoff in the ParallelScheduler: a task a worker posts to
// another locality goes into that worker's own outbox for the destination,
// and the destination takes every producer's outbox, by producer rank, at
// the start of the next micro-round (src/sim/parallel_sched.h, ownership
// rule). These tests drive that path through the public scheduler API:
// nothing handed off is lost, duplicated or reordered, closures still in an
// outbox are destroyed without running, the handoff telemetry counts
// exactly the locality-to-locality traffic, and rounds are spent only on
// timestamps that have work due.
#include "src/sim/parallel_sched.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

namespace fargo::sim {
namespace {

TEST(HandoffTest, TelemetryCountsHandoffTraffic) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  // Locality 0 fans 32 same-time tasks to locality 1, which takes them all
  // in one round. The conductor's own Post is staging, not a handoff.
  sched.Post(0, 1, [&] {
    for (int i = 0; i < 32; ++i)
      sched.Post(1, sched.Now(), [&] { ran.fetch_add(1); });
  });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 32);
  const auto t = sched.telemetry();
  EXPECT_EQ(t.handoffs, 32u);
  EXPECT_EQ(t.max_queue_depth, 32u);
  EXPECT_GT(t.rounds, 0u);
}

TEST(HandoffTest, MaxQueueDepthIsAHighWaterMark) {
  // Three bursts of 1, 6 and 1 handoffs, each at its own time: the depth
  // is the largest single take, and a smaller later take does not shrink it.
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  auto burst = [&](SimTime at, int n) {
    sched.Post(0, at, [&, n] {
      for (int i = 0; i < n; ++i)
        sched.Post(1, sched.Now(), [&] { ran.fetch_add(1); });
    });
  };
  burst(1, 1);
  sched.RunUntilIdle();
  EXPECT_EQ(sched.telemetry().max_queue_depth, 1u);
  burst(2, 6);
  sched.RunUntilIdle();
  EXPECT_EQ(sched.telemetry().max_queue_depth, 6u);
  burst(3, 1);
  sched.RunUntilIdle();
  EXPECT_EQ(sched.telemetry().max_queue_depth, 6u);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(sched.telemetry().handoffs, 8u);
}

TEST(HandoffTest, PingPongAcrossManyRoundsReusesTheOutboxes) {
  // One task bounces between localities 0 and 1 for 200 hops at the same
  // virtual time: each hop is a handoff taken in the next round, so the
  // outboxes of both round parities are written and drained over and over.
  // Every hop must run exactly once and in order, one round per hop.
  constexpr int kHops = 200;
  ParallelScheduler sched(2);
  std::vector<int> trail;  // written by one hop at a time, read after pumps
  std::function<void(int)> hop = [&](int n) {
    trail.push_back(n);
    if (n + 1 < kHops)
      sched.Post(static_cast<std::uint64_t>((n + 1) % 2), sched.Now(),
                 [&hop, n] { hop(n + 1); });
  };
  sched.Post(0, 5, [&hop] { hop(0); });
  sched.RunUntilIdle();
  ASSERT_EQ(trail.size(), static_cast<std::size_t>(kHops));
  for (int i = 0; i < kHops; ++i)
    EXPECT_EQ(trail[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(sched.Now(), 5);
  EXPECT_EQ(sched.telemetry().handoffs, static_cast<std::uint64_t>(kHops - 1));
  EXPECT_EQ(sched.telemetry().max_queue_depth, 1u);
  EXPECT_EQ(sched.telemetry().rounds, static_cast<std::uint64_t>(kHops));
}

// Round counts: a round repeats at a timestamp only while a handoff is due
// at it, so a hop dated later rides into the round that runs it and a
// timestamp that hands nothing off takes exactly one round. (The same-time
// ping-pong above takes one round per hop.)

TEST(HandoffTest, FutureDatedPingPongTakesOneRoundPerHop) {
  constexpr int kHops = 40;
  ParallelScheduler sched(2);
  std::vector<SimTime> at;  // written by one hop at a time
  std::function<void(int)> hop = [&](int n) {
    at.push_back(sched.Now());
    if (n + 1 < kHops)
      sched.Post(static_cast<std::uint64_t>((n + 1) % 2),
                 sched.Now() + Micros(1), [&hop, n] { hop(n + 1); });
  };
  sched.Post(0, 5, [&hop] { hop(0); });
  sched.RunUntilIdle();
  ASSERT_EQ(at.size(), static_cast<std::size_t>(kHops));
  for (int i = 0; i < kHops; ++i)
    EXPECT_EQ(at[static_cast<std::size_t>(i)], 5 + Micros(i));
  EXPECT_EQ(sched.telemetry().rounds, static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(sched.telemetry().handoffs, static_cast<std::uint64_t>(kHops - 1));
}

TEST(HandoffTest, TimestampWithoutHandoffsTakesOneRound) {
  // Every locality runs tasks at 10 and 20, each scheduling a same-time
  // follow-up on its own locality: two timestamps, two rounds.
  constexpr int kLoc = 4;
  ParallelScheduler sched(kLoc);
  std::atomic<int> ran{0};
  for (SimTime t : {SimTime{10}, SimTime{20}})
    for (std::uint64_t aff = 0; aff < 2 * kLoc; ++aff)
      sched.Post(aff, t, [&] {
        ran.fetch_add(1);
        sched.ScheduleAt(sched.Now(), [&] { ran.fetch_add(1); });
      });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 2 * 2 * 2 * kLoc);
  EXPECT_EQ(sched.Now(), 20);
  EXPECT_EQ(sched.telemetry().rounds, 2u);
  EXPECT_EQ(sched.telemetry().handoffs, 0u);
}

TEST(HandoffTest, CancelledFutureHandoffDoesNotDragTheClock) {
  // Locality 0 hands a task dated 100 to locality 1 at t=1, and the pump
  // stops at 50 with the handoff still in locality 0's outbox. The
  // conductor cancels it there. Like the sim engine, the next pump ends at
  // the last live task, not at the cancelled one's time.
  auto run = [](Scheduler& s) {
    auto ran = std::make_shared<std::atomic<int>>(0);
    auto victim = std::make_shared<TaskId>(0);
    s.Post(0, 1, [&s, ran, victim] {
      *victim = s.Post(1, 100, [ran] { ran->fetch_add(1); });
    });
    EXPECT_FALSE(s.RunUntilOr([] { return false; }, 50));
    s.Cancel(*victim);
    s.RunUntilIdle();
    EXPECT_EQ(s.PendingCount(), 0u);
    return std::make_pair(s.Now(), ran->load());
  };
  SimScheduler sim;
  ParallelScheduler par(2);
  const auto want = run(sim);
  EXPECT_EQ(want, (std::pair<SimTime, int>{50, 0}));
  EXPECT_EQ(run(par), want);
}

TEST(HandoffTest, ManySameRoundHandoffsArriveInMergeKeyOrder) {
  // Three workers each hand 1400 tasks to the two other localities in one
  // round, spread over three timestamps. Every task must arrive, each
  // destination must run them in (at, producer, producer seq) order, and
  // two runs must agree exactly.
  constexpr int kLoc = 3;
  constexpr int kPerProducer = 1400;
  using Key = std::tuple<SimTime, int, int>;
  auto run = [] {
    ParallelScheduler s(kLoc);
    // Each destination's log is written only by its own worker and read
    // here between pumps, so it needs no lock.
    std::array<std::vector<Key>, kLoc> log;
    for (int src = 0; src < kLoc; ++src)
      s.Post(static_cast<std::uint64_t>(src), 1, [&s, &log, src] {
        for (int seq = 0; seq < kPerProducer; ++seq) {
          const int dest = (src + 1 + seq % 2) % kLoc;
          const SimTime at = s.Now() + (seq * 7) % 3;
          s.Post(static_cast<std::uint64_t>(dest), at,
                 [&log, dest, at, src, seq] {
                   log[static_cast<std::size_t>(dest)].emplace_back(at, src,
                                                                   seq);
                 });
        }
      });
    s.RunUntilIdle();
    EXPECT_EQ(s.telemetry().handoffs,
              static_cast<std::uint64_t>(kLoc * kPerProducer));
    return log;
  };
  const auto a = run();
  std::size_t total = 0;
  for (const auto& dest : a) {
    EXPECT_TRUE(std::is_sorted(dest.begin(), dest.end()));
    total += dest.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kLoc * kPerProducer));
  EXPECT_EQ(a, run());
}

TEST(HandoffTest, ClearDestroysAnOutboxedClosureWithoutRunningIt) {
  ParallelScheduler sched(2);
  auto token = std::make_shared<int>(0);
  std::atomic<bool> handed{false};
  sched.Post(0, 1, [&sched, &handed, token] {
    sched.Post(1, sched.Now(), [token] { ++*token; });
    handed.store(true);
  });
  // The predicate stops the pump right after the round that handed off, so
  // the closure is still in locality 0's outbox for locality 1.
  ASSERT_TRUE(sched.RunUntilOr([&] { return handed.load(); }, 10));
  EXPECT_EQ(sched.PendingCount(), 1u);
  EXPECT_EQ(token.use_count(), 2);
  sched.Clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sched.PendingCount(), 0u);
  sched.RunUntilIdle();
  EXPECT_EQ(*token, 0);
}

TEST(HandoffTest, DestroyingTheEngineDestroysOutboxedClosuresUnrun) {
  // Shutdown shape: work handed off but never taken is owned by the
  // outbox and must be destroyed with the engine, never run or leaked.
  auto token = std::make_shared<int>(0);
  {
    ParallelScheduler sched(3);
    std::atomic<bool> handed{false};
    sched.Post(0, 1, [&sched, &handed, token] {
      for (std::uint64_t dest = 1; dest < 3; ++dest)
        for (int i = 0; i < 4; ++i)
          sched.Post(dest, sched.Now(), [token] { ++*token; });
      handed.store(true);
    });
    ASSERT_TRUE(sched.RunUntilOr([&] { return handed.load(); }, 10));
    EXPECT_EQ(token.use_count(), 1 + 8);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 0);
}

}  // namespace
}  // namespace fargo::sim

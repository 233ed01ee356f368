// Promise/Future semantics: deterministic scheduler-driven settlement,
// first-wins idempotency, continuation chaining, expiry, and the pump-depth
// guards the async invocation pipeline relies on.
#include "src/sim/future.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/scheduler.h"

namespace fargo::sim {
namespace {

TEST(FutureTest, ResolveSettlesAndDeliversValue) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> f = p.future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.settled());
  EXPECT_TRUE(p.Resolve(41));
  EXPECT_TRUE(f.settled());
  EXPECT_TRUE(f.ok());
  EXPECT_EQ(f.value(), 41);
}

TEST(FutureTest, SettlementIsFirstWins) {
  SimScheduler sched;
  Promise<int> p(sched);
  EXPECT_TRUE(p.Resolve(1));
  EXPECT_FALSE(p.Resolve(2));
  EXPECT_FALSE(p.RejectWith(FargoError("too late")));
  EXPECT_EQ(p.future().value(), 1);
}

TEST(FutureTest, TakeRethrowsSettlementError) {
  SimScheduler sched;
  Promise<int> p(sched);
  p.RejectWith(FargoError("boom"));
  Future<int> f = p.future();
  EXPECT_TRUE(f.settled());
  EXPECT_FALSE(f.ok());
  EXPECT_THROW(f.Take(), FargoError);
}

TEST(FutureTest, ObservingBeforeSettlementThrows) {
  SimScheduler sched;
  Promise<int> p(sched);
  EXPECT_THROW(p.future().value(), FargoError);
  EXPECT_THROW(Future<int>().settled(), FargoError);  // invalid future
}

TEST(FutureTest, ContinuationsNeverRunInline) {
  SimScheduler sched;
  Promise<int> p(sched);
  bool ran = false;
  p.future().OnSettle([&](Future<int> f) {
    EXPECT_EQ(f.value(), 7);
    ran = true;
  });
  p.Resolve(7);
  // Settled, but the continuation is a scheduled event, not an inline call.
  EXPECT_FALSE(ran);
  sched.RunUntilIdle();
  EXPECT_TRUE(ran);

  // Same for a continuation attached after settlement.
  bool late = false;
  p.future().OnSettle([&](Future<int>) { late = true; });
  EXPECT_FALSE(late);
  sched.RunUntilIdle();
  EXPECT_TRUE(late);
}

TEST(FutureTest, ContinuationsRunInRegistrationOrder) {
  SimScheduler sched;
  Promise<int> p(sched);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    p.future().OnSettle([&order, i](Future<int>) { order.push_back(i); });
  p.Resolve(0);
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FutureTest, ThenMapsValues) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<std::string> mapped =
      p.future().Then([](int& v) { return std::to_string(v * 2); });
  p.Resolve(21);
  sched.RunUntilIdle();
  EXPECT_EQ(mapped.value(), "42");
}

TEST(FutureTest, ThenFlattensFutureReturningFunctions) {
  SimScheduler sched;
  Promise<int> outer(sched);
  Promise<int> inner(sched);
  Future<int> chained = outer.future().Then(
      [&inner](int&) { return inner.future(); });
  outer.Resolve(1);
  sched.RunUntilIdle();
  EXPECT_FALSE(chained.settled());  // still waiting on the inner future
  inner.Resolve(99);
  sched.RunUntilIdle();
  EXPECT_EQ(chained.value(), 99);
}

TEST(FutureTest, ThenMapsVoidToUnit) {
  SimScheduler sched;
  Promise<int> p(sched);
  int seen = 0;
  Future<Unit> done = p.future().Then([&seen](int& v) { seen = v; });
  p.Resolve(5);
  sched.RunUntilIdle();
  EXPECT_TRUE(done.ok());
  EXPECT_EQ(seen, 5);
}

TEST(FutureTest, ErrorsPropagateThroughThenChains) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> chained = p.future()
                            .Then([](int& v) { return v + 1; })
                            .Then([](int& v) { return v + 1; });
  p.RejectWith(UnreachableError("lost"));
  sched.RunUntilIdle();
  EXPECT_TRUE(chained.settled());
  EXPECT_THROW(chained.Take(), UnreachableError);
}

TEST(FutureTest, ThrowingContinuationRejectsDownstream) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> chained =
      p.future().Then([](int&) -> int { throw FargoError("mapper failed"); });
  p.Resolve(1);
  sched.RunUntilIdle();
  EXPECT_THROW(chained.Take(), FargoError);
}

TEST(FutureTest, OrElseRecoversFromErrors) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> recovered =
      p.future().OrElse([](std::exception_ptr) { return -1; });
  p.RejectWith(FargoError("boom"));
  sched.RunUntilIdle();
  EXPECT_EQ(recovered.value(), -1);

  // Successes pass through untouched.
  Promise<int> q(sched);
  Future<int> passthrough =
      q.future().OrElse([](std::exception_ptr) { return -1; });
  q.Resolve(10);
  sched.RunUntilIdle();
  EXPECT_EQ(passthrough.value(), 10);
}

TEST(FutureTest, OrElseCanRethrowToKeepTheError) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> kept = p.future().OrElse(
      [](std::exception_ptr e) -> int { std::rethrow_exception(e); });
  p.RejectWith(UnreachableError("unreachable"));
  sched.RunUntilIdle();
  EXPECT_THROW(kept.Take(), UnreachableError);
}

TEST(FutureTest, ExpireAfterRejectsUnsettledFutures) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> f = p.future().ExpireAfter(100, "gave up");
  sched.RunUntilIdle();
  EXPECT_EQ(sched.Now(), 100);
  EXPECT_THROW(f.Take(), UnreachableError);
  // The producer lost the race; its resolve is a no-op.
  EXPECT_FALSE(p.Resolve(1));
}

TEST(FutureTest, ExpiryIsCancelledOnSettlement) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> f = p.future().ExpireAfter(100, "gave up");
  sched.ScheduleAfter(10, [&p] { p.Resolve(3); });
  sched.RunUntilIdle();
  EXPECT_EQ(f.value(), 3);
  // The expiry task was cancelled, never executed: the clock stops at the
  // resolution, not at the (skipped) deadline.
  EXPECT_EQ(sched.Now(), 10);
}

TEST(FutureTest, AwaitPumpsUntilSettledAndReturnsValue) {
  SimScheduler sched;
  Promise<int> p(sched);
  sched.ScheduleAfter(50, [&p] { p.Resolve(8); });
  EXPECT_EQ(Await(p.future()), 8);
  EXPECT_EQ(sched.Now(), 50);
}

TEST(FutureTest, AwaitRethrowsSettlementError) {
  SimScheduler sched;
  Promise<int> p(sched);
  sched.ScheduleAfter(5, [&p] { p.RejectWith(UnreachableError("down")); });
  EXPECT_THROW(Await(p.future()), UnreachableError);
}

TEST(FutureTest, MakeReadyAndErrorFutures) {
  SimScheduler sched;
  EXPECT_EQ(MakeReadyFuture<int>(sched, 4).value(), 4);
  Future<int> bad = MakeErrorFuture<int>(sched, FargoError("nope"));
  EXPECT_THROW(bad.Take(), FargoError);
}

TEST(FutureTest, CancelSettlesWithError) {
  SimScheduler sched;
  Promise<int> p(sched);
  Future<int> f = p.future();
  EXPECT_TRUE(f.Cancel("aborted by test"));
  EXPECT_FALSE(p.Resolve(1));
  EXPECT_THROW(f.Take(), FargoError);
}

// ---- the pump guard -----------------------------------------------------------

TEST(PumpGuardTest, AwaitInsideATaskThrows) {
  // A task that blocks on a future pumps from inside the pump: it throws,
  // whether or not the future could settle.
  SimScheduler sched;
  bool threw = false;
  sched.ScheduleAfter(1, [&] {
    Promise<int> p(sched);
    sched.ScheduleAfter(1, [p]() mutable { p.Resolve(1); });
    try {
      Await(p.future());
    } catch (const FargoError&) {
      threw = true;
    }
  });
  sched.RunUntilIdle();
  EXPECT_TRUE(threw);
}

TEST(PumpGuardTest, NoPumpScopeForbidsPumping) {
  SimScheduler sched;
  Scheduler::NoPumpScope guard(sched);
  EXPECT_THROW(sched.RunUntilIdle(), FargoError);
}

}  // namespace
}  // namespace fargo::sim

// The asynchronous invocation pipeline end to end: pipelined InvokeAsync
// sharing one round-trip, interleaved cross-core calls without nested
// pumping, MoveAsync, script rules relocating complets while invocations
// are in flight, chaos-hardened at-most-once semantics for async batches,
// complet methods that answer later, and late-reply accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/script/interp.h"
#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using core::ComletRef;

class AsyncPipelineTest : public FargoTest {};

TEST_F(AsyncPipelineTest, InterleavedCrossCoreInvocationsDoNotDeadlock) {
  auto cores = MakeCores(2, Millis(20));
  auto a = cores[0]->New<Counter>();
  auto b = cores[1]->New<Counter>();

  // Each side calls the other before either round-trip completes. With the
  // old blocking RPC this required re-entrant pumping; the async pipeline
  // interleaves both conversations on a single event loop.
  auto b_from_0 = cores[0]->RefTo<Counter>(b.handle());
  auto a_from_1 = cores[1]->RefTo<Counter>(a.handle());
  sim::Future<std::int64_t> f1 = b_from_0.InvokeAsync<std::int64_t>("increment");
  sim::Future<std::int64_t> f2 = a_from_1.InvokeAsync<std::int64_t>("increment");
  EXPECT_FALSE(f1.settled());
  EXPECT_FALSE(f2.settled());

  rt.RunUntilIdle();
  ASSERT_TRUE(f1.settled());
  ASSERT_TRUE(f2.settled());
  EXPECT_EQ(f1.value(), 1);
  EXPECT_EQ(f2.value(), 1);
}

TEST_F(AsyncPipelineTest, PipelinedInvocationsShareTheRoundTrip) {
  auto cores = MakeCores(2, Millis(50));
  auto counter = cores[1]->New<Counter>();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());

  // Baseline: one synchronous invocation over the 50 ms link.
  const SimTime t0 = rt.scheduler().Now();
  EXPECT_EQ(stub.Invoke<std::int64_t>("increment"), 1);
  const SimTime single = rt.scheduler().Now() - t0;
  ASSERT_GT(single, Millis(99));  // sanity: the RTT is really being paid

  // K concurrent calls issued back-to-back: they pipeline on the link and
  // complete in roughly one round-trip, not K of them.
  constexpr int kPipeline = 16;
  const SimTime t1 = rt.scheduler().Now();
  std::vector<sim::Future<std::int64_t>> futures;
  for (int i = 0; i < kPipeline; ++i)
    futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  rt.RunUntilIdle();
  const SimTime pipelined = rt.scheduler().Now() - t1;

  std::vector<std::int64_t> got;
  for (auto& f : futures) {
    ASSERT_TRUE(f.settled());
    got.push_back(f.value());
  }
  std::sort(got.begin(), got.end());
  for (int i = 0; i < kPipeline; ++i) EXPECT_EQ(got[i], i + 2);

  // The acceptance bar: 16 pipelined calls in under 2x one call.
  EXPECT_LT(pipelined, 2 * single)
      << "pipelined=" << pipelined << " single=" << single;
}

TEST_F(AsyncPipelineTest, MoveAsyncSettlesAndRelocates) {
  auto cores = MakeCores(3);
  auto counter = cores[1]->New<Counter>();

  // A routed move issued from an administrative core that hosts nothing.
  auto stub = cores[0]->RefTo<Counter>(counter.handle());
  sim::Future<sim::Unit> moved = cores[0]->MoveAsync(stub, cores[2]->id());
  EXPECT_FALSE(moved.settled());
  rt.RunUntilIdle();
  ASSERT_TRUE(moved.settled());
  EXPECT_TRUE(moved.ok());
  EXPECT_TRUE(cores[2]->repository().Contains(counter.target()));

  // The relocated complet is still invocable through the stale stub
  // (forwarding + chain shortening, §3.1).
  EXPECT_EQ(stub.Invoke<std::int64_t>("increment"), 1);
}

TEST_F(AsyncPipelineTest, ScriptRuleMovesComletWhileInvocationsAreInFlight) {
  auto cores = MakeCores(3, Millis(20));
  auto counter = cores[1]->New<Counter>();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());

  // A periodic relocation rule at the admin core: its body runs inside a
  // scheduled listener, so the move goes through MoveAsync (no nested pump)
  // while client invocations race the relocation.
  script::Engine engine(rt, *cores[0]);
  engine.SetVar("target", Value(counter.handle()));
  engine.Run("every 0.03 do move $target to core2 end");

  std::vector<sim::Future<std::int64_t>> futures;
  constexpr int kWave = 8;
  for (int i = 0; i < kWave; ++i)
    futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  // A second wave launched mid-flight of the relocation, on cores[0]'s
  // locality: the stub issues through cores[0]'s request table.
  rt.scheduler().PostAfter(cores[0]->id().value, Millis(35), [&] {
    for (int i = 0; i < kWave; ++i)
      futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  });

  rt.RunFor(Millis(500));
  engine.Detach();  // stop the periodic rule so the world can drain
  rt.RunUntilIdle();

  EXPECT_GE(engine.moves_executed(), 1u);
  EXPECT_TRUE(cores[2]->repository().Contains(counter.target()));
  ASSERT_EQ(futures.size(), 2u * kWave);
  for (auto& f : futures) {
    ASSERT_TRUE(f.settled());
    EXPECT_TRUE(f.ok());
  }
  // Every invocation executed exactly once despite forwarding/parking.
  auto anchor = cores[2]->repository().Get(counter.target());
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(static_cast<const Counter*>(anchor.get())->value(), 2 * kWave);
}

TEST_F(AsyncPipelineTest, ChaosPipelinedBatchesNeverDoubleExecute) {
  auto cores = MakeCores(3, Millis(2), 1e7);

  core::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = Millis(20);
  policy.seed = 0xA5F0;
  for (core::Core* c : cores) {
    c->SetRpcTimeout(Millis(200));
    c->SetRetryPolicy(policy);
  }

  net::FaultPlan plan;
  plan.seed = 0xA5F0;
  plan.drop = 0.05;
  plan.duplicate = 0.02;
  plan.reorder = 0.10;
  plan.reorder_jitter = Millis(10);
  rt.network().SetFaultPlan(plan);

  auto ledger = cores[0]->New<OpLedger>();
  constexpr int kBatches = 10;
  constexpr int kBatchSize = 16;
  std::int64_t successes = 0;
  std::int64_t op = 0;
  for (int b = 0; b < kBatches; ++b) {
    // Periodic re-layout between batches keeps requests racing the complet.
    if (b > 0) {
      try {
        cores[b % 3]->MoveId(ledger.target(), cores[(b + 1) % 3]->id());
      } catch (const FargoError&) {
        // Retries exhausted under chaos; the batch below still routes via
        // home-registry fallback.
      }
    }
    std::vector<sim::Future<std::int64_t>> batch;
    auto stub = cores[(b + 2) % 3]->RefTo<OpLedger>(ledger.handle());
    for (int i = 0; i < kBatchSize; ++i)
      batch.push_back(stub.InvokeAsync<std::int64_t>("apply", op++));
    rt.RunUntilIdle();
    for (auto& f : batch) {
      ASSERT_TRUE(f.settled());
      if (f.ok()) ++successes;
    }
  }

  rt.network().ClearFaults();
  rt.RunUntilIdle();

  // Audit the ground truth: at-most-once must hold for async batches too.
  const OpLedger* anchor = nullptr;
  for (core::Core* c : cores) {
    if (auto a = c->repository().Get(ledger.target())) {
      anchor = static_cast<const OpLedger*>(a.get());
      break;
    }
  }
  ASSERT_NE(anchor, nullptr) << "ledger vanished under chaos";
  EXPECT_EQ(anchor->dups(), 0);
  EXPECT_GE(anchor->total(), successes);
  EXPECT_LE(anchor->total(), op);
}

TEST_F(AsyncPipelineTest, PureAsyncPipelineNeverNestsThePump) {
  auto cores = MakeCores(2, Millis(10));
  auto counter = cores[1]->New<Counter>();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());

  std::vector<sim::Future<std::int64_t>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  // A local (host-initiated) async move rides along: marshal/commit are
  // continuation-driven as well.
  sim::Future<sim::Unit> moved = cores[1]->MoveAsync(counter, cores[0]->id());
  rt.RunUntilIdle();

  for (auto& f : futures) {
    ASSERT_TRUE(f.settled());
    EXPECT_TRUE(f.ok());
  }
  EXPECT_TRUE(moved.ok());
  // Nothing in the async path re-entered the scheduler: a nested pump
  // would have thrown out of the top-level RunUntilIdle.
}

TEST_F(AsyncPipelineTest, LocalOnewayMoveDoesNotPump) {
  // A oneway __fargo.move on a complet hosted right here dispatches
  // locally. The move must start as a state machine, like a routed one: a
  // wait inside the posted task would nest the pump under the sim engine
  // and throw under the locality engine.
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  ::testing::internal::CaptureStderr();
  counter.Post(core::kMoveMethod,
               {Value(static_cast<std::int64_t>(cores[1]->id().value)),
                Value(""), Value(Value::List{})});
  rt.RunUntilIdle();
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_TRUE(cores[1]->repository().Contains(counter.target()));
  EXPECT_FALSE(cores[0]->repository().Contains(counter.target()));
  EXPECT_EQ(log.find("failed"), std::string::npos) << log;
}

// ---- complet methods that answer later -------------------------------------
//
// Worker.work calls its Data complet and returns that call's future: the
// executor answers from the future's settle continuation.

TEST_F(AsyncPipelineTest, AsyncMethodRepliesWhenItsFutureSettles) {
  // Near-infinite bandwidth: every hop costs exactly the 20 ms latency.
  auto cores = MakeCores(3, Millis(20), 1e15);
  auto worker = cores[1]->New<Worker>();
  auto data = cores[2]->New<Data>(std::size_t{10});
  worker.Call("bind", {Value(data.handle())});
  auto client = cores[0]->RefTo<Worker>(worker.handle());

  SimTime t0 = rt.Now();
  client.Call("workDone");  // a sync method: one round trip
  const SimTime round_trip = rt.Now() - t0;
  ASSERT_EQ(round_trip, Millis(40));

  t0 = rt.Now();
  sim::Future<Value> f = client.CallAsync("work");
  // The reply waits for the nested call: not after one round trip...
  rt.RunFor(2 * round_trip - 1);
  EXPECT_FALSE(f.settled());
  // ...but at exactly two, the time the nested synchronous call took.
  rt.scheduler().RunUntil([&] { return f.settled(); });
  EXPECT_EQ(rt.Now() - t0, 2 * round_trip);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().AsInt(), 10);
}

TEST_F(AsyncPipelineTest, RetryOfAnInFlightAsyncMethodIsSuppressed) {
  // The nested call crosses a 100 ms link, so the client's 30 ms attempts
  // time out and resend while the method is still waiting: each resend
  // finds the slot in progress and is suppressed, and the method body runs
  // once. The first attempt's reply settles the call.
  auto cores = MakeCores(3);
  rt.network().SetLink(cores[1]->id(), cores[2]->id(),
                       net::LinkModel{Millis(100), 1.25e6, true});
  auto worker = cores[1]->New<Worker>();
  auto data = cores[2]->New<Data>(std::size_t{10});
  worker.Call("bind", {Value(data.handle())});
  core::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = Millis(10);
  cores[0]->SetRetryPolicy(policy);
  cores[0]->SetRpcTimeout(Millis(30));

  const std::uint64_t suppressed =
      rt.metrics().CounterValue("session.suppressed");
  sim::Future<Value> f =
      cores[0]->RefTo<Worker>(worker.handle()).CallAsync("work");
  rt.RunUntilIdle();
  ASSERT_TRUE(f.settled());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().AsInt(), 10);
  EXPECT_GT(rt.metrics().CounterValue("session.suppressed"), suppressed);
  EXPECT_EQ(worker.Invoke<std::int64_t>("workDone"), 1);
  EXPECT_EQ(data.Invoke<std::int64_t>("reads"), 1);
}

TEST_F(AsyncPipelineTest, DurableAsyncReplyWaitsForTheStateImagedAtSettle) {
  // The worker's executor is durable with 50 ms fsyncs. The method settles
  // ~15 ms in and its state is imaged then; the reply waits for a barrier
  // over that image. A crash before the barrier loses the execution and
  // withholds the reply, so the client's retry runs it again on the
  // recovered Core: observably once, as with a nested synchronous call.
  auto cores = MakeCores(3);
  rt.storage().SetFsyncLatency(Millis(50));
  cores[1]->EnableWal();
  auto worker = cores[1]->New<Worker>();
  auto data = cores[2]->New<Data>(std::size_t{10});
  worker.Call("bind", {Value(data.handle())});
  rt.RunUntilIdle();
  core::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = Millis(40);
  cores[0]->SetRetryPolicy(policy);
  cores[0]->SetRpcTimeout(Millis(120));

  auto source = std::dynamic_pointer_cast<Data>(
      cores[2]->repository().Get(data.target()));
  sim::Future<Value> f =
      cores[0]->RefTo<Worker>(worker.handle()).CallAsync("work");
  rt.scheduler().RunUntil([&] { return source->reads() == 1; });
  rt.RunFor(Millis(10));  // the read's answer is in: settled and imaged,
  EXPECT_FALSE(f.settled());  // but not yet durable
  cores[1]->Crash();
  cores[1]->Restart();
  rt.RunUntilIdle();

  ASSERT_TRUE(f.settled());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().AsInt(), 10);
  auto recovered = cores[0]->RefTo<Worker>(
      ComletHandle{worker.target(), cores[1]->id(), "test.Worker"});
  EXPECT_EQ(recovered.Invoke<std::int64_t>("workDone"), 1);  // once
}

// Late replies through both front doors of the request engine: an
// invocation and a SendAsync round trip share one correlation table.
enum class RequestKind { kInvoke, kNameRequest };

class LateReplyTest : public AsyncPipelineTest,
                      public ::testing::WithParamInterface<RequestKind> {};

TEST_P(LateReplyTest, LateRepliesAreCountedAndDropped) {
  auto cores = MakeCores(2, Millis(30));  // RTT 60 ms
  core::RetryPolicy one_shot;
  one_shot.max_attempts = 1;
  cores[0]->SetRetryPolicy(one_shot);
  cores[0]->SetRpcTimeout(Millis(40));  // gives up before the reply lands

  auto counter = cores[1]->New<Counter>();
  if (GetParam() == RequestKind::kInvoke) {
    auto stub = cores[0]->RefTo<Counter>(counter.handle());
    EXPECT_THROW(stub.Invoke<std::int64_t>("increment"), UnreachableError);
  } else {
    serial::Writer w;
    w.WriteString("nobody");
    EXPECT_THROW(cores[0]->SendAndAwait(cores[1]->id(),
                                        net::MessageKind::kNameRequest,
                                        w.Take()),
                 UnreachableError);
  }

  // The genuine reply is still in flight; when it lands there is no waiter.
  rt.RunUntilIdle();
  EXPECT_EQ(rt.metrics().CounterValue("rpc.late_replies"), 1u);

  // The execution happened exactly once at the target — the timeout was a
  // client-side judgement, not a lost operation.
  auto anchor = cores[1]->repository().Get(counter.target());
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(static_cast<const Counter*>(anchor.get())->value(),
            GetParam() == RequestKind::kInvoke ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(
    BothFrontDoors, LateReplyTest,
    ::testing::Values(RequestKind::kInvoke, RequestKind::kNameRequest),
    [](const ::testing::TestParamInfo<RequestKind>& info) {
      return info.param == RequestKind::kInvoke ? "Invoke" : "NameRequest";
    });

}  // namespace
}  // namespace fargo::testing

// Tracer/TraceBuffer unit tests plus the trace invariants the subsystem
// guarantees end-to-end: every span belongs to a trace with exactly one
// root, retries and forwarding hops chain causally to that root, span
// accounting matches the invocation structure (1 root + hops + retries on
// the origin/forwarder side, one exec at the host), and nothing is left
// open after quiescence — including under seeded chaos.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/heartbeat.h"
#include "tests/support/fixture.h"
#include "tests/support/json_lite.h"

namespace fargo::testing {
namespace {

using monitor::Span;
using monitor::SpanKind;
using monitor::SpanOutcome;
using monitor::TraceBuffer;
using monitor::Tracer;
using core::wire::TraceContext;

// ---- TraceBuffer ------------------------------------------------------------

TEST(TraceBufferTest, TokensStayAddressableUntilEvicted) {
  TraceBuffer buf(4);
  std::vector<std::uint64_t> tokens;
  for (int i = 0; i < 6; ++i) {
    Span s;
    s.trace_id = static_cast<std::uint64_t>(i) + 1;
    tokens.push_back(buf.Add(s));
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total_added(), 6u);
  EXPECT_EQ(buf.evicted(), 2u);
  // The two oldest wrapped out of the ring.
  EXPECT_EQ(buf.Find(tokens[0]), nullptr);
  EXPECT_EQ(buf.Find(tokens[1]), nullptr);
  for (int i = 2; i < 6; ++i) {
    Span* s = buf.Find(tokens[static_cast<std::size_t>(i)]);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->trace_id, static_cast<std::uint64_t>(i) + 1);
  }
  EXPECT_EQ(buf.Find(0), nullptr);  // token 0 = "no span"

  // Snapshot is oldest-to-newest of the live contents.
  std::vector<Span> snap = buf.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_LT(snap[i - 1].token, snap[i].token);
  EXPECT_EQ(snap.front().trace_id, 3u);
  EXPECT_EQ(snap.back().trace_id, 6u);
}

TEST(TraceBufferTest, ResetDropsContentsAndCanResize) {
  TraceBuffer buf(4);
  for (int i = 0; i < 3; ++i) buf.Add(Span{});
  buf.Reset();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 4u);
  buf.Reset(16);
  EXPECT_EQ(buf.capacity(), 16u);
  EXPECT_TRUE(buf.Snapshot().empty());
}

// ---- Tracer -----------------------------------------------------------------

TEST(TracerTest, DisabledTracerPassesContextsThroughUntouched) {
  Tracer t(CoreId{3});
  EXPECT_FALSE(t.enabled());
  const TraceContext parent{77, 5, 2, 1};
  Tracer::Opened o = t.OpenSpan(SpanKind::kExec, "m", parent, Millis(1));
  EXPECT_EQ(o.token, 0u);
  EXPECT_EQ(o.ctx, parent);  // continuity across non-tracing Cores
  t.CloseSpan(o.token, Millis(2), SpanOutcome::kOk);
  EXPECT_EQ(t.buffer().size(), 0u);
  EXPECT_EQ(t.traces_started(), 0u);
}

TEST(TracerTest, InvalidParentMintsFreshTraceRootedAtZero) {
  Tracer t(CoreId{3});
  t.SetEnabled(true);
  Tracer::Opened root =
      t.OpenSpan(SpanKind::kRoot, "increment", TraceContext{}, Millis(1));
  ASSERT_NE(root.token, 0u);
  EXPECT_TRUE(root.ctx.valid());
  EXPECT_EQ(root.ctx.parent_span, 0u);
  EXPECT_EQ(t.traces_started(), 1u);
  // Ids are deterministic and carry the minting core in the high bits.
  EXPECT_EQ(root.ctx.trace_id >> 40, 3u);
  EXPECT_EQ(root.ctx.span_id >> 40, 3u);

  Tracer::Opened child =
      t.OpenSpan(SpanKind::kExec, "increment", root.ctx, Millis(2));
  EXPECT_EQ(child.ctx.trace_id, root.ctx.trace_id);  // same trace
  EXPECT_EQ(child.ctx.parent_span, root.ctx.span_id);
  EXPECT_NE(child.ctx.span_id, root.ctx.span_id);
  EXPECT_EQ(t.traces_started(), 1u);  // no new trace for the child

  t.CloseSpan(child.token, Millis(3), SpanOutcome::kOk, 2, 99);
  Span* s = t.buffer().Find(child.token);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->outcome, SpanOutcome::kOk);
  EXPECT_EQ(s->hops, 2);
  EXPECT_EQ(s->bytes, 99u);
  EXPECT_EQ(s->end, Millis(3));
  // The root was never closed: still pending.
  EXPECT_EQ(t.buffer().Find(root.token)->outcome, SpanOutcome::kPending);
}

TEST(TracerTest, CloseAfterEvictionIsANoop) {
  Tracer t(CoreId{1}, /*capacity=*/2);
  t.SetEnabled(true);
  Tracer::Opened old = t.OpenSpan(SpanKind::kRoot, "a", {}, 0);
  t.RecordInstant(SpanKind::kControl, "b", {}, 1);
  t.RecordInstant(SpanKind::kControl, "c", {}, 2);  // wraps onto `old`
  EXPECT_EQ(t.buffer().Find(old.token), nullptr);
  t.CloseSpan(old.token, 3, SpanOutcome::kOk);  // must not touch the new slot
  EXPECT_EQ(t.buffer().Snapshot().back().name_view(), "c");
}

// The ring is allocated by the first span and freed by Reset: a Core that
// never traces behaves as one with an empty ring of its configured size.
TEST(TracerTest, RingLivesFromFirstSpanUntilReset) {
  Tracer t(CoreId{1}, /*capacity=*/4);
  EXPECT_EQ(t.OpenSpan(SpanKind::kRoot, "off", {}, 0).token, 0u);
  EXPECT_EQ(t.buffer().capacity(), 4u);
  EXPECT_EQ(t.buffer().size(), 0u);
  EXPECT_EQ(t.buffer().Find(1), nullptr);
  EXPECT_TRUE(t.buffer().Snapshot().empty());

  t.SetEnabled(true);
  std::vector<std::uint64_t> tokens;
  for (int i = 0; i < 6; ++i) {
    Tracer::Opened o = t.OpenSpan(SpanKind::kRoot, std::to_string(i), {}, i);
    t.CloseSpan(o.token, i + 1, SpanOutcome::kOk);
    tokens.push_back(o.token);
  }
  EXPECT_EQ(tokens.front(), 1u);
  EXPECT_EQ(t.buffer().size(), 4u);
  EXPECT_EQ(t.buffer().evicted(), 2u);
  EXPECT_EQ(t.buffer().Find(tokens[1]), nullptr);
  ASSERT_NE(t.buffer().Find(tokens[5]), nullptr);
  EXPECT_EQ(t.buffer().Find(tokens[5])->outcome, SpanOutcome::kOk);
  std::vector<Span> snap = t.buffer().Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().name_view(), "2");
  EXPECT_EQ(snap.back().name_view(), "5");

  t.buffer().Reset();
  EXPECT_EQ(t.buffer().capacity(), 4u);
  EXPECT_EQ(t.buffer().size(), 0u);
  EXPECT_EQ(t.buffer().total_added(), 0u);
  EXPECT_EQ(t.buffer().Find(tokens[5]), nullptr);
  EXPECT_TRUE(t.buffer().Snapshot().empty());

  Tracer::Opened again = t.OpenSpan(SpanKind::kRoot, "again", {}, 10);
  EXPECT_EQ(again.token, 1u);
  ASSERT_NE(t.buffer().Find(again.token), nullptr);
  EXPECT_EQ(t.buffer().Snapshot().back().name_view(), "again");
  EXPECT_EQ(t.buffer().size(), 1u);
}

TEST(TracerTest, LongNamesAreClamped) {
  Tracer t(CoreId{1});
  t.SetEnabled(true);
  const std::string longname(80, 'x');
  Tracer::Opened o = t.OpenSpan(SpanKind::kRoot, longname, {}, 0);
  const Span* s = t.buffer().Find(o.token);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name_view(), std::string(31, 'x'));
}

TEST(TracerTest, AmbientContextStackNests) {
  Tracer t(CoreId{1});
  EXPECT_FALSE(t.Current().valid());  // empty stack = no ambient trace
  const TraceContext outer{1, 2, 0, 0}, inner{1, 3, 2, 0};
  t.Push(outer);
  EXPECT_EQ(t.Current(), outer);
  {
    monitor::TraceScope scope(t, inner);
    EXPECT_EQ(t.Current(), inner);
  }
  EXPECT_EQ(t.Current(), outer);
  t.Pop();
  EXPECT_FALSE(t.Current().valid());
}

// ---- end-to-end invariants --------------------------------------------------

std::vector<Span> AllSpans(core::Runtime& rt) {
  std::vector<Span> all;
  for (core::Core* c : rt.Cores()) {
    std::vector<Span> snap = c->tracer().buffer().Snapshot();
    all.insert(all.end(), snap.begin(), snap.end());
  }
  return all;
}

std::map<std::uint64_t, std::vector<Span>> ByTrace(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<Span>> traces;
  for (const Span& s : spans) traces[s.trace_id].push_back(s);
  return traces;
}

int CountKind(const std::vector<Span>& spans, SpanKind k) {
  int n = 0;
  for (const Span& s : spans) n += s.kind == k ? 1 : 0;
  return n;
}

/// Core invariant: within every trace there is exactly one root span
/// (parent_span == 0) and every other span's parent resolves to a recorded
/// span of the same trace (no orphans). Requires no ring eviction.
void AssertWellFormedTraces(
    const std::map<std::uint64_t, std::vector<Span>>& traces) {
  for (const auto& [trace_id, spans] : traces) {
    int roots = 0;
    std::map<std::uint64_t, const Span*> by_span;
    for (const Span& s : spans) {
      roots += s.parent_span == 0 ? 1 : 0;
      by_span[s.span_id] = &s;
    }
    EXPECT_EQ(roots, 1) << "trace " << trace_id << " has " << roots
                        << " roots across " << spans.size() << " spans";
    for (const Span& s : spans) {
      if (s.parent_span == 0) continue;
      EXPECT_TRUE(by_span.contains(s.parent_span))
          << "orphan span " << s.span_id << " (kind "
          << monitor::ToString(s.kind) << ") in trace " << trace_id;
    }
  }
}

class TraceInvariantTest : public FargoTest {};

TEST_F(TraceInvariantTest, DirectInvocationRecordsRootAndExec) {
  auto cores = MakeCores(2);
  rt.SetTracing(true);
  auto counter = cores[0]->New<Counter>();
  auto stub = cores[1]->RefTo<Counter>(counter.handle());
  stub.Invoke<std::int64_t>("increment");

  auto traces = ByTrace(AllSpans(rt));
  ASSERT_EQ(traces.size(), 1u);
  const std::vector<Span>& spans = traces.begin()->second;
  // Direct route: exactly 1 root + 0 hops + 0 retries on the origin side,
  // one exec at the host — nothing else.
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(CountKind(spans, SpanKind::kRoot), 1);
  EXPECT_EQ(CountKind(spans, SpanKind::kExec), 1);
  for (const Span& s : spans) {
    EXPECT_EQ(s.outcome, SpanOutcome::kOk);
    EXPECT_EQ(s.hops, 1);  // one network leg, no forwarders
    EXPECT_EQ(s.name_view(), "increment");
    if (s.kind == SpanKind::kRoot)
      EXPECT_EQ(s.core, cores[1]->id());
    else
      EXPECT_EQ(s.core, cores[0]->id());
  }
  AssertWellFormedTraces(traces);
}

TEST_F(TraceInvariantTest, ForwardingHopsChainCausallyToTheRoot) {
  auto cores = MakeCores(3);
  rt.SetTracing(true);
  auto counter = cores[0]->New<Counter>();
  auto stub = cores[2]->RefTo<Counter>(counter.handle());
  cores[0]->Move(counter, cores[1]->id());
  rt.RunUntilIdle();
  cores[2]->tracer().buffer().Reset();  // isolate the invocation's trace
  cores[0]->tracer().buffer().Reset();
  cores[1]->tracer().buffer().Reset();

  stub.Invoke<std::int64_t>("increment");  // routes 2 -> 0 -(fwd)-> 1

  auto traces = ByTrace(AllSpans(rt));
  // The invocation trace, plus control traces for the chain-shortening
  // tracker updates the exec core fanned out afterwards.
  const Span* root = nullptr;
  const Span* hop = nullptr;
  const Span* exec = nullptr;
  for (const auto& [id, spans] : traces)
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kRoot) root = &s;
      if (s.kind == SpanKind::kHop) hop = &s;
      if (s.kind == SpanKind::kExec) exec = &s;
    }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(hop, nullptr);
  ASSERT_NE(exec, nullptr);
  // One forwarding hop, recorded at the stale core, re-parented so the
  // causal chain mirrors the tracker chain: root <- hop <- exec. Delivery
  // took two network legs (origin -> stale core -> host).
  EXPECT_EQ(root->hops, 2);
  EXPECT_EQ(root->core, cores[2]->id());
  EXPECT_EQ(hop->core, cores[0]->id());
  EXPECT_EQ(exec->core, cores[1]->id());
  EXPECT_EQ(hop->trace_id, root->trace_id);
  EXPECT_EQ(exec->trace_id, root->trace_id);
  EXPECT_EQ(hop->parent_span, root->span_id);
  EXPECT_EQ(exec->parent_span, hop->span_id);
  AssertWellFormedTraces(traces);
}

TEST_F(TraceInvariantTest, ChainShorteningShowsUpInTheHopHistogram) {
  // Satellite regression: drag the complet across a 4-core chain, then
  // observe the hop-count histogram collapse after one round trip.
  auto cores = MakeCores(5);
  rt.SetTracing(true);
  auto counter = cores[0]->New<Counter>();
  for (std::size_t i = 1; i <= 3; ++i) {
    cores[i - 1]->MoveId(counter.target(), cores[i]->id());
    rt.RunUntilIdle();
  }

  auto leq1 = [&] {
    // Observations landing in buckets with bound <= 1.
    monitor::Histogram::Snapshot s = rt.metrics().HistogramSnapshot(
        "invoke.hops");
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < s.bounds.size() && s.bounds[i] <= 1.0; ++i)
      n += s.counts[i];
    return n;
  };

  auto stub = cores[4]->RefTo<Counter>(counter.handle());  // stale: at core0
  stub.Invoke<std::int64_t>("increment");  // 4 -> 0 -> 1 -> 2 -> 3
  rt.RunUntilIdle();  // deliver the chain-shortening tracker updates
  monitor::Histogram::Snapshot first =
      rt.metrics().HistogramSnapshot("invoke.hops");
  EXPECT_EQ(first.count, 1u);
  EXPECT_EQ(leq1(), 0u) << "first call should have traversed the full chain";

  stub.Invoke<std::int64_t>("increment");  // shortened: direct (or 1 hop)
  EXPECT_EQ(rt.metrics().HistogramSnapshot("invoke.hops").count, 2u);
  EXPECT_EQ(leq1(), 1u) << "post-shortening call still chained";

  // The root spans agree with the histogram.
  int long_roots = 0, short_roots = 0;
  for (const Span& s : AllSpans(rt))
    if (s.kind == SpanKind::kRoot) {
      long_roots += s.hops >= 3 ? 1 : 0;
      short_roots += s.hops <= 1 ? 1 : 0;
    }
  EXPECT_EQ(long_roots, 1);
  EXPECT_EQ(short_roots, 1);
}

TEST_F(TraceInvariantTest, HeartbeatTrafficRecordsControlSpans) {
  auto cores = MakeCores(2);
  rt.SetTracing(true);
  cores[0]->EnableHeartbeat(Millis(100), 3).Watch(cores[1]->id());
  rt.RunFor(Millis(450));
  cores[0]->DisableHeartbeat();
  rt.RunUntilIdle();

  std::vector<Span> spans = AllSpans(rt);
  int pings = 0, pongs = 0;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kControl) continue;
    if (s.name_view() == "hb_ping") ++pings;
    if (s.name_view() == "hb_pong") ++pongs;
  }
  EXPECT_GT(pings, 0);
  EXPECT_GT(pongs, 0);
  // Each pong joins the trace its ping minted.
  AssertWellFormedTraces(ByTrace(spans));
  EXPECT_EQ(rt.metrics().CounterValue("hb.pings"),
            static_cast<std::uint64_t>(pings));
}

// Seeded chaos: drops force retries, duplicates force slot replay — the causal
// structure must survive all of it, and span accounting must agree with
// the runtime's own counters exactly.
class ChaosTraceTest : public FargoTest,
                       public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(ChaosTraceTest, TraceInvariantsHoldUnderChaos) {
  const std::uint32_t seed = GetParam();
  const int kCores = 4;
  const int kOps = 400;
  auto cores = MakeCores(kCores, Millis(2), 1e7);
  rt.SetTracing(true);

  core::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = Millis(20);
  policy.seed = seed;
  for (core::Core* c : cores) {
    c->SetRpcTimeout(Millis(200));
    c->SetRetryPolicy(policy);
  }
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.05;
  plan.duplicate = 0.02;
  plan.reorder = 0.10;
  plan.reorder_jitter = Millis(10);
  rt.network().SetFaultPlan(plan);

  auto ledger = cores[0]->New<OpLedger>();
  std::size_t model_at = 0;
  int successes = 0, failures = 0;
  std::mt19937 rng(seed);
  for (int op = 0; op < kOps; ++op) {
    if (op > 0 && op % 100 == 0) {
      const std::size_t dest = rng() % kCores;
      const std::size_t from = rng() % kCores;
      try {
        cores[from]->MoveId(ledger.target(), cores[dest]->id());
        model_at = dest;
      } catch (const FargoError&) {
        for (std::size_t c = 0; c < static_cast<std::size_t>(kCores); ++c)
          if (cores[c]->repository().Contains(ledger.target())) model_at = c;
      }
    }
    const std::size_t from = rng() % kCores;
    auto stub = cores[from]->RefTo<OpLedger>(ledger.handle());
    try {
      stub.Invoke<std::int64_t>("apply", static_cast<std::int64_t>(op));
      ++successes;
    } catch (const FargoError&) {
      ++failures;
      for (std::size_t c = 0; c < static_cast<std::size_t>(kCores); ++c)
        if (cores[c]->repository().Contains(ledger.target())) model_at = c;
      cores[from]->trackers().SetForward(ledger.target(),
                                         cores[model_at]->id(),
                                         std::string(OpLedger::kTypeName));
    }
  }
  rt.network().ClearFaults();
  rt.RunUntilIdle();  // quiescence: parked requests expired, retries drained

  // The orphan/root checks below assume nothing was evicted from a ring.
  std::uint64_t retries = 0;
  for (core::Core* c : cores) {
    ASSERT_EQ(c->tracer().buffer().evicted(), 0u);
    retries += c->rpc_retries();
  }
  ASSERT_GT(retries, 0u) << "chaos produced no retries; weak test";

  std::vector<Span> spans = AllSpans(rt);
  auto traces = ByTrace(spans);
  AssertWellFormedTraces(traces);

  // Span accounting against ground truth:
  //   every Invoke minted exactly one root span, tagged with its outcome;
  //   every resend recorded exactly one retry span;
  //   after quiescence no span is still pending.
  // Routed move commands also travel as invocations (of the system move
  // method), so scope the per-invocation accounting to the workload's own
  // method.
  int ok_roots = 0, failed_roots = 0;
  for (const Span& s : spans) {
    EXPECT_NE(s.outcome, SpanOutcome::kPending)
        << monitor::ToString(s.kind) << " span still open after quiescence";
    if (s.kind != SpanKind::kRoot || s.name_view() != "apply") continue;
    if (s.outcome == SpanOutcome::kOk)
      ++ok_roots;
    else
      ++failed_roots;
  }
  EXPECT_EQ(ok_roots, successes);
  EXPECT_EQ(failed_roots, failures);
  EXPECT_EQ(CountKind(spans, SpanKind::kRetry),
            static_cast<int>(retries));

  // Per successful invocation: one root, and at least one execution in the
  // same trace (slot replay may have served later attempts from cache). Local
  // fast-path invocations (hops == 0) dispatch inside the root span itself
  // and record no separate exec span.
  for (const auto& [trace_id, ts] : traces) {
    const Span* root = nullptr;
    for (const Span& s : ts)
      if (s.kind == SpanKind::kRoot) root = &s;
    if (root == nullptr || root->outcome != SpanOutcome::kOk) continue;
    if (root->hops >= 1) {
      EXPECT_GE(CountKind(ts, SpanKind::kExec), 1)
          << "successful invocation trace " << trace_id << " has no exec span";
    }
    // Retries chain directly under the root they re-sent for.
    for (const Span& s : ts) {
      if (s.kind == SpanKind::kRetry && s.parent_span != 0) {
        EXPECT_EQ(s.parent_span, root->span_id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTraceTest,
                         ::testing::Values(5u, 17u, 91u));

// ---- Chrome-trace export ----------------------------------------------------

TEST(ChromeTraceTest, ExportIsValidJsonWithEscapedNames) {
  Tracer t(CoreId{2});
  t.SetEnabled(true);
  Tracer::Opened root = t.OpenSpan(SpanKind::kRoot, "we\"ird\nname", {}, 1000);
  t.CloseSpan(root.token, 5000, SpanOutcome::kOk, 2, 64);
  t.RecordInstant(SpanKind::kHop, "fwd", root.ctx, 2000);

  std::ostringstream os;
  const std::size_t n = monitor::WriteChromeTrace(
      os, {t.buffer().Snapshot()}, {{CoreId{2}, "core\\two"}});
  EXPECT_EQ(n, 2u);

  auto doc = json::Parse(os.str());  // throws on malformed JSON
  ASSERT_TRUE(doc->is_object());
  const auto& events = doc->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.items.size(), 3u);  // 1 metadata + 2 spans

  const auto& meta = *events.items[0];
  EXPECT_EQ(meta.at("ph").string(), "M");
  EXPECT_EQ(meta.at("args").at("name").string(), "core\\two");

  const auto& span = *events.items[1];
  EXPECT_EQ(span.at("ph").string(), "X");
  EXPECT_EQ(span.at("name").string(), "root:we\"ird\nname");
  EXPECT_EQ(span.at("cat").string(), "root");
  EXPECT_DOUBLE_EQ(span.at("ts").number(), 1.0);   // 1000 ns -> 1 us
  EXPECT_DOUBLE_EQ(span.at("dur").number(), 4.0);  // 4000 ns -> 4 us
  EXPECT_EQ(span.at("pid").u64(), 2u);
  EXPECT_EQ(span.at("tid").u64(), root.ctx.trace_id);
  const auto& args = span.at("args");
  EXPECT_EQ(args.at("trace").u64(), root.ctx.trace_id);
  EXPECT_EQ(args.at("span").u64(), root.ctx.span_id);
  EXPECT_EQ(args.at("parent").u64(), 0u);
  EXPECT_EQ(args.at("hops").u64(), 2u);
  EXPECT_EQ(args.at("bytes").u64(), 64u);
  EXPECT_EQ(args.at("outcome").string(), "ok");

  const auto& hop = *events.items[2];
  EXPECT_EQ(hop.at("args").at("parent").u64(), root.ctx.span_id);
  EXPECT_DOUBLE_EQ(hop.at("dur").number(), 0.0);
}

}  // namespace
}  // namespace fargo::testing

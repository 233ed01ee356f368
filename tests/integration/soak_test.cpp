// Randomized soak test: a seeded stream of operations (instantiate, move,
// invoke, retype, rebalance, partition/heal) runs against the runtime while
// a shadow model tracks expected counter values and locations. Any
// divergence — lost invocation, wrong location, broken reference — fails.
#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

// Re-resolves a complet from ground truth. A move is an asynchronous state
// machine: when a move command fails at the origin, the executor-side move
// may still be in flight — departed from the source repository, not yet
// installed at the destination, rollback pending. Pump in bounded slices
// until the complet surfaces somewhere; it always does, because an
// unsettled move either commits (install at dest) or rolls back (reinstall
// at source) within the executor's own RPC timeout.
std::optional<std::size_t> FindHost(core::Runtime& rt,
                                    const std::vector<core::Core*>& cores,
                                    ComletId id) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    for (std::size_t c = 0; c < cores.size(); ++c)
      if (cores[c]->repository().Contains(id)) return c;
    rt.RunFor(Millis(20));
  }
  return std::nullopt;
}

class SoakTest : public FargoTest,
                 public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(SoakTest, RandomOperationStreamStaysConsistent) {
  std::mt19937 rng(GetParam());
  const int kCores = 5;
  auto cores = MakeCores(kCores, Millis(2), 1e7);
  const bool use_home = GetParam() % 2 == 0;
  if (use_home) rt.EnableDirectory({});

  struct Entry {
    core::ComletRef<Counter> ref;
    std::int64_t expected = 0;
    std::size_t at = 0;  // model location (core index)
  };
  std::vector<Entry> complets;

  auto random_core = [&] { return rng() % kCores; };

  for (int op = 0; op < 600; ++op) {
    const int kind = static_cast<int>(rng() % 100);
    if (kind < 10 || complets.empty()) {
      // Instantiate at a random core (sometimes remotely).
      std::size_t at = random_core();
      std::size_t from = random_core();
      Entry e;
      e.ref = cores[from]->NewAt<Counter>(cores[at]->id());
      e.at = at;
      complets.push_back(std::move(e));
    } else if (kind < 40) {
      // Move a random complet to a random core, commanded from anywhere.
      Entry& e = complets[rng() % complets.size()];
      std::size_t dest = random_core();
      std::size_t from = random_core();
      cores[from]->RefFromHandle(e.ref.handle());  // extra stub churn
      try {
        cores[from]->MoveId(e.ref.target(), cores[dest]->id());
        e.at = dest;
      } catch (const UnreachableError&) {
        // Stale route with no naming help: re-resolve from the ground
        // truth (what an external naming service would provide).
        auto found = FindHost(rt, cores, e.ref.target());
        ASSERT_TRUE(found.has_value()) << "complet vanished at op " << op;
        e.at = *found;
      }
    } else if (kind < 85) {
      // Invoke from a random core through a fresh or existing stub.
      // Transport failures are retry-safe by contract (never executed):
      // re-route from ground truth and retry, keeping the model exact.
      Entry& e = complets[rng() % complets.size()];
      std::size_t from = random_core();
      auto stub = cores[from]->RefTo<Counter>(e.ref.handle());
      const std::int64_t inc = static_cast<std::int64_t>(rng() % 5);
      std::int64_t got;
      try {
        got = stub.Invoke<std::int64_t>("increment", inc);
      } catch (const UnreachableError&) {
        cores[from]->trackers().SetForward(e.ref.target(),
                                           cores[e.at]->id(), "test.Counter");
        got = stub.Invoke<std::int64_t>("increment", inc);
      }
      e.expected += inc;
      EXPECT_EQ(got, e.expected) << "op " << op;
    } else if (kind < 92) {
      // Verify location via ping (also shortens chains).
      Entry& e = complets[rng() % complets.size()];
      std::size_t from = random_core();
      auto stub = cores[from]->RefFromHandle(e.ref.handle());
      try {
        EXPECT_EQ(cores[from]->ResolveLocation(stub), cores[e.at]->id())
            << "op " << op;
      } catch (const UnreachableError&) {
        cores[from]->trackers().SetForward(e.ref.target(),
                                           cores[e.at]->id(), "test.Counter");
        EXPECT_EQ(cores[from]->ResolveLocation(stub), cores[e.at]->id());
      }
    } else if (kind < 96) {
      // Tracker GC at a random core must never break anything.
      cores[random_core()]->trackers().CollectGarbage();
    } else {
      // Drain background work.
      rt.RunFor(Millis(50));
    }
  }
  rt.RunUntilIdle();

  // Final audit: every complet is where the model says, with the right
  // value, reachable from every core (re-routing stale stubs via ground
  // truth where chains were GC'd away).
  for (Entry& e : complets) {
    EXPECT_TRUE(cores[e.at]->repository().Contains(e.ref.target()));
    for (int c = 0; c < kCores; ++c) {
      auto stub = cores[static_cast<std::size_t>(c)]->RefTo<Counter>(
          e.ref.handle());
      std::int64_t got;
      try {
        got = stub.Invoke<std::int64_t>("get");
      } catch (const UnreachableError&) {
        cores[static_cast<std::size_t>(c)]->trackers().SetForward(
            e.ref.target(), cores[e.at]->id(), "test.Counter");
        got = stub.Invoke<std::int64_t>("get");
      }
      EXPECT_EQ(got, e.expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u, 909u, 1010u));

class PartitionSoakTest : public FargoTest,
                          public ::testing::WithParamInterface<std::uint32_t> {
};

TEST_P(PartitionSoakTest, FlappingLinksNeverCorruptState) {
  // Like the soak above, but links flap; operations may fail with
  // UnreachableError — the invariant is that *observed successes* match
  // the model and nothing is double-applied on the failure path we can
  // verify (move rollbacks).
  std::mt19937 rng(GetParam());
  const int kCores = 4;
  auto cores = MakeCores(kCores, Millis(2), 1e7);
  // Half the seeds run with the home registry, which adds the
  // retry-via-home path to the chaos.
  if (GetParam() % 2 == 1) rt.EnableDirectory({});
  for (core::Core* c : cores) c->SetRpcTimeout(Millis(80));

  auto counter = cores[0]->New<Counter>();
  std::int64_t lower_bound = 0;  // successes (replies seen)
  std::size_t model_at = 0;

  for (int op = 0; op < 300; ++op) {
    // Random link flap.
    if (rng() % 5 == 0) {
      std::size_t a = rng() % kCores, b = rng() % kCores;
      if (a != b)
        rt.network().SetPartitioned(cores[a]->id(), cores[b]->id(),
                                    rng() % 2 == 0);
    }
    const std::size_t from = rng() % kCores;
    if (rng() % 3 == 0) {
      const std::size_t dest = rng() % kCores;
      try {
        cores[from]->MoveId(counter.target(), cores[dest]->id());
        model_at = dest;
      } catch (const FargoError&) {
        // Rolled back or unreachable: the complet is at model_at or dest.
        // Re-resolve below before trusting the model again.
        auto found = FindHost(rt, cores, counter.target());
        ASSERT_TRUE(found.has_value()) << "complet vanished at op " << op;
        model_at = *found;
      }
    } else {
      try {
        auto stub = cores[from]->RefTo<Counter>(counter.handle());
        stub.Invoke<std::int64_t>("increment");
        ++lower_bound;
      } catch (const FargoError&) {
        // Lost request or reply; an unseen increment may still have landed.
      }
    }
  }

  // Heal everything and audit.
  for (int a = 0; a < kCores; ++a)
    for (int b = a + 1; b < kCores; ++b)
      rt.network().SetPartitioned(cores[static_cast<std::size_t>(a)]->id(),
                                  cores[static_cast<std::size_t>(b)]->id(),
                                  false);
  rt.RunUntilIdle();
  EXPECT_TRUE(cores[model_at]->repository().Contains(counter.target()));
  auto stub = cores[model_at]->RefTo<Counter>(
      ComletHandle{counter.target(), cores[model_at]->id(), "test.Counter"});
  EXPECT_GE(stub.Invoke<std::int64_t>("get"), lower_bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionSoakTest,
                         ::testing::Values(7u, 13u, 29u, 31u, 64u, 65u));

// ---- Chaos soak -------------------------------------------------------------
//
// 10,000 invocations against a moving OpLedger while the chaos engine
// drops, duplicates and reorders messages. The at-most-once machinery
// (retry with session-key reuse + executor slot replay) must deliver zero double
// executions — the ledger records every op id it has ever applied (the
// record travels on moves), so any re-execution is caught exactly.

struct ChaosOutcome {
  std::int64_t applied_ops = 0;   // distinct op ids the ledger executed
  std::int64_t dups = 0;          // re-executions (MUST be zero)
  std::int64_t total = 0;         // ledger sum (1 per applied op)
  int successes = 0;              // invocations whose reply we saw
  int failures = 0;               // invocations that exhausted retries
  std::uint64_t messages = 0;     // network trace fingerprint...
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t events = 0;       // ...and scheduler trace fingerprint
  std::uint64_t retries = 0;
  std::uint64_t replays = 0;
  // Metrics-registry view of the same run (tentpole cross-check): these
  // must mirror the per-core ground truth exactly, and the exec counter is
  // the double-execution detector — every execution the runtime performed,
  // as counted at the dispatch site.
  std::uint64_t metric_invocations = 0;  // invoke.count (successes)
  std::uint64_t metric_execs = 0;        // invoke.exec (actual executions)
  std::uint64_t metric_retries = 0;      // rpc.retries
  std::uint64_t metric_replays = 0;      // session.replays
  std::uint64_t metric_suppressed = 0;   // session.suppressed

  bool operator==(const ChaosOutcome&) const = default;
};

ChaosOutcome RunChaosWorld(std::uint32_t seed, int ops) {
  RegisterTestComlets();
  core::Runtime rt;
  const int kCores = 4;
  std::vector<core::Core*> cores;
  for (int i = 0; i < kCores; ++i)
    cores.push_back(&rt.CreateCore("core" + std::to_string(i)));
  rt.network().SetDefaultLink(net::LinkModel{Millis(2), 1e7, true});

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

  ChaosOutcome out;
  std::mt19937 rng(seed);
  for (int op = 0; op < ops; ++op) {
    if (op > 0 && op % 500 == 0) {
      // Periodic re-layout: the ledger keeps moving while requests are in
      // flight, exercising parking, forwarding and slot replay across hosts.
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
      ++out.successes;
    } catch (const FargoError&) {
      // Retries exhausted. The op may or may not have executed (the
      // fundamental at-least-once ambiguity when replies keep vanishing) —
      // but it must never have executed TWICE, which the final audit checks.
      ++out.failures;
      for (std::size_t c = 0; c < static_cast<std::size_t>(kCores); ++c)
        if (cores[c]->repository().Contains(ledger.target())) model_at = c;
      cores[from]->trackers().SetForward(ledger.target(),
                                         cores[model_at]->id(),
                                         std::string(OpLedger::kTypeName));
    }
  }

  // Heal the network and drain stragglers (late retries, parked requests).
  rt.network().ClearFaults();
  rt.RunUntilIdle();

  // Audit from ground truth, not through the (possibly stale) stubs.
  const OpLedger* anchor = nullptr;
  for (core::Core* c : cores) {
    if (auto a = c->repository().Get(ledger.target())) {
      anchor = static_cast<const OpLedger*>(a.get());
      break;
    }
  }
  EXPECT_NE(anchor, nullptr) << "ledger vanished";
  if (anchor != nullptr) {
    out.total = anchor->total();
    out.dups = anchor->dups();
    // seen_ size == total when every apply incremented by 1 and none ran
    // twice; read it through the executed-op count for the fingerprint.
    out.applied_ops = anchor->total();
  }
  out.messages = rt.network().total_messages();
  out.drops = rt.network().dropped();
  out.duplicates = rt.network().duplicates();
  out.events = rt.scheduler().executed();
  std::uint64_t suppressed = 0;
  for (core::Core* c : cores) {
    out.retries += c->rpc_retries();
    out.replays += c->replay().replays();
    suppressed += c->replay().suppressed();
  }
  const monitor::Registry& reg = rt.metrics();
  out.metric_invocations = reg.CounterValue("invoke.count");
  out.metric_execs = reg.CounterValue("invoke.exec");
  out.metric_retries = reg.CounterValue("rpc.retries");
  out.metric_replays = reg.CounterValue("session.replays");
  out.metric_suppressed = reg.CounterValue("session.suppressed");
  // The registry is a second, independent accounting of the same run; any
  // divergence from the runtime's own counters is a wiring bug.
  EXPECT_EQ(out.metric_retries, out.retries);
  EXPECT_EQ(out.metric_replays, out.replays);
  EXPECT_EQ(out.metric_suppressed, suppressed);
  EXPECT_EQ(reg.CounterValue("net.drops"), rt.network().dropped());
  // invoke.count tallies every successful invocation — the applies above
  // plus any routed move commands, which travel as invocations of the
  // system move method (at most one per periodic re-layout).
  EXPECT_GE(out.metric_invocations, static_cast<std::uint64_t>(out.successes));
  EXPECT_LE(out.metric_invocations,
            static_cast<std::uint64_t>(out.successes) +
                static_cast<std::uint64_t>(ops / 500));
  return out;
}

class ChaosSoakTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChaosSoakTest, TenThousandInvocationsNeverDoubleExecute) {
  const ChaosOutcome out = RunChaosWorld(GetParam(), 10000);

  EXPECT_EQ(out.dups, 0) << "an operation executed twice";
  // Every observed success definitely executed; failures are ambiguous
  // (executed-but-reply-lost at worst once each).
  EXPECT_GE(out.total, out.successes);
  EXPECT_LE(out.total, out.successes + out.failures);
  EXPECT_EQ(out.successes + out.failures, 10000);
  // The fault plan really was active, and retries really did the saving.
  EXPECT_GT(out.drops, 0u);
  EXPECT_GT(out.duplicates, 0u);
  EXPECT_GT(out.retries, 0u);
  // Zero double-executions, cross-checked through the metrics layer: the
  // dispatch-site exec counter must account for every ledger execution,
  // exceeding it only by the handful of move-command executions. A move
  // whose reply is lost may legitimately execute at TWO hosts — the first
  // executor moves the ledger away, the retry is forwarded to the new host
  // whose replay window has no record of the slot, and it runs a benign
  // no-op move there — so allow up to two per periodic re-layout. Ledger
  // applies can never do this: out.dups is the exact detector for those,
  // and the duplicate-hit counters below must show the at-most-once
  // machinery actually absorbing the duplicate deliveries.
  EXPECT_GE(out.metric_execs, static_cast<std::uint64_t>(out.applied_ops));
  EXPECT_LE(out.metric_execs,
            static_cast<std::uint64_t>(out.applied_ops) + 2 * (10000 / 500));
  EXPECT_GT(out.metric_replays + out.metric_suppressed, 0u)
      << "chaos produced duplicates but slot replay never fired";
}

TEST(ChaosSoakDeterminismTest, SameSeedSameTrace) {
  // Two full runs from the same seed must produce identical traces — same
  // ledger state, same message counts, same scheduler event count.
  const ChaosOutcome first = RunChaosWorld(4242u, 2000);
  const ChaosOutcome second = RunChaosWorld(4242u, 2000);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.dups, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakTest,
                         ::testing::Values(11u, 23u, 47u));

}  // namespace
}  // namespace fargo::testing

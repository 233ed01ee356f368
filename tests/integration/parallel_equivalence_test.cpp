// Sim-vs-parallel equivalence gate (the CI cross-check, ISSUE: ci).
//
// The same seeded workloads run once under the deterministic sim
// (localities = 0) and once per parallel configuration (FARGO_PARALLEL-style
// worker counts), and the *observable* outcomes are diffed: OpLedger
// contents, the invoke.exec double-execution detector, and the at-most-once
// dedup counters. Internal event interleavings may differ between engines —
// what must not differ is what the application can see (PROTOCOL.md: mode
// invariance).
//
// Nightly knobs (soak.yml): FARGO_SOAK_SEEDS=s1,s2,... widens the seed
// sweep and FARGO_SOAK_OPS=N deepens each run; unset, the test stays CI-fast.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

std::vector<std::uint32_t> SweepSeeds() {
  std::vector<std::uint32_t> seeds;
  if (const char* env = std::getenv("FARGO_SOAK_SEEDS")) {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty())
        seeds.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
  }
  if (seeds.empty()) seeds = {11u, 23u};
  return seeds;
}

int SweepOps() {
  if (const char* env = std::getenv("FARGO_SOAK_OPS"))
    return std::max(1, std::atoi(env));
  return 1500;
}

/// What the application (and the ops plane) can observe of a run. Any
/// field differing between engines is an equivalence break.
struct Observable {
  std::int64_t ledger_total = 0;  ///< distinct ops the ledger applied
  std::int64_t ledger_dups = 0;   ///< re-executions — MUST be zero anywhere
  int successes = 0;              ///< invocations whose reply arrived
  int failures = 0;               ///< invocations that exhausted retries
  std::size_t final_host = 0;     ///< where the ledger ended up

  bool operator==(const Observable&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Observable& o) {
  return os << "{total=" << o.ledger_total << " dups=" << o.ledger_dups
            << " ok=" << o.successes << " fail=" << o.failures
            << " host=" << o.final_host << "}";
}

/// Exactly-once bookkeeping that must *hold* in every mode (bounds, not
/// equality: retry timing under real threads may differ, so the counter
/// values themselves are mode-dependent — the invariants are not).
struct Bookkeeping {
  std::uint64_t execs = 0;       ///< invoke.exec at the dispatch sites
  std::uint64_t replays = 0;     ///< cached-reply hits
  std::uint64_t suppressed = 0;  ///< in-progress duplicate drops
};

/// The chaos soak workload from soak_test, parameterized by engine: a
/// moving OpLedger under drops/duplicates/reordering. `localities` = 0
/// runs the deterministic sim; N runs the locality engine.
void RunChaosWorkload(int localities, std::uint32_t seed, int ops,
                      Observable& obs, Bookkeeping& books) {
  RegisterTestComlets();
  core::Runtime rt(core::RuntimeOptions{localities});
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

  std::mt19937 rng(seed);
  for (int op = 0; op < ops; ++op) {
    if (op > 0 && op % 500 == 0) {
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
      ++obs.successes;
    } catch (const FargoError&) {
      ++obs.failures;
      for (std::size_t c = 0; c < static_cast<std::size_t>(kCores); ++c)
        if (cores[c]->repository().Contains(ledger.target())) model_at = c;
      cores[from]->trackers().SetForward(ledger.target(),
                                         cores[model_at]->id(),
                                         std::string(OpLedger::kTypeName));
    }
  }

  rt.network().ClearFaults();
  rt.RunUntilIdle();

  const OpLedger* anchor = nullptr;
  for (std::size_t c = 0; c < cores.size(); ++c) {
    if (auto a = cores[c]->repository().Get(ledger.target())) {
      anchor = static_cast<const OpLedger*>(a.get());
      obs.final_host = c;
      break;
    }
  }
  ASSERT_NE(anchor, nullptr) << "ledger vanished (localities="
                             << localities << " seed=" << seed << ")";
  obs.ledger_total = anchor->total();
  obs.ledger_dups = anchor->dups();
  const monitor::Registry& reg = rt.metrics();
  books.execs = reg.CounterValue("invoke.exec");
  books.replays = reg.CounterValue("session.replays");
  books.suppressed = reg.CounterValue("session.suppressed");
}

/// The recovery-style workload: a durable (WAL-backed) ledger survives
/// crash/restart churn while invocations and moves keep coming. Exercises
/// movement-during-handoff: the conductor fires a move and keeps invoking
/// through stale stubs while the stream is in flight.
void RunRecoveryWorkload(int localities, std::uint32_t seed, int ops,
                         Observable& obs, Bookkeeping& books) {
  RegisterTestComlets();
  core::Runtime rt(core::RuntimeOptions{localities});
  const int kCores = 3;
  std::vector<core::Core*> cores;
  for (int i = 0; i < kCores; ++i) {
    core::Core& c = rt.CreateCore("core" + std::to_string(i));
    c.EnableWal();
    cores.push_back(&c);
  }
  rt.network().SetDefaultLink(net::LinkModel{Millis(2), 1e7, true});
  for (core::Core* c : cores) c->SetRpcTimeout(Millis(200));

  auto ledger = cores[0]->New<OpLedger>();
  std::size_t model_at = 0;

  std::mt19937 rng(seed);
  for (int op = 0; op < ops; ++op) {
    if (op > 0 && op % 200 == 0) {
      // Crash a non-hosting core and bring it straight back: its sessions
      // replay from the WAL and parked work must not double-execute.
      std::size_t victim = rng() % kCores;
      if (victim == model_at) victim = (victim + 1) % kCores;
      cores[victim]->Crash();
      cores[victim]->Restart();
    }
    if (op > 0 && op % 150 == 0) {
      const std::size_t dest = rng() % kCores;
      try {
        cores[model_at]->MoveId(ledger.target(), cores[dest]->id());
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
      ++obs.successes;
    } catch (const FargoError&) {
      ++obs.failures;
      for (std::size_t c = 0; c < static_cast<std::size_t>(kCores); ++c)
        if (cores[c]->repository().Contains(ledger.target())) model_at = c;
      cores[from]->trackers().SetForward(ledger.target(),
                                         cores[model_at]->id(),
                                         std::string(OpLedger::kTypeName));
    }
  }
  rt.RunUntilIdle();

  const OpLedger* anchor = nullptr;
  for (std::size_t c = 0; c < cores.size(); ++c) {
    if (auto a = cores[c]->repository().Get(ledger.target())) {
      anchor = static_cast<const OpLedger*>(a.get());
      obs.final_host = c;
      break;
    }
  }
  ASSERT_NE(anchor, nullptr) << "ledger vanished (localities="
                             << localities << " seed=" << seed << ")";
  obs.ledger_total = anchor->total();
  obs.ledger_dups = anchor->dups();
  const monitor::Registry& reg = rt.metrics();
  books.execs = reg.CounterValue("invoke.exec");
  books.replays = reg.CounterValue("session.replays");
  books.suppressed = reg.CounterValue("session.suppressed");
}

using WorkloadFn = void (*)(int, std::uint32_t, int, Observable&,
                            Bookkeeping&);

void CheckEquivalence(WorkloadFn workload, const char* name) {
  const std::vector<int> kParallelConfigs = {2, 4};
  for (std::uint32_t seed : SweepSeeds()) {
    Observable sim_obs;
    Bookkeeping sim_books;
    ASSERT_NO_FATAL_FAILURE(
        workload(/*localities=*/0, seed, SweepOps(), sim_obs, sim_books));
    EXPECT_EQ(sim_obs.ledger_dups, 0)
        << name << " seed " << seed << ": sim double-executed";
    // The dispatch-site exec counter can exceed distinct applies only by
    // the ambiguous tail: failed invocations that executed but lost their
    // reply, plus re-routed move commands (bounded by the move count; see
    // soak_test for the two-host move case).
    const auto exec_ceiling = [&](const Observable& o) {
      return static_cast<std::uint64_t>(o.ledger_total) +
             static_cast<std::uint64_t>(o.failures) +
             2 * (static_cast<std::uint64_t>(SweepOps()) / 150 + 1);
    };
    EXPECT_GE(sim_books.execs, static_cast<std::uint64_t>(sim_obs.ledger_total));
    EXPECT_LE(sim_books.execs, exec_ceiling(sim_obs));

    for (int n : kParallelConfigs) {
      Observable par_obs;
      Bookkeeping par_books;
      ASSERT_NO_FATAL_FAILURE(
          workload(n, seed, SweepOps(), par_obs, par_books));
      // The headline gate: what the application observed must be
      // IDENTICAL between the deterministic sim and every worker count.
      EXPECT_EQ(par_obs, sim_obs)
          << name << " seed " << seed << ": FARGO_PARALLEL=" << n
          << " diverged from sim — parallel " << par_obs << " vs sim "
          << sim_obs;
      EXPECT_EQ(par_obs.ledger_dups, 0)
          << name << " seed " << seed << ": FARGO_PARALLEL=" << n
          << " double-executed";
      EXPECT_GE(par_books.execs,
                static_cast<std::uint64_t>(par_obs.ledger_total));
      EXPECT_LE(par_books.execs, exec_ceiling(par_obs));
    }
  }
}

TEST(ParallelEquivalenceTest, ChaosSoakMatchesSim) {
  CheckEquivalence(&RunChaosWorkload, "chaos");
}

TEST(ParallelEquivalenceTest, RecoverySoakMatchesSim) {
  CheckEquivalence(&RunRecoveryWorkload, "recovery");
}

TEST(ParallelEquivalenceTest, ParallelRunsAreDeterministicForFixedN) {
  // Same seed, same N → identical observables run-to-run (the engine's
  // sorted-inbox merge makes execution a pure function of the workload).
  Observable a, b;
  Bookkeeping ba, bb;
  ASSERT_NO_FATAL_FAILURE(RunChaosWorkload(2, 4242u, 1000, a, ba));
  ASSERT_NO_FATAL_FAILURE(RunChaosWorkload(2, 4242u, 1000, b, bb));
  EXPECT_EQ(a, b);
  EXPECT_EQ(ba.execs, bb.execs);
  EXPECT_EQ(ba.replays, bb.replays);
  EXPECT_EQ(ba.suppressed, bb.suppressed);
}

TEST(ParallelEquivalenceTest, MovementDuringHandoffKeepsExactlyOnce) {
  // Async invocations are launched and left in flight while the target
  // moves between localities; every reply must arrive exactly once, and
  // the ledger must see each op exactly once, in both engines.
  auto run = [](int localities) {
    RegisterTestComlets();
    core::Runtime rt(core::RuntimeOptions{localities});
    std::vector<core::Core*> cores;
    for (int i = 0; i < 4; ++i)
      cores.push_back(&rt.CreateCore("core" + std::to_string(i)));
    rt.network().SetDefaultLink(net::LinkModel{Millis(5), 1e7, true});

    auto ledger = cores[0]->New<OpLedger>();
    // Settle continuations run on worker threads in parallel mode; the
    // reply tally is the one piece of test state they share.
    std::atomic<int> replies{0};
    for (int wave = 0; wave < 8; ++wave) {
      // A burst of async applies from every core...
      for (int i = 0; i < 8; ++i) {
        const std::size_t from = static_cast<std::size_t>(i) % cores.size();
        cores[from]
            ->RefTo<OpLedger>(ledger.handle())
            .InvokeAsync<std::int64_t>("apply",
                                       static_cast<std::int64_t>(wave * 8 + i))
            .OnSettle([&replies](sim::Future<std::int64_t> f) {
              if (f.ok()) replies.fetch_add(1, std::memory_order_relaxed);
            });
      }
      // ...and a move racing them (different locality each wave).
      cores[0]->MoveId(ledger.target(),
                       cores[static_cast<std::size_t>(wave) % 4]->id());
    }
    rt.RunUntilIdle();
    const OpLedger* anchor = nullptr;
    for (core::Core* c : cores)
      if (auto a = c->repository().Get(ledger.target()))
        anchor = static_cast<const OpLedger*>(a.get());
    struct Result {
      std::int64_t total, dups;
      int replies;
      bool operator==(const Result&) const = default;
    };
    EXPECT_NE(anchor, nullptr);
    if (anchor == nullptr) return Result{-1, -1, replies.load()};
    return Result{anchor->total(), anchor->dups(), replies.load()};
  };
  const auto sim = run(0);
  EXPECT_EQ(sim.total, 64);
  EXPECT_EQ(sim.dups, 0);
  EXPECT_EQ(sim.replies, 64);
  for (int n : {2, 4}) {
    const auto par = run(n);
    EXPECT_EQ(par, sim) << "FARGO_PARALLEL=" << n;
  }
}

// Lookahead windows. RunFor and RunUntilIdle run one round per window of
// the shortest link's latency; the predicate pumps run one round per
// timestamp. Each locality runs its tasks by an ordering key that does not
// depend on where a window ends, so the two must agree on everything a run
// produces, and differ only in how many barrier rounds it took.

/// What one closed-loop run produced, compared field by field.
struct LoopRun {
  std::vector<std::vector<SimTime>> latency;  ///< per client, per op
  /// The ledger total each apply returned (-1 if the op failed): pins the
  /// order in which applies from every client reached the ledger.
  std::vector<std::vector<std::int64_t>> returned;
  std::vector<std::pair<std::pair<CoreId, CoreId>, net::LinkStats>> links;
  std::int64_t ledger_total = 0;
  std::int64_t ledger_dups = 0;
  std::uint64_t executed = 0;
  std::uint64_t rounds = 0;
};

/// One client per Core: `left` sequential async applies on a shared ledger,
/// each issued by the previous one's settle continuation, which runs on the
/// client Core's locality (the only writer of the client's vectors).
struct LoopClient {
  sim::Scheduler* sched = nullptr;
  core::ComletRef<OpLedger> ref;
  std::int64_t next_op = 0;
  int left = 0;
  std::vector<SimTime> latency;
  std::vector<std::int64_t> returned;

  void Issue() {
    if (left-- <= 0) return;
    const SimTime t0 = sched->Now();
    ref.InvokeAsync<std::int64_t>("apply", next_op++)
        .OnSettle([this, t0](sim::Future<std::int64_t> f) {
          latency.push_back(sched->Now() - t0);
          returned.push_back(f.ok() ? f.value() : -1);
          Issue();
        });
  }
};

/// An async closed loop under chaos reordering, drops and duplicates, one
/// link flap, and seeded 2-20 ms links, pumped to `end` either by RunFor
/// (`windows`) or by a never-true RunUntilOr (one timestamp per round).
LoopRun RunClosedLoop(int localities, std::uint32_t seed, bool windows) {
  RegisterTestComlets();
  core::Runtime rt(core::RuntimeOptions{localities});
  constexpr int kCores = 4;
  std::vector<core::Core*> cores;
  for (int i = 0; i < kCores; ++i)
    cores.push_back(&rt.CreateCore("core" + std::to_string(i)));
  std::mt19937 rng(seed);
  for (int i = 0; i < kCores; ++i)
    for (int j = i + 1; j < kCores; ++j)
      rt.network().SetLink(
          cores[static_cast<std::size_t>(i)]->id(),
          cores[static_cast<std::size_t>(j)]->id(),
          net::LinkModel{Millis(2 + static_cast<int>(rng() % 19)), 1e7, true});

  core::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = Millis(20);
  policy.seed = seed;
  for (core::Core* c : cores) {
    c->SetRpcTimeout(Millis(150));
    c->SetRetryPolicy(policy);
  }
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.02;
  plan.duplicate = 0.02;
  plan.reorder = 0.2;
  plan.reorder_jitter = Millis(10);
  plan.flaps.push_back(net::FaultPlan::LinkFlap{cores[0]->id(),
                                                cores[1]->id(), Millis(200),
                                                Millis(350)});
  rt.network().SetFaultPlan(plan);

  auto ledger = cores[0]->New<OpLedger>();
  std::vector<LoopClient> clients(kCores);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].sched = &rt.scheduler();
    clients[i].ref = cores[i]->RefTo<OpLedger>(ledger.handle());
    clients[i].next_op = static_cast<std::int64_t>(i) * 1000000;
    clients[i].left = 150;
  }
  for (LoopClient& c : clients) c.Issue();

  const SimTime end = Seconds(20);
  if (windows) {
    rt.RunFor(end);
  } else {
    rt.scheduler().RunUntilOr([] { return false; }, end);
  }
  EXPECT_EQ(rt.Now(), end);

  LoopRun run;
  for (const LoopClient& c : clients) {
    EXPECT_EQ(c.latency.size(), 150u);
    run.latency.push_back(c.latency);
    run.returned.push_back(c.returned);
  }
  run.links = rt.network().AllLinkStats();
  if (auto a = cores[0]->repository().Get(ledger.target())) {
    const auto* anchor = static_cast<const OpLedger*>(a.get());
    run.ledger_total = anchor->total();
    run.ledger_dups = anchor->dups();
  }
  run.executed = rt.scheduler().executed();
  rt.SyncSerialStats();
  run.rounds = rt.metrics().CounterValue("locality.rounds");
  return run;
}

TEST(ParallelEquivalenceTest, LookaheadWindowsChangeRoundsNotResults) {
  for (int n : {2, 4}) {
    for (std::uint32_t seed : {5u, 17u}) {
      const LoopRun windows = RunClosedLoop(n, seed, true);
      const LoopRun stepped = RunClosedLoop(n, seed, false);
      const std::string where =
          "N=" + std::to_string(n) + " seed " + std::to_string(seed);
      EXPECT_EQ(windows.latency, stepped.latency) << where;
      EXPECT_EQ(windows.returned, stepped.returned) << where;
      EXPECT_EQ(windows.links, stepped.links) << where;
      EXPECT_EQ(windows.ledger_total, stepped.ledger_total) << where;
      EXPECT_EQ(windows.ledger_dups, 0) << where;
      EXPECT_EQ(stepped.ledger_dups, 0) << where;
      EXPECT_EQ(windows.executed, stepped.executed) << where;
      EXPECT_LT(windows.rounds, stepped.rounds) << where;
      EXPECT_GT(windows.ledger_total, 0) << where;
    }
  }
}

}  // namespace
}  // namespace fargo::testing

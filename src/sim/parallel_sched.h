// FARGO_PARALLEL: the real-parallel locality engine (motr reqh/fop-style).
//
// N localities, each *owning* a disjoint set of Cores by affinity
// (`affinity % localities()`), execute InvocationUnits/MovementUnits as
// non-blocking state machines. Locality 0 runs on the conductor itself and
// localities 1..N-1 on worker threads, so N localities take N threads and
// N=1 spawns none. The engine is a conservative parallel discrete-event
// scheduler:
//
//  - The *conductor* (whichever thread calls the Run* pumps — tests, shell,
//    benches) picks the next due timestamp T and releases the workers for
//    one barrier-synchronized *round* covering the window [T, E], running
//    locality 0's share of it itself. The five pumps are the Scheduler
//    wrappers over this engine's `Advance`, which drives the rounds.
//  - During a round each locality drains its own TaskQueue of events due
//    by E, in key order, on its *own clock*: inside a step, Now() is the
//    `at` of the running task, not a global time. A continuation targeting
//    another Core's ownership domain is never run in place: the producing
//    locality appends it to its own outbox for the owning locality, and the
//    owner takes it at the start of the next round.
//  - The window is the lookahead of conservative parallel simulation
//    (Chandy–Misra): Cores affect each other only through messages on links
//    whose latency is at least L, so nothing one locality sends at t ≥ T
//    can land on another before T + L. With a lookahead source installed
//    (SetLookahead; Runtime hands it Network::MinLinkLatency), RunFor and
//    RunUntilIdle run windows E = T + L − 1, clamped to the RunFor horizon.
//    The predicate pumps (RunOne, RunUntil, RunUntilOr) and a lookahead of
//    0 or 1 run one timestamp per round (E = T), so a pump that stops on a
//    condition stops exactly where the one-timestamp engine does.
//  - Inside a window wider than one timestamp, a cross-locality task dated
//    at or before E throws FargoError (it surfaces at the pump) instead of
//    running late. In a one-timestamp window such a handoff makes the round
//    repeat at T; a handoff dated later rides in its outbox into whichever
//    round comes next.
//  - A task is cancelled only where it is queued: a task may cancel tasks
//    of its own locality, and one that cancels a task of another locality
//    throws FargoError, in any round. The conductor may cancel any task.
//  - Between rounds Now() is the conductor's clock: the latest `at` any
//    locality has run, or the RunFor horizon. No locality has run anything
//    later, so work the conductor stages is never in a locality's past.
//
// Ownership rule: only localities use outboxes. Locality i appends what it
// hands locality d during round r to its own `outbox[r & 1][d]`; only i
// writes it during the round, and only d drains it, at the start of round
// r + 1. The conductor is not a producer of outboxes: it runs only while
// every worker is parked on the barrier, so it pushes into and cancels in
// the destination's queue directly, and its cancel of a handoff still in
// an outbox erases it there. The round barrier's mutex is the one
// synchronisation point and the happens-before edge for both.
//
// Determinism: a locality runs tasks in the order of an explicit key
// (task_queue.h): at, producer clock at production, production round at
// that clock, local before handoff, producer rank — the conductor last —
// and producer append order. The key reproduces the insertion order of
// one-timestamp rounds exactly and does not depend on where window
// boundaries fall, so a run is a pure function of the workload: two runs
// with the same FARGO_PARALLEL=N are identical, and windows change the
// round count, not the results. (Sim and parallel interleave same-time
// events across *different* Cores differently; what is mode-invariant is
// the observable behavior — ledger contents, exactly-once, wire traffic per
// link — not internal event order. See DESIGN.md §5.1.)
//
// Pumping is a conductor privilege: a task entering RunUntil & friends
// throws FargoError (scheduler.h PumpGuard), on a worker and on the
// conductor's locality-0 step alike, exactly as a sim task does. Between rounds the workers are parked
// on the barrier, so the conductor may freely inspect Cores, metrics and
// futures — that is the happens-before edge that keeps the existing
// single-threaded test/driver idiom (pump, then assert) safe without any
// locking in test code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/scheduler.h"

namespace fargo::sim {

// fargo: domain(sim)
class ParallelScheduler final : public Scheduler {
 public:
  /// `localities` localities (≥ 1): the conductor plus localities − 1
  /// worker threads.
  explicit ParallelScheduler(int localities);
  ~ParallelScheduler() override;

  /// Inside a locality's step, that locality's clock (the running task's
  /// `at`); elsewhere the conductor's clock.
  SimTime Now() const override;
  TaskId ScheduleAt(SimTime t, std::function<void()> fn) override;
  TaskId Post(std::uint64_t affinity, SimTime t,
              std::function<void()> fn) override;
  void Cancel(TaskId id) override;
  std::size_t PendingCount() const override;
  void Clear() override;
  std::uint64_t executed() const override;
  int localities() const override { return num_localities_; }

  /// The locality that owns `affinity` (Cores: `core.id % localities()`).
  int LocalityOf(std::uint64_t affinity) const {
    return static_cast<int>(affinity % static_cast<std::uint64_t>(
                                           num_localities_));
  }

  /// Installs the lookahead: the least delay with which a task on one
  /// locality can schedule work on another. Read by the conductor before
  /// every round, so a lookahead that changes between rounds is honoured.
  /// Without one every round covers a single timestamp.
  void SetLookahead(std::function<SimTime()> lookahead) {
    lookahead_ = std::move(lookahead);
  }

  /// Engine telemetry, mirrored into the metrics registry by Runtime
  /// (`locality.*`). Safe to read between pumps.
  struct Telemetry {
    std::uint64_t handoffs = 0;         ///< cross-locality tasks enqueued
    std::uint64_t rounds = 0;           ///< barrier rounds driven
    std::uint64_t max_queue_depth = 0;  ///< most handoffs one locality
                                        ///< took in one round
  };
  Telemetry telemetry() const;

 private:
  struct Locality;  // defined in parallel_sched.cpp (owns the thread)
  struct Outbox;

  void EnsureStarted();
  void WorkerLoop(int idx);
  /// Locality `idx`'s share of round `round`: take its outboxes, run its
  /// tasks due by the window's end, publish its next due time. Runs on the
  /// locality's thread (a worker, or the conductor for locality 0).
  void Step(int idx, std::uint64_t round);
  /// Routes a task to locality `dest`: from a locality, its own queue or
  /// its outbox for `dest`; from the conductor, `dest`'s queue.
  TaskId Enqueue(int dest, SimTime t, std::function<void()> fn);
  /// Runs a barrier round at each next due time. Without `done`, rounds
  /// cover lookahead windows clamped to `horizon`; with one, a single
  /// timestamp.
  bool Advance(const std::function<bool()>& done, bool between_rounds,
               SimTime horizon) override;
  /// Drives one barrier round over [now_, window_end_], running locality 0
  /// on the calling (conductor) thread, then moves the conductor's clock to
  /// the latest time any locality ran; rethrows a task's exception.
  void RunRound();
  /// When the next round is due: the earliest time across the locality
  /// queues and the outboxes (kNoDue when drained).
  SimTime NextDue() const;

  const int num_localities_;
  std::vector<std::unique_ptr<Locality>> locs_;
  std::function<SimTime()> lookahead_;

  // Written by the conductor while workers are parked; read-only during a
  // round.
  SimTime now_ = 0;  ///< the conductor's clock; a round's first timestamp
  /// How many earlier rounds ran at now_: the production round in the
  /// ordering key of work produced at now_ (0 for any later clock).
  std::uint32_t sub_ = 0;
  SimTime window_end_ = 0;  ///< the current round's last timestamp
  std::uint64_t conductor_seq_ = 1;  ///< TaskId counter of conductor tasks

  // Barrier state lives behind an opaque impl so <thread> stays out of the
  // header (the determinism lint confines threading to src/sim/).
  struct Barrier;
  std::unique_ptr<Barrier> barrier_;
  bool started_ = false;
  /// Rounds released so far; the conductor bumps it under the barrier
  /// mutex to release the next one.
  std::uint64_t rounds_ = 0;
};

}  // namespace fargo::sim

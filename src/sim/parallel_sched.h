// FARGO_PARALLEL: the real-parallel locality engine (motr reqh/fop-style).
//
// N worker threads, each *owning* a disjoint set of Cores by affinity
// (`affinity % localities()`), execute InvocationUnits/MovementUnits as
// non-blocking state machines. The engine is a conservative time-stepped
// parallel discrete-event scheduler:
//
//  - The *conductor* (whichever thread calls the Run* pumps — tests, shell,
//    benches) advances the global virtual clock to the next due timestamp
//    and releases the workers for one or more barrier-synchronized
//    *micro-rounds* at that time.
//  - During a round each worker drains its own priority queue of events due
//    at the current time. A continuation targeting another Core's ownership
//    domain is never run in place: the producing worker appends it to its
//    own outbox for the owning locality, and the owner takes it at the
//    start of the next micro-round.
//  - Rounds repeat at the same timestamp until no locality executed or
//    handed anything off; only then does the clock advance. Virtual-time
//    semantics are therefore identical to the sim engine: an event
//    scheduled for time T runs at Now() == T, never early, never late.
//
// Ownership rule: every producer — worker i during its round, or the
// conductor while the workers are parked — appends tasks and cancels bound
// for locality d to its own `outbox[round parity][d]`. Only that producer
// writes it during the round; only locality d drains it, at the start of
// the next round. The round barrier's mutex is the one synchronisation
// point and the happens-before edge between the two.
//
// Determinism: each locality takes the outboxes by producer rank — the
// conductor ranks after every worker — each in append order, and its
// queue runs same-time tasks in insertion order. Handed-off work thus runs
// in (time, producer rank, append order) order, a pure function of the
// workload: two runs with the same FARGO_PARALLEL=N are identical. (Sim
// and parallel interleave same-time events across *different* Cores
// differently; what is mode-invariant is the observable behavior — ledger
// contents, exactly-once, wire traffic per link — not internal event
// order. See DESIGN.md §5.1.)
//
// Pumping is a conductor privilege: a worker entering RunUntil & friends
// throws FargoError (scheduler.h PumpGuard). Between rounds the workers
// are parked on the barrier, so the conductor may freely inspect Cores,
// metrics and futures — that is the happens-before edge that keeps the
// existing single-threaded test/driver idiom (pump, then assert) safe
// without any locking in test code.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/scheduler.h"

namespace fargo::sim {

// fargo: domain(sim)
class ParallelScheduler final : public Scheduler {
 public:
  /// `localities` worker threads (≥ 1).
  explicit ParallelScheduler(int localities);
  ~ParallelScheduler() override;

  SimTime Now() const override { return now_; }
  TaskId ScheduleAt(SimTime t, std::function<void()> fn) override;
  TaskId Post(std::uint64_t affinity, SimTime t,
              std::function<void()> fn) override;
  void Cancel(TaskId id) override;
  bool RunOne() override;
  void RunUntilIdle() override;
  void RunUntil(const std::function<bool()>& pred) override;
  bool RunUntilOr(const std::function<bool()>& pred,
                  SimTime deadline) override;
  void RunFor(SimTime d) override;
  std::size_t PendingCount() const override;
  void Clear() override;
  std::uint64_t executed() const override;
  int localities() const override { return num_localities_; }

  /// The locality that owns `affinity` (Cores: `core.id % localities()`).
  int LocalityOf(std::uint64_t affinity) const {
    return static_cast<int>(affinity % static_cast<std::uint64_t>(
                                           num_localities_));
  }

  /// Engine telemetry, mirrored into the metrics registry by Runtime
  /// (`locality.*`). Safe to read between pumps.
  struct Telemetry {
    std::uint64_t handoffs = 0;         ///< cross-locality tasks enqueued
    std::uint64_t rounds = 0;           ///< barrier micro-rounds driven
    std::uint64_t max_queue_depth = 0;  ///< most worker handoffs one
                                        ///< locality took in one round
  };
  Telemetry telemetry() const;

 private:
  struct Locality;  // defined in parallel_sched.cpp (owns the thread)
  struct Producer;  // one producer's outboxes (see the ownership rule)
  struct Outbox;

  void EnsureStarted();
  void WorkerLoop(int idx);
  /// Routes a task to locality `dest`: the calling worker's own queue, or
  /// the calling producer's outbox for `dest`.
  TaskId Enqueue(int dest, SimTime t, std::function<void()> fn);
  /// The calling producer's outbox for `dest` in the current round.
  Outbox& OutboxFor(int dest);
  /// The one advance loop behind every pump. Runs rounds at the current
  /// time, then steps the clock to the next due event, until `done` holds
  /// (checked before each step and, with `between_rounds`, after every
  /// round) or nothing more is due by `horizon`. Running out of events
  /// moves the clock to a finite `horizon`. Returns whether `done` holds
  /// (false without one).
  bool Advance(const std::function<bool()>& done, bool between_rounds,
               SimTime horizon);
  /// Drives barrier micro-rounds at time `limit` until every locality is
  /// quiescent (nothing executed, nothing handed off). If `pred` is given
  /// it is checked between rounds; returns true the moment it holds.
  bool RunRoundsUntilQuiet(SimTime limit, const std::function<bool()>* pred);
  /// True when any outbox holds tasks or cancels no locality has taken yet.
  bool AnyOutboxed() const;
  /// Earliest due time across all locality queues (kNoDue when drained).
  SimTime MinNextDue() const;

  const int num_localities_;
  std::vector<std::unique_ptr<Locality>> locs_;
  /// Workers by locality index, then the conductor (the last rank).
  std::vector<std::unique_ptr<Producer>> producers_;

  SimTime now_ = 0;  ///< written by the conductor while workers are parked

  // Barrier state lives behind an opaque impl so <thread> stays out of the
  // header (the determinism lint confines threading to src/sim/).
  struct Barrier;
  std::unique_ptr<Barrier> barrier_;
  bool started_ = false;
  std::uint64_t rounds_ = 0;  ///< completed rounds (conductor-only)
};

}  // namespace fargo::sim

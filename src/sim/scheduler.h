// Deterministic discrete-event scheduler.
//
// All Cores, the network, continuous profiling, and asynchronous event
// notification run on one of these. Virtual time only advances when events
// are executed, so every test and benchmark is exactly reproducible.
//
// `Scheduler` is the engine interface; two implementations exist, and both
// queue their tasks in one `TaskQueue` (task_queue.h):
//
//  - `SimScheduler` (this file): the single-threaded deterministic pump.
//    Default for tests, benches and CI — one queue in (time, FIFO seq)
//    order, bit-identical runs.
//  - `ParallelScheduler` (parallel_sched.h): N localities — the conductor
//    plus N−1 worker threads — in conservative rounds, each covering one
//    lookahead window of virtual time, selected by `FARGO_PARALLEL=N`.
//    Same virtual-time semantics, same observable results (DESIGN.md
//    §localities), run-to-run deterministic for a fixed N.
//
// The five pumps (RunOne, RunUntilIdle, RunUntil, RunUntilOr, RunFor) are
// defined once, here, over each engine's one virtual `Advance`. The sim
// advances one task per round, the locality engine one barrier round.
//
// One execution model (DESIGN.md §5): a pump is a conductor privilege.
// Synchronous calls pump, so they are legal only on the conductor, outside
// any task; code that runs inside a task (a complet method, a listener, a
// continuation) calls asynchronously and returns or chains the future.
// PumpGuard enforces it with one thread-local check, held by every pump,
// by every locality step and by NoPumpScope: a pump entered while any of
// them is on the calling thread's stack throws FargoError.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/time.h"
#include "src/sim/task_queue.h"

namespace fargo::sim {

namespace detail {
/// How many no-pump holds are on the calling thread's stack: pumps,
/// locality steps and NoPumpScopes. A pump entered while it is non-zero
/// throws. Thread-local, because the rule is about the calling thread's
/// stack, not about one scheduler.
inline thread_local int tl_no_pump = 0;
}  // namespace detail

// fargo: domain(sim)
class Scheduler {
 public:
  Scheduler() = default;
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. In the parallel engine, inside a task it is
  /// the task's own `at` on its locality's clock (localities run a window
  /// of timestamps concurrently, so there is no one global "now" during a
  /// round); between pumps it is the conductor's clock.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` at absolute time `t` (clamped to Now()). In the
  /// parallel engine the task lands on the calling thread's locality (or
  /// the ambient AffinityScope's, if one is active).
  virtual TaskId ScheduleAt(SimTime t, std::function<void()> fn) = 0;

  /// Schedules `fn` after `delay` from now.
  TaskId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(Now() + delay, std::move(fn));
  }

  /// Affinity-routed scheduling: runs `fn` at `t` on the locality that owns
  /// `affinity` (localities partition Cores by `key % localities()`). This
  /// is the *sanctioned cross-locality handoff*: a continuation that
  /// touches another Core's ownership domain must be posted to that Core's
  /// home locality rather than run in place. The sim engine ignores the
  /// key — Post degrades to ScheduleAt, which is what makes the two modes
  /// observably equivalent.
  virtual TaskId Post(std::uint64_t affinity, SimTime t,
                      std::function<void()> fn) {
    (void)affinity;
    return ScheduleAt(t, std::move(fn));
  }

  /// Post after `delay` from now (see Post).
  TaskId PostAfter(std::uint64_t affinity, SimTime delay,
                   std::function<void()> fn) {
    return Post(affinity, Now() + delay, std::move(fn));
  }

  /// Cancels a pending task; no-op if it already ran or was cancelled.
  /// (Parallel engine: a task may cancel only a task of its own locality;
  /// the conductor may cancel any.)
  virtual void Cancel(TaskId id) = 0;

  /// Executes the next due event, advancing the clock. Returns false when
  /// the queue is empty. (Parallel engine: executes the next *timestamp*,
  /// which may run many events across localities.)
  bool RunOne();

  /// Runs events until the queue drains. (Parallel engine: whole lookahead
  /// windows per round.)
  void RunUntilIdle();

  /// Runs events until `pred()` holds; throws FargoError if the queue
  /// drains first (a lost reply would otherwise hang forever). Re-entrant.
  void RunUntil(const std::function<bool()>& pred);

  /// Like RunUntil, but gives up at absolute time `deadline`. Returns true
  /// if the predicate held, false on timeout or drain. Re-entrant.
  bool RunUntilOr(const std::function<bool()>& pred, SimTime deadline);

  /// Runs all events due up to Now()+d, then advances the clock to it.
  /// (Parallel engine: lookahead windows, the last clamped to Now()+d.)
  void RunFor(SimTime d);

  /// Number of pending (non-cancelled) events.
  virtual std::size_t PendingCount() const = 0;

  /// Discards every pending event without running it. Used at runtime
  /// teardown: queued closures may hold references into Cores, so they
  /// must be destroyed while the Cores still exist.
  virtual void Clear() = 0;

  /// Total number of events executed (telemetry for benchmarks).
  virtual std::uint64_t executed() const = 0;

  /// Number of parallel localities (the conductor plus localities() − 1
  /// worker threads). 0 = deterministic single-threaded sim (the conductor
  /// thread executes events itself).
  virtual int localities() const { return 0; }

  /// RAII: while alive, entering any pump loop *on this thread* throws
  /// FargoError. Every pump and every locality step holds one, so a task
  /// can never pump; the RPC machinery holds one across its bookkeeping as
  /// well, so the rule also covers code that runs outside a task. Always
  /// on (the default build defines NDEBUG, so a plain assert would be
  /// vacuous); the check is a single integer test per pump entry.
  // fargo: domain(sim)
  class NoPumpScope {
   public:
    explicit NoPumpScope(Scheduler&) { ++detail::tl_no_pump; }
    ~NoPumpScope() { --detail::tl_no_pump; }
    NoPumpScope(const NoPumpScope&) = delete;
    NoPumpScope& operator=(const NoPumpScope&) = delete;
  };

  /// RAII: while alive, ScheduleAt on this thread routes to the locality
  /// owning `affinity` instead of the calling thread's own locality. Core
  /// public entry points hold one so that work started from the conductor
  /// (tests, shell, benches) lands on the Core's home locality. A no-op
  /// under the sim engine. Scopes nest; the innermost wins.
  // fargo: domain(sim)
  class AffinityScope {
   public:
    explicit AffinityScope(std::uint64_t affinity)
        : prev_key_(ambient_key_), prev_set_(ambient_set_) {
      ambient_key_ = affinity;
      ambient_set_ = true;
    }
    ~AffinityScope() {
      ambient_key_ = prev_key_;
      ambient_set_ = prev_set_;
    }
    AffinityScope(const AffinityScope&) = delete;
    AffinityScope& operator=(const AffinityScope&) = delete;

    /// The calling thread's ambient affinity, if an AffinityScope is
    /// active. Returns false otherwise.
    static bool Current(std::uint64_t& affinity) {
      if (!ambient_set_) return false;
      affinity = ambient_key_;
      return true;
    }

   private:
    friend class ParallelScheduler;
    /// Clears the ambient affinity for the scope's lifetime: the conductor
    /// runs locality 0's round step inside pumps that may hold a Core's
    /// scope.
    AffinityScope() : prev_key_(ambient_key_), prev_set_(ambient_set_) {
      ambient_set_ = false;
    }

    // Inline with constant initializers: every TU reads them directly,
    // with no TLS wrapper call that sanitizers flag as a null load.
    static inline thread_local std::uint64_t ambient_key_ = 0;
    static inline thread_local bool ambient_set_ = false;
    std::uint64_t prev_key_;
    bool prev_set_;
  };

 protected:
  /// The one advance loop behind every pump, run under its PumpGuard.
  /// Runs rounds until `done` holds or nothing more is due by `horizon`;
  /// running out of events moves the clock to a finite `horizon`. `done` is
  /// checked before every round when `between_rounds`, else once each
  /// timestamp is finished (the sim's rounds are single tasks, so it checks
  /// before every task either way). Returns whether `done` holds (false
  /// without one).
  virtual bool Advance(const std::function<bool()>& done, bool between_rounds,
                       SimTime horizon) = 0;

  /// RAII around every pump loop: throws if a no-pump hold is already on
  /// this thread's stack, then holds one itself for the pump's lifetime.
  // fargo: domain(sim)
  class PumpGuard {
   public:
    PumpGuard();
    ~PumpGuard() { --detail::tl_no_pump; }
    PumpGuard(const PumpGuard&) = delete;
    PumpGuard& operator=(const PumpGuard&) = delete;
  };
};

/// The single-threaded deterministic pump: one TaskQueue in (time, FIFO
/// seq) order. The default engine for tests, benches and CI.
// fargo: domain(sim)
class SimScheduler final : public Scheduler {
 public:
  SimScheduler() = default;

  SimTime Now() const override { return now_; }
  TaskId ScheduleAt(SimTime t, std::function<void()> fn) override;
  void Cancel(TaskId id) override { queue_.Cancel(id); }
  std::size_t PendingCount() const override { return queue_.Pending(); }
  void Clear() override { queue_.Clear(); }
  std::uint64_t executed() const override { return executed_; }

 private:
  bool Advance(const std::function<bool()>& done, bool between_rounds,
               SimTime horizon) override;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  ///< FIFO seq, also the TaskId
  std::uint64_t executed_ = 0;
  TaskQueue queue_;
};

/// A self-rescheduling task; used by continuous profiling. Destroying or
/// stopping the task is safe at any point — including from within its own
/// callback (the callback's state is kept alive by the in-flight event).
// fargo: domain(sim)
class PeriodicTask {
 public:
  PeriodicTask(Scheduler& sched, SimTime interval, std::function<void()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Stop();
  bool running() const { return impl_->running; }
  SimTime interval() const { return impl_->interval; }

 private:
  struct Impl {
    Scheduler& sched;
    SimTime interval;
    std::function<void()> fn;
    bool running = true;
  };
  static void Arm(const std::shared_ptr<Impl>& impl);

  std::shared_ptr<Impl> impl_;
};

}  // namespace fargo::sim

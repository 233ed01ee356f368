// Deterministic discrete-event scheduler.
//
// All Cores, the network, continuous profiling, and asynchronous event
// notification run on one of these. Virtual time only advances when events
// are executed, so every test and benchmark is exactly reproducible.
//
// `Scheduler` is the engine interface; two implementations exist:
//
//  - `SimScheduler` (this file): the single-threaded deterministic pump.
//    Default for tests, benches and CI — one priority queue, FIFO seq
//    tiebreak, bit-identical runs.
//  - `ParallelScheduler` (parallel_sched.h): N localities — the conductor
//    plus N−1 worker threads — in conservative time-stepped rounds,
//    selected by `FARGO_PARALLEL=N`.
//    Same virtual-time semantics, same observable results (DESIGN.md
//    §localities), run-to-run deterministic for a fixed N.
//
// The asynchronous invocation pipeline (DESIGN.md §5) never pumps from
// inside an event handler: RPC machinery is written as scheduled
// continuations, and NoPumpScope enforces that invariant at run time. Only
// the top-level synchronous API wrappers pump (RunUntil and friends), and
// the scheduler keeps pump-depth accounting so tests can assert the
// invocation path stays at depth ≤ 1. Pumps are a conductor-thread
// privilege: a task of a parallel locality entering a pump throws.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/common/time.h"

namespace fargo::sim {

/// Handle used to cancel a scheduled task.
using TaskId = std::uint64_t;

namespace detail {
/// -1 on the conductor/main thread; the locality index while a thread runs
/// a ParallelScheduler locality's round step (a worker, or the conductor
/// for locality 0). Tasks of a locality must never pump.
extern thread_local int tl_worker_locality;
/// Per-thread NoPumpScope nesting count. The no-pump invariant is a
/// property of the *calling thread*'s stack, so the counter is
/// thread-local rather than per-scheduler.
extern thread_local int tl_no_pump;
}  // namespace detail

// fargo: domain(sim)
class Scheduler {
 public:
  Scheduler() = default;
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
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
  virtual void Cancel(TaskId id) = 0;

  /// Executes the next due event, advancing the clock. Returns false when
  /// the queue is empty. (Parallel engine: executes the next *timestamp*,
  /// which may run many events across localities.)
  virtual bool RunOne() = 0;

  /// Runs events until the queue drains.
  virtual void RunUntilIdle() = 0;

  /// Runs events until `pred()` holds; throws FargoError if the queue
  /// drains first (a lost reply would otherwise hang forever). Re-entrant.
  virtual void RunUntil(const std::function<bool()>& pred) = 0;

  /// Like RunUntil, but gives up at absolute time `deadline`. Returns true
  /// if the predicate held, false on timeout or drain. Re-entrant.
  virtual bool RunUntilOr(const std::function<bool()>& pred,
                          SimTime deadline) = 0;

  /// Runs all events due up to Now()+d, then advances the clock to it.
  virtual void RunFor(SimTime d) = 0;

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

  // -- pump-depth accounting ---------------------------------------------------

  /// How many pump loops (RunUntil/RunUntilOr/RunUntilIdle/RunFor/RunOne at
  /// top level) are currently on the call stack. 0 outside any pump; the
  /// async pipeline keeps this at ≤ 1.
  int PumpDepth() const { return pump_depth_; }

  /// Deepest nesting ever observed (telemetry; mirrored into the
  /// `sched.pump_depth` max-gauge by Runtime).
  int MaxPumpDepth() const { return max_pump_depth_; }

  /// Called with the new depth every time a pump is entered. Runtime wires
  /// this to the metrics registry.
  void SetPumpObserver(std::function<void(int)> obs) {
    pump_observer_ = std::move(obs);
  }

  /// RAII: while alive, entering any pump loop *on this thread* throws
  /// FargoError. The async RPC machinery holds one of these across its
  /// bookkeeping so a blocking call can never sneak back into the
  /// continuation path. Always on (the default build defines NDEBUG, so a
  /// plain assert would be vacuous); the check is a single integer test
  /// per pump entry.
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

    static thread_local std::uint64_t ambient_key_;
    static thread_local bool ambient_set_;
    std::uint64_t prev_key_;
    bool prev_set_;
  };

 protected:
  /// RAII around every pump loop: bumps depth, notifies the observer, and
  /// rejects entry from inside a NoPumpScope or from a locality's task.
  // fargo: domain(sim)
  class PumpGuard {
   public:
    explicit PumpGuard(Scheduler& s);
    ~PumpGuard() { --sched_.pump_depth_; }
    PumpGuard(const PumpGuard&) = delete;
    PumpGuard& operator=(const PumpGuard&) = delete;

   private:
    Scheduler& sched_;
  };

  int pump_depth_ = 0;
  int max_pump_depth_ = 0;
  std::function<void(int)> pump_observer_;
};

/// The single-threaded deterministic pump: one priority queue ordered by
/// (time, FIFO seq). The default engine for tests, benches and CI.
// fargo: domain(sim)
class SimScheduler final : public Scheduler {
 public:
  SimScheduler() = default;

  SimTime Now() const override { return now_; }
  TaskId ScheduleAt(SimTime t, std::function<void()> fn) override;
  void Cancel(TaskId id) override { cancelled_.insert(id); }
  bool RunOne() override;
  void RunUntilIdle() override;
  void RunUntil(const std::function<bool()>& pred) override;
  bool RunUntilOr(const std::function<bool()>& pred,
                  SimTime deadline) override;
  void RunFor(SimTime d) override;
  std::size_t PendingCount() const override {
    return queue_.size() - cancelled_.size();
  }
  void Clear() override;
  std::uint64_t executed() const override { return executed_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // FIFO tiebreak for same-time events (determinism)
    TaskId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool PopDue(SimTime limit, Entry& out);
  bool RunOneLocked();  ///< RunOne body, called under an active PumpGuard

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  TaskId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<TaskId> cancelled_;
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

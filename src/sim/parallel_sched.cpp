#include "src/sim/parallel_sched.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/value.h"  // FargoError

namespace fargo::sim {

namespace {

/// Routing context while a thread executes a locality's round step; null
/// sched otherwise.
struct WorkerCtx {
  ParallelScheduler* sched = nullptr;
  int loc = -1;
  std::uint64_t round = 0;
};
thread_local WorkerCtx tl_ctx;

/// Makes the calling thread locality `loc`'s executor for one round step
/// and restores the thread's own routing context on exit.
// fargo: domain(sim)
class StepContext {
 public:
  StepContext(ParallelScheduler* sched, int loc, std::uint64_t round)
      : prev_ctx_(std::exchange(tl_ctx, WorkerCtx{sched, loc, round})) {}
  ~StepContext() { tl_ctx = prev_ctx_; }
  StepContext(const StepContext&) = delete;
  StepContext& operator=(const StepContext&) = delete;

 private:
  WorkerCtx prev_ctx_;
};

}  // namespace

struct ParallelScheduler::Barrier {
  std::mutex mu;
  std::condition_variable cv_go;
  std::condition_variable cv_done;
  int arrived = 0;  ///< workers parked since the last release
  bool stop = false;
};

/// What one locality hands another in one round, in append order.
struct ParallelScheduler::Outbox {
  void Add(Task t) {
    min_at = std::min(min_at, t.at);
    tasks.push_back(std::move(t));
  }

  /// Drops the task `id` if it is here; returns whether it was. Its
  /// closure is destroyed last: the destructor may schedule or cancel.
  bool Erase(TaskId id) {
    auto it = std::find_if(tasks.begin(), tasks.end(),
                           [id](const Task& t) { return t.id == id; });
    if (it == tasks.end()) return false;
    const Task dead = std::move(*it);
    tasks.erase(it);
    min_at = kNoDue;
    for (const Task& t : tasks) min_at = std::min(min_at, t.at);
    return true;
  }

  std::vector<Task> tasks;
  SimTime min_at = kNoDue;  ///< earliest `at` in tasks
};

struct ParallelScheduler::Locality {
  explicit Locality(int localities)
      : outbox{std::vector<Outbox>(static_cast<std::size_t>(localities)),
               std::vector<Outbox>(static_cast<std::size_t>(localities))} {}

  // Confined to the locality's thread during its step; the conductor
  // touches these only while every worker is parked (the barrier mutex is
  // the happens-before edge).
  TaskQueue queue;
  /// [round parity][destination]: handoffs made during round r at parity
  /// r & 1, drained by the destination at the start of round r + 1.
  std::vector<Outbox> outbox[2];
  std::uint64_t id_seq = 1;      ///< TaskId counter
  std::uint64_t handoffs = 0;    ///< cross-locality tasks sent
  std::size_t max_handoffs = 0;  ///< most handoffs taken in one round
  /// This locality's clock: the `at` of its running (or last) task, and
  /// the round's first timestamp before its first task.
  SimTime clock = 0;

  // Round results, read by the conductor once the step's thread parks. The
  // conductor refreshes next_due when it pushes or cancels here.
  SimTime next_due = kNoDue;
  std::uint64_t executed = 0;
  std::exception_ptr error;

  std::thread thread;  ///< none for locality 0 (the conductor runs it)
};

ParallelScheduler::ParallelScheduler(int localities)
    : num_localities_(localities < 1 ? 1 : localities),
      barrier_(std::make_unique<Barrier>()) {
  for (int i = 0; i < num_localities_; ++i)
    locs_.push_back(std::make_unique<Locality>(num_localities_));
}

ParallelScheduler::~ParallelScheduler() {
  if (started_) {
    {
      std::lock_guard<std::mutex> lk(barrier_->mu);
      barrier_->stop = true;
    }
    barrier_->cv_go.notify_all();
    for (auto& l : locs_)
      if (l->thread.joinable()) l->thread.join();
  }
}

void ParallelScheduler::EnsureStarted() {
  if (started_) return;
  started_ = true;
  for (int i = 1; i < num_localities_; ++i)
    locs_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
}

void ParallelScheduler::WorkerLoop(int idx) {
  Barrier& b = *barrier_;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(b.mu);
  for (;;) {
    b.cv_go.wait(lk, [&] { return b.stop || rounds_ != seen; });
    if (b.stop) return;
    seen = rounds_;
    lk.unlock();
    Step(idx, seen);
    lk.lock();
    if (++b.arrived == num_localities_ - 1) b.cv_done.notify_all();
  }
}

void ParallelScheduler::Step(int idx, std::uint64_t round) {
  StepContext ctx(this, idx, round);
  // A task never pumps: the step holds the no-pump check on a worker as
  // the enclosing pump already does on the conductor.
  NoPumpScope no_pump(*this);
  // On the conductor, drop the pump caller's AffinityScope: locality 0's
  // tasks route by their own locality, exactly as on a worker.
  AffinityScope unscoped;
  Locality& self = *locs_[static_cast<std::size_t>(idx)];

  self.clock = now_;

  // Take last round's outboxes for this locality. Each task carries its
  // ordering key, so the queue runs the window in key order — a pure
  // function of the workload, not of thread timing or take order.
  std::size_t handoffs = 0;
  for (auto& src : locs_) {
    Outbox& box = src->outbox[(round - 1) & 1][static_cast<std::size_t>(idx)];
    handoffs += box.tasks.size();
    for (Task& t : box.tasks) self.queue.Push(std::move(t));
    box.tasks.clear();
    box.min_at = kNoDue;
  }
  self.max_handoffs = std::max(self.max_handoffs, handoffs);

  // Execute everything due by the window's end on this locality's own
  // clock. Local work scheduled inside the window runs within this round;
  // handoffs land in outboxes for the next one. A throwing task does not
  // end the step: the window always completes, and the pump rethrows.
  std::uint64_t exec = 0;
  for (;;) {
    Task task;
    if (!self.queue.PopDue(window_end_, task)) break;
    ++exec;
    self.clock = task.at;
    try {
      task.fn();
    } catch (...) {
      if (!self.error) self.error = std::current_exception();
    }
  }
  self.executed += exec;
  self.next_due = self.queue.NextAt();
}

TaskId ParallelScheduler::ScheduleAt(SimTime t, std::function<void()> fn) {
  std::uint64_t aff = 0;
  if (Scheduler::AffinityScope::Current(aff))
    return Enqueue(LocalityOf(aff), t, std::move(fn));
  return Enqueue(tl_ctx.sched == this ? tl_ctx.loc : 0, t, std::move(fn));
}

TaskId ParallelScheduler::Post(std::uint64_t affinity, SimTime t,
                               std::function<void()> fn) {
  return Enqueue(LocalityOf(affinity), t, std::move(fn));
}

SimTime ParallelScheduler::Now() const {
  if (tl_ctx.sched == this)
    return locs_[static_cast<std::size_t>(tl_ctx.loc)]->clock;
  return now_;
}

TaskId ParallelScheduler::Enqueue(int dest, SimTime t,
                                  std::function<void()> fn) {
  if (tl_ctx.sched != this) {
    // The conductor, between rounds: straight into the destination queue.
    Locality& to = *locs_[static_cast<std::size_t>(dest)];
    const TaskId id = MakeTaskId(dest, num_localities_, conductor_seq_++);
    t = std::max(t, now_);
    to.queue.Push(Task{t, now_, sub_, id, std::move(fn)});
    to.next_due = std::min(to.next_due, t);
    return id;
  }
  const int rank = tl_ctx.loc;
  Locality& self = *locs_[static_cast<std::size_t>(rank)];
  t = std::max(t, self.clock);
  if (dest != rank && window_end_ > now_ && t <= window_end_)
    throw FargoError("cross-locality task at " + std::to_string(t) +
                     " ns inside the lookahead window [" +
                     std::to_string(now_) + ", " +
                     std::to_string(window_end_) +
                     "] ns (a link shorter than the lookahead, or a Post "
                     "that bypasses the network)");
  const TaskId id = MakeTaskId(dest, rank, self.id_seq++);
  Task task{t, self.clock, self.clock == now_ ? sub_ : 0u, id, std::move(fn)};
  if (dest == rank) {
    self.queue.Push(std::move(task));
  } else {
    ++self.handoffs;
    self.outbox[tl_ctx.round & 1][static_cast<std::size_t>(dest)].Add(
        std::move(task));
  }
  return id;
}

void ParallelScheduler::Cancel(TaskId id) {
  const int dest = IdDest(id);
  if (dest >= num_localities_) return;
  Locality& to = *locs_[static_cast<std::size_t>(dest)];
  if (tl_ctx.sched == this) {
    // The target may run, or have run, on its own clock this very round.
    if (dest != tl_ctx.loc)
      throw FargoError("cancel of a task queued on locality " +
                       std::to_string(dest) + " from locality " +
                       std::to_string(tl_ctx.loc) +
                       " (a task is cancelled only where it is queued)");
    to.queue.Cancel(id);
    return;
  }
  // The conductor, between rounds: a handoff still outboxed is erased
  // there, so its time cannot call a round.
  const int producer = IdProducer(id);
  if (producer < num_localities_ &&
      locs_[static_cast<std::size_t>(producer)]
          ->outbox[rounds_ & 1][static_cast<std::size_t>(dest)]
          .Erase(id))
    return;
  to.queue.Cancel(id);
  to.next_due = to.queue.NextAt();
}

void ParallelScheduler::RunRound() {
  Barrier& b = *barrier_;
  {
    std::lock_guard<std::mutex> lk(b.mu);
    b.arrived = 0;
    ++rounds_;
  }
  b.cv_go.notify_all();
  Step(0, rounds_);
  {
    std::unique_lock<std::mutex> lk(b.mu);
    b.cv_done.wait(lk, [&] { return b.arrived == num_localities_ - 1; });
  }
  std::exception_ptr err;
  SimTime reached = now_;
  for (auto& l : locs_) {
    reached = std::max(reached, l->clock);
    if (l->error && !err) {
      err = l->error;
      l->error = nullptr;
    }
  }
  if (reached > now_) {
    now_ = reached;
    sub_ = 0;
  }
  if (err) std::rethrow_exception(err);
}

SimTime ParallelScheduler::NextDue() const {
  SimTime due = kNoDue;
  for (const auto& l : locs_) {
    due = std::min(due, l->next_due);
    // Between rounds only the last round's parity holds anything: every
    // locality drained the other one at the start of that round.
    for (const Outbox& box : l->outbox[rounds_ & 1])
      due = std::min(due, box.min_at);
  }
  return due;
}

bool ParallelScheduler::Advance(const std::function<bool()>& done,
                                bool between_rounds, SimTime horizon) {
  EnsureStarted();
  for (;;) {
    const SimTime due = NextDue();
    if ((between_rounds || due > now_) && done && done()) return true;
    if (due == kNoDue || due > horizon) {
      if (horizon != kNoDue && horizon > now_) {
        now_ = horizon;
        sub_ = 0;
      }
      return done && done();
    }
    if (due > now_) {
      now_ = due;
      sub_ = 0;
    } else {
      ++sub_;  // another round at the same timestamp
    }
    // A pump that checks a predicate observes every timestamp; one without
    // runs whole lookahead windows.
    const SimTime lookahead = done || !lookahead_ ? 0 : lookahead_();
    window_end_ = now_;
    if (lookahead > 1)
      window_end_ =
          lookahead - 1 < horizon - now_ ? now_ + (lookahead - 1) : horizon;
    RunRound();
  }
}

std::size_t ParallelScheduler::PendingCount() const {
  std::size_t total = 0;
  for (const auto& l : locs_) {
    total += l->queue.Pending();
    for (const auto& boxes : l->outbox)
      for (const Outbox& box : boxes) total += box.tasks.size();
  }
  return total;
}

void ParallelScheduler::Clear() {
  // Workers are parked between pumps; the barrier mutex from their park is
  // the happens-before edge that makes their queues and outboxes safe to
  // touch here. Discarded closures are destroyed on this (conductor)
  // thread, while the Cores they may reference still exist.
  for (auto& l : locs_) {
    for (auto& boxes : l->outbox)
      for (Outbox& box : boxes) {
        box.tasks.clear();
        box.min_at = kNoDue;
      }
    l->queue.Clear();
    l->next_due = kNoDue;
  }
}

std::uint64_t ParallelScheduler::executed() const {
  std::uint64_t total = 0;
  for (const auto& l : locs_) total += l->executed;
  return total;
}

ParallelScheduler::Telemetry ParallelScheduler::telemetry() const {
  Telemetry t;
  t.rounds = rounds_;
  for (const auto& l : locs_) {
    t.handoffs += l->handoffs;
    t.max_queue_depth = std::max<std::uint64_t>(t.max_queue_depth,
                                                l->max_handoffs);
  }
  return t;
}

}  // namespace fargo::sim

#include "src/sim/parallel_sched.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/value.h"  // FargoError

namespace fargo::sim {

namespace {

constexpr SimTime kNoDue = std::numeric_limits<SimTime>::max();

// TaskId layout: [8b destination locality | 8b producer rank | 48b counter].
// The destination routes Cancel; the producer rank (locality i = i, the
// conductor = localities()) and per-producer counter make ids unique
// without shared state, and are the tail of the ordering key.
TaskId MakeId(int dest, int producer, std::uint64_t n) {
  return (static_cast<TaskId>(dest) << 56) |
         (static_cast<TaskId>(producer & 0xFF) << 48) |
         (n & 0x0000FFFFFFFFFFFFull);
}
int IdDest(TaskId id) { return static_cast<int>(id >> 56); }
int IdProducer(TaskId id) { return static_cast<int>((id >> 48) & 0xFFu); }
std::uint64_t IdSeq(TaskId id) { return id & 0x0000FFFFFFFFFFFFull; }
/// Local work first, then handoffs by producer rank (the conductor last).
int IdRank(TaskId id) {
  return IdProducer(id) == IdDest(id) ? 0 : IdProducer(id) + 1;
}

struct Task {
  SimTime at;
  SimTime made;       ///< the producer's clock when it scheduled the task
  std::uint32_t sub;  ///< the production round at `made` (see sub_)
  TaskId id;
  std::function<void()> fn;
};
/// The ordering key (at, made, sub, local before handoff, producer rank,
/// append order): the insertion order of one-timestamp rounds, whatever the
/// window boundaries.
struct Later {
  bool operator()(const Task& a, const Task& b) const {
    if (a.at != b.at) return a.at > b.at;
    if (a.made != b.made) return a.made > b.made;
    if (a.sub != b.sub) return a.sub > b.sub;
    if (IdRank(a.id) != IdRank(b.id)) return IdRank(a.id) > IdRank(b.id);
    return IdSeq(a.id) > IdSeq(b.id);
  }
};

/// Routing context while a thread executes a locality's round step; null
/// sched otherwise.
struct WorkerCtx {
  ParallelScheduler* sched = nullptr;
  int loc = -1;
  std::uint64_t round = 0;
};
thread_local WorkerCtx tl_ctx;

/// Makes the calling thread locality `loc`'s executor for one round step —
/// the routing context and the worker mark PumpGuard checks — and restores
/// the thread's own values on exit.
// fargo: domain(sim)
class StepContext {
 public:
  StepContext(ParallelScheduler* sched, int loc, std::uint64_t round)
      : prev_ctx_(tl_ctx), prev_loc_(detail::tl_worker_locality) {
    tl_ctx = WorkerCtx{sched, loc, round};
    detail::tl_worker_locality = loc;
  }
  ~StepContext() {
    tl_ctx = prev_ctx_;
    detail::tl_worker_locality = prev_loc_;
  }
  StepContext(const StepContext&) = delete;
  StepContext& operator=(const StepContext&) = delete;

 private:
  WorkerCtx prev_ctx_;
  int prev_loc_;
};

}  // namespace

struct ParallelScheduler::Barrier {
  std::mutex mu;
  std::condition_variable cv_go;
  std::condition_variable cv_done;
  int arrived = 0;  ///< workers parked since the last release
  bool stop = false;
};

/// What one producer hands one locality in one round, in append order.
struct ParallelScheduler::Outbox {
  void Add(Task t) {
    min_at = std::min(min_at, t.at);
    tasks.push_back(std::move(t));
  }

  std::vector<Task> tasks;
  std::vector<TaskId> cancels;
  SimTime min_at = kNoDue;  ///< earliest `at` in tasks
};

/// A thread that schedules work: locality i during its round steps, or the
/// conductor between rounds.
struct ParallelScheduler::Producer {
  explicit Producer(int localities)
      : outbox{std::vector<Outbox>(static_cast<std::size_t>(localities)),
               std::vector<Outbox>(static_cast<std::size_t>(localities))} {}

  /// [round parity][destination]. Filled during round r at parity r & 1
  /// (the conductor's writes belong to the last completed round) and
  /// drained by the destination at the start of round r + 1.
  std::vector<Outbox> outbox[2];
  std::uint64_t id_seq = 1;    ///< TaskId counter
  std::uint64_t handoffs = 0;  ///< cross-locality tasks sent (localities only)
};

struct ParallelScheduler::Locality {
  // Confined to the locality's thread during its step; the conductor
  // touches these only while every worker is parked (the barrier mutex is
  // the happens-before edge).
  std::priority_queue<Task, std::vector<Task>, Later> queue;
  std::unordered_set<TaskId> cancelled;
  std::size_t max_handoffs = 0;  ///< most handoffs taken in one round
  /// This locality's clock: the `at` of its running (or last) task, and
  /// the round's first timestamp before its first task.
  SimTime clock = 0;

  // Round results, read by the conductor once the step's thread parks.
  SimTime next_due = kNoDue;
  std::uint64_t executed = 0;
  std::exception_ptr error;

  std::thread thread;  ///< none for locality 0 (the conductor runs it)
};

ParallelScheduler::ParallelScheduler(int localities)
    : num_localities_(localities < 1 ? 1 : localities),
      barrier_(std::make_unique<Barrier>()) {
  for (int i = 0; i < num_localities_; ++i)
    locs_.push_back(std::make_unique<Locality>());
  for (int i = 0; i <= num_localities_; ++i)
    producers_.push_back(std::make_unique<Producer>(num_localities_));
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
  // On the conductor, drop the pump caller's AffinityScope: locality 0's
  // tasks route by their own locality, exactly as on a worker.
  AffinityScope unscoped;
  Locality& self = *locs_[static_cast<std::size_t>(idx)];

  self.clock = now_;

  // Take last round's outboxes for this locality. Each task carries its
  // ordering key, so the queue runs the window in key order — a pure
  // function of the workload, not of thread timing or take order.
  std::size_t handoffs = 0;
  for (std::size_t p = 0; p < producers_.size(); ++p) {
    Outbox& box =
        producers_[p]->outbox[(round - 1) & 1][static_cast<std::size_t>(idx)];
    if (p < locs_.size()) handoffs += box.tasks.size();
    for (Task& t : box.tasks) self.queue.push(std::move(t));
    box.tasks.clear();
    box.min_at = kNoDue;
    self.cancelled.insert(box.cancels.begin(), box.cancels.end());
    box.cancels.clear();
  }
  self.max_handoffs = std::max(self.max_handoffs, handoffs);

  // Execute everything due by the window's end on this locality's own
  // clock. Local work scheduled inside the window runs within this round;
  // handoffs land in outboxes for the next one. A throwing task does not
  // end the step: the window always completes, and the pump rethrows.
  std::uint64_t exec = 0;
  while (!self.queue.empty() && self.queue.top().at <= window_end_) {
    Task e = std::move(const_cast<Task&>(self.queue.top()));
    self.queue.pop();
    if (auto it = self.cancelled.find(e.id); it != self.cancelled.end()) {
      self.cancelled.erase(it);
      continue;
    }
    ++exec;
    self.clock = e.at;
    try {
      e.fn();
    } catch (...) {
      if (!self.error) self.error = std::current_exception();
    }
  }
  // Prune cancelled heads so next_due names a live event (a cancelled
  // timestamp must not drag the global clock forward).
  while (!self.queue.empty()) {
    auto it = self.cancelled.find(self.queue.top().id);
    if (it == self.cancelled.end()) break;
    self.cancelled.erase(it);
    self.queue.pop();
  }
  self.executed += exec;
  self.next_due = self.queue.empty() ? kNoDue : self.queue.top().at;
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

ParallelScheduler::Outbox& ParallelScheduler::OutboxFor(int dest) {
  const bool in_step = tl_ctx.sched == this;
  Producer& p = *producers_[static_cast<std::size_t>(
      in_step ? tl_ctx.loc : num_localities_)];
  return p.outbox[(in_step ? tl_ctx.round : rounds_) & 1]
                 [static_cast<std::size_t>(dest)];
}

TaskId ParallelScheduler::Enqueue(int dest, SimTime t,
                                  std::function<void()> fn) {
  const bool in_step = tl_ctx.sched == this;
  const int rank = in_step ? tl_ctx.loc : num_localities_;
  const SimTime clock =
      in_step ? locs_[static_cast<std::size_t>(rank)]->clock : now_;
  if (t < clock) t = clock;
  const bool handoff = in_step && dest != rank;
  if (handoff && window_end_ > now_ && t <= window_end_)
    throw FargoError("cross-locality task at " + std::to_string(t) +
                     " ns inside the lookahead window [" +
                     std::to_string(now_) + ", " +
                     std::to_string(window_end_) +
                     "] ns (a link shorter than the lookahead, or a Post "
                     "that bypasses the network)");
  Producer& self = *producers_[static_cast<std::size_t>(rank)];
  Task task{t, clock, clock == now_ ? sub_ : 0u,
            MakeId(dest, rank, self.id_seq++), std::move(fn)};
  const TaskId id = task.id;
  if (in_step && !handoff) {
    locs_[static_cast<std::size_t>(dest)]->queue.push(std::move(task));
    return id;
  }
  if (handoff) ++self.handoffs;
  OutboxFor(dest).Add(std::move(task));
  return id;
}

void ParallelScheduler::Cancel(TaskId id) {
  const int dest = IdDest(id);
  if (dest < 0 || dest >= num_localities_) return;
  const bool in_step = tl_ctx.sched == this;
  if (in_step && dest == tl_ctx.loc) {
    locs_[static_cast<std::size_t>(dest)]->cancelled.insert(id);
    return;
  }
  // The target may already have run, or be about to, inside this window.
  if (in_step && window_end_ > now_)
    throw FargoError("cross-locality cancel inside the lookahead window [" +
                     std::to_string(now_) + ", " +
                     std::to_string(window_end_) + "] ns");
  OutboxFor(dest).cancels.push_back(id);
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
  for (const auto& l : locs_) due = std::min(due, l->next_due);
  // Between rounds only the last round's parity holds anything: every
  // locality drained the other one at the start of that round.
  for (const auto& p : producers_)
    for (const Outbox& box : p->outbox[rounds_ & 1]) {
      if (!box.cancels.empty()) return now_;
      due = std::min(due, box.min_at);
    }
  return due;
}

bool ParallelScheduler::Advance(const std::function<bool()>& done,
                                bool between_rounds, SimTime horizon) {
  PumpGuard guard(*this);
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

bool ParallelScheduler::RunOne() {
  // One timestamp's worth: stop once a quiescent timestamp executed
  // something (a cancelled-only timestamp keeps advancing).
  const std::uint64_t before = executed();
  return Advance([&] { return executed() > before; }, false, kNoDue);
}

void ParallelScheduler::RunUntilIdle() { Advance({}, false, kNoDue); }

void ParallelScheduler::RunUntil(const std::function<bool()>& pred) {
  if (!Advance(pred, true, kNoDue))
    throw FargoError("scheduler drained while awaiting a condition "
                     "(lost message or dead peer?)");
}

bool ParallelScheduler::RunUntilOr(const std::function<bool()>& pred,
                                   SimTime deadline) {
  return Advance(pred, true, deadline);
}

void ParallelScheduler::RunFor(SimTime d) { Advance({}, false, now_ + d); }

std::size_t ParallelScheduler::PendingCount() const {
  std::size_t total = 0;
  for (const auto& l : locs_) {
    const std::size_t q = l->queue.size();
    const std::size_t c = l->cancelled.size();
    total += q > c ? q - c : 0;
  }
  for (const auto& p : producers_)
    for (const auto& boxes : p->outbox)
      for (const Outbox& box : boxes) total += box.tasks.size();
  return total;
}

void ParallelScheduler::Clear() {
  // Workers are parked between pumps; the barrier mutex from their park is
  // the happens-before edge that makes their queues and outboxes safe to
  // touch here. Discarded closures are destroyed on this (conductor)
  // thread, while the Cores they may reference still exist.
  for (auto& p : producers_)
    for (auto& boxes : p->outbox)
      for (Outbox& box : boxes) {
        box.tasks.clear();
        box.cancels.clear();
        box.min_at = kNoDue;
      }
  for (auto& l : locs_) {
    l->queue = {};
    l->cancelled.clear();
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
  for (const auto& p : producers_) t.handoffs += p->handoffs;
  for (const auto& l : locs_)
    t.max_queue_depth = std::max<std::uint64_t>(t.max_queue_depth,
                                                l->max_handoffs);
  return t;
}

}  // namespace fargo::sim

#include "src/sim/scheduler.h"

#include <algorithm>

#include "src/common/value.h"  // FargoError

namespace fargo::sim {

Scheduler::PumpGuard::PumpGuard() {
  if (detail::tl_no_pump > 0)
    throw FargoError(
        "scheduler pump inside a task or a no-pump section (only the "
        "conductor may pump, outside any task; call asynchronously and "
        "return or chain the future)");
  ++detail::tl_no_pump;
}

bool Scheduler::RunOne() {
  PumpGuard guard;
  // Stop after the first task (sim) or timestamp (locality engine) that
  // executed something; a cancelled task does not count.
  const std::uint64_t before = executed();
  return Advance([&] { return executed() > before; }, false, kNoDue);
}

void Scheduler::RunUntilIdle() {
  PumpGuard guard;
  Advance({}, false, kNoDue);
}

void Scheduler::RunUntil(const std::function<bool()>& pred) {
  PumpGuard guard;
  if (!Advance(pred, true, kNoDue))
    throw FargoError("scheduler drained while awaiting a condition "
                     "(lost message or dead peer?)");
}

bool Scheduler::RunUntilOr(const std::function<bool()>& pred,
                           SimTime deadline) {
  PumpGuard guard;
  return Advance(pred, true, deadline);
}

void Scheduler::RunFor(SimTime d) {
  PumpGuard guard;
  Advance({}, false, Now() + d);
}

TaskId SimScheduler::ScheduleAt(SimTime t, std::function<void()> fn) {
  const TaskId id = MakeTaskId(0, 0, next_seq_++);
  queue_.Push(Task{std::max(t, now_), 0, 0, id, std::move(fn)});
  return id;
}

bool SimScheduler::Advance(const std::function<bool()>& done,
                           bool /*between_rounds*/, SimTime horizon) {
  for (;;) {
    if (done && done()) return true;
    Task task;
    if (!queue_.PopDue(horizon, task)) {
      if (horizon != kNoDue && horizon > now_) now_ = horizon;
      return done && done();
    }
    now_ = task.at;
    ++executed_;
    task.fn();
  }
}

PeriodicTask::PeriodicTask(Scheduler& sched, SimTime interval,
                           std::function<void()> fn)
    : impl_(std::make_shared<Impl>(Impl{sched, interval, std::move(fn)})) {
  Arm(impl_);
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Arm(const std::shared_ptr<Impl>& impl) {
  impl->sched.ScheduleAfter(impl->interval, [impl] {
    if (!impl->running) return;
    impl->fn();
    if (impl->running) Arm(impl);
  });
}

void PeriodicTask::Stop() { impl_->running = false; }

}  // namespace fargo::sim

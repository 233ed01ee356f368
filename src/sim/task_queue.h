// The one task queue behind both scheduler engines: a binary heap in the
// task-ordering key plus a set of cancel tombstones.
//
// Cancel contract: a cancelled task never runs, and its closure is
// destroyed within a bounded number of later cancels. Cancel only
// tombstones; once the cancels since the last compaction pass half the
// heap (and a small floor), the queue moves the tombstoned tasks out,
// re-heaps the survivors and only then destroys the moved-out closures,
// since a closure's destructor may schedule or cancel here again. That
// keeps Cancel amortized O(1). The key is a strict total order, so the
// heap's layout never shows in the pop order. A tombstone of a task that
// already ran stays in the set and is not counted twice.
//
// Ordering key: (at, producer clock at production, production round at
// that clock, local before handoff, producer rank, append order). The
// locality engine fills every field (parallel_sched.h). The sim engine is a
// single producer whose clock never goes back, so it pushes made = 0,
// sub = 0 and MakeTaskId(0, 0, n), and the key reduces to (at, FIFO seq).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <unordered_set>
#include <vector>

#include "src/common/time.h"

namespace fargo::sim {

/// Handle used to cancel a scheduled task.
using TaskId = std::uint64_t;

/// "Nothing due": the time of an empty queue, and the open horizon.
inline constexpr SimTime kNoDue = std::numeric_limits<SimTime>::max();

// TaskId layout: [8b destination locality | 8b producer rank | 48b counter].
// The destination routes Cancel; the producer rank (locality i = i, the
// conductor = localities()) and per-producer counter make ids unique
// without shared state, and are the tail of the ordering key.
constexpr TaskId MakeTaskId(int dest, int producer, std::uint64_t n) {
  return (static_cast<TaskId>(dest) << 56) |
         (static_cast<TaskId>(producer & 0xFF) << 48) |
         (n & 0x0000FFFFFFFFFFFFull);
}
constexpr int IdDest(TaskId id) { return static_cast<int>(id >> 56); }
constexpr int IdProducer(TaskId id) {
  return static_cast<int>((id >> 48) & 0xFFu);
}
constexpr std::uint64_t IdSeq(TaskId id) { return id & 0x0000FFFFFFFFFFFFull; }

struct Task {
  SimTime at = 0;
  SimTime made = 0;       ///< the producer's clock when it scheduled the task
  std::uint32_t sub = 0;  ///< the production round at `made`
  TaskId id = 0;
  std::function<void()> fn;
};

// fargo: domain(sim)
class TaskQueue {
 public:
  void Push(Task t) {
    heap_.push_back(std::move(t));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Tombstones `id`; a no-op for an id that already ran. May compact.
  void Cancel(TaskId id) {
    if (!cancelled_.insert(id).second) return;
    if (++cancels_ > std::max(kCompactFloor, heap_.size() / 2)) Compact();
  }

  /// Moves the first live task due by `limit` into `out`, dropping the
  /// cancelled ones before it. False when none is due.
  bool PopDue(SimTime limit, Task& out) {
    while (!heap_.empty() && heap_.front().at <= limit) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      out = std::move(heap_.back());
      heap_.pop_back();
      if (cancelled_.erase(out.id) == 0) return true;
      out.fn = nullptr;  // destroyed while the queue is consistent
    }
    return false;
  }

  /// When the first live task is due (kNoDue if none): cancelled heads are
  /// dropped so a cancelled time never drags the clock.
  SimTime NextAt() {
    while (!heap_.empty() && cancelled_.erase(heap_.front().id) != 0) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const std::function<void()> dead = std::move(heap_.back().fn);
      heap_.pop_back();
    }
    return heap_.empty() ? kNoDue : heap_.front().at;
  }

  /// Live tasks queued. Linear: tombstones of tasks that already ran never
  /// meet their task, so the two sizes cannot simply be subtracted.
  std::size_t Pending() const {
    return static_cast<std::size_t>(
        std::count_if(heap_.begin(), heap_.end(), [this](const Task& t) {
          return cancelled_.count(t.id) == 0;
        }));
  }

  /// Destroys every queued closure without running it.
  void Clear() {
    heap_ = {};
    cancelled_.clear();
    cancels_ = 0;
  }

 private:
  static constexpr std::size_t kCompactFloor = 64;

  /// Drops every tombstoned task and its tombstone, re-heaps the rest, and
  /// destroys the dropped closures last.
  void Compact() {
    cancels_ = 0;
    const auto dead =
        std::partition(heap_.begin(), heap_.end(), [this](const Task& t) {
          return cancelled_.count(t.id) == 0;
        });
    std::vector<Task> doomed(std::make_move_iterator(dead),
                             std::make_move_iterator(heap_.end()));
    heap_.erase(dead, heap_.end());
    for (const Task& t : doomed) cancelled_.erase(t.id);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Heap order in the ordering key: true when `a` runs after `b`.
  struct Later {
    bool operator()(const Task& a, const Task& b) const {
      if (a.at != b.at) return a.at > b.at;
      return TieLater(a, b);
    }
    /// The key after `at`. Kept out of line: inlined, it made every heap
    /// comparison branchier, and the sim ran ~40% more host ns per task.
    [[gnu::noinline]] static bool TieLater(const Task& a, const Task& b) {
      if (a.made != b.made) return a.made > b.made;
      if (a.sub != b.sub) return a.sub > b.sub;
      if (Rank(a.id) != Rank(b.id)) return Rank(a.id) > Rank(b.id);
      return IdSeq(a.id) > IdSeq(b.id);
    }
    /// Local work first, then handoffs by producer rank (the conductor
    /// last).
    static int Rank(TaskId id) {
      return IdProducer(id) == IdDest(id) ? 0 : IdProducer(id) + 1;
    }
  };

  std::vector<Task> heap_;
  std::unordered_set<TaskId> cancelled_;
  std::size_t cancels_ = 0;  ///< tombstones added since the last Compact
};

}  // namespace fargo::sim

// Deterministic durable-storage model: the "disk" under the per-Core WAL.
//
// Each named log is an append-only sequence of records split into a durable
// prefix and a volatile tail. Append() lands in the tail (the OS page
// cache); Sync() models an fsync barrier — after the configured fsync
// latency elapses on the simulated clock, the records the barrier covered
// become durable and the returned future settles. A crash (DropVolatile)
// loses the tail, exactly like power loss loses unsynced pages; durable
// records survive. Named blobs (checkpoint images) get the same treatment
// with atomic-replace semantics: the new image becomes visible only when
// its write barrier completes, so a crash mid-checkpoint leaves the old
// image intact.
//
// Everything is in-memory and driven by the shared Scheduler, so recovery
// tests are exactly reproducible; the simulator writes no host files.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/sim/future.h"
#include "src/sim/scheduler.h"

namespace fargo::sim {

/// Thread safety (FARGO_PARALLEL): per-Core WALs live in one Storage, so
/// appends/syncs arrive from every locality; one mutex guards the maps and
/// stats. Barrier completions are scheduled on the issuing locality.
// fargo: domain(sim)
class Storage {
 public:
  explicit Storage(Scheduler& sched) : sched_(sched) {}
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Simulated cost of one write barrier (fsync). Applied per Sync/PutBlob.
  void SetFsyncLatency(SimTime t) {
    std::lock_guard<std::mutex> lk(mu_);
    fsync_latency_ = t;
  }
  SimTime fsync_latency() const {
    std::lock_guard<std::mutex> lk(mu_);
    return fsync_latency_;
  }

  // ==== logs =================================================================

  /// Appends one record to the volatile tail of `log`. Returns the record's
  /// absolute index (stable across truncation).
  std::uint64_t Append(const std::string& log, std::vector<std::uint8_t> record);

  /// Write barrier: settles after the fsync latency, at which point every
  /// record appended before this call is durable. Records appended after
  /// the barrier was issued stay volatile until their own barrier. If the
  /// log crashes (DropVolatile) while the barrier is in flight, the covered
  /// records are lost and the future settles anyway — callers guard with
  /// their own restart epoch.
  Future<Unit> Sync(const std::string& log);

  /// Crash: the volatile tail is lost, in-flight barriers are voided, and a
  /// pending blob replace is discarded. Durable state is untouched.
  void DropVolatile(const std::string& log);

  /// Drops durable records with absolute index < `new_base` (checkpoint
  /// truncation). Volatile records are never truncated.
  void TruncateLog(const std::string& log, std::uint64_t new_base);

  /// Snapshot of the durable records, in append order.
  std::vector<std::vector<std::uint8_t>> ReadDurable(const std::string& log) const;

  /// Absolute index the next Append to `log` would return.
  std::uint64_t NextIndex(const std::string& log) const;
  /// Absolute index of the first durable record (truncation base).
  std::uint64_t BaseIndex(const std::string& log) const;
  std::size_t DurableCount(const std::string& log) const;
  std::size_t VolatileCount(const std::string& log) const;
  std::uint64_t DurableBytes(const std::string& log) const;

  // ==== blobs ================================================================

  /// Atomically replaces the blob `name` once the write barrier completes.
  /// A crash before settlement keeps the previous blob.
  Future<Unit> PutBlob(const std::string& name, std::vector<std::uint8_t> bytes);

  std::optional<std::vector<std::uint8_t>> GetBlob(const std::string& name) const;

  // ==== telemetry ============================================================

  struct Stats {
    std::uint64_t appends = 0;
    std::uint64_t appended_bytes = 0;
    std::uint64_t fsyncs = 0;           ///< barriers issued (logs + blobs)
    std::uint64_t truncated_records = 0;
    std::uint64_t dropped_records = 0;  ///< volatile records lost to crashes
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  struct Log {
    std::uint64_t base = 0;  ///< absolute index of durable.front()
    std::vector<std::vector<std::uint8_t>> durable;
    std::vector<std::vector<std::uint8_t>> tail;
    std::uint64_t epoch = 0;  ///< bumped by DropVolatile; voids barriers
    // Pending atomic blob replace (checkpoint in flight), if any.
    std::optional<std::vector<std::uint8_t>> pending_blob;
  };

  /// Callers hold mu_.
  Log& Named(const std::string& log) { return logs_[log]; }
  const Log* FindNamed(const std::string& log) const;

  Scheduler& sched_;
  mutable std::mutex mu_;  ///< guards every field below
  SimTime fsync_latency_ = Micros(100);
  // Ordered map: deterministic iteration for any future all-logs walk.
  std::map<std::string, Log> logs_;
  std::map<std::string, std::vector<std::uint8_t>> blobs_;
  Stats stats_;
};

}  // namespace fargo::sim

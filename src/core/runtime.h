// The deployment space: one scheduler + one network + the set of Cores.
//
// In the paper each Core runs in its own JVM/OS process across a WAN; here
// all Cores of a run live in one process on a deterministic simulated
// network (DESIGN.md §2), which is what makes the benchmarks reproducible.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/core.h"
#include "src/core/directory.h"
#include "src/core/shard_map.h"
#include "src/monitor/metrics.h"
#include "src/net/network.h"
#include "src/sim/scheduler.h"
#include "src/sim/storage.h"

namespace fargo::core {

/// Deployment knobs. `localities` selects the execution engine:
///   -1 — honor the FARGO_PARALLEL environment variable (default);
///    0 — deterministic single-threaded sim (SimScheduler);
///    N — N localities (ParallelScheduler): the conductor plus N−1
///        worker threads, Cores assigned by `core.id % N` (DESIGN.md
///        §localities).
struct RuntimeOptions {
  int localities = -1;
};

// fargo: domain(core)
class Runtime {
 public:
  Runtime();
  explicit Runtime(const RuntimeOptions& options);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  /// Boots a new Core named `name` (e.g. "acadia") and attaches it to the
  /// network.
  Core& CreateCore(std::string name);

  Core* Find(CoreId id) const;
  Core* FindByName(std::string_view name) const;
  /// All Cores ever created (including shut-down ones, which report
  /// !alive()).
  std::vector<Core*> Cores() const;

  sim::Scheduler& scheduler() { return *scheduler_; }
  /// Locality worker threads (0 = deterministic single-threaded sim).
  int localities() const { return scheduler_->localities(); }
  net::Network& network() { return network_; }
  /// The deployment's durable storage model: per-Core WALs and checkpoint
  /// blobs live here (Core::EnableWal).
  sim::Storage& storage() { return storage_; }

  // -- observability: metrics + causal tracing --------------------------------

  /// Deployment-wide metrics registry. Cores resolve their instruments here
  /// at construction; network drops and duplication copies are hooked in by
  /// the constructor.
  monitor::Registry& metrics() { return metrics_; }
  const monitor::Registry& metrics() const { return metrics_; }

  /// Folds the serialization layer's process-wide buffer telemetry
  /// (serial::GetBufferStats) into the registry: `alloc.count` gains the
  /// Writer allocations and `net.bytes_copied` the regrow copies performed
  /// since the previous sync. Benches and tests call this before reading
  /// either metric; both are deterministic under deterministic scheduling.
  void SyncSerialStats();

  /// Turns span recording on/off for every Core (existing and future).
  void SetTracing(bool on);
  bool tracing() const { return tracing_; }

  /// Merges every Core's span buffer into one Chrome trace-event JSON
  /// stream/file (chrome://tracing, Perfetto). Returns the event count.
  std::size_t WriteTrace(std::ostream& os) const;
  std::size_t DumpTrace(const std::string& path) const;

  /// Enables the directory plane (src/core/directory.h) at the next shard
  /// map version. With `owners`, home shards are spread over them by a
  /// consistent-hash ring (`vnodes` points per shard; Directory::BroadcastMap
  /// distributes the map). With none, each complet's origin Core is its
  /// home: the §7 *home registry*, where a stub whose chain is severed
  /// (e.g. by a crashed Core) consults the home and re-routes. Every live
  /// Core then re-asserts the complets it hosts to their new home shards.
  void EnableDirectory(std::vector<CoreId> owners, std::uint32_t vnodes = 16);
  const ShardMap& shard_map() const { return shard_map_; }
  /// Higher-version-wins map adoption (kDirectoryMap receive path).
  /// Returns true when `map` replaced the installed one.
  bool AdoptShardMap(const ShardMap& map);

  /// Convenience pumps for drivers/tests.
  void RunFor(SimTime d) { scheduler_->RunFor(d); }
  void RunUntilIdle() { scheduler_->RunUntilIdle(); }
  SimTime Now() const { return scheduler_->Now(); }

 private:
  /// Installs `map`; each live Core re-asserts what it hosts, since the
  /// map may have moved its complets' home shards.
  void InstallShardMap(ShardMap map);

  std::unique_ptr<sim::Scheduler> scheduler_;  ///< engine per RuntimeOptions
  sim::Storage storage_{*scheduler_};
  monitor::Registry metrics_;  ///< before network_: the drop hook refers here
  net::Network network_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::uint32_t next_core_id_ = 0;
  ShardMap shard_map_;  ///< installed() iff the directory plane is on
  bool tracing_ = false;
  /// serial::BufferStats values already folded into the registry; the
  /// stats are process-global, the registry is per-Runtime.
  std::uint64_t synced_allocations_ = 0;
  std::uint64_t synced_regrow_bytes_ = 0;
  /// ParallelScheduler telemetry already folded into `locality.*` (only
  /// touched in parallel mode, so sim-mode metric dumps are unchanged).
  std::uint64_t synced_handoffs_ = 0;
  std::uint64_t synced_rounds_ = 0;
};

}  // namespace fargo::core

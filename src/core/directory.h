// The directory plane: location resolution for complets
// (docs/PROTOCOL.md §Directory).
//
// Every complet has one *home shard* — a Core that stores its last
// published location under an epoch stamp. Hosts publish arrivals to the
// shard (kDirectoryPublish); a Core that has lost the trail asks the shard
// (kDirectoryLookup) and re-stamps its tracker from the reply.
//
// The plane is on exactly when the Runtime has a shard map installed
// (Runtime::EnableDirectory), and ShardMap::OwnerOf is its one placement
// function (src/core/shard_map.h):
//   ring    a versioned consistent-hash ring over an explicit owner set,
//           distributed as kDirectoryMap payloads;
//   origin  no owners: every complet's home shard is its origin Core, the
//           "home registry" of §7 (EnableDirectory({})).
// With no map, tracker chains are the only routing state (severed chains
// stay severed — the paper's base system).
#pragma once

#include <cstdint>
#include <map>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/core/wire.h"
#include "src/net/network.h"
#include "src/sim/future.h"

namespace fargo::core {

class Core;

/// One shard-side location record.
struct DirEntry {
  CoreId location;
  std::uint64_t epoch = 0;
  SimTime as_of = -1;
};

// fargo: domain(core)
class Directory {
 public:
  explicit Directory(Core& core) : core_(core) {}

  /// True when a shard map is installed.
  bool enabled() const;

  /// Core owning `id`'s home shard; invalid when the plane is disabled.
  CoreId OwnerOf(ComletId id) const;

  /// Publishes "`id` now lives at `location`" to the owning shard, stamped
  /// `epoch`. `epoch == 0` is a host *assertion* (recovery, reinstall): the
  /// asserting Core provably hosts the complet but does not know its stamp;
  /// the shard keeps or bumps its stored epoch and echoes the authoritative
  /// stamp back as a kTrackerUpdate. No-op when the plane is disabled.
  void Publish(ComletId id, CoreId location, std::uint64_t epoch);

  /// Re-asserts every complet hosted here to its home shard (an epoch-0
  /// Publish each): after WAL recovery, and after a shard map install that
  /// may have moved their homes. No-op when the plane is disabled.
  void AssertHosted();

  /// Asks the home shard for `id`'s location. Resolves with found = false
  /// when the shard has never heard of it (or the plane is disabled);
  /// rejects when the shard is unreachable.
  sim::Future<wire::DirectoryHint> LookupAsync(ComletId id);

  // -- wire handlers (Core::DispatchMessage) ----------------------------------
  void HandlePublish(const net::Message& msg);
  void HandleLookup(const net::Message& msg);
  void HandleMap(const net::Message& msg);

  /// Sends the Runtime's current shard map to every other Core as a
  /// kDirectoryMap payload (higher-version-wins adoption on receipt).
  void BroadcastMap();

  /// WAL replay entry point: reapplies a logged publish without re-logging
  /// or echoing.
  void ApplyFromWal(ComletId id, CoreId location, std::uint64_t epoch,
                    SimTime as_of);

  /// Shard-side store (ordered: WAL sidecars and the shell walk it).
  const std::map<ComletId, DirEntry>& store() const { return store_; }
  /// Drops every shard entry (Core restart; WAL recovery repopulates).
  void Clear() { store_.clear(); }

 private:
  /// Answers a lookup from this Core's own state, preferring live hosting
  /// knowledge over the stored record.
  wire::DirectoryHint LocalHint(ComletId id);
  /// The shard-side merge. Stamped publishes (`epoch > 0`) apply iff
  /// strictly newer than the stored stamp (equal + same location only
  /// refreshes `as_of`); assertions (`epoch == 0`) always win on location
  /// — hosting is ground truth — and are echoed back re-stamped.
  void ApplyPublish(ComletId id, CoreId location, std::uint64_t epoch,
                    SimTime as_of, CoreId publisher);
  /// Echoes the authoritative stamp of an assertion back to the publisher.
  void EchoStamp(ComletId id, const DirEntry& entry, CoreId to);

  Core& core_;
  std::map<ComletId, DirEntry> store_;
};

}  // namespace fargo::core

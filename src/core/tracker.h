// Trackers: per-Core, per-target forwarding entries (§3.1, Fig 2).
//
// Each Core keeps at most one tracker per target complet, no matter how many
// local stubs point at it ("this design enhances scalability"). A tracker
// either points directly at a locally hosted anchor, or forwards to the
// tracker of another Core — successive moves create chains, which the
// runtime shortens on invocation return; trackers left unpointed become
// collectable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/core/fwd.h"

namespace fargo::core {

struct TrackerEntry {
  ComletId target;
  std::string anchor_type;
  /// Non-owning; the Repository owns hosted anchors. Null when forwarding.
  Anchor* local = nullptr;
  /// Next hop when not local.
  CoreId next{};
  /// Number of local stubs currently bound through this tracker.
  int stub_refs = 0;
  /// Forwarding events through this tracker: invocations routed along it
  /// plus chain-shortening rewrites of an existing forward (profiling/bench
  /// telemetry).
  std::uint64_t forwarded = 0;
  /// Directory epoch of this entry's location knowledge. 0 = unstamped
  /// (legacy chain forward, recovered route): any stamped hint may
  /// overwrite it. Stamped entries only yield to strictly newer epochs.
  std::uint64_t hint_epoch = 0;

  bool is_local() const { return local != nullptr; }
};

// fargo: domain(core)
class TrackerTable {
 public:
  /// Returns the tracker for `handle.id`, creating one that forwards to
  /// `handle.last_known` if none exists.
  TrackerEntry& Ensure(const ComletHandle& handle);

  TrackerEntry* Find(ComletId id);
  const TrackerEntry* Find(ComletId id) const;

  /// Points the tracker at a locally hosted anchor. `hint_epoch` is the
  /// directory epoch the install is known at (0 = unstamped).
  TrackerEntry& SetLocal(ComletId id, Anchor& anchor, std::string anchor_type,
                         std::uint64_t hint_epoch = 0);

  /// Points the tracker at another Core (movement / chain shortening).
  /// `hint_epoch` stamps the new knowledge (0 = unstamped legacy forward).
  TrackerEntry& SetForward(ComletId id, CoreId next, std::string anchor_type,
                           std::uint64_t hint_epoch = 0);

  /// Applies an epoch-stamped location hint if it is fresher than what the
  /// table knows: stamped hints overwrite unstamped forwards and strictly
  /// older stamps, never a local anchor or a newer/equal stamp. Creates the
  /// entry when absent. Returns true when the hint was applied.
  bool MergeHint(ComletId id, CoreId location, std::uint64_t hint_epoch,
                 const std::string& anchor_type);

  /// Re-stamps an existing entry's epoch (shard echo after an assertion
  /// publish). No-op when the entry is absent or already newer.
  void Stamp(ComletId id, std::uint64_t hint_epoch);

  /// The hint epoch of a complet hosted here; 0 when it is not hosted here.
  std::uint64_t HostedStamp(ComletId id) const;

  void AddStubRef(ComletId id);
  void DropStubRef(ComletId id);

  /// Drops entries that host nothing locally and have no local stubs —
  /// "trackers that are not pointed at all ... become available for garbage
  /// collection". Returns the number reclaimed.
  std::size_t CollectGarbage();

  std::size_t size() const { return entries_.size(); }

  /// Snapshot for the shell and monitor.
  std::vector<const TrackerEntry*> All() const;

  /// Called after every SetLocal/SetForward with the affected complet. The
  /// async invocation pipeline uses this to wake requests parked on a
  /// missing route instead of polling the table from a nested pump.
  void SetChangeHook(std::function<void(ComletId)> hook) {
    change_hook_ = std::move(hook);
  }

  /// Called after every SetForward with the updated entry's fields. Durable
  /// Cores log repoints through this so recovery can rebuild routes to
  /// complets that left before a crash.
  void SetForwardHook(
      std::function<void(ComletId, CoreId, const std::string&)> hook) {
    forward_hook_ = std::move(hook);
  }

  /// Drops every entry (Core restart; hooks stay installed).
  void Clear() { entries_.clear(); }

 private:
  std::unordered_map<ComletId, TrackerEntry> entries_;
  std::function<void(ComletId)> change_hook_;
  std::function<void(ComletId, CoreId, const std::string&)> forward_hook_;
};

}  // namespace fargo::core

// The Movement unit (Fig 1, §3.3): marshals complet closures under layout
// constraints and migrates them between Cores.
//
// During the object-graph traversal every outgoing complet reference is
// handed to this unit (via the serializer's ref hook), which dispatches on
// the reference's Relocator:
//   - link:      a descriptor (handle + relocator) is written; the target
//                stays tracked through chains.
//   - pull:      a locally hosted target joins the same stream (single
//                inter-Core message); remote targets get a forwarded move
//                request after the primary move commits.
//   - duplicate: a copy of a locally hosted target joins the stream under a
//                freshly minted identity; the original stays. (A remote
//                duplicate target degrades to link with a warning — the
//                paper leaves this case unspecified.)
//   - stamp:     only the target's anchor type is written; the destination
//                re-binds to an equivalent-type local complet, or leaves the
//                reference unbound if none exists.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/core/core.h"
#include "src/net/network.h"
#include "src/serial/bytes.h"
#include "src/sim/future.h"

namespace fargo::core {

/// Statistics of the last outbound move performed by this Core (bench/test
/// telemetry).
struct MoveStats {
  std::size_t complets_moved = 0;       ///< primary + pulled
  std::size_t complets_duplicated = 0;
  std::size_t refs_linked = 0;
  std::size_t refs_stamped = 0;
  std::size_t stream_bytes = 0;
  std::size_t deferred_remote_pulls = 0;
};

// fargo: domain(core)
class MovementUnit {
 public:
  explicit MovementUnit(Core& core) : core_(core) {}

  /// Moves a locally hosted complet (and whatever its references' layout
  /// semantics drag along) to `dest` in one inter-Core message. Marshals
  /// and transitions the complets out synchronously (invocations racing the
  /// stream start parking at once), then settles the returned future when
  /// the destination acknowledges AND every deferred remote pull has run
  /// its course (pull failures are logged, never propagated). Rejects —
  /// after rolling the complets back — when the move fails. `T` is
  /// sim::Unit for Core::MoveAsync and Value (nil) for the `__fargo.move`
  /// method, so neither pays a conversion hop.
  template <class T>
  sim::Future<T> MoveLocalAsync(ComletId primary, CoreId dest,
                                std::string continuation,
                                std::vector<Value> args);

  /// Handles an inbound migration stream.
  void HandleMoveRequest(net::Message msg);

  /// Answers a recovering source's "did txn N from you ever install here?"
  /// from the move-in set (kRecoveryQuery -> kRecoveryReply).
  void HandleRecoveryQuery(const net::Message& msg);

  /// Marks a movement transaction as installed at this (destination) Core;
  /// durable Cores log it (kWalMoveIn). Idempotent.
  void RecordMoveIn(CoreId from, std::uint64_t txn);
  /// Prunes a move-in mark once the source says its commit record is
  /// durable (kCtrlMoveAck): the source will never query that txn again.
  /// Durable Cores log the drop (kWalMoveInAck) so replay converges on the
  /// pruned set. Idempotent.
  void DropMoveIn(CoreId from, std::uint64_t txn);
  bool WasMovedIn(CoreId from, std::uint64_t txn) const {
    return move_ins_.contains({from.value, txn});
  }
  /// Tombstones a movement transaction at this (destination) Core: it was
  /// resolved "never installed" by the source's recovery, so a late copy of
  /// its stream must be rejected rather than installed — the source has
  /// already reinstalled the complets. Durable Cores log it (kWalMoveDead).
  /// Idempotent.
  void RecordDeadTxn(CoreId from, std::uint64_t txn);
  bool IsDeadTxn(CoreId from, std::uint64_t txn) const {
    return dead_txns_.contains({from.value, txn});
  }
  /// (source core value, txn), ordered — WAL checkpoints walk this.
  const std::set<std::pair<std::uint32_t, std::uint64_t>>& move_ins() const {
    return move_ins_;
  }
  /// Tombstoned transactions, same keying — WAL checkpoints walk this too.
  const std::set<std::pair<std::uint32_t, std::uint64_t>>& dead_txns() const {
    return dead_txns_;
  }

  /// Reinstalls the non-duplicate sections of a staged migration stream
  /// that are not already hosted — aborted-move recovery at the source.
  void ReinstallFromStream(const std::vector<std::uint8_t>& stream);

  /// Drops volatile movement state (Core restart).
  void Reset() {
    move_ins_.clear();
    dead_txns_.clear();
  }

  const MoveStats& last_move_stats() const { return stats_; }

 private:
  struct Section {
    ComletId id;
    std::string anchor_type;
    bool is_duplicate = false;
    /// Hint-epoch proposal for the new location: the source entry's stamp
    /// plus one (fresh duplicates propose 1). The destination publishes it;
    /// the home shard applies it only if it outranks the stored epoch.
    std::uint64_t epoch = 0;
    std::shared_ptr<Anchor> anchor;  ///< sending side
  };

  /// One unmarshaled stream section: a decoded (not yet installed) anchor.
  struct DecodedSection {
    ComletId id;
    std::string anchor_type;
    bool is_duplicate = false;
    std::uint64_t epoch = 0;
    std::shared_ptr<Anchor> anchor;
  };
  DecodedSection DecodeSection(serial::Reader& r);

  /// Serializes one complet section; ref hooks may append further sections
  /// to `worklist`. `dup_ids` maps originals to their one-per-move copy so
  /// duplicate references from different sections share a single copy.
  void MarshalSection(serial::Writer& out, const Section& section,
                      CoreId dest, std::vector<Section>& worklist,
                      std::unordered_set<ComletId>& in_stream,
                      std::unordered_map<ComletId, ComletId>& dup_ids,
                      std::vector<ComletId>& deferred_pulls);

  Core& core_;
  MoveStats stats_;
  /// Movement transactions installed here, keyed (source value, txn).
  /// Exactly-once anchor for crash recovery: a recovering source commits
  /// or aborts its in-doubt prepares by whether its txn appears here. A
  /// mark lives until the source acknowledges its commit is durable
  /// (DropMoveIn), so the set holds only moves whose source could still
  /// ask — not one permanent entry per inbound move. Marks from a source
  /// that rolled back without crashing (the lost-reply ambiguity) are never
  /// acked and stay; txn ids are never reused, so they are inert.
  std::set<std::pair<std::uint32_t, std::uint64_t>> move_ins_;
  /// Transactions this Core promised never to install (answered "not
  /// installed" to a kRecoveryQuery): a chaos-delayed or duplicated move
  /// stream arriving after that answer is rejected, not installed — the
  /// source's recovery already reinstalled the complets, so installing here
  /// would duplicate them. Never pruned: only crashed moves mint entries,
  /// and dropping one would re-open the late-stream window.
  std::set<std::pair<std::uint32_t, std::uint64_t>> dead_txns_;
};

}  // namespace fargo::core

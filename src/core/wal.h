// Write-ahead log: durable Cores (§7 future work, "complet persistence").
//
// A durable Core appends every externally visible mutation to a per-Core
// log on the simulated disk (sim::Storage): complet installs and state
// images, executed-reply records (the replay directory's durable twin,
// keyed by session/slot/seq — src/net/session.h), name
// bindings, tracker repoints, directory-shard knowledge, and the two-phase
// movement protocol (PREPARE / COMMIT / ABORT at the source, MOVE-IN at the
// destination). Replies leave the Core only after a write barrier covers
// the records behind them, so anything a peer observed is recoverable.
//
// A checkpoint is a compacted prefix of the log: the index it covers, then
// ordinary records that rebuild the Core as of that index (one install per
// hosted complet, one bind per name, then trackers, directory-shard
// records, replay windows, move-in marks and ceilings). Recovery replays
// checkpoint + log into a restarted Core through one quiet path: no
// arrival hooks, no events, no publishes until the final directory sweep.
// A standby adopts a crashed Core's checkpoint instead as arrivals
// (Core::AdoptCheckpoint). A PREPARE with
// no resolution is an in-doubt move: the recovering source queries the
// destination (kRecoveryQuery) — "did txn N from me ever install?" — and
// either completes the commit or aborts and reinstalls the staged stream.
// Combined with at-most-once RPC this yields exactly-once movement across
// crashes: zero lost, zero duplicated complets (docs/PROTOCOL.md
// §Durability).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/common/value.h"
#include "src/net/network.h"
#include "src/serial/bytes.h"
#include "src/sim/future.h"
#include "src/sim/scheduler.h"
#include "src/sim/storage.h"

namespace fargo::monitor {
class Counter;
class Histogram;
}  // namespace fargo::monitor

namespace fargo::core {

class Core;
class Anchor;

// WAL record discriminators. Every kind must have a WriteXxxRecord /
// ReadXxxRecord codec pair below (fargolint `wal-record-coverage` enforces
// this: a record that can be written but not replayed is data loss).
inline constexpr std::uint8_t kWalInstall = 1;  ///< complet hosted (image)
inline constexpr std::uint8_t kWalState = 2;    ///< post-dispatch state image
inline constexpr std::uint8_t kWalExec = 3;     ///< cached reply (slot twin)
inline constexpr std::uint8_t kWalBind = 4;     ///< name binding
inline constexpr std::uint8_t kWalTracker = 5;  ///< tracker forward repoint
inline constexpr std::uint8_t kWalDirPublish = 6;  ///< directory-shard knowledge
inline constexpr std::uint8_t kWalMeta = 7;     ///< id/correlation ceilings
inline constexpr std::uint8_t kWalPrepare = 8;  ///< move txn staged at source
inline constexpr std::uint8_t kWalCommit = 9;   ///< move txn acked by dest
inline constexpr std::uint8_t kWalAbort = 10;   ///< move txn rolled back
inline constexpr std::uint8_t kWalMoveIn = 11;  ///< move txn installed (dest)
inline constexpr std::uint8_t kWalRemove = 12;  ///< complet un-hosted (unwind)
inline constexpr std::uint8_t kWalMoveInAck = 13;  ///< move-in mark pruned (dest)
inline constexpr std::uint8_t kWalMoveDead = 14;  ///< txn tombstoned (dest)

const char* WalKindName(std::uint8_t kind);

/// One decoded WAL record; which fields are meaningful depends on `kind`.
struct WalRecord {
  std::uint8_t kind = 0;

  ComletId comlet;            ///< install/state/tracker/dir-publish/remove
  std::string anchor_type;    ///< install/state/tracker
  std::vector<std::uint8_t> image;  ///< install/state: EncodeComletImage body

  CoreId peer;  ///< move-in: source; remove: new host
  net::SessionKey session;             ///< exec: slot-replay key
  std::uint8_t reply_kind = 0;         ///< exec: net::MessageKind
  std::vector<std::uint8_t> reply;     ///< exec: cached reply payload

  std::string name;           ///< bind
  ComletHandle handle;        ///< bind

  CoreId next;                ///< tracker: forward hop
  CoreId location;            ///< dir-publish
  std::uint64_t epoch = 0;    ///< dir-publish: hint epoch
  std::int64_t as_of = 0;     ///< dir-publish

  std::uint64_t comlet_seq = 0;      ///< meta: ComletId ceiling
  std::uint64_t correlation_seq = 0; ///< meta: correlation ceiling
  std::uint64_t txn_seq = 0;         ///< meta: movement txn ceiling

  std::uint64_t txn = 0;      ///< prepare/commit/abort/move-in/move-in-ack
  CoreId dest;                ///< prepare
  ComletId primary;           ///< prepare
  /// prepare: (id, anchor type) of every non-duplicate section.
  std::vector<std::pair<ComletId, std::string>> departing;
  std::vector<std::uint8_t> stream;  ///< prepare: staged migration payload
};

// Per-kind codecs (field-symmetric by construction; fargolint checks them
// like any other Write*/Read* wire pair).
void WriteInstallRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadInstallRecord(serial::Reader& r);
void WriteStateRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadStateRecord(serial::Reader& r);
void WriteExecRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadExecRecord(serial::Reader& r);
void WriteBindRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadBindRecord(serial::Reader& r);
void WriteTrackerRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadTrackerRecord(serial::Reader& r);
void WriteDirPublishRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadDirPublishRecord(serial::Reader& r);
void WriteMetaRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadMetaRecord(serial::Reader& r);
void WritePrepareRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadPrepareRecord(serial::Reader& r);
void WriteCommitRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadCommitRecord(serial::Reader& r);
void WriteAbortRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadAbortRecord(serial::Reader& r);
void WriteMoveInRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadMoveInRecord(serial::Reader& r);
void WriteRemoveRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadRemoveRecord(serial::Reader& r);
void WriteMoveInAckRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadMoveInAckRecord(serial::Reader& r);
void WriteMoveDeadRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadMoveDeadRecord(serial::Reader& r);

/// Kind byte + per-kind body. A record is self-delimiting, so a
/// checkpoint blob holds records back to back.
void WriteWalRecord(serial::Writer& w, const WalRecord& r);
WalRecord ReadWalRecord(serial::Reader& r);
std::vector<std::uint8_t> EncodeWalRecord(const WalRecord& r);
WalRecord DecodeWalRecord(const std::vector<std::uint8_t>& bytes);

/// A decoded checkpoint blob: the log index it covers and the records that
/// rebuild the Core as of that index.
struct CheckpointRecords {
  std::uint64_t covered = 0;
  std::vector<WalRecord> records;
};
/// Throws serial::SerialError on a malformed blob.
CheckpointRecords DecodeCheckpoint(const std::vector<std::uint8_t>& blob);
/// Storage blob holding the last durable checkpoint of the Core named
/// `core_name`.
std::string CheckpointBlobName(const std::string& core_name);

// fargo: domain(core)
class Wal {
 public:
  /// `checkpoint_interval` > 0 arms a checkpoint+truncate `interval` after
  /// each burst of appends (self-arming: an idle Core schedules nothing).
  Wal(Core& core, sim::Storage& storage, SimTime checkpoint_interval);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  const std::string& log_name() const { return name_; }

  // ==== appends (all no-ops while replaying) =================================

  void AppendInstall(const Anchor& anchor);
  void AppendState(const Anchor& anchor);
  /// Logs a completed (session, slot, seq) with its cached reply so a
  /// recovered executor re-derives the replay window and keeps answering
  /// duplicates without re-executing.
  void AppendExec(const net::SessionKey& session, net::MessageKind reply_kind,
                  const std::vector<std::uint8_t>& reply);
  void AppendBind(const std::string& name, const ComletHandle& handle);
  void AppendTracker(ComletId comlet, CoreId next,
                     const std::string& anchor_type);
  /// Logs a directory-shard location record this Core owns (applied by the
  /// Directory's merge; replayed via Directory::ApplyFromWal).
  void AppendDirPublish(ComletId comlet, CoreId location, std::uint64_t epoch,
                        SimTime as_of);
  /// `peer` / `anchor_type` let replay heal the tracker: the complet left
  /// for (or stayed at) `peer`, so the local tracker forwards there.
  void AppendRemove(ComletId comlet, CoreId peer, const std::string& anchor_type);

  /// Mints the next movement transaction id. Never reused across restarts:
  /// crossing the durable ceiling logs a new kWalMeta promise, which the
  /// prepare barrier makes durable before the txn can reach the destination
  /// — so a recovered Core re-mints strictly above every id a destination's
  /// move-in set could answer for.
  std::uint64_t NextTxnId();
  void AppendPrepare(std::uint64_t txn, ComletId primary, CoreId dest,
                     std::vector<std::pair<ComletId, std::string>> departing,
                     std::vector<std::uint8_t> stream);
  void AppendCommit(std::uint64_t txn);
  void AppendAbort(std::uint64_t txn);
  void AppendMoveIn(CoreId from, std::uint64_t txn);
  void AppendMoveInAck(CoreId from, std::uint64_t txn);
  void AppendMoveDead(CoreId from, std::uint64_t txn);

  /// Called by the Core whenever it mints a ComletId or correlation: keeps
  /// a durable ceiling ahead of both counters so a restarted Core can never
  /// re-issue an identity or correlation a peer may have already seen.
  void NoteSequences(std::uint64_t comlet_seq, std::uint64_t correlation_seq);

  /// True once every identity/correlation minted so far sits below a
  /// *durable* kWalMeta promise. While false, outbound requests are held
  /// (Core::SendAsync) — a burst of mints can outrun any number of in-flight
  /// promises, and a correlation a peer saw before its promise was durable
  /// would be re-issued after a crash (stale replies out of replay windows).
  bool SequencesDurable() const;
  /// Settles once SequencesDurable() holds for the counters as of this call
  /// (a barrier covering the latest promise lands). Settles on crash too;
  /// callers guard with the restart epoch.
  sim::Future<sim::Unit> WhenSequencesDurable();

  // ==== durability ===========================================================

  /// Write barrier over everything appended so far.
  sim::Future<sim::Unit> Sync();
  /// The barrier-before-reply idiom: settles once every record appended so
  /// far is durable. Alias of Sync() under the name the invariant is stated
  /// in — dominate any reply/ack egress with
  /// WhenDurable().OnSettle(...), guarded by the restart epoch.
  sim::Future<sim::Unit> WhenDurable() { return Sync(); }
  /// Coalesced background barrier: arms one if none is pending.
  void LazySync();

  /// Saves a checkpoint (covered index + records rebuilding the Core) and
  /// truncates the log behind it, clamped so records of still-open
  /// (unresolved) prepares survive.
  void Checkpoint();

  // ==== crash & recovery =====================================================

  /// Crash hook: loses the volatile tail and stops the checkpoint task.
  void OnCrash();

  /// Replays checkpoint + durable records into the Core (quietly), reseeds
  /// the replay windows, then resolves in-doubt moves by querying their
  /// destinations. Called from Core::Restart after volatile state is reset.
  void Recover();

  /// Movement transactions currently open (prepared, unresolved).
  std::size_t open_txns() const { return open_txns_.size(); }
  bool replaying() const { return replaying_; }

  // ==== telemetry ============================================================

  std::uint64_t records_appended() const { return records_appended_; }
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  std::uint64_t records_replayed() const { return records_replayed_; }
  std::uint64_t checkpoints() const { return checkpoints_; }
  std::uint64_t recoveries() const { return recoveries_; }
  std::uint64_t durable_records() const;
  std::uint64_t durable_bytes() const;

 private:
  struct OpenTxn {
    ComletId primary;
    CoreId dest;
    std::uint64_t first_index = 0;  ///< prepare's absolute log index
    std::vector<std::pair<ComletId, std::string>> departing;
    std::vector<std::uint8_t> stream;
  };

  /// Encodes and appends; returns the record's absolute log index.
  std::uint64_t Append(const WalRecord& rec);
  /// Appends a kWalMeta with the current floors and arms a barrier that, on
  /// settlement, advances the durable floors and releases gated requests.
  void AppendMetaAndSync();
  void DrainSeqWaiters();
  void ApplyRecord(const WalRecord& rec, std::uint64_t index);
  /// Writes the records that rebuild this Core into a checkpoint blob:
  /// installs, binds, non-local trackers, directory-shard records,
  /// replay-window entries, move-in and dead-txn marks, then the ceilings.
  void WriteCheckpointRecords(serial::Writer& blob);
  /// Schedules one checkpoint `checkpoint_interval_` from now unless one is
  /// already pending; every Append re-arms, so quiescent logs stay quiet.
  void ArmCheckpoint();
  void ResolveInDoubt(std::vector<std::uint64_t> txns, SimTime began);
  void QueryInDoubt(std::uint64_t txn, int attempt,
                    const std::shared_ptr<std::size_t>& remaining,
                    SimTime began);
  void FinishRecovery(const std::shared_ptr<std::size_t>& remaining,
                      SimTime began);

  Core& core_;
  sim::Storage& storage_;
  std::string name_;
  bool replaying_ = false;
  bool lazy_sync_armed_ = false;
  /// While recovering: log index the restored checkpoint speaks for.
  /// Records below it replay transaction bookkeeping only — their state
  /// effects are already (or more recently) reflected in the checkpoint.
  std::uint64_t replay_covered_ = 0;
  std::uint64_t next_txn_ = 0;
  // Ordered: in-doubt resolution and truncation clamping iterate this.
  std::map<std::uint64_t, OpenTxn> open_txns_;

  /// Ceilings promised by the last *appended* kWalMeta record; identities,
  /// correlations, and movement txns are re-minted above these after a
  /// restart.
  static constexpr std::uint64_t kSeqStride = 1 << 16;
  std::uint64_t comlet_seq_floor_ = 0;
  std::uint64_t correlation_floor_ = 0;
  std::uint64_t txn_floor_ = 0;

  /// Ceilings whose kWalMeta record a settled barrier covers. Counter
  /// values below these can never be re-issued after a crash; values above
  /// them must not leave the Core yet (SequencesDurable / the request gate).
  std::uint64_t durable_comlet_floor_ = 0;
  std::uint64_t durable_correlation_floor_ = 0;
  /// Requests held until the durable floors pass their captured counters.
  struct SeqWaiter {
    std::uint64_t comlet_seq;
    std::uint64_t correlation_seq;
    sim::Promise<sim::Unit> done;
  };
  std::vector<SeqWaiter> seq_waiters_;
  /// kWalMeta barriers issued but not yet settled: waiter progress guard.
  int metas_in_flight_ = 0;

  bool checkpoint_armed_ = false;
  SimTime checkpoint_interval_ = 0;

  std::uint64_t records_appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t records_replayed_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t recoveries_ = 0;

  monitor::Counter* rec_counter_ = nullptr;
  monitor::Counter* byte_counter_ = nullptr;
  monitor::Counter* fsync_counter_ = nullptr;
  monitor::Counter* replay_counter_ = nullptr;
  monitor::Histogram* recovery_time_ = nullptr;
};

}  // namespace fargo::core

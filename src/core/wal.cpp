#include "src/core/wal.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/core/core.h"
#include "src/core/directory.h"
#include "src/core/movement.h"
#include "src/core/persistence.h"
#include "src/core/wire.h"
#include "src/monitor/metrics.h"

namespace fargo::core {

namespace {
/// In-doubt destination queries retry this many times (with linear backoff)
/// before giving up and leaving the transaction open. A permanently dead
/// destination keeps its prepares in-doubt forever — the staged stream stays
/// pinned in the log and the complet stays unavailable, which is exactly the
/// outcome a non-durable FarGo deployment gets when a Core dies mid-move.
constexpr int kMaxInDoubtAttempts = 10;
}  // namespace

const char* WalKindName(std::uint8_t kind) {
  switch (kind) {
    case kWalInstall: return "install";
    case kWalState: return "state";
    case kWalExec: return "exec";
    case kWalBind: return "bind";
    case kWalTracker: return "tracker";
    case kWalDirPublish: return "dir-publish";
    case kWalMeta: return "meta";
    case kWalPrepare: return "prepare";
    case kWalCommit: return "commit";
    case kWalAbort: return "abort";
    case kWalMoveIn: return "move-in";
    case kWalRemove: return "remove";
    case kWalMoveInAck: return "move-in-ack";
    case kWalMoveDead: return "move-dead";
  }
  return "unknown";
}

// ==== per-kind codecs =========================================================

void WriteInstallRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteComletId(w, r.comlet);
  w.WriteString(r.anchor_type);
  w.WriteBytes(r.image);
}

WalRecord ReadInstallRecord(serial::Reader& r) {
  WalRecord rec;
  rec.comlet = wire::ReadComletId(r);
  rec.anchor_type = r.ReadString();
  rec.image = r.ReadBytes();
  return rec;
}

void WriteStateRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteComletId(w, r.comlet);
  w.WriteString(r.anchor_type);
  w.WriteBytes(r.image);
}

WalRecord ReadStateRecord(serial::Reader& r) {
  WalRecord rec;
  rec.comlet = wire::ReadComletId(r);
  rec.anchor_type = r.ReadString();
  rec.image = r.ReadBytes();
  return rec;
}

void WriteExecRecord(serial::Writer& w, const WalRecord& r) {
  w.WriteVarint(r.session.origin.value);
  w.WriteVarint(r.session.peer.value);
  w.WriteVarint(r.session.epoch);
  w.WriteVarint(r.session.slot);
  w.WriteVarint(r.session.seq);
  w.WriteU8(r.reply_kind);
  w.WriteBytes(r.reply);
}

WalRecord ReadExecRecord(serial::Reader& r) {
  WalRecord rec;
  rec.session.origin.value = static_cast<std::uint32_t>(r.ReadVarint());
  rec.session.peer.value = static_cast<std::uint32_t>(r.ReadVarint());
  rec.session.epoch = r.ReadVarint();
  rec.session.slot = static_cast<std::uint32_t>(r.ReadVarint());
  rec.session.seq = r.ReadVarint();
  rec.reply_kind = r.ReadU8();
  rec.reply = r.ReadBytes();
  return rec;
}

void WriteBindRecord(serial::Writer& w, const WalRecord& r) {
  w.WriteString(r.name);
  wire::WriteHandle(w, r.handle);
}

WalRecord ReadBindRecord(serial::Reader& r) {
  WalRecord rec;
  rec.name = r.ReadString();
  rec.handle = wire::ReadHandle(r);
  return rec;
}

void WriteTrackerRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteComletId(w, r.comlet);
  wire::WriteCoreId(w, r.next);
  w.WriteString(r.anchor_type);
}

WalRecord ReadTrackerRecord(serial::Reader& r) {
  WalRecord rec;
  rec.comlet = wire::ReadComletId(r);
  rec.next = wire::ReadCoreId(r);
  rec.anchor_type = r.ReadString();
  return rec;
}

void WriteDirPublishRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteComletId(w, r.comlet);
  wire::WriteCoreId(w, r.location);
  w.WriteVarint(r.epoch);
  w.WriteInt(r.as_of);
}

WalRecord ReadDirPublishRecord(serial::Reader& r) {
  WalRecord rec;
  rec.comlet = wire::ReadComletId(r);
  rec.location = wire::ReadCoreId(r);
  rec.epoch = r.ReadVarint();
  rec.as_of = r.ReadInt();
  return rec;
}

void WriteMetaRecord(serial::Writer& w, const WalRecord& r) {
  w.WriteVarint(r.comlet_seq);
  w.WriteVarint(r.correlation_seq);
  w.WriteVarint(r.txn_seq);
}

WalRecord ReadMetaRecord(serial::Reader& r) {
  WalRecord rec;
  rec.comlet_seq = r.ReadVarint();
  rec.correlation_seq = r.ReadVarint();
  rec.txn_seq = r.ReadVarint();
  return rec;
}

void WritePrepareRecord(serial::Writer& w, const WalRecord& r) {
  w.WriteVarint(r.txn);
  wire::WriteComletId(w, r.primary);
  wire::WriteCoreId(w, r.dest);
  w.WriteVarint(r.departing.size());
  for (const auto& [id, type] : r.departing) {
    wire::WriteComletId(w, id);
    w.WriteString(type);
  }
  w.WriteBytes(r.stream);
}

WalRecord ReadPrepareRecord(serial::Reader& r) {
  WalRecord rec;
  rec.txn = r.ReadVarint();
  rec.primary = wire::ReadComletId(r);
  rec.dest = wire::ReadCoreId(r);
  const std::uint64_t n = r.ReadVarint();
  for (std::uint64_t i = 0; i < n; ++i) {
    ComletId id = wire::ReadComletId(r);
    std::string type = r.ReadString();
    rec.departing.emplace_back(id, std::move(type));
  }
  rec.stream = r.ReadBytes();
  return rec;
}

void WriteCommitRecord(serial::Writer& w, const WalRecord& r) {
  w.WriteVarint(r.txn);
}

WalRecord ReadCommitRecord(serial::Reader& r) {
  WalRecord rec;
  rec.txn = r.ReadVarint();
  return rec;
}

void WriteAbortRecord(serial::Writer& w, const WalRecord& r) {
  w.WriteVarint(r.txn);
}

WalRecord ReadAbortRecord(serial::Reader& r) {
  WalRecord rec;
  rec.txn = r.ReadVarint();
  return rec;
}

void WriteMoveInRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteCoreId(w, r.peer);
  w.WriteVarint(r.txn);
}

WalRecord ReadMoveInRecord(serial::Reader& r) {
  WalRecord rec;
  rec.peer = wire::ReadCoreId(r);
  rec.txn = r.ReadVarint();
  return rec;
}

void WriteRemoveRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteComletId(w, r.comlet);
  wire::WriteCoreId(w, r.peer);
  w.WriteString(r.anchor_type);
}

WalRecord ReadRemoveRecord(serial::Reader& r) {
  WalRecord rec;
  rec.comlet = wire::ReadComletId(r);
  rec.peer = wire::ReadCoreId(r);
  rec.anchor_type = r.ReadString();
  return rec;
}

void WriteMoveInAckRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteCoreId(w, r.peer);
  w.WriteVarint(r.txn);
}

WalRecord ReadMoveInAckRecord(serial::Reader& r) {
  WalRecord rec;
  rec.peer = wire::ReadCoreId(r);
  rec.txn = r.ReadVarint();
  return rec;
}

void WriteMoveDeadRecord(serial::Writer& w, const WalRecord& r) {
  wire::WriteCoreId(w, r.peer);
  w.WriteVarint(r.txn);
}

WalRecord ReadMoveDeadRecord(serial::Reader& r) {
  WalRecord rec;
  rec.peer = wire::ReadCoreId(r);
  rec.txn = r.ReadVarint();
  return rec;
}

void WriteWalRecord(serial::Writer& w, const WalRecord& r) {
  w.WriteU8(r.kind);
  switch (r.kind) {
    case kWalInstall: WriteInstallRecord(w, r); break;
    case kWalState: WriteStateRecord(w, r); break;
    case kWalExec: WriteExecRecord(w, r); break;
    case kWalBind: WriteBindRecord(w, r); break;
    case kWalTracker: WriteTrackerRecord(w, r); break;
    case kWalDirPublish: WriteDirPublishRecord(w, r); break;
    case kWalMeta: WriteMetaRecord(w, r); break;
    case kWalPrepare: WritePrepareRecord(w, r); break;
    case kWalCommit: WriteCommitRecord(w, r); break;
    case kWalAbort: WriteAbortRecord(w, r); break;
    case kWalMoveIn: WriteMoveInRecord(w, r); break;
    case kWalRemove: WriteRemoveRecord(w, r); break;
    case kWalMoveInAck: WriteMoveInAckRecord(w, r); break;
    case kWalMoveDead: WriteMoveDeadRecord(w, r); break;
    default:
      throw FargoError("cannot encode wal record of unknown kind " +
                       std::to_string(r.kind));
  }
}

WalRecord ReadWalRecord(serial::Reader& r) {
  const std::uint8_t kind = r.ReadU8();
  WalRecord rec;
  switch (kind) {
    case kWalInstall: rec = ReadInstallRecord(r); break;
    case kWalState: rec = ReadStateRecord(r); break;
    case kWalExec: rec = ReadExecRecord(r); break;
    case kWalBind: rec = ReadBindRecord(r); break;
    case kWalTracker: rec = ReadTrackerRecord(r); break;
    case kWalDirPublish: rec = ReadDirPublishRecord(r); break;
    case kWalMeta: rec = ReadMetaRecord(r); break;
    case kWalPrepare: rec = ReadPrepareRecord(r); break;
    case kWalCommit: rec = ReadCommitRecord(r); break;
    case kWalAbort: rec = ReadAbortRecord(r); break;
    case kWalMoveIn: rec = ReadMoveInRecord(r); break;
    case kWalRemove: rec = ReadRemoveRecord(r); break;
    case kWalMoveInAck: rec = ReadMoveInAckRecord(r); break;
    case kWalMoveDead: rec = ReadMoveDeadRecord(r); break;
    default:
      throw serial::SerialError("wal record of unknown kind " +
                                std::to_string(kind));
  }
  rec.kind = kind;
  return rec;
}

std::vector<std::uint8_t> EncodeWalRecord(const WalRecord& r) {
  serial::Writer w;
  WriteWalRecord(w, r);
  return w.Take();
}

WalRecord DecodeWalRecord(const std::vector<std::uint8_t>& bytes) {
  serial::Reader r(bytes);
  return ReadWalRecord(r);
}

CheckpointRecords DecodeCheckpoint(const std::vector<std::uint8_t>& blob) {
  serial::Reader r(blob);
  CheckpointRecords ckpt;
  ckpt.covered = r.ReadVarint();
  while (!r.AtEnd()) ckpt.records.push_back(ReadWalRecord(r));
  return ckpt;
}

std::string CheckpointBlobName(const std::string& core_name) {
  return "ckpt/" + core_name;
}

// ==== Wal =====================================================================

Wal::Wal(Core& core, sim::Storage& storage, SimTime checkpoint_interval)
    : core_(core),
      storage_(storage),
      name_("wal/" + core.name()),
      checkpoint_interval_(checkpoint_interval) {
  monitor::Registry& reg = core_.metrics();
  rec_counter_ = &reg.counter("wal.records");
  byte_counter_ = &reg.counter("wal.bytes");
  fsync_counter_ = &reg.counter("wal.fsyncs");
  replay_counter_ = &reg.counter("wal.replays");
  recovery_time_ = &reg.histogram("recovery.duration_ns",
                                  monitor::Registry::LatencyBounds());
}

Wal::~Wal() = default;

void Wal::ArmCheckpoint() {
  if (checkpoint_interval_ <= 0 || checkpoint_armed_ || replaying_) return;
  checkpoint_armed_ = true;
  const std::uint64_t epoch = core_.restart_epoch_;
  core_.scheduler().ScheduleAfter(
      checkpoint_interval_,
      // fargolint: allow(capture-this) the Core owns its Wal and outlives the cleared event queue
      [this, epoch] {
        if (!core_.alive_ || core_.restart_epoch_ != epoch) return;
        checkpoint_armed_ = false;
        Checkpoint();
      });
}

std::uint64_t Wal::Append(const WalRecord& rec) {
  std::vector<std::uint8_t> bytes = EncodeWalRecord(rec);
  ++records_appended_;
  bytes_appended_ += bytes.size();
  rec_counter_->Inc();
  byte_counter_->Inc(bytes.size());
  ArmCheckpoint();
  return storage_.Append(name_, std::move(bytes));
}

void Wal::AppendInstall(const Anchor& anchor) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalInstall;
  rec.comlet = anchor.id();
  rec.anchor_type = std::string(anchor.TypeName());
  rec.image = EncodeComletImage(core_, anchor);
  Append(rec);
}

void Wal::AppendState(const Anchor& anchor) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalState;
  rec.comlet = anchor.id();
  rec.anchor_type = std::string(anchor.TypeName());
  rec.image = EncodeComletImage(core_, anchor);
  Append(rec);
}

void Wal::AppendExec(const net::SessionKey& session,
                     net::MessageKind reply_kind,
                     const std::vector<std::uint8_t>& reply) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalExec;
  rec.session = session;
  rec.reply_kind = static_cast<std::uint8_t>(reply_kind);
  rec.reply = reply;
  Append(rec);
}

void Wal::AppendBind(const std::string& name, const ComletHandle& handle) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalBind;
  rec.name = name;
  rec.handle = handle;
  Append(rec);
}

void Wal::AppendTracker(ComletId comlet, CoreId next,
                        const std::string& anchor_type) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalTracker;
  rec.comlet = comlet;
  rec.next = next;
  rec.anchor_type = anchor_type;
  Append(rec);
}

void Wal::AppendDirPublish(ComletId comlet, CoreId location,
                           std::uint64_t epoch, SimTime as_of) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalDirPublish;
  rec.comlet = comlet;
  rec.location = location;
  rec.epoch = epoch;
  rec.as_of = as_of;
  Append(rec);
}

void Wal::AppendRemove(ComletId comlet, CoreId peer,
                       const std::string& anchor_type) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalRemove;
  rec.comlet = comlet;
  rec.peer = peer;
  rec.anchor_type = anchor_type;
  Append(rec);
}

void Wal::AppendPrepare(std::uint64_t txn, ComletId primary, CoreId dest,
                        std::vector<std::pair<ComletId, std::string>> departing,
                        std::vector<std::uint8_t> stream) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalPrepare;
  rec.txn = txn;
  rec.primary = primary;
  rec.dest = dest;
  rec.departing = departing;
  rec.stream = stream;
  const std::uint64_t index = Append(rec);
  OpenTxn& open = open_txns_[txn];
  open.primary = primary;
  open.dest = dest;
  open.first_index = index;
  open.departing = std::move(departing);
  open.stream = std::move(stream);
}

void Wal::AppendCommit(std::uint64_t txn) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalCommit;
  rec.txn = txn;
  Append(rec);
  open_txns_.erase(txn);
}

void Wal::AppendAbort(std::uint64_t txn) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalAbort;
  rec.txn = txn;
  Append(rec);
  open_txns_.erase(txn);
}

void Wal::AppendMoveIn(CoreId from, std::uint64_t txn) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalMoveIn;
  rec.peer = from;
  rec.txn = txn;
  Append(rec);
}

void Wal::AppendMoveInAck(CoreId from, std::uint64_t txn) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalMoveInAck;
  rec.peer = from;
  rec.txn = txn;
  Append(rec);
}

void Wal::AppendMoveDead(CoreId from, std::uint64_t txn) {
  if (replaying_) return;
  WalRecord rec;
  rec.kind = kWalMoveDead;
  rec.peer = from;
  rec.txn = txn;
  Append(rec);
}

std::uint64_t Wal::NextTxnId() {
  const std::uint64_t txn = ++next_txn_;
  if (!replaying_ && txn >= txn_floor_) {
    // Promise a new ceiling before the txn can exist anywhere: the meta
    // record lands in the log ahead of the Prepare, so the barrier that
    // releases the move stream makes it durable first. A destination can
    // therefore only ever hold move-in marks for txns below a durable
    // ceiling, and recovery (which re-mints above that ceiling) can never
    // alias an old mark with a new move.
    txn_floor_ = txn + kSeqStride;
    AppendMetaAndSync();
  }
  return txn;
}

void Wal::NoteSequences(std::uint64_t comlet_seq,
                        std::uint64_t correlation_seq) {
  if (replaying_) return;
  if (comlet_seq < comlet_seq_floor_ && correlation_seq < correlation_floor_)
    return;
  if (comlet_seq >= comlet_seq_floor_)
    comlet_seq_floor_ = comlet_seq + kSeqStride;
  if (correlation_seq >= correlation_floor_)
    correlation_floor_ = correlation_seq + kSeqStride;
  AppendMetaAndSync();
}

void Wal::AppendMetaAndSync() {
  WalRecord rec;
  rec.kind = kWalMeta;
  rec.comlet_seq = comlet_seq_floor_;
  rec.correlation_seq = correlation_floor_;
  rec.txn_seq = txn_floor_;
  Append(rec);
  const std::uint64_t comlet_promise = comlet_seq_floor_;
  const std::uint64_t correlation_promise = correlation_floor_;
  const std::uint64_t epoch = core_.restart_epoch_;
  ++metas_in_flight_;
  Sync().OnSettle(
      // fargolint: allow(capture-this) the Core owns its Wal and outlives the cleared event queue
      [this, comlet_promise, correlation_promise, epoch](sim::Future<sim::Unit>) {
        if (!core_.alive_ || core_.restart_epoch_ != epoch) return;
        --metas_in_flight_;
        durable_comlet_floor_ = std::max(durable_comlet_floor_, comlet_promise);
        durable_correlation_floor_ =
            std::max(durable_correlation_floor_, correlation_promise);
        DrainSeqWaiters();
      });
}

bool Wal::SequencesDurable() const {
  return core_.next_comlet_seq_ < durable_comlet_floor_ &&
         core_.next_correlation_ < durable_correlation_floor_;
}

sim::Future<sim::Unit> Wal::WhenSequencesDurable() {
  if (SequencesDurable())
    return sim::MakeReadyFuture(core_.scheduler(), sim::Unit{});
  seq_waiters_.push_back(SeqWaiter{core_.next_comlet_seq_,
                                   core_.next_correlation_,
                                   sim::Promise<sim::Unit>(core_.scheduler())});
  sim::Future<sim::Unit> f = seq_waiters_.back().done.future();
  // The promised floors always sit above the counters (every mint past one
  // re-promises), but the covering record may live only in a checkpoint
  // sidecar — make sure a *log* barrier carrying them is in flight.
  if (metas_in_flight_ == 0) AppendMetaAndSync();
  return f;
}

void Wal::DrainSeqWaiters() {
  // In arrival order for determinism; unsatisfied waiters stay queued for
  // the next barrier.
  std::vector<SeqWaiter> keep;
  for (SeqWaiter& w : seq_waiters_) {
    if (w.comlet_seq < durable_comlet_floor_ &&
        w.correlation_seq < durable_correlation_floor_) {
      w.done.Resolve(sim::Unit{});
    } else {
      keep.push_back(std::move(w));
    }
  }
  seq_waiters_ = std::move(keep);
  // Leftover waiters need a barrier promising more than any currently in
  // flight delivered; re-promise so they cannot strand.
  if (!seq_waiters_.empty() && metas_in_flight_ == 0) AppendMetaAndSync();
}

sim::Future<sim::Unit> Wal::Sync() {
  fsync_counter_->Inc();
  return storage_.Sync(name_);
}

void Wal::LazySync() {
  if (replaying_ || lazy_sync_armed_) return;
  lazy_sync_armed_ = true;
  const std::uint64_t epoch = core_.restart_epoch_;
  // fargolint: allow(capture-this) the Core owns its Wal and outlives the cleared event queue
  core_.scheduler().ScheduleAfter(0, [this, epoch] {
    lazy_sync_armed_ = false;
    if (core_.alive_ && core_.restart_epoch_ == epoch) Sync();
  });
}

void Wal::WriteCheckpointRecords(serial::Writer& blob) {
  for (ComletId id : core_.ComletsHere()) {
    const std::shared_ptr<Anchor> anchor = core_.repository().Get(id);
    WalRecord rec;
    rec.kind = kWalInstall;
    rec.comlet = id;
    rec.anchor_type = std::string(anchor->TypeName());
    rec.image = EncodeComletImage(core_, *anchor);
    WriteWalRecord(blob, rec);
  }

  for (const auto& [name, handle] : core_.naming().All()) {
    WalRecord rec;
    rec.kind = kWalBind;
    rec.name = name;
    rec.handle = handle;
    WriteWalRecord(blob, rec);
  }

  for (const TrackerEntry* e : core_.trackers_.All()) {
    if (e->is_local()) continue;  // locals are re-derived from the installs
    WalRecord rec;
    rec.kind = kWalTracker;
    rec.comlet = e->target;
    rec.next = e->next;
    rec.anchor_type = e->anchor_type;
    WriteWalRecord(blob, rec);
  }

  // The shard store is an ordered map, so the checkpoint is deterministic.
  for (const auto& [id, entry] : core_.directory().store()) {
    WalRecord rec;
    rec.kind = kWalDirPublish;
    rec.comlet = id;
    rec.location = entry.location;
    rec.epoch = entry.epoch;
    rec.as_of = entry.as_of;
    WriteWalRecord(blob, rec);
  }

  for (const net::ReplayDirectory::SeedEntry& e : core_.replay_.Snapshot()) {
    WalRecord rec;
    rec.kind = kWalExec;
    rec.session = e.key;
    rec.reply_kind = static_cast<std::uint8_t>(e.reply_kind);
    rec.reply = e.reply;
    WriteWalRecord(blob, rec);
  }

  for (const auto& [from, txn] : core_.movement().move_ins()) {
    WalRecord rec;
    rec.kind = kWalMoveIn;
    rec.peer = CoreId{from};
    rec.txn = txn;
    WriteWalRecord(blob, rec);
  }

  for (const auto& [from, txn] : core_.movement().dead_txns()) {
    WalRecord rec;
    rec.kind = kWalMoveDead;
    rec.peer = CoreId{from};
    rec.txn = txn;
    WriteWalRecord(blob, rec);
  }

  WalRecord meta;
  meta.kind = kWalMeta;
  meta.comlet_seq =
      std::max(comlet_seq_floor_, core_.next_comlet_seq_ + kSeqStride);
  meta.correlation_seq =
      std::max(correlation_floor_, core_.next_correlation_ + kSeqStride);
  // The txn ceiling must survive checkpoint truncation of resolved
  // Prepare/Commit/Abort records: without it a restarted source re-mints an
  // old txn id and the destination's move-in set answers an in-doubt query
  // for the new move with the old move's verdict.
  meta.txn_seq = std::max(txn_floor_, next_txn_ + kSeqStride);
  comlet_seq_floor_ = meta.comlet_seq;
  correlation_floor_ = meta.correlation_seq;
  txn_floor_ = meta.txn_seq;
  WriteWalRecord(blob, meta);
}

void Wal::Checkpoint() {
  if (replaying_ || !core_.alive_) return;

  // Everything below `covered` is reflected in the checkpoint; truncation
  // is clamped so unresolved prepares (and their staged streams) survive.
  const std::uint64_t covered = storage_.NextIndex(name_);
  std::uint64_t upto = covered;
  for (const auto& [txn, open] : open_txns_)
    upto = std::min(upto, open.first_index);

  serial::Writer blob;
  blob.WriteVarint(covered);
  WriteCheckpointRecords(blob);

  fsync_counter_->Inc();
  const std::uint64_t epoch = core_.restart_epoch_;
  storage_.PutBlob(CheckpointBlobName(core_.name()), blob.Take())
      // fargolint: allow(capture-this) the Core owns its Wal and outlives the cleared event queue
      .OnSettle([this, epoch, upto](sim::Future<sim::Unit>) {
        // Truncate only once the checkpoint is durable: a crash
        // mid-checkpoint keeps the old one and the untruncated log.
        if (!core_.alive_ || core_.restart_epoch_ != epoch) return;
        storage_.TruncateLog(name_, upto);
        ++checkpoints_;
      });
}

void Wal::OnCrash() {
  checkpoint_armed_ = false;  // the pending task epoch-guards itself away
  lazy_sync_armed_ = false;
  metas_in_flight_ = 0;  // in-flight barriers epoch-guard themselves away
  // Release gated requests: their continuations see the dead Core (or the
  // bumped epoch) and reject rather than send.
  for (SeqWaiter& w : seq_waiters_) w.done.Resolve(sim::Unit{});
  seq_waiters_.clear();
  storage_.DropVolatile(name_);
  storage_.DropVolatile(CheckpointBlobName(core_.name()));
}

void Wal::Recover() {
  const SimTime began = core_.scheduler().Now();
  replaying_ = true;
  open_txns_.clear();
  comlet_seq_floor_ = 0;
  correlation_floor_ = 0;
  txn_floor_ = 0;
  durable_comlet_floor_ = 0;
  durable_correlation_floor_ = 0;
  next_txn_ = 0;
  replay_covered_ = 0;

  if (auto blob = storage_.GetBlob(CheckpointBlobName(core_.name()))) {
    const CheckpointRecords ckpt = DecodeCheckpoint(*blob);
    replay_covered_ = ckpt.covered;
    // The checkpoint speaks as of `covered`, so its records apply fully.
    for (const WalRecord& rec : ckpt.records) ApplyRecord(rec, ckpt.covered);
  }
  std::uint64_t index = storage_.BaseIndex(name_);
  for (const auto& bytes : storage_.ReadDurable(name_))
    ApplyRecord(DecodeWalRecord(bytes), index++);
  replaying_ = false;
  ++recoveries_;

  // Re-mint identities and correlations above every durable promise, plus
  // one extra stride for defense in depth. Nothing the restarted Core mints
  // can leave it before the fresh promise below is durable (the request
  // gate holds SendAsync, the reply barrier holds replies, and the prepare
  // barrier holds move streams), so even a burst of mints that outran every
  // pre-crash barrier cannot be re-issued to a peer that saw them.
  core_.next_comlet_seq_ =
      std::max(core_.next_comlet_seq_, comlet_seq_floor_) + kSeqStride;
  core_.next_correlation_ =
      std::max(core_.next_correlation_, correlation_floor_) + kSeqStride;
  // Movement txns need no extra stride: a txn is only ever exposed after
  // the prepare barrier, which covers the mint-time promise.
  next_txn_ = std::max(next_txn_, txn_floor_);
  comlet_seq_floor_ = core_.next_comlet_seq_ + kSeqStride;
  correlation_floor_ = core_.next_correlation_ + kSeqStride;
  txn_floor_ = next_txn_ + kSeqStride;
  AppendMetaAndSync();

  // Directory sweep: everything hosted here again is re-asserted to its
  // home shard, which echoes the authoritative stamp back, so severed
  // references can re-route.
  core_.directory().AssertHosted();

  std::vector<std::uint64_t> txns;
  txns.reserve(open_txns_.size());
  for (const auto& [txn, open] : open_txns_) txns.push_back(txn);
  if (!txns.empty())
    LogInfo() << core_.name() << ": " << txns.size()
              << " in-doubt move txn(s) after replay; querying destinations";
  ResolveInDoubt(std::move(txns), began);
}

void Wal::ApplyRecord(const WalRecord& rec, std::uint64_t index) {
  ++records_replayed_;
  replay_counter_->Inc();
  // Records below the checkpoint's covered index replay transaction
  // bookkeeping only: their state effects are already reflected (possibly
  // more recently) in the restored checkpoint.
  const bool pre_checkpoint = index < replay_covered_;
  switch (rec.kind) {
    case kWalInstall:
    case kWalState:
      if (!pre_checkpoint) core_.RestoreComlet(rec.comlet, rec.image);
      break;
    case kWalExec:
      if (!pre_checkpoint)
        core_.replay_.Seed(rec.session,
                           static_cast<net::MessageKind>(rec.reply_kind),
                           rec.reply);
      break;
    case kWalBind:
      if (!pre_checkpoint) core_.naming_.Bind(rec.name, rec.handle);
      break;
    case kWalTracker:
      if (!pre_checkpoint && !core_.repository_.Contains(rec.comlet))
        core_.trackers_.SetForward(rec.comlet, rec.next, rec.anchor_type);
      break;
    case kWalDirPublish:
      if (!pre_checkpoint)
        core_.directory().ApplyFromWal(rec.comlet, rec.location, rec.epoch,
                                       rec.as_of);
      break;
    case kWalMeta:
      comlet_seq_floor_ = std::max(comlet_seq_floor_, rec.comlet_seq);
      correlation_floor_ = std::max(correlation_floor_, rec.correlation_seq);
      txn_floor_ = std::max(txn_floor_, rec.txn_seq);
      break;
    case kWalPrepare: {
      next_txn_ = std::max(next_txn_, rec.txn);
      OpenTxn& open = open_txns_[rec.txn];
      open.primary = rec.primary;
      open.dest = rec.dest;
      open.first_index = index;
      open.departing = rec.departing;
      open.stream = rec.stream;
      if (!pre_checkpoint) {
        for (const auto& [id, type] : rec.departing) {
          core_.repository_.Remove(id);
          core_.trackers_.SetForward(id, rec.dest, type);
        }
      }
      break;
    }
    case kWalCommit:
      next_txn_ = std::max(next_txn_, rec.txn);
      open_txns_.erase(rec.txn);
      break;
    case kWalAbort: {
      next_txn_ = std::max(next_txn_, rec.txn);
      auto it = open_txns_.find(rec.txn);
      if (it != open_txns_.end()) {
        // A pre-checkpoint abort's reinstall is already in the checkpoint.
        if (!pre_checkpoint)
          core_.movement().ReinstallFromStream(it->second.stream);
        open_txns_.erase(it);
      }
      break;
    }
    case kWalMoveIn:
      core_.movement().RecordMoveIn(rec.peer, rec.txn);
      break;
    case kWalMoveInAck:
      core_.movement().DropMoveIn(rec.peer, rec.txn);
      break;
    case kWalMoveDead:
      core_.movement().RecordDeadTxn(rec.peer, rec.txn);
      break;
    case kWalRemove:
      if (!pre_checkpoint) {
        core_.repository_.Remove(rec.comlet);
        core_.trackers_.SetForward(rec.comlet, rec.peer, rec.anchor_type);
      }
      break;
    default:
      throw serial::SerialError("wal replay hit record of unknown kind " +
                                std::to_string(rec.kind));
  }
}

void Wal::ResolveInDoubt(std::vector<std::uint64_t> txns, SimTime began) {
  if (txns.empty()) {
    recovery_time_->Observe(
        static_cast<double>(core_.scheduler().Now() - began));
    return;
  }
  auto remaining = std::make_shared<std::size_t>(txns.size());
  for (std::uint64_t txn : txns) QueryInDoubt(txn, 0, remaining, began);
}

void Wal::QueryInDoubt(std::uint64_t txn, int attempt,
                       const std::shared_ptr<std::size_t>& remaining,
                       SimTime began) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) {
    FinishRecovery(remaining, began);
    return;
  }
  const CoreId dest = it->second.dest;
  serial::Writer w;
  w.WriteVarint(txn);
  const std::uint64_t epoch = core_.restart_epoch_;
  core_.SendAsync(dest, net::MessageKind::kRecoveryQuery, w.Take())
      // fargolint: allow(capture-this) the Core owns its Wal and outlives the cleared event queue
      .OnSettle([this, txn, attempt, remaining, began, epoch](
                    sim::Future<std::vector<std::uint8_t>> f) {
        if (!core_.alive_ || core_.restart_epoch_ != epoch) return;
        auto open = open_txns_.find(txn);
        if (open == open_txns_.end()) {
          FinishRecovery(remaining, began);
          return;
        }
        if (f.ok()) {
          bool committed = false;
          bool parsed = false;
          try {
            serial::Reader r(f.value());
            wire::CheckOk(r);
            committed = r.ReadBool();
            parsed = true;
          } catch (const std::exception& e) {
            LogWarn() << core_.name() << ": recovery query for txn " << txn
                      << " got an unusable reply (" << e.what()
                      << "); retrying";
          }
          if (parsed) {
            if (committed) {
              const CoreId commit_dest = open->second.dest;
              AppendCommit(txn);
              // Once the commit is durable this source will never ask about
              // the txn again — tell the destination so it can prune its
              // move-in mark (movement.h).
              Sync().OnSettle(
                  // fargolint: allow(capture-this) the Core owns its Wal and outlives the cleared event queue
                  [this, commit_dest, txn, epoch](sim::Future<sim::Unit>) {
                    if (!core_.alive_ || core_.restart_epoch_ != epoch) return;
                    core_.SendMoveAck(commit_dest, txn);
                  });
              FinishRecovery(remaining, began);
              return;
            } else {
              // The destination never installed it: the move is off, the
              // staged image is the complet.
              const std::vector<std::uint8_t> stream = open->second.stream;
              AppendAbort(txn);
              core_.movement().ReinstallFromStream(stream);
            }
            Sync();
            FinishRecovery(remaining, began);
            return;
          }
        }
        if (attempt + 1 < kMaxInDoubtAttempts) {
          core_.scheduler().ScheduleAfter(
              Millis(250) * (attempt + 1),
              // fargolint: allow(capture-this) the Core owns its Wal and outlives the cleared event queue
              [this, txn, attempt, remaining, began, epoch] {
                if (!core_.alive_ || core_.restart_epoch_ != epoch) return;
                QueryInDoubt(txn, attempt + 1, remaining, began);
              });
          return;
        }
        LogWarn() << core_.name() << ": move txn " << txn
                  << " still in doubt after " << kMaxInDoubtAttempts
                  << " queries to core " << open->second.dest.value
                  << "; leaving it open (pins the wal, complet unavailable)";
        FinishRecovery(remaining, began);
      });
}

void Wal::FinishRecovery(const std::shared_ptr<std::size_t>& remaining,
                         SimTime began) {
  if (*remaining == 0) return;
  if (--*remaining == 0)
    recovery_time_->Observe(
        static_cast<double>(core_.scheduler().Now() - began));
}

std::uint64_t Wal::durable_records() const {
  return storage_.DurableCount(name_);
}

std::uint64_t Wal::durable_bytes() const {
  return storage_.DurableBytes(name_);
}

}  // namespace fargo::core

// Durable Cores: WAL record codecs, crash/replay recovery, reply write
// barriers, checkpoint truncation, and a crash-point sweep over the
// two-phase movement protocol (exactly-once across restarts).
#include "src/core/wal.h"

#include <gtest/gtest.h>

#include "src/net/formation.h"
#include "src/serial/frame.h"
#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using core::DecodeWalRecord;
using core::EncodeWalRecord;
using core::Wal;
using core::WalRecord;

class WalTest : public FargoTest {};

TEST_F(WalTest, EveryRecordKindRoundTrips) {
  const ComletId id{CoreId{3}, 41};
  const CoreId peer{9};

  WalRecord install;
  install.kind = core::kWalInstall;
  install.comlet = id;
  install.anchor_type = "test.Counter";
  install.image = {1, 2, 3};
  WalRecord got = DecodeWalRecord(EncodeWalRecord(install));
  EXPECT_EQ(got.kind, core::kWalInstall);
  EXPECT_EQ(got.comlet, id);
  EXPECT_EQ(got.anchor_type, "test.Counter");
  EXPECT_EQ(got.image, install.image);

  WalRecord state = install;
  state.kind = core::kWalState;
  got = DecodeWalRecord(EncodeWalRecord(state));
  EXPECT_EQ(got.kind, core::kWalState);
  EXPECT_EQ(got.image, state.image);

  WalRecord exec;
  exec.kind = core::kWalExec;
  exec.session = net::SessionKey{CoreId{4}, peer, 2, 9, 77};
  exec.reply_kind = static_cast<std::uint8_t>(net::MessageKind::kInvokeReply);
  exec.reply = {9, 9};
  got = DecodeWalRecord(EncodeWalRecord(exec));
  EXPECT_EQ(got.kind, core::kWalExec);
  EXPECT_EQ(got.session, exec.session);
  EXPECT_EQ(got.reply_kind, exec.reply_kind);
  EXPECT_EQ(got.reply, exec.reply);

  WalRecord bind;
  bind.kind = core::kWalBind;
  bind.name = "msg";
  bind.handle = ComletHandle{id, peer, "test.Message"};
  got = DecodeWalRecord(EncodeWalRecord(bind));
  EXPECT_EQ(got.kind, core::kWalBind);
  EXPECT_EQ(got.name, "msg");
  EXPECT_EQ(got.handle.id, id);
  EXPECT_EQ(got.handle.last_known, peer);

  WalRecord tracker;
  tracker.kind = core::kWalTracker;
  tracker.comlet = id;
  tracker.next = peer;
  tracker.anchor_type = "test.Counter";
  got = DecodeWalRecord(EncodeWalRecord(tracker));
  EXPECT_EQ(got.kind, core::kWalTracker);
  EXPECT_EQ(got.next, peer);

  WalRecord dir_publish;
  dir_publish.kind = core::kWalDirPublish;
  dir_publish.comlet = id;
  dir_publish.location = peer;
  dir_publish.epoch = 7;
  dir_publish.as_of = 12345;
  got = DecodeWalRecord(EncodeWalRecord(dir_publish));
  EXPECT_EQ(got.kind, core::kWalDirPublish);
  EXPECT_EQ(got.location, peer);
  EXPECT_EQ(got.epoch, 7u);
  EXPECT_EQ(got.as_of, 12345);

  WalRecord meta;
  meta.kind = core::kWalMeta;
  meta.comlet_seq = 1u << 20;
  meta.correlation_seq = 1u << 21;
  meta.txn_seq = 1u << 22;
  got = DecodeWalRecord(EncodeWalRecord(meta));
  EXPECT_EQ(got.kind, core::kWalMeta);
  EXPECT_EQ(got.comlet_seq, meta.comlet_seq);
  EXPECT_EQ(got.correlation_seq, meta.correlation_seq);
  EXPECT_EQ(got.txn_seq, meta.txn_seq);

  WalRecord prepare;
  prepare.kind = core::kWalPrepare;
  prepare.txn = 5;
  prepare.primary = id;
  prepare.dest = peer;
  prepare.departing = {{id, "test.Counter"}};
  prepare.stream = {4, 5, 6, 7};
  got = DecodeWalRecord(EncodeWalRecord(prepare));
  EXPECT_EQ(got.kind, core::kWalPrepare);
  EXPECT_EQ(got.txn, 5u);
  EXPECT_EQ(got.primary, id);
  EXPECT_EQ(got.dest, peer);
  ASSERT_EQ(got.departing.size(), 1u);
  EXPECT_EQ(got.departing[0].first, id);
  EXPECT_EQ(got.departing[0].second, "test.Counter");
  EXPECT_EQ(got.stream, prepare.stream);

  WalRecord commit;
  commit.kind = core::kWalCommit;
  commit.txn = 5;
  got = DecodeWalRecord(EncodeWalRecord(commit));
  EXPECT_EQ(got.kind, core::kWalCommit);
  EXPECT_EQ(got.txn, 5u);

  WalRecord abort;
  abort.kind = core::kWalAbort;
  abort.txn = 6;
  got = DecodeWalRecord(EncodeWalRecord(abort));
  EXPECT_EQ(got.kind, core::kWalAbort);
  EXPECT_EQ(got.txn, 6u);

  WalRecord movein;
  movein.kind = core::kWalMoveIn;
  movein.peer = peer;
  movein.txn = 7;
  got = DecodeWalRecord(EncodeWalRecord(movein));
  EXPECT_EQ(got.kind, core::kWalMoveIn);
  EXPECT_EQ(got.peer, peer);
  EXPECT_EQ(got.txn, 7u);

  WalRecord moveinack;
  moveinack.kind = core::kWalMoveInAck;
  moveinack.peer = peer;
  moveinack.txn = 7;
  got = DecodeWalRecord(EncodeWalRecord(moveinack));
  EXPECT_EQ(got.kind, core::kWalMoveInAck);
  EXPECT_EQ(got.peer, peer);
  EXPECT_EQ(got.txn, 7u);

  WalRecord movedead;
  movedead.kind = core::kWalMoveDead;
  movedead.peer = peer;
  movedead.txn = 8;
  got = DecodeWalRecord(EncodeWalRecord(movedead));
  EXPECT_EQ(got.kind, core::kWalMoveDead);
  EXPECT_EQ(got.peer, peer);
  EXPECT_EQ(got.txn, 8u);

  WalRecord remove;
  remove.kind = core::kWalRemove;
  remove.comlet = id;
  remove.peer = peer;
  remove.anchor_type = "test.Counter";
  got = DecodeWalRecord(EncodeWalRecord(remove));
  EXPECT_EQ(got.kind, core::kWalRemove);
  EXPECT_EQ(got.comlet, id);
  EXPECT_EQ(got.peer, peer);
}

TEST_F(WalTest, DurableCoreRecoversStateNamesAndIdentity) {
  auto cores = MakeCores(2);
  cores[0]->EnableWal();
  auto counter = cores[0]->New<Counter>();
  counter.Call("increment", {Value(41)});
  auto msg = cores[0]->New<Message>("durable");
  cores[0]->BindName("msg", msg);
  rt.RunUntilIdle();  // let the write barriers settle

  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();

  EXPECT_TRUE(cores[0]->repository().Contains(counter.target()));
  EXPECT_TRUE(cores[0]->repository().Contains(msg.target()));
  auto ref = cores[0]->RefTo<Counter>(
      ComletHandle{counter.target(), cores[0]->id(), "test.Counter"});
  EXPECT_EQ(ref.Invoke<std::int64_t>("get"), 41);
  auto named = cores[0]->naming().Lookup("msg");
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->id, msg.target());
  EXPECT_GE(cores[0]->wal()->recoveries(), 1u);
}

TEST_F(WalTest, CheckpointedComletsRecoverQuietly) {
  // Recovery replays a checkpoint through the same quiet path as the log:
  // no arrival hooks, no completArrived, and one directory publish per
  // hosted complet (the final sweep), not one more per install.
  rt.EnableDirectory({});
  auto cores = MakeCores(1);
  Wal& wal = cores[0]->EnableWal(/*checkpoint_interval=*/0);
  auto msg = cores[0]->New<Message>("checkpointed");
  cores[0]->New<Counter>();
  rt.RunUntilIdle();
  wal.Checkpoint();
  rt.RunUntilIdle();
  ASSERT_EQ(wal.durable_records(), 0u);  // everything is in the checkpoint
  const int pre_arrivals =
      std::dynamic_pointer_cast<Message>(
          cores[0]->repository().Get(msg.target()))->pre_arrivals;

  int arrived = 0;
  cores[0]->events().Listen(monitor::EventKind::kComletArrived,
                            [&arrived](const monitor::Event&) { ++arrived; });
  const std::uint64_t publishes = rt.metrics().CounterValue("dir.publishes");
  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();

  auto restored = std::dynamic_pointer_cast<Message>(
      cores[0]->repository().Get(msg.target()));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->text(), "checkpointed");
  EXPECT_EQ(restored->pre_arrivals, pre_arrivals);
  EXPECT_EQ(arrived, 0);
  EXPECT_EQ(rt.metrics().CounterValue("dir.publishes") - publishes,
            cores[0]->repository().size());
  EXPECT_EQ(cores[0]->repository().size(), 2u);
}

TEST_F(WalTest, NonDurableRestartComesUpEmpty) {
  auto cores = MakeCores(1);
  auto counter = cores[0]->New<Counter>();
  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  EXPECT_TRUE(cores[0]->alive());
  EXPECT_FALSE(cores[0]->repository().Contains(counter.target()));
  EXPECT_EQ(cores[0]->repository().size(), 0u);
}

TEST_F(WalTest, RestartFiresRecoveredEventAndCountsIt) {
  auto cores = MakeCores(1);
  cores[0]->EnableWal();
  int recovered = 0;
  cores[0]->events().Listen(monitor::EventKind::kCoreRecovered,
                            [&recovered](const monitor::Event&) { ++recovered; });
  rt.RunUntilIdle();
  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  EXPECT_EQ(recovered, 1);
  EXPECT_EQ(rt.metrics().CounterValue("recovery.count"), 1u);
}

TEST_F(WalTest, IdentitiesRestartAboveTheDurableCeiling) {
  // A recovered Core must never re-mint a ComletId a peer may have seen:
  // fresh identities jump past the durable ceiling.
  auto cores = MakeCores(1);
  cores[0]->EnableWal();
  auto before = cores[0]->New<Counter>();
  rt.RunUntilIdle();
  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  auto after = cores[0]->New<Counter>();
  EXPECT_GT(after.target().seq, before.target().seq + 60000);
}

TEST_F(WalTest, ReplyIsWithheldUntilTheExecutionIsDurable) {
  // Host crashes after executing but before the exec record's fsync: the
  // reply was never released, the execution rolls back, and the client's
  // retry re-executes on the recovered Core — observable exactly once.
  auto cores = MakeCores(2);
  rt.storage().SetFsyncLatency(Millis(50));
  cores[0]->EnableWal();
  auto counter = cores[0]->New<Counter>();
  rt.RunUntilIdle();

  core::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = Millis(40);
  cores[1]->SetRetryPolicy(policy);
  cores[1]->SetRpcTimeout(Millis(120));

  auto stub = cores[1]->RefTo<Counter>(counter.handle());
  sim::Future<std::int64_t> f = stub.InvokeAsync<std::int64_t>("increment");
  // Request arrives ~5ms in; its barrier would settle ~55ms in. Crash at
  // 20ms: executed, not yet durable, reply withheld.
  rt.RunFor(Millis(20));
  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();

  ASSERT_TRUE(f.settled());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value(), 1);
  auto ref = cores[0]->RefTo<Counter>(
      ComletHandle{counter.target(), cores[0]->id(), "test.Counter"});
  EXPECT_EQ(ref.Invoke<std::int64_t>("get"), 1);  // once, not twice
}

TEST_F(WalTest, CheckpointTruncatesTheLogAndRecoveryStillWorks) {
  auto cores = MakeCores(1);
  Wal& wal = cores[0]->EnableWal(Millis(100));
  auto counter = cores[0]->New<Counter>();
  for (int i = 0; i < 40; ++i) {
    counter.Call("increment");
    rt.RunFor(Millis(25));
  }
  rt.RunUntilIdle();
  EXPECT_GE(wal.checkpoints(), 4u);
  // Truncation really happened: far fewer durable records than appends.
  EXPECT_LT(wal.durable_records(), wal.records_appended() / 2);

  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  auto ref = cores[0]->RefTo<Counter>(
      ComletHandle{counter.target(), cores[0]->id(), "test.Counter"});
  EXPECT_EQ(ref.Invoke<std::int64_t>("get"), 40);
}

TEST_F(WalTest, TxnIdsRestartAboveTheCeilingAfterCheckpoint) {
  // Checkpoints truncate the resolved Prepare/Commit records a txn counter
  // could be rebuilt from; the ceiling must survive in the sidecar kMeta so
  // a restarted source never reuses a txn id a destination's move-in set
  // still remembers (a reuse would turn an in-doubt abort into a false
  // commit).
  auto cores = MakeCores(2);
  cores[0]->EnableWal();
  cores[1]->EnableWal();
  auto counter = cores[0]->New<Counter>();
  rt.RunUntilIdle();
  cores[0]->MoveAsync(counter, cores[1]->id());
  rt.RunUntilIdle();

  Wal& wal = *cores[0]->wal();
  const std::uint64_t seen = wal.NextTxnId();  // >= every txn a peer saw
  wal.Checkpoint();
  rt.RunUntilIdle();
  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  EXPECT_GT(cores[0]->wal()->NextTxnId(), seen);
}

TEST_F(WalTest, MoveInMarksArePrunedOnceTheSourceCommitIsDurable) {
  // The destination's move-in set anchors in-doubt resolution, but a mark
  // only matters while the source could still ask. After the source's
  // commit record is durable it acks (kCtrlMoveAck) and the mark is
  // dropped — and the drop is logged, so a destination restart converges
  // on the pruned set rather than resurrecting it.
  auto cores = MakeCores(2);
  cores[0]->EnableWal();
  cores[1]->EnableWal();
  auto counter = cores[0]->New<Counter>();
  rt.RunUntilIdle();
  cores[0]->MoveAsync(counter, cores[1]->id());
  rt.RunUntilIdle();

  EXPECT_TRUE(cores[1]->repository().Contains(counter.target()));
  EXPECT_TRUE(cores[1]->movement().move_ins().empty());

  cores[1]->Crash();
  cores[1]->Restart();
  rt.RunUntilIdle();
  EXPECT_TRUE(cores[1]->movement().move_ins().empty());
}

TEST_F(WalTest, RecoveryQueryOvertakingTheMoveStreamPlantsATombstone) {
  // The in-doubt race: the source crashes just after sending its move
  // stream, restarts, and its recovery query overtakes the still-in-flight
  // stream (the network reorders arbitrarily). The destination's "not
  // installed" answer must also durably promise "and I never will" — when
  // the stream finally lands it has to be rejected, or the reinstalled
  // source copy would be silently duplicated (and whichever copy later
  // loses a collapse race takes its applied operations with it).
  auto cores = MakeCores(2);
  cores[0]->EnableWal();
  cores[1]->EnableWal();
  auto counter = cores[0]->New<Counter>();
  counter.Call("increment", {Value(7)});
  rt.RunUntilIdle();

  rt.network().SetLinkOneWay(cores[0]->id(), cores[1]->id(),
                             net::LinkModel{Millis(80), 1.25e6, true});
  cores[0]->MoveAsync(counter, cores[1]->id());
  rt.RunFor(Millis(5));  // prepare durable, stream in flight (80ms away)
  cores[0]->Crash();
  rt.network().SetLinkOneWay(cores[0]->id(), cores[1]->id(),
                             net::LinkModel{Millis(5), 1.25e6, true});
  cores[0]->Restart();  // the query overtakes the stream on the fast link
  rt.RunUntilIdle();

  EXPECT_TRUE(cores[0]->repository().Contains(counter.target()));
  EXPECT_FALSE(cores[1]->repository().Contains(counter.target()));
  auto ref = cores[0]->RefTo<Counter>(
      ComletHandle{counter.target(), cores[0]->id(), "test.Counter"});
  EXPECT_EQ(ref.Invoke<std::int64_t>("get"), 7);
}

TEST_F(WalTest, RequestsWaitForTheIdentityBarrier) {
  // A durable Core may not expose a freshly minted correlation before the
  // kMeta promising its ceiling is durable — otherwise a crash could lose
  // the promise and recovery could re-issue a correlation this peer has
  // already cached a reply under. The request parks in SendAsync until the
  // barrier settles.
  auto cores = MakeCores(2);
  auto counter = cores[1]->New<Counter>();
  rt.RunUntilIdle();

  rt.storage().SetFsyncLatency(Millis(50));
  cores[0]->EnableWal();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());
  sim::Future<std::int64_t> f = stub.InvokeAsync<std::int64_t>("increment");
  // Without the gate the reply lands ~10ms in; the identity barrier holds
  // the request until the ~50ms fsync.
  rt.RunFor(Millis(40));
  EXPECT_FALSE(f.settled());
  rt.RunUntilIdle();
  ASSERT_TRUE(f.settled());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value(), 1);
}

// ---- Sessions × durability --------------------------------------------------
//
// The replay window is volatile; the WAL exec records are its durable twin,
// keyed by the same (session, slot, seq). These tests pin the interaction:
// a recovered executor must re-derive its slot state from the log and
// answer late duplicates without re-executing, a crash must take unsent
// formation frames with it, and recovery traffic must never sit behind a
// formation deadline.

TEST_F(WalTest, RecoveredExecutorAnswersRetriesFromWalWithoutReexecution) {
  // Mid-session crash: the first attempt executes and its exec record (with
  // the session key) becomes durable, but every reply is lost. The host then
  // crashes. The client's retry — same slot, same seq — reaches the
  // RECOVERED host, whose replay window was rebuilt from the WAL: it must
  // answer from the rebuilt slot, not execute the op a second time.
  auto cores = MakeCores(2);
  cores[0]->EnableWal();
  auto ledger = cores[0]->New<OpLedger>();
  rt.RunUntilIdle();

  core::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = Millis(150);
  cores[1]->SetRetryPolicy(policy);
  cores[1]->SetRpcTimeout(Millis(60));

  // Kill the reply direction only: requests arrive, answers vanish.
  rt.network().SetLinkOneWay(cores[0]->id(), cores[1]->id(),
                             net::LinkModel{Millis(5), 1.25e6, false});
  auto stub = cores[1]->RefTo<OpLedger>(ledger.handle());
  sim::Future<std::int64_t> f =
      stub.InvokeAsync<std::int64_t>("apply", std::int64_t{1});
  rt.RunFor(Millis(100));  // executed + durable; reply dropped; retry pending
  cores[0]->Crash();
  cores[0]->Restart();
  rt.network().SetLinkOneWay(cores[0]->id(), cores[1]->id(),
                             net::LinkModel{Millis(5), 1.25e6, true});
  rt.RunUntilIdle();

  ASSERT_TRUE(f.settled());
  ASSERT_TRUE(f.ok()) << "retry against the recovered host failed";
  const auto* anchor =
      static_cast<const OpLedger*>(cores[0]->repository().Get(
          ledger.target()).get());
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(anchor->total(), 1);
  EXPECT_EQ(anchor->dups(), 0) << "recovery re-executed a logged request";
  // The answer really came out of the rebuilt window.
  EXPECT_GT(cores[0]->replay().replays(), 0u);
}

TEST_F(WalTest, CrashDropsQueuedFormationFramesAndEpochFencesTheRestart) {
  // Mid-batch crash: two oneway posts sit in the origin's formation queue
  // (the delay-0 flush has not run yet) when the origin dies. The frame
  // must die with it — nothing half-batched leaks onto the wire — and the
  // restarted origin opens a higher session epoch, so the executor's old
  // window is fenced rather than resurrected.
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  rt.RunUntilIdle();

  auto stub = cores[1]->RefTo<Counter>(counter.handle());
  stub.Post("increment");
  stub.Post("increment");
  EXPECT_GT(cores[1]->formation().queued(), 0u);
  cores[1]->Crash();  // before the flush task fires
  rt.RunUntilIdle();
  auto local = cores[0]->RefTo<Counter>(
      ComletHandle{counter.target(), cores[0]->id(), "test.Counter"});
  EXPECT_EQ(local.Invoke<std::int64_t>("get"), 0)
      << "a discarded formation frame reached the executor";

  cores[1]->Restart();
  rt.RunUntilIdle();
  auto stub2 = cores[1]->RefTo<Counter>(counter.handle());
  EXPECT_EQ(stub2.Invoke<std::int64_t>("increment"), 1);
}

TEST_F(WalTest, RecoveryTrafficIsNeverFormationFramed) {
  // Recovery queries block a restarting Core; replies to them block the
  // querier. Neither may wait out a batch deadline or ride inside a frame —
  // they go straight to the wire. Reuse the query-overtakes-stream scenario
  // (it reliably produces recovery traffic) with a tap that unwraps every
  // batch frame and flags any recovery message found inside one.
  auto cores = MakeCores(2);
  cores[0]->EnableWal();
  cores[1]->EnableWal();
  auto counter = cores[0]->New<Counter>();
  rt.RunUntilIdle();

  std::size_t raw_recovery = 0, framed_recovery = 0;
  rt.network().SetTap([&](const net::Message& m) {
    if (m.kind == net::MessageKind::kRecoveryQuery ||
        m.kind == net::MessageKind::kRecoveryReply) {
      ++raw_recovery;
      return;
    }
    if (m.kind != net::MessageKind::kBatch) return;
    serial::FrameReader frame(m.payload);
    while (frame.HasNext()) {
      serial::Reader item = frame.Next();
      const net::MessageKind kind = net::ReadBatchItem(item).kind;
      if (kind == net::MessageKind::kRecoveryQuery ||
          kind == net::MessageKind::kRecoveryReply)
        ++framed_recovery;
    }
  });

  cores[0]->MoveAsync(counter, cores[1]->id());
  rt.RunFor(Millis(5));  // prepare durable, stream in flight
  cores[0]->Crash();
  cores[0]->Restart();   // recovery queries the destination
  rt.RunUntilIdle();

  EXPECT_GT(raw_recovery, 0u) << "scenario produced no recovery traffic";
  EXPECT_EQ(framed_recovery, 0u)
      << "recovery traffic was delayed behind a formation frame";
}

// ---- Barrier-before-reply crash points --------------------------------------
//
// Two egress paths that historically bypassed the write barrier: the oneway
// slot ack and the directory lookup reply. Both advertise durable state to a
// peer, so both must ride behind the fsync of the records backing them.
// These tests crash the sender inside the volatile window and check that
// nothing escaped before the barrier would have settled.

/// Feeds `fn` every message on the wire, unwrapping batch frames.
template <typename Fn>
void TapUnframed(core::Runtime& rt, Fn fn) {
  rt.network().SetTap([fn = std::move(fn)](const net::Message& m) {
    if (m.kind != net::MessageKind::kBatch) {
      fn(m);
      return;
    }
    serial::FrameReader frame(m.payload);
    while (frame.HasNext()) {
      serial::Reader item = frame.Next();
      fn(net::ReadBatchItem(item));
    }
  });
}

TEST_F(WalTest, SlotAckIsWithheldUntilTheExecRecordIsDurable) {
  // The origin retires a oneway's slot lease when the executor's SlotAck
  // arrives. If the ack escaped while the exec record behind it was still
  // volatile, the executor could crash, forget the execution, and later
  // re-admit the origin's duplicate as fresh — the oneway runs twice.
  constexpr std::uint8_t kCtrlSlotAck = 6;  // control subkind (core.cpp)
  auto cores = MakeCores(2);
  rt.storage().SetFsyncLatency(Millis(50));
  cores[0]->EnableWal();
  auto counter = cores[0]->New<Counter>();
  rt.RunUntilIdle();

  std::size_t acks = 0;
  TapUnframed(rt, [&](const net::Message& m) {
    if (m.kind != net::MessageKind::kControl || m.payload.empty()) return;
    if (m.payload[0] == kCtrlSlotAck) ++acks;
  });

  auto stub = cores[1]->RefTo<Counter>(counter.handle());
  stub.Post("increment");
  // Delivered ~5ms in, executed, exec record appended; its barrier settles
  // ~55ms in. At 20ms the ack must still be parked behind the fsync.
  rt.RunFor(Millis(20));
  EXPECT_EQ(acks, 0u) << "slot ack escaped before the exec record was durable";

  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  // The execution never became durable and its ack never left, so recovery
  // rolling it back is consistent: nobody was told the oneway settled.
  EXPECT_EQ(acks, 0u) << "a parked ack leaked across the restart epoch";
  auto local = cores[0]->RefTo<Counter>(
      ComletHandle{counter.target(), cores[0]->id(), "test.Counter"});
  EXPECT_EQ(local.Invoke<std::int64_t>("get"), 0);

  // The recovered executor still serves oneways, and the ack now arrives —
  // after the barrier.
  stub.Post("increment");
  rt.RunUntilIdle();
  EXPECT_EQ(local.Invoke<std::int64_t>("get"), 1);
  EXPECT_GE(acks, 1u) << "recovered executor never acked the fresh oneway";
}

TEST_F(WalTest, DirectoryReplyIsWithheldUntilThePublishRecordIsDurable) {
  // A durable shard answers lookups from its store; the store is rebuilt
  // from kWalDirPublish records on restart. A reply that leaves before the
  // record's fsync advertises an epoch recovery may then forget — peers
  // would hold hints the authority no longer stands behind.
  auto cores = MakeCores(3);
  rt.storage().SetFsyncLatency(Millis(50));
  cores[0]->EnableWal();
  rt.EnableDirectory({cores[0]->id()});
  rt.RunUntilIdle();

  std::size_t replies = 0;
  TapUnframed(rt, [&](const net::Message& m) {
    if (m.kind == net::MessageKind::kDirectoryReply) ++replies;
  });

  // Install publishes epoch 1 to the shard (~5ms); the lookup lands just
  // after and reads the fresh, still-volatile record. Its reply must wait
  // out the publish record's barrier (~55ms).
  auto msg = cores[1]->New<Message>("beta");
  auto hint = cores[2]->directory().LookupAsync(msg.target());
  rt.RunFor(Millis(30));
  EXPECT_EQ(replies, 0u)
      << "directory reply escaped before the publish record was durable";

  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  // The publish never became durable: the recovered store must not know the
  // location — and critically, no reply ever claimed it did.
  EXPECT_EQ(cores[0]->directory().store().count(msg.target()), 0u);

  // Re-assert the location; a fresh lookup settles once the record is
  // durable, and only then.
  cores[1]->directory().Publish(msg.target(), cores[1]->id(), 1);
  rt.RunUntilIdle();
  auto again = cores[2]->directory().LookupAsync(msg.target());
  rt.RunUntilIdle();
  ASSERT_TRUE(again.settled());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().found);
  EXPECT_EQ(again.value().location, cores[1]->id());
  EXPECT_GT(replies, 0u);
}

// ---- Movement crash-point sweep ---------------------------------------------
//
// Crash the source (or destination) of an in-flight move at every
// millisecond of the protocol's lifetime, restart it, and verify the
// complet exists exactly once with its state intact. Every durable prefix
// of the two-phase protocol must resolve consistently.

enum class CrashSide { kSource, kDest };

void RunMoveCrashPoint(SimTime crash_at, CrashSide side) {
  RegisterTestComlets();
  core::Runtime rt;
  core::Core& src = rt.CreateCore("src");
  core::Core& dst = rt.CreateCore("dst");
  rt.network().SetDefaultLink(net::LinkModel{Millis(5), 1.25e6, true});
  src.EnableWal();
  dst.EnableWal();

  auto counter = src.New<Counter>();
  counter.Call("increment", {Value(7)});
  rt.RunUntilIdle();

  src.MoveAsync(counter, dst.id());  // outcome doesn't matter; survival does
  rt.RunFor(crash_at);
  core::Core& victim = side == CrashSide::kSource ? src : dst;
  victim.Crash();
  victim.Restart();
  rt.RunUntilIdle();

  const int copies = (src.repository().Contains(counter.target()) ? 1 : 0) +
                     (dst.repository().Contains(counter.target()) ? 1 : 0);
  ASSERT_EQ(copies, 1) << "crash_at=" << crash_at << "ns lost or duplicated "
                       << "the complet";
  core::Core& host = src.repository().Contains(counter.target()) ? src : dst;
  auto ref = host.RefTo<Counter>(
      ComletHandle{counter.target(), host.id(), "test.Counter"});
  EXPECT_EQ(ref.Invoke<std::int64_t>("get"), 7)
      << "crash_at=" << crash_at << "ns corrupted the state";
}

TEST(WalMoveCrashSweepTest, SourceCrashAtEveryPointIsExactlyOnce) {
  for (SimTime at = Millis(1); at <= Millis(14); at += Millis(1))
    RunMoveCrashPoint(at, CrashSide::kSource);
}

TEST(WalMoveCrashSweepTest, DestCrashAtEveryPointIsExactlyOnce) {
  for (SimTime at = Millis(1); at <= Millis(14); at += Millis(1))
    RunMoveCrashPoint(at, CrashSide::kDest);
}

}  // namespace
}  // namespace fargo::testing

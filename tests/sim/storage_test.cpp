// The deterministic disk model under the per-Core WAL: append/sync
// barriers, crash (volatile-tail loss), truncation, atomic blob replace.
#include "src/sim/storage.h"

#include <gtest/gtest.h>

#include "src/sim/scheduler.h"

namespace fargo::sim {
namespace {

std::vector<std::uint8_t> Rec(std::uint8_t tag, std::size_t len = 4) {
  return std::vector<std::uint8_t>(len, tag);
}

class StorageTest : public ::testing::Test {
 protected:
  SimScheduler sched;
  Storage disk{sched};
};

TEST_F(StorageTest, AppendsAreVolatileUntilSynced) {
  disk.Append("log", Rec(1));
  disk.Append("log", Rec(2));
  EXPECT_EQ(disk.DurableCount("log"), 0u);
  EXPECT_EQ(disk.VolatileCount("log"), 2u);

  bool synced = false;
  disk.Sync("log").OnSettle([&](Future<Unit>) { synced = true; });
  EXPECT_FALSE(synced);  // the barrier costs fsync latency
  sched.RunUntilIdle();
  EXPECT_TRUE(synced);
  EXPECT_EQ(disk.DurableCount("log"), 2u);
  EXPECT_EQ(disk.VolatileCount("log"), 0u);
}

TEST_F(StorageTest, BarrierCoversOnlyRecordsAppendedBeforeIt) {
  disk.Append("log", Rec(1));
  auto barrier = disk.Sync("log");
  disk.Append("log", Rec(2));  // after the barrier: stays volatile
  sched.RunUntilIdle();
  EXPECT_EQ(disk.DurableCount("log"), 1u);
  EXPECT_EQ(disk.VolatileCount("log"), 1u);
}

TEST_F(StorageTest, AbsoluteIndicesAreStableAcrossTruncation) {
  EXPECT_EQ(disk.Append("log", Rec(1)), 0u);
  EXPECT_EQ(disk.Append("log", Rec(2)), 1u);
  disk.Sync("log");
  sched.RunUntilIdle();
  disk.TruncateLog("log", 1);
  EXPECT_EQ(disk.BaseIndex("log"), 1u);
  EXPECT_EQ(disk.Append("log", Rec(3)), 2u);
  disk.Sync("log");
  sched.RunUntilIdle();
  const auto records = disk.ReadDurable("log");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], Rec(2));
  EXPECT_EQ(records[1], Rec(3));
}

TEST_F(StorageTest, CrashLosesTailButKeepsDurablePrefix) {
  disk.Append("log", Rec(1));
  disk.Sync("log");
  sched.RunUntilIdle();
  disk.Append("log", Rec(2));
  disk.DropVolatile("log");
  EXPECT_EQ(disk.DurableCount("log"), 1u);
  EXPECT_EQ(disk.VolatileCount("log"), 0u);
  EXPECT_EQ(disk.stats().dropped_records, 1u);
  // The next record reuses the lost record's index: a log is a history of
  // what SURVIVED, and index 1 never became durable.
  EXPECT_EQ(disk.NextIndex("log"), 1u);
}

TEST_F(StorageTest, CrashVoidsInFlightBarrierButStillSettlesIt) {
  disk.Append("log", Rec(1));
  bool settled = false;
  disk.Sync("log").OnSettle([&](Future<Unit>) { settled = true; });
  disk.DropVolatile("log");  // crash while the fsync is in flight
  sched.RunUntilIdle();
  EXPECT_TRUE(settled);  // callers epoch-guard; the future must not leak
  EXPECT_EQ(disk.DurableCount("log"), 0u);
}

TEST_F(StorageTest, BlobReplaceIsAtomicAcrossCrashes) {
  disk.PutBlob("ckpt", Rec(1, 8));
  sched.RunUntilIdle();
  ASSERT_TRUE(disk.GetBlob("ckpt").has_value());
  EXPECT_EQ(*disk.GetBlob("ckpt"), Rec(1, 8));

  // A replace that crashes mid-barrier keeps the OLD image.
  disk.PutBlob("ckpt", Rec(2, 8));
  disk.DropVolatile("ckpt");
  sched.RunUntilIdle();
  EXPECT_EQ(*disk.GetBlob("ckpt"), Rec(1, 8));

  // An undisturbed replace lands.
  disk.PutBlob("ckpt", Rec(3, 8));
  sched.RunUntilIdle();
  EXPECT_EQ(*disk.GetBlob("ckpt"), Rec(3, 8));
}

TEST_F(StorageTest, FsyncLatencyIsCharged) {
  disk.SetFsyncLatency(Millis(5));
  disk.Append("log", Rec(1));
  disk.Sync("log");
  sched.RunUntilIdle();
  EXPECT_EQ(sched.Now(), Millis(5));
  EXPECT_EQ(disk.stats().fsyncs, 1u);
}

}  // namespace
}  // namespace fargo::sim

// Persistence (§7 future work): a standby Core adopts a crashed durable
// Core's last checkpoint — including crash recovery onto a different Core,
// where the home registry re-routes surviving references.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

class PersistenceTest : public FargoTest {
 protected:
  /// Makes `core`'s current state its durable checkpoint: enabling the
  /// WAL checkpoints everything the Core already holds.
  void Checkpoint(core::Core& core) {
    core.EnableWal(/*checkpoint_interval=*/0);
    rt.RunUntilIdle();
  }
};

TEST_F(PersistenceTest, AdoptRoundTripsStateIdentityAndBindings) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  counter.Call("increment", {Value(41)});
  auto msg = cores[0]->New<Message>("persisted");
  cores[0]->BindName("msg", msg);
  Checkpoint(*cores[0]);
  cores[0]->Crash();

  const std::vector<ComletId> adopted =
      cores[1]->AdoptCheckpoint(cores[0]->id());
  EXPECT_EQ(adopted.size(), 2u);

  // Identities preserved; state preserved; name bindings carried over.
  EXPECT_TRUE(cores[1]->repository().Contains(counter.target()));
  auto ref = cores[1]->RefFromHandle(
      ComletHandle{counter.target(), cores[1]->id(), "test.Counter"});
  EXPECT_EQ(ref.Call("increment").AsInt(), 42);
  auto named = cores[1]->naming().Lookup("msg");
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->id, msg.target());
}

TEST_F(PersistenceTest, AdoptingFromALiveCoreThrows) {
  // A live source still hosts its complets: adopting them would make a
  // second live copy.
  auto cores = MakeCores(2);
  cores[0]->New<Counter>();
  Checkpoint(*cores[0]);
  EXPECT_THROW(cores[1]->AdoptCheckpoint(cores[0]->id()), FargoError);
  EXPECT_EQ(cores[1]->repository().size(), 0u);
}

TEST_F(PersistenceTest, SecondAdoptSkipsAlreadyHostedComplets) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  Checkpoint(*cores[0]);
  cores[0]->Crash();

  const std::vector<ComletId> first =
      cores[1]->AdoptCheckpoint(cores[0]->id());
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], counter.target());
  // The live copy wins: nothing is adopted twice.
  EXPECT_TRUE(cores[1]->AdoptCheckpoint(cores[0]->id()).empty());
  EXPECT_EQ(cores[1]->repository().size(), 1u);
}

TEST_F(PersistenceTest, ReferencesKeepRelocatorsAcrossAdopt) {
  auto cores = MakeCores(2);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[0]->New<Data>(std::size_t{100});
  worker.Call("bind", {Value(data.handle()), Value("pull")});
  Checkpoint(*cores[0]);
  cores[0]->Crash();
  cores[1]->AdoptCheckpoint(cores[0]->id());

  // The adopted worker kept its pull reference (and it resolves to the
  // adopted data copy, colocated at core1).
  auto ref = cores[1]->RefFromHandle(
      ComletHandle{worker.target(), cores[1]->id(), "test.Worker"});
  EXPECT_EQ(ref.Call("refType").AsString(), "pull");
  EXPECT_EQ(ref.Call("work").AsInt(), 100);
  EXPECT_EQ(ref.Call("dataLocation").AsInt(),
            static_cast<std::int64_t>(cores[1]->id().value));
}

TEST_F(PersistenceTest, CorruptCheckpointIsRejected) {
  auto cores = MakeCores(3);
  cores[0]->New<Counter>();
  Checkpoint(*cores[0]);
  cores[0]->Crash();

  const std::string blob_name = core::CheckpointBlobName(cores[0]->name());
  std::vector<std::uint8_t> blob = *rt.storage().GetBlob(blob_name);
  blob.pop_back();  // the last record runs off the end
  rt.storage().PutBlob(blob_name, blob);
  rt.RunUntilIdle();
  EXPECT_THROW(cores[1]->AdoptCheckpoint(cores[0]->id()),
               serial::SerialError);
  rt.storage().PutBlob(blob_name, {});
  rt.RunUntilIdle();
  EXPECT_THROW(cores[1]->AdoptCheckpoint(cores[0]->id()),
               serial::SerialError);
  EXPECT_EQ(cores[1]->repository().size(), 0u);

  // A Core that never checkpointed has nothing to adopt.
  cores[2]->Crash();
  EXPECT_THROW(cores[1]->AdoptCheckpoint(cores[2]->id()), FargoError);
}

TEST_F(PersistenceTest, CrashRecoveryWithHomeRegistryHealsReferences) {
  // The full recovery story: checkpoint, crash, adopt elsewhere; a
  // remote client's stale reference heals through the home registry.
  rt.EnableDirectory({});
  auto cores = MakeCores(3);
  auto counter = cores[1]->New<Counter>();
  counter.Call("increment", {Value(7)});
  auto client = cores[0]->RefTo<Counter>(counter.handle());
  EXPECT_EQ(client.Invoke<std::int64_t>("get"), 7);

  Checkpoint(*cores[1]);
  cores[1]->Crash();

  cores[0]->SetRpcTimeout(Millis(200));
  EXPECT_THROW(client.Call("get"), UnreachableError);  // host is gone

  // Operator has a standby core adopt the checkpoint.
  cores[2]->AdoptCheckpoint(cores[1]->id());
  rt.RunUntilIdle();
  // NOTE: this complet's home was core1 itself and died with it, so even
  // the registry can't help; the client re-resolves out of band (operator
  // announcement) and repairs its route explicitly:
  cores[0]->trackers().SetForward(counter.target(), cores[2]->id(),
                                  "test.Counter");
  EXPECT_EQ(client.Invoke<std::int64_t>("get"), 7);
}

TEST_F(PersistenceTest, CrashRecoveryHealsWhenHomeSurvives) {
  // Home (origin) core survives; the hosting core crashes; a standby
  // adopts its checkpoint and the OLD stub heals transparently via the
  // home.
  rt.EnableDirectory({});
  auto cores = MakeCores(3);
  auto counter = cores[0]->New<Counter>();  // home: core0
  counter.Call("increment", {Value(3)});
  cores[0]->Move(counter, cores[1]->id());
  rt.RunUntilIdle();

  Checkpoint(*cores[1]);
  cores[1]->Crash();
  cores[2]->AdoptCheckpoint(cores[1]->id());
  rt.RunUntilIdle();  // home (core0) learns: counter @ core2

  cores[0]->SetRpcTimeout(Millis(200));
  // The original stub at core0 still works: chain fails, home heals it.
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 3);
}

}  // namespace
}  // namespace fargo::testing

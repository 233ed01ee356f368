// Persistence (§7 future work): checkpoint/restore of a Core's complets —
// including crash recovery onto a different Core, where the home registry
// re-routes surviving references.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using core::LoadCoreImage;
using core::SaveCoreImage;

class PersistenceTest : public FargoTest {};

TEST_F(PersistenceTest, ImageRoundTripsStateAndIdentity) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  counter.Call("increment", {Value(41)});
  auto msg = cores[0]->New<Message>("persisted");
  cores[0]->BindName("msg", msg);

  std::vector<std::uint8_t> image = SaveCoreImage(*cores[0]);
  auto restored = LoadCoreImage(*cores[1], image);
  EXPECT_EQ(restored.restored.size(), 2u);
  EXPECT_TRUE(restored.skipped.empty());

  // Identities preserved; state preserved; name bindings carried over.
  EXPECT_TRUE(cores[1]->repository().Contains(counter.target()));
  auto ref = cores[1]->RefFromHandle(
      ComletHandle{counter.target(), cores[1]->id(), "test.Counter"});
  EXPECT_EQ(ref.Call("increment").AsInt(), 42);
  auto named = cores[1]->naming().Lookup("msg");
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->id, msg.target());
}

TEST_F(PersistenceTest, RestoreSkipsAlreadyHostedComplets) {
  auto cores = MakeCores(1);
  auto counter = cores[0]->New<Counter>();
  std::vector<std::uint8_t> image = SaveCoreImage(*cores[0]);
  // Each skipped id is announced so recovery code can reconcile.
  std::vector<ComletId> announced;
  cores[0]->events().Listen(
      monitor::EventKind::kComletRestoreSkipped,
      [&announced](const monitor::Event& e) { announced.push_back(e.comlet); });
  auto restored = LoadCoreImage(*cores[0], image);  // restore onto itself
  EXPECT_TRUE(restored.restored.empty());
  ASSERT_EQ(restored.skipped.size(), 1u);
  EXPECT_EQ(restored.skipped[0], counter.target());
  EXPECT_EQ(cores[0]->repository().size(), 1u);
  rt.RunUntilIdle();  // listeners are notified asynchronously
  ASSERT_EQ(announced.size(), 1u);
  EXPECT_EQ(announced[0], counter.target());
}

TEST_F(PersistenceTest, ReferencesKeepRelocatorsAcrossRestore) {
  auto cores = MakeCores(2);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[0]->New<Data>(std::size_t{100});
  worker.Call("bind", {Value(data.handle()), Value("pull")});

  std::vector<std::uint8_t> image = SaveCoreImage(*cores[0]);
  LoadCoreImage(*cores[1], image);

  // The restored worker kept its pull reference (and it resolves to the
  // restored data copy, colocated at core1).
  auto ref = cores[1]->RefFromHandle(
      ComletHandle{worker.target(), cores[1]->id(), "test.Worker"});
  EXPECT_EQ(ref.Call("refType").AsString(), "pull");
  EXPECT_EQ(ref.Call("work").AsInt(), 100);
  EXPECT_EQ(ref.Call("dataLocation").AsInt(),
            static_cast<std::int64_t>(cores[1]->id().value));
}

TEST_F(PersistenceTest, CorruptImageIsRejected) {
  auto cores = MakeCores(1);
  cores[0]->New<Counter>();
  std::vector<std::uint8_t> image = SaveCoreImage(*cores[0]);
  image[0] ^= 0xff;  // break the magic
  auto fresh = MakeCores(1);
  EXPECT_THROW(LoadCoreImage(*cores[0], image), serial::SerialError);
  image.clear();
  EXPECT_THROW(LoadCoreImage(*cores[0], image), serial::SerialError);
}

TEST_F(PersistenceTest, CrashRecoveryWithHomeRegistryHealsReferences) {
  // The full recovery story: checkpoint, crash, restore elsewhere; a
  // remote client's stale reference heals through the home registry.
  rt.EnableDirectory({});
  auto cores = MakeCores(3);
  auto counter = cores[1]->New<Counter>();
  counter.Call("increment", {Value(7)});
  auto client = cores[0]->RefTo<Counter>(counter.handle());
  EXPECT_EQ(client.Invoke<std::int64_t>("get"), 7);

  std::vector<std::uint8_t> checkpoint = SaveCoreImage(*cores[1]);
  cores[1]->Crash();

  cores[0]->SetRpcTimeout(Millis(200));
  EXPECT_THROW(client.Call("get"), UnreachableError);  // host is gone

  // Operator restores the checkpoint on a standby core.
  LoadCoreImage(*cores[2], checkpoint);
  rt.RunUntilIdle();
  // NOTE: this complet's home was core1 itself and died with it, so even
  // the registry can't help; the client re-resolves out of band (operator
  // announcement) and repairs its route explicitly:
  cores[0]->trackers().SetForward(counter.target(), cores[2]->id(),
                                  "test.Counter");
  EXPECT_EQ(client.Invoke<std::int64_t>("get"), 7);
}

TEST_F(PersistenceTest, CrashRecoveryHealsWhenHomeSurvives) {
  // Home (origin) core survives; the hosting core crashes; restore on a
  // standby core and the OLD stub heals transparently via the home.
  rt.EnableDirectory({});
  auto cores = MakeCores(3);
  auto counter = cores[0]->New<Counter>();  // home: core0
  counter.Call("increment", {Value(3)});
  cores[0]->Move(counter, cores[1]->id());
  rt.RunUntilIdle();

  std::vector<std::uint8_t> checkpoint = SaveCoreImage(*cores[1]);
  cores[1]->Crash();
  LoadCoreImage(*cores[2], checkpoint);
  rt.RunUntilIdle();  // home (core0) learns: counter @ core2

  cores[0]->SetRpcTimeout(Millis(200));
  // The original stub at core0 still works: chain fails, home heals it.
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 3);
}

}  // namespace
}  // namespace fargo::testing

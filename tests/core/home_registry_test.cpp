// The location-independent naming scheme (§7 future work, implemented as
// an extension): the directory plane with origin placement, where each
// complet's origin Core doubles as its home registry; severed tracker
// chains recover by consulting the home. Also covers the Crash()
// fault-injection primitive.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

class HomeRegistryTest : public FargoTest {
 protected:
  HomeRegistryTest() { rt.EnableDirectory({}); }
};

// The control group: the directory plane is never enabled.
class NoDirectoryTest : public FargoTest {};

// Asks `from`'s directory endpoint for `id`'s home-shard record.
core::wire::DirectoryHint Lookup(core::Core& from, ComletId id) {
  return sim::Await(from.directory().LookupAsync(id));
}

TEST_F(HomeRegistryTest, HomeTracksArrivals) {
  auto cores = MakeCores(3);
  auto msg = cores[0]->New<Message>("m");
  EXPECT_EQ(Lookup(*cores[0], msg.target()).location, cores[0]->id());
  cores[0]->Move(msg, cores[1]->id());
  rt.RunUntilIdle();  // let the home update land
  EXPECT_EQ(Lookup(*cores[2], msg.target()).location, cores[1]->id());
  cores[1]->MoveId(msg.target(), cores[2]->id());
  rt.RunUntilIdle();
  EXPECT_EQ(Lookup(*cores[0], msg.target()).location, cores[2]->id());
}

TEST_F(HomeRegistryTest, UnknownCompletHasNoLocation) {
  auto cores = MakeCores(2);
  EXPECT_FALSE(Lookup(*cores[1], ComletId{cores[0]->id(), 999}).found);
}

TEST_F(NoDirectoryTest, DisabledRegistryAnswersNothing) {
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  EXPECT_FALSE(Lookup(*cores[1], msg.target()).found);
}

TEST_F(HomeRegistryTest, InvocationSurvivesACrashedChainHop) {
  // beta: core0(home) -> core1 -> core2. core1 crashes abruptly (no flush).
  // A stale observer pointing at core1 recovers via the home registry.
  auto cores = MakeCores(4);
  auto beta = cores[0]->New<Message>("beta");
  cores[0]->Move(beta, cores[1]->id());
  auto observer = cores[3]->RefTo<Message>(beta.handle());
  observer.Call("print");  // observer now points straight at core1
  cores[1]->MoveId(beta.target(), cores[2]->id());
  rt.RunUntilIdle();  // home learns: beta @ core2

  cores[1]->Crash();  // chains through core1 are severed, no flush

  cores[3]->SetRpcTimeout(Millis(200));
  // Without the registry this would throw UnreachableError (see the
  // control test below); with it, one retry lands at core2.
  EXPECT_EQ(observer.Invoke<std::string>("text"), "beta");
  // And the tracker was repaired for subsequent calls.
  const core::TrackerEntry* t = cores[3]->trackers().Find(beta.target());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->next, cores[2]->id());
}

TEST_F(NoDirectoryTest, WithoutRegistryACrashSeversChains) {
  auto cores = MakeCores(4);
  auto beta = cores[0]->New<Message>("beta");
  cores[0]->Move(beta, cores[1]->id());
  auto observer = cores[3]->RefTo<Message>(beta.handle());
  observer.Call("print");
  cores[1]->MoveId(beta.target(), cores[2]->id());
  cores[1]->Crash();
  cores[3]->SetRpcTimeout(Millis(200));
  EXPECT_THROW(observer.Call("text"), UnreachableError);
}

TEST_F(HomeRegistryTest, CrashOfTheTargetItselfStillFails) {
  auto cores = MakeCores(3);
  auto msg = cores[0]->New<Message>("m");
  cores[0]->Move(msg, cores[1]->id());
  rt.RunUntilIdle();
  auto observer = cores[2]->RefTo<Message>(msg.handle());
  cores[1]->Crash();  // the complet itself died with its host
  cores[2]->SetRpcTimeout(Millis(200));
  // The home points at the dead host; retry exhausts and reports failure.
  EXPECT_THROW(observer.Call("text"), UnreachableError);
}

TEST_F(HomeRegistryTest, CrashedHomeDegradesGracefully) {
  auto cores = MakeCores(4);
  auto beta = cores[0]->New<Message>("beta");
  cores[0]->Move(beta, cores[1]->id());
  auto observer = cores[3]->RefTo<Message>(beta.handle());
  observer.Call("print");
  cores[1]->MoveId(beta.target(), cores[2]->id());
  rt.RunUntilIdle();
  // BOTH the chain hop and the home die.
  cores[1]->Crash();
  cores[0]->Crash();
  cores[3]->SetRpcTimeout(Millis(200));
  EXPECT_THROW(observer.Call("text"), UnreachableError);
}

TEST_F(HomeRegistryTest, OutOfOrderHomeUpdatesResolveByTimestamp) {
  // Move the complet rapidly; home updates race over links with different
  // latencies but the home keeps the newest observation.
  auto cores = MakeCores(4);
  // Slow link from core1 to home, fast from core2.
  rt.network().SetLinkOneWay(cores[1]->id(), cores[0]->id(),
                             {Millis(500), 1e9, true});
  auto msg = cores[0]->New<Message>("m");
  cores[0]->Move(msg, cores[1]->id());  // update travels slowly
  cores[1]->MoveId(msg.target(), cores[2]->id());  // update travels fast
  rt.RunFor(Seconds(2));  // both updates have landed, slow one last
  EXPECT_EQ(Lookup(*cores[3], msg.target()).location, cores[2]->id());
}

TEST_F(HomeRegistryTest, MoveCommandsAlsoRecoverViaRetry) {
  // Core::Move routed through a crashed hop recovers because the move
  // command travels as a (retryable) system invocation.
  auto cores = MakeCores(4);
  auto msg = cores[0]->New<Message>("m");
  cores[0]->Move(msg, cores[1]->id());
  auto ref = cores[3]->RefTo<Message>(msg.handle());
  ref.Call("print");
  cores[1]->MoveId(msg.target(), cores[2]->id());
  rt.RunUntilIdle();
  cores[1]->Crash();
  cores[3]->SetRpcTimeout(Millis(200));
  cores[3]->Move(ref, cores[3]->id());  // routed via home after retry
  EXPECT_TRUE(cores[3]->repository().Contains(msg.target()));
}

TEST_F(HomeRegistryTest, CorruptControlMessagesAreDropped) {
  auto cores = MakeCores(2);
  net::Message bad;
  bad.from = cores[1]->id();
  bad.to = cores[0]->id();
  bad.kind = net::MessageKind::kControl;
  bad.payload = {0xff, 0x01};  // unknown subkind / garbage
  rt.network().Send(bad);
  net::Message truncated;
  truncated.from = cores[1]->id();
  truncated.to = cores[0]->id();
  truncated.kind = net::MessageKind::kInvokeRequest;
  truncated.payload = {0x01};  // malformed request
  rt.network().Send(truncated);
  rt.RunUntilIdle();
  // The core survives and still serves.
  auto msg = cores[0]->New<Message>("ok");
  EXPECT_EQ(msg.Invoke<std::string>("text"), "ok");
}

}  // namespace
}  // namespace fargo::testing

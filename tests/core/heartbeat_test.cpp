// Heartbeat failure detector: suspicion after silent crashes, recovery on
// heal, dependency-derived peer sets, and the coreUnreachable script-rule
// path that re-homes complets off a dead Core.
#include "src/core/heartbeat.h"

#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

class HeartbeatTest : public FargoTest {};

TEST_F(HeartbeatTest, WatchedCrashedPeerIsSuspected) {
  auto cores = MakeCores(2, Millis(1));
  core::FailureDetector& fd =
      cores[0]->EnableHeartbeat(Millis(100), /*k_missed=*/3);
  fd.Watch(cores[1]->id());

  std::vector<CoreId> unreachable;
  cores[0]->events().Listen(monitor::EventKind::kCoreUnreachable,
                            [&](const monitor::Event& e) {
                              unreachable.push_back(e.peer);
                            });

  rt.RunFor(Millis(350));
  EXPECT_FALSE(fd.IsSuspected(cores[1]->id()));  // pongs flowing
  EXPECT_GT(fd.pings_sent(), 0u);

  cores[1]->Crash();
  rt.RunFor(Millis(600));  // > k_missed * interval
  EXPECT_TRUE(fd.IsSuspected(cores[1]->id()));
  ASSERT_EQ(unreachable.size(), 1u);
  EXPECT_EQ(unreachable[0], cores[1]->id());
  EXPECT_EQ(fd.suspicions(), 1u);

  cores[0]->DisableHeartbeat();
  rt.RunUntilIdle();  // terminates: the ping timer is gone
  EXPECT_EQ(rt.scheduler().PendingCount(), 0u);
}

TEST_F(HeartbeatTest, RecoveryFiresCoreRecovered) {
  auto cores = MakeCores(2, Millis(1));
  core::FailureDetector& fd = cores[0]->EnableHeartbeat(Millis(100), 2);
  fd.Watch(cores[1]->id());

  int recovered = 0;
  cores[0]->events().Listen(monitor::EventKind::kCoreRecovered,
                            [&](const monitor::Event& e) {
                              ++recovered;
                              EXPECT_EQ(e.peer, cores[1]->id());
                            });

  rt.network().SetPartitioned(cores[0]->id(), cores[1]->id(), true);
  rt.RunFor(Millis(500));
  EXPECT_TRUE(fd.IsSuspected(cores[1]->id()));

  rt.network().SetPartitioned(cores[0]->id(), cores[1]->id(), false);
  rt.RunFor(Millis(500));
  EXPECT_FALSE(fd.IsSuspected(cores[1]->id()));
  EXPECT_EQ(recovered, 1);
  EXPECT_EQ(fd.recoveries(), 1u);
}

TEST_F(HeartbeatTest, TrackerDependenciesArePingedAutomatically) {
  auto cores = MakeCores(3, Millis(1));
  // core0 invokes a complet on core2: its tracker then forwards into
  // core2, so the detector must ping core2 without an explicit Watch.
  auto msg = cores[2]->New<Message>("hi");
  auto stub = cores[0]->RefFromHandle(msg.handle());
  stub.Call("print");

  core::FailureDetector& fd = cores[0]->EnableHeartbeat(Millis(100), 3);
  bool suspected_fired = false;
  cores[0]->events().Listen(
      monitor::EventKind::kCoreUnreachable,
      [&](const monitor::Event&) { suspected_fired = true; });

  cores[2]->Crash();
  rt.RunFor(Seconds(1));
  EXPECT_TRUE(fd.IsSuspected(cores[2]->id()));
  EXPECT_TRUE(suspected_fired);
  // core1 is no dependency of core0 — never suspected, never pinged.
  EXPECT_FALSE(fd.IsSuspected(cores[1]->id()));
}

TEST_F(HeartbeatTest, CrashStopsTheCrashedCoresOwnDetector) {
  auto cores = MakeCores(2, Millis(1));
  cores[0]->EnableHeartbeat(Millis(50), 3).Watch(cores[1]->id());
  cores[1]->EnableHeartbeat(Millis(50), 3).Watch(cores[0]->id());
  cores[1]->Crash();  // must tear down its own ping timer
  cores[0]->DisableHeartbeat();
  rt.RunUntilIdle();  // terminates only if no periodic task survives
  EXPECT_EQ(rt.scheduler().PendingCount(), 0u);
  EXPECT_EQ(cores[1]->failure_detector(), nullptr);
}

TEST_F(HeartbeatTest, ScriptRuleRehomesCompletOffCrashedCore) {
  // The acceptance scenario: a checkpointed complet lives on core2; when
  // core0's detector declares core2 unreachable, a script rule has core0
  // adopt core2's checkpoint — the complet survives the crash.
  auto cores = MakeCores(3, Millis(1));
  auto precious = cores[2]->New<Message>("precious-state");
  cores[2]->naming().Bind("precious", precious.handle());
  // A Core made durable checkpoints everything it already holds.
  cores[2]->EnableWal(/*checkpoint_interval=*/0);

  // Route a call so core0's tracker depends on core2.
  auto stub = cores[0]->RefFromHandle(precious.handle());
  EXPECT_EQ(stub.Call("print").AsString(), "precious-state");

  script::Engine engine(rt, *cores[0]);
  std::vector<CoreId> adopted_from;
  engine.RegisterAction("adopt",
                        [&](script::Engine&, const std::vector<Value>& args) {
                          adopted_from.push_back(CoreId{
                              static_cast<std::uint32_t>(args.at(0).AsInt())});
                          cores[0]->AdoptCheckpoint(adopted_from.back());
                        });
  engine.Run("on coreUnreachable firedby $peer listenAt core0 do\n"
             "  adopt $peer\n"
             "end");

  cores[0]->EnableHeartbeat(Millis(100), 3);
  cores[2]->Crash();
  rt.RunFor(Seconds(1));

  ASSERT_GE(engine.rule_firings(), 1u);
  ASSERT_FALSE(adopted_from.empty());
  EXPECT_EQ(adopted_from[0], cores[2]->id());
  EXPECT_TRUE(cores[0]->repository().Contains(precious.target()));

  // The adopted complet serves invocations again (fresh route from the
  // adopting Core's ground truth).
  auto again = cores[1]->RefFromHandle(
      ComletHandle{precious.target(), cores[0]->id(), ""});
  EXPECT_EQ(again.Call("print").AsString(), "precious-state");

  // No leaked timers: with the detector stopped, the world drains.
  cores[0]->DisableHeartbeat();
  engine.Detach();
  rt.RunUntilIdle();
  EXPECT_EQ(rt.scheduler().PendingCount(), 0u);
}

TEST_F(HeartbeatTest, ReEnableReplacesDetector) {
  auto cores = MakeCores(2, Millis(1));
  core::FailureDetector& first = cores[0]->EnableHeartbeat(Millis(100), 3);
  first.Watch(cores[1]->id());
  core::FailureDetector& second = cores[0]->EnableHeartbeat(Millis(200), 5);
  EXPECT_EQ(cores[0]->failure_detector(), &second);
  EXPECT_EQ(second.interval(), Millis(200));
  cores[0]->DisableHeartbeat();
  rt.RunUntilIdle();
  EXPECT_EQ(rt.scheduler().PendingCount(), 0u);
}

}  // namespace
}  // namespace fargo::testing

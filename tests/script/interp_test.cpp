// Script engine (§4.3): assignments, commands, rules bound to live events —
// including the paper's two-rule example script executed verbatim against a
// deployed application.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using script::Engine;
using script::ScriptError;

class InterpTest : public FargoTest {};

TEST_F(InterpTest, AssignmentsAndArgsBind) {
  auto cores = MakeCores(1);
  Engine engine(rt, *cores[0]);
  engine.Run("$a = %1\n$b = 7", {Value("hello")});
  EXPECT_EQ(engine.GetVar("a").AsString(), "hello");
  EXPECT_EQ(engine.GetVar("b").AsInt(), 7);
}

TEST_F(InterpTest, MissingArgThrows) {
  auto cores = MakeCores(1);
  Engine engine(rt, *cores[0]);
  EXPECT_THROW(engine.Run("$a = %2", {Value(1)}), ScriptError);
}

TEST_F(InterpTest, UndefinedVariableThrows) {
  auto cores = MakeCores(1);
  Engine engine(rt, *cores[0]);
  EXPECT_THROW(engine.Run("move $nope to $nowhere"), ScriptError);
}

TEST_F(InterpTest, TopLevelMoveByNameAndHandle) {
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  Engine engine(rt, *cores[0]);
  // Core named by its runtime name string; complet passed as %1.
  engine.Run("move %1 to core1", {Value(msg.handle())});
  EXPECT_TRUE(cores[1]->repository().Contains(msg.target()));
}

TEST_F(InterpTest, CoreOfResolvesLocations) {
  auto cores = MakeCores(2);
  auto msg = cores[1]->New<Message>("m");
  Engine engine(rt, *cores[0]);
  engine.Run("$where = coreOf %1", {Value(msg.handle())});
  EXPECT_EQ(engine.GetVar("where").AsInt(),
            static_cast<std::int64_t>(cores[1]->id().value));
}

TEST_F(InterpTest, ComletsInListsHostedComplets) {
  auto cores = MakeCores(2);
  cores[1]->New<Message>("a");
  cores[1]->New<Message>("b");
  Engine engine(rt, *cores[0]);
  engine.Run("$all = completsIn core1");
  EXPECT_EQ(engine.GetVar("all").AsList().size(), 2u);
}

TEST_F(InterpTest, MoveAListMovesEveryComplet) {
  auto cores = MakeCores(2);
  cores[0]->New<Message>("a");
  cores[0]->New<Message>("b");
  cores[0]->New<Message>("c");
  Engine engine(rt, *cores[0]);
  engine.Run("move completsIn core0 to core1");
  EXPECT_EQ(cores[1]->repository().size(), 3u);
  EXPECT_EQ(engine.moves_executed(), 3u);
}

TEST_F(InterpTest, UserRegisteredActionExtendsVocabulary) {
  auto cores = MakeCores(1);
  Engine engine(rt, *cores[0]);
  std::vector<Value> received;
  engine.RegisterAction("notify",
                        [&](Engine&, const std::vector<Value>& args) {
                          received = args;
                        });
  engine.Run("notify \"load-high\" 3");
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].AsString(), "load-high");
  EXPECT_EQ(received[1].AsInt(), 3);
}

TEST_F(InterpTest, UnknownActionThrows) {
  auto cores = MakeCores(1);
  Engine engine(rt, *cores[0]);
  EXPECT_THROW(engine.Run("frobnicate $x"), ScriptError);
}

TEST_F(InterpTest, ReliabilityRuleEvacuatesOnShutdown) {
  // Paper rule 1: on shutdown firedby $core listenAt $coreList do
  //                 move completsIn $core to $targetCore end
  auto cores = MakeCores(4);  // core0=admin, core1..2 watched, core3 safe
  cores[1]->New<Message>("a");
  cores[1]->New<Message>("b");
  cores[2]->New<Message>("c");

  Engine engine(rt, *cores[0]);
  engine.Run(
      "$coreList = %1\n"
      "$targetCore = %2\n"
      "on shutdown firedby $core listenAt $coreList do\n"
      "  move completsIn $core to $targetCore\n"
      "end",
      {Value(Value::List{
           Value(static_cast<std::int64_t>(cores[1]->id().value)),
           Value(static_cast<std::int64_t>(cores[2]->id().value))}),
       Value(static_cast<std::int64_t>(cores[3]->id().value))});
  EXPECT_EQ(engine.active_rules(), 1u);

  cores[1]->Shutdown(Millis(500));
  rt.RunUntilIdle();
  EXPECT_EQ(cores[3]->repository().size(), 2u);
  EXPECT_EQ(engine.rule_firings(), 1u);

  cores[2]->Shutdown(Millis(500));
  rt.RunUntilIdle();
  EXPECT_EQ(cores[3]->repository().size(), 3u);
  EXPECT_EQ(engine.rule_firings(), 2u);
}

TEST_F(InterpTest, PerformanceRuleColocatesChattyComplets) {
  // Paper rule 2: on methodInvokeRate(3) from $comps[0] to $comps[1] do
  //                 move $comps[0] to coreOf $comps[1] end
  auto cores = MakeCores(3);  // admin, source host, target host
  auto worker = cores[1]->New<Worker>();
  auto data = cores[2]->New<Data>(std::size_t{100});
  worker.Call("bind", {Value(data.handle())});

  Engine engine(rt, *cores[0]);
  engine.Run(
      "$comps = %1\n"
      "on methodInvokeRate(3) from $comps[0] to $comps[1] every 0.5 do\n"
      "  move $comps[0] to coreOf $comps[1]\n"
      "end",
      {Value(Value::List{Value(worker.handle()), Value(data.handle())})});

  // Drive ~10 invocations/second through the worker -> data reference.
  // (Bounded pumping: the rule's continuous sampler never idles.)
  for (int i = 0; i < 40; ++i) {
    worker.Call("work");
    rt.RunFor(Millis(100));
  }
  rt.RunFor(Seconds(1));
  // The rule moved the worker next to its data source.
  EXPECT_TRUE(cores[2]->repository().Contains(worker.target()));
  EXPECT_GE(engine.rule_firings(), 1u);
}

TEST_F(InterpTest, PaperScriptVerbatim) {
  // The exact script of §4.3 (both rules), with %1 %2 %3 arguments.
  const std::string paper = R"(
$coreList = %1
$targetCore = %2
$comps = %3
on shutdown firedby $core
 listenAt $coreList do
  move completsIn $core to $targetCore
end
on methodInvokeRate(3)
  from $comps[0] to $comps[1] do
 move $comps[0] to coreOf $comps[1]
end
)";
  auto cores = MakeCores(4);
  auto worker = cores[1]->New<Worker>();
  auto data = cores[2]->New<Data>(std::size_t{100});
  worker.Call("bind", {Value(data.handle())});

  Engine engine(rt, *cores[0]);
  engine.Run(paper,
             {Value(Value::List{
                  Value(static_cast<std::int64_t>(cores[1]->id().value)),
                  Value(static_cast<std::int64_t>(cores[2]->id().value))}),
              Value(static_cast<std::int64_t>(cores[3]->id().value)),
              Value(Value::List{Value(worker.handle()), Value(data.handle())})});
  EXPECT_EQ(engine.active_rules(), 2u);

  // Exercise the performance rule (bounded pumping: samplers never idle).
  for (int i = 0; i < 30; ++i) {
    worker.Call("work");
    rt.RunFor(Millis(100));
  }
  rt.RunFor(Seconds(2));
  EXPECT_TRUE(cores[2]->repository().Contains(worker.target()));

  // Exercise the reliability rule: shut core2 down; both worker and data
  // evacuate to the target core and the app stays alive.
  cores[2]->Shutdown(Millis(500));
  rt.RunFor(Seconds(1));
  EXPECT_TRUE(cores[3]->repository().Contains(worker.target()));
  EXPECT_TRUE(cores[3]->repository().Contains(data.target()));
  // Stubs whose chains pass through the dead core are severed (the paper
  // defers this to a future location-independent naming scheme); a client
  // at the safe core observes the evacuated pair working, colocated.
  auto survivor = cores[3]->RefFromHandle(
      ComletHandle{worker.target(), cores[3]->id(), "test.Worker"});
  EXPECT_EQ(survivor.Call("work").AsInt(), 100);
}

TEST_F(InterpTest, BuiltinRetypeActionChangesReferenceSemantics) {
  auto cores = MakeCores(2);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[0]->New<Data>(std::size_t{10});
  worker.Call("bind", {Value(data.handle())});

  Engine engine(rt, *cores[0]);
  // NOTE: action arguments are expressions; bare identifiers are reserved
  // for command words, so the kind is a quoted string.
  engine.Run("retype %1 %2 \"pull\"",
             {Value(worker.handle()), Value(data.handle())});
  EXPECT_EQ(worker.Invoke<std::string>("refType"), "pull");
  // And it has real effect on the next move.
  cores[0]->Move(worker, cores[1]->id());
  EXPECT_TRUE(cores[1]->repository().Contains(data.target()));
}

TEST_F(InterpTest, RetypeUnknownReferenceThrows) {
  auto cores = MakeCores(1);
  auto a = cores[0]->New<Message>("a");
  auto b = cores[0]->New<Message>("b");
  Engine engine(rt, *cores[0]);
  EXPECT_THROW(engine.Run("retype %1 %2 \"pull\"",
                          {Value(a.handle()), Value(b.handle())}),
               ScriptError);
}

TEST_F(InterpTest, RuleBodyFetchesRemoteFactsWithoutBlocking) {
  // A rule body runs in a listener task, where nothing may pump: `coreOf`,
  // `completsIn` and `hintEpochOf` there are asked of the Core that holds
  // the answer, and the command resumes when it arrives.
  rt.EnableDirectory({});
  auto cores = MakeCores(4);  // admin, watched, host, target
  auto m = cores[2]->New<Message>("m");
  cores[2]->New<Message>("n");
  const std::uint64_t stamp = cores[2]->trackers().HostedStamp(m.target());
  ASSERT_GT(stamp, 0u);
  Engine engine(rt, *cores[0]);
  std::vector<Value> noted;
  engine.RegisterAction("note", [&](Engine&, const std::vector<Value>& args) {
    noted = args;
  });
  engine.SetVar("m", Value(m.handle()));
  engine.Run(
      "on shutdown firedby $c listenAt core1 do\n"
      "  note coreOf $m hintEpochOf $m\n"
      "  move completsIn coreOf $m to core3\n"
      "end");
  cores[1]->Shutdown(Millis(500));
  rt.RunUntilIdle();
  ASSERT_EQ(noted.size(), 2u);
  EXPECT_EQ(noted[0].AsInt(), static_cast<std::int64_t>(cores[2]->id().value));
  EXPECT_EQ(noted[1].AsInt(), static_cast<std::int64_t>(stamp));
  EXPECT_EQ(cores[3]->repository().size(), 2u);
  EXPECT_EQ(engine.moves_executed(), 2u);
}

TEST_F(InterpTest, RetypeInARuleBodyIsRejectedAtAttach) {
  // retype edits the references its owner's Core holds: only the conductor
  // may touch another Core's state, so a rule body may not retype.
  auto cores = MakeCores(2);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[0]->New<Data>(std::size_t{10});
  Engine engine(rt, *cores[0]);
  EXPECT_THROW(engine.Run("on shutdown firedby $c listenAt core1 do\n"
                          "  retype %1 %2 \"pull\"\nend",
                          {Value(worker.handle()), Value(data.handle())}),
               ScriptError);
  EXPECT_EQ(engine.active_rules(), 0u);
}

TEST_F(InterpTest, DetachCancelsRules) {
  auto cores = MakeCores(3);
  cores[1]->New<Message>("m");
  Engine engine(rt, *cores[0]);
  engine.Run(
      "on shutdown firedby $c listenAt core1 do\n"
      "  move completsIn $c to core2\nend");
  engine.Detach();
  EXPECT_EQ(engine.active_rules(), 0u);
  cores[1]->Shutdown(Millis(200));
  rt.RunUntilIdle();
  EXPECT_EQ(cores[2]->repository().size(), 0u);  // nothing moved
}

TEST_F(InterpTest, ThresholdBelowRuleOnBandwidth) {
  auto cores = MakeCores(3);
  auto msg = cores[1]->New<Message>("m");
  Engine engine(rt, *cores[0]);
  engine.SetVar("m", Value(msg.handle()));
  engine.Run(
      "on bandwidth(<200000) from core1 to core2 every 0.1 do\n"
      "  move $m to core0\n"
      "end");
  rt.RunFor(Seconds(1));
  EXPECT_TRUE(cores[1]->repository().Contains(msg.target()));  // healthy
  rt.network().SetLink(cores[1]->id(), cores[2]->id(),
                       net::LinkModel{Millis(5), 1e5, true});
  rt.RunFor(Seconds(2));
  EXPECT_TRUE(cores[0]->repository().Contains(msg.target()));  // reacted
}

}  // namespace
}  // namespace fargo::testing

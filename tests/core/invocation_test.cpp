// Invocation unit details: parameter kinds over the wire, nesting,
// one-way invocations, hop limits, and concurrency interleaving.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using core::ComletRef;

class InvocationTest : public FargoTest {};

/// Echo anchor: returns its arguments, used to round-trip every Value kind
/// through the full wire path.
class Echo : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "test.Echo";
  Echo() {
    methods().Register("echo", [](const std::vector<Value>& args) {
      return Value(Value::List(args.begin(), args.end()));
    });
    methods().Register(
        "callOther",
        [this](const std::vector<Value>& args) -> sim::Future<Value> {
          // Nested invocation: call `method` on the handle we received.
          auto other = core()->RefFromHandle(args.at(0).AsHandle());
          return other.CallAsync(args.at(1).AsString());
        });
    methods().Register("selfCall", [this](const std::vector<Value>&) {
      // Re-entrant local dispatch through the Core.
      return core()->DispatchLocal(id(), "echo", {Value(1)}).value;
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter&) const override {}
  void Deserialize(serial::GraphReader&) override {}
};

const bool kEchoReg = serial::RegisterType<Echo>();

TEST_F(InvocationTest, EveryValueKindCrossesTheWire) {
  (void)kEchoReg;
  auto cores = MakeCores(2);
  auto echo = cores[0]->New<Echo>();
  auto remote = cores[1]->RefTo<Echo>(echo.handle());

  Value::Map map;
  map["k"] = Value(1);
  std::vector<Value> args = {
      Value(),
      Value(true),
      Value(std::int64_t{-7}),
      Value(3.5),
      Value("text"),
      Value(std::vector<std::uint8_t>{1, 2, 3}),
      Value(Value::List{Value(1), Value("x")}),
      Value(std::move(map)),
      Value(echo.handle()),
      Value(ObjectBlob{"test.TreeNode", {0, 1}}),
  };
  Value result = remote.Call("echo", args);
  ASSERT_TRUE(result.IsList());
  EXPECT_EQ(result.AsList(), args);
}

TEST_F(InvocationTest, LargeArgumentsSurvive) {
  auto cores = MakeCores(2);
  auto echo = cores[0]->New<Echo>();
  auto remote = cores[1]->RefTo<Echo>(echo.handle());
  std::string big(1 << 20, 'z');
  Value result = remote.Call("echo", {Value(big)});
  EXPECT_EQ(result.AsList().at(0).AsString(), big);
}

TEST_F(InvocationTest, NestedCrossCoreInvocations) {
  // core2 calls echo@core0, whose handler calls a counter@core1.
  auto cores = MakeCores(3);
  auto echo = cores[0]->New<Echo>();
  auto counter = cores[1]->New<Counter>();
  auto remote = cores[2]->RefTo<Echo>(echo.handle());
  Value v = remote.Call("callOther",
                        {Value(counter.handle()), Value("increment")});
  EXPECT_EQ(v.AsInt(), 1);
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);
}

TEST_F(InvocationTest, ReentrantSelfDispatch) {
  auto cores = MakeCores(1);
  auto echo = cores[0]->New<Echo>();
  Value v = echo.Call("selfCall");
  EXPECT_EQ(v.AsList().at(0).AsInt(), 1);
}

TEST_F(InvocationTest, PostIsAsynchronousLocally) {
  auto cores = MakeCores(1);
  auto counter = cores[0]->New<Counter>();
  counter.Post("increment");
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 0);  // not yet dispatched
  rt.RunUntilIdle();
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);
}

TEST_F(InvocationTest, PostReachesRemoteTargets) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  auto remote = cores[1]->RefTo<Counter>(counter.handle());
  for (int i = 0; i < 5; ++i) remote.Post("increment");
  rt.RunUntilIdle();
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 5);
}

TEST_F(InvocationTest, PostTracksMovedTargets) {
  auto cores = MakeCores(3);
  auto counter = cores[0]->New<Counter>();
  auto remote = cores[2]->RefTo<Counter>(counter.handle());
  cores[0]->Move(counter, cores[1]->id());
  remote.Post("increment");  // forwards through the chain
  rt.RunUntilIdle();
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);
}

TEST_F(InvocationTest, PostErrorsAreSwallowed) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  auto remote = cores[1]->RefTo<Counter>(counter.handle());
  remote.Post("no_such_method");  // must not throw, ever
  rt.RunUntilIdle();
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 0);
}

TEST_F(InvocationTest, MaxHopLimitBreaksRoutingLoops) {
  // Manufacture a routing loop: two cores' trackers point at each other.
  auto cores = MakeCores(3);
  auto msg = cores[0]->New<Message>("m");
  ComletId ghost{cores[0]->id(), 999};  // never hosted anywhere
  cores[0]->trackers().SetForward(ghost, cores[1]->id(), "test.Message");
  cores[1]->trackers().SetForward(ghost, cores[0]->id(), "test.Message");
  auto ghost_ref = cores[0]->RefFromHandle(
      ComletHandle{ghost, cores[1]->id(), "test.Message"});
  cores[0]->SetRpcTimeout(Seconds(5));
  cores[0]->invocation().SetMaxHops(8);
  try {
    ghost_ref.Call("text");
    FAIL() << "expected an error";
  } catch (const FargoError& e) {
    EXPECT_NE(std::string(e.what()).find("hops"), std::string::npos);
  }
  (void)msg;
}

TEST_F(InvocationTest, InterleavedClientsShareOneServer) {
  // Many clients on different cores hammer one counter; every increment is
  // serialized by the single-threaded target core and none is lost.
  auto cores = MakeCores(5);
  auto counter = cores[0]->New<Counter>();
  std::vector<ComletRef<Counter>> clients;
  for (int i = 1; i < 5; ++i)
    clients.push_back(cores[static_cast<std::size_t>(i)]->RefTo<Counter>(
        counter.handle()));
  for (int round = 0; round < 25; ++round)
    for (auto& c : clients) c.Post("increment");
  rt.RunUntilIdle();
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 100);
}

TEST_F(InvocationTest, HopCountAndLocationTelemetry) {
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  core::InvokeResult local =
      cores[0]->invocation().Invoke(msg.handle(), "text", {});
  EXPECT_EQ(local.hops, 0);
  EXPECT_EQ(local.location, cores[0]->id());
  auto remote_ref = cores[1]->RefTo<Message>(msg.handle());
  core::InvokeResult remote =
      cores[1]->invocation().Invoke(remote_ref.handle(), "text", {});
  EXPECT_EQ(remote.hops, 1);
  EXPECT_EQ(remote.location, cores[0]->id());
}

}  // namespace
}  // namespace fargo::testing

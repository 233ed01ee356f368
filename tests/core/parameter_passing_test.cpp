// §3.1 parameter passing, end to end: regular objects by value (object
// graphs with aliasing; embedded complet refs degraded to link; referenced
// complets never copied), anchors by reference (degraded to link), and the
// same rules applied through invocation arguments and return values.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

/// Anchor that accepts/returns object blobs, materializing them — the
/// receiving half of pass-by-value.
class BlobEater : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "test.BlobEater";
  BlobEater() {
    methods().Register(
        "consume",
        [this](const std::vector<Value>& args) -> sim::Future<Value> {
          auto tree =
              core()->MaterializeObjectAs<TreeNode>(args.at(0).AsBlob());
          last_value_ = tree->value;
          shared_ = tree->left != nullptr && tree->left == tree->right;
          const Value result(last_value_);
          // Use the embedded (degraded) ref if present.
          if (!tree->counter)
            return sim::MakeReadyFuture(core()->scheduler(), result);
          return tree->counter.CallAsync("increment").Then(
              [result](Value&) { return result; });
        });
    methods().Register("produce", [this](const std::vector<Value>& args) {
      TreeNode root;
      root.value = args.at(0).AsInt();
      auto shared = std::make_shared<TreeNode>();
      shared->value = root.value * 2;
      root.left = shared;
      root.right = shared;
      return Value(core()->CaptureObject(root));
    });
    methods().Register("lastShared", [this](const std::vector<Value>&) {
      return Value(shared_);
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteInt(last_value_);
    w.WriteBool(shared_);
  }
  void Deserialize(serial::GraphReader& r) override {
    last_value_ = r.ReadInt();
    shared_ = r.ReadBool();
  }

 private:
  std::int64_t last_value_ = 0;
  bool shared_ = false;
};

const bool kReg = serial::RegisterType<BlobEater>();

class ParameterPassingTest : public FargoTest {
 protected:
  ParameterPassingTest() { (void)kReg; }
};

TEST_F(ParameterPassingTest, ObjectGraphByValueAcrossTheWire) {
  auto cores = MakeCores(2);
  auto eater = cores[0]->New<BlobEater>();
  auto remote = cores[1]->RefTo<BlobEater>(eater.handle());

  TreeNode root;
  root.value = 11;
  auto shared = std::make_shared<TreeNode>();
  root.left = shared;
  root.right = shared;
  ObjectBlob blob = cores[1]->CaptureObject(root);

  EXPECT_EQ(remote.Call("consume", {Value(blob)}).AsInt(), 11);
  EXPECT_TRUE(remote.Invoke<bool>("lastShared"));  // aliasing preserved
}

TEST_F(ParameterPassingTest, CopyIsDeepTheSenderKeepsItsObject) {
  auto cores = MakeCores(2);
  auto eater = cores[0]->New<BlobEater>();
  auto remote = cores[1]->RefTo<BlobEater>(eater.handle());
  TreeNode root;
  root.value = 1;
  ObjectBlob blob = cores[1]->CaptureObject(root);
  root.value = 999;  // mutate after capture: the receiver sees the snapshot
  EXPECT_EQ(remote.Call("consume", {Value(blob)}).AsInt(), 1);
}

TEST_F(ParameterPassingTest, EmbeddedRefIsLiveAndCompletNotCopied) {
  auto cores = MakeCores(3);
  auto counter = cores[2]->New<Counter>();  // lives at a third core
  auto eater = cores[0]->New<BlobEater>();
  auto remote = cores[1]->RefTo<BlobEater>(eater.handle());

  TreeNode root;
  root.value = 5;
  root.counter = counter;
  ObjectBlob blob = cores[1]->CaptureObject(root);
  remote.Call("consume", {Value(blob)});

  // The counter complet was NOT copied anywhere...
  EXPECT_EQ(cores[0]->repository().size(), 1u);  // just the eater
  EXPECT_EQ(cores[1]->repository().size(), 0u);
  // ...and the eater really incremented the original through the wire.
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);
}

TEST_F(ParameterPassingTest, ReturnedBlobsMaterializeAtTheCaller) {
  auto cores = MakeCores(2);
  auto eater = cores[0]->New<BlobEater>();
  auto remote = cores[1]->RefTo<BlobEater>(eater.handle());
  Value blob = remote.Call("produce", {Value(21)});
  auto tree = cores[1]->MaterializeObjectAs<TreeNode>(blob.AsBlob());
  EXPECT_EQ(tree->value, 21);
  EXPECT_EQ(tree->left, tree->right);  // aliasing survives the return path
  EXPECT_EQ(tree->left->value, 42);
}

TEST_F(ParameterPassingTest, BlobRefsSurviveTargetMovement) {
  // The handle inside a blob is a tracked reference: it keeps working after
  // the target complet moves.
  auto cores = MakeCores(3);
  auto counter = cores[0]->New<Counter>();
  TreeNode root;
  root.counter = counter;
  ObjectBlob blob = cores[0]->CaptureObject(root);

  cores[0]->Move(counter, cores[2]->id());
  auto copy = cores[1]->MaterializeObjectAs<TreeNode>(blob);
  EXPECT_EQ(copy->counter.Invoke<std::int64_t>("increment"), 1);
}

TEST_F(ParameterPassingTest, HandleArgumentsDegradeButTrack) {
  auto cores = MakeCores(3);
  auto data = cores[0]->New<Data>(std::size_t{64});
  auto worker = cores[1]->New<Worker>();
  worker.Call("bind", {Value(data.handle()), Value("pull")});
  // The worker's ref came in by reference and carries the requested type
  // only because bind set it explicitly; a plain pass stays link:
  auto worker2 = cores[2]->New<Worker>();
  worker2.Call("bind", {Value(data.handle())});
  EXPECT_EQ(worker2.Invoke<std::string>("refType"), "link");
  // Both workers reach the same complet.
  EXPECT_EQ(worker.Invoke<std::int64_t>("work"), 64);
  EXPECT_EQ(worker2.Invoke<std::int64_t>("work"), 64);
  EXPECT_EQ(data.Invoke<std::int64_t>("reads"), 2);
}

TEST_F(ParameterPassingTest, CapturedLatentRefStaysLatent) {
  auto cores = MakeCores(2);
  TreeNode root;
  root.value = 3;  // counter ref left unbound
  ObjectBlob blob = cores[0]->CaptureObject(root);
  auto copy = cores[1]->MaterializeObjectAs<TreeNode>(blob);
  EXPECT_FALSE(copy->counter.bound());
  EXPECT_EQ(copy->value, 3);
}

TEST_F(ParameterPassingTest, MaterializeWrongTypeThrows) {
  auto cores = MakeCores(1);
  TreeNode root;
  ObjectBlob blob = cores[0]->CaptureObject(root);
  EXPECT_THROW(cores[0]->MaterializeObjectAs<Message>(blob), FargoError);
}

TEST_F(ParameterPassingTest, TypedReturnConversionErrorsAreTypeErrors) {
  auto cores = MakeCores(1);
  auto msg = cores[0]->New<Message>("not a number");
  EXPECT_THROW(msg.Invoke<std::int64_t>("text"), TypeError);
}

}  // namespace
}  // namespace fargo::testing

// Relocation semantics of complet references (§2, §3.3): link, pull,
// duplicate, stamp, runtime retyping, degradation on parameter passing,
// and user-defined relocators.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using core::ComletRef;

class RelocationTest : public FargoTest {};

// Builds worker(+relocator kind)->data on cores[0] and returns both refs.
struct Pair {
  ComletRef<Worker> worker;
  ComletRef<Data> data;
};
Pair MakePair(core::Core& host, const std::string& kind,
              std::size_t data_bytes = 1000) {
  Pair p;
  p.worker = host.New<Worker>();
  p.data = host.New<Data>(data_bytes);
  p.worker.Call("bind", {Value(p.data.handle()), Value(kind)});
  return p;
}

TEST_F(RelocationTest, LinkTargetStaysBehind) {
  auto cores = MakeCores(2);
  Pair p = MakePair(*cores[0], "link");
  cores[0]->Move(p.worker, cores[1]->id());
  EXPECT_TRUE(cores[1]->repository().Contains(p.worker.target()));
  EXPECT_TRUE(cores[0]->repository().Contains(p.data.target()));
  // The moved worker still reaches its (now remote) data source.
  EXPECT_EQ(p.worker.Invoke<std::int64_t>("work"), 1000);
}

TEST_F(RelocationTest, PullTargetMovesAlong) {
  auto cores = MakeCores(2);
  Pair p = MakePair(*cores[0], "pull");
  cores[0]->Move(p.worker, cores[1]->id());
  EXPECT_TRUE(cores[1]->repository().Contains(p.worker.target()));
  EXPECT_TRUE(cores[1]->repository().Contains(p.data.target()));
  EXPECT_FALSE(cores[0]->repository().Contains(p.data.target()));
  EXPECT_EQ(p.worker.Invoke<std::int64_t>("work"), 1000);
}

TEST_F(RelocationTest, PullSharesOneStream) {
  auto cores = MakeCores(2);
  Pair p = MakePair(*cores[0], "pull", 50000);
  rt.network().ResetStats();
  cores[0]->Move(p.worker, cores[1]->id());
  // Worker + pulled data in ONE inter-core message (§3.3).
  EXPECT_EQ(rt.network().StatsBetween(cores[0]->id(), cores[1]->id()).messages,
            1u);
  EXPECT_GT(rt.network().StatsBetween(cores[0]->id(), cores[1]->id()).bytes,
            50000u);
}

TEST_F(RelocationTest, PullChainMovesTransitively) {
  // worker -pull-> data; data is itself a Node chain? Use Nodes:
  // n0 -pull-> n1 -pull-> n2: moving n0 drags the whole chain.
  auto cores = MakeCores(2);
  auto n0 = cores[0]->New<Node>();
  auto n1 = cores[0]->New<Node>();
  auto n2 = cores[0]->New<Node>();
  n0.Call("setNext", {Value(n1.handle()), Value("pull")});
  n1.Call("setNext", {Value(n2.handle()), Value("pull")});
  rt.network().ResetStats();
  cores[0]->Move(n0, cores[1]->id());
  EXPECT_TRUE(cores[1]->repository().Contains(n1.target()));
  EXPECT_TRUE(cores[1]->repository().Contains(n2.target()));
  EXPECT_EQ(rt.network().StatsBetween(cores[0]->id(), cores[1]->id()).messages,
            1u);
  EXPECT_EQ(cores[0]->movement().last_move_stats().complets_moved, 3u);
}

TEST_F(RelocationTest, PullCycleTerminates) {
  auto cores = MakeCores(2);
  auto a = cores[0]->New<Node>();
  auto b = cores[0]->New<Node>();
  a.Call("setNext", {Value(b.handle()), Value("pull")});
  b.Call("setNext", {Value(a.handle()), Value("pull")});  // cycle
  cores[0]->Move(a, cores[1]->id());
  EXPECT_TRUE(cores[1]->repository().Contains(a.target()));
  EXPECT_TRUE(cores[1]->repository().Contains(b.target()));
  // Both refs still work.
  a.Call("setTag", {Value(5)});
  EXPECT_EQ(b.Invoke<std::int64_t>("sum", std::int64_t{1}), 5);
}

TEST_F(RelocationTest, DuplicateLeavesOriginalAndCopies) {
  auto cores = MakeCores(2);
  Pair p = MakePair(*cores[0], "duplicate");
  p.data.Call("read");  // original reads: 1
  cores[0]->Move(p.worker, cores[1]->id());

  // Original still at core0.
  EXPECT_TRUE(cores[0]->repository().Contains(p.data.target()));
  // A copy (new identity) exists at core1.
  ASSERT_EQ(cores[1]->repository().size(), 2u);
  EXPECT_EQ(cores[0]->movement().last_move_stats().complets_duplicated, 1u);

  // The worker now reads from its local copy, not the original.
  auto reads_before = p.data.Invoke<std::int64_t>("reads");
  EXPECT_EQ(p.worker.Invoke<std::int64_t>("work"), 1000);
  EXPECT_EQ(p.data.Invoke<std::int64_t>("reads"), reads_before);
  // And the copy inherited the original's state (read counter).
  EXPECT_EQ(p.worker.Invoke<std::int64_t>("workDone"), 1);
}

TEST_F(RelocationTest, DuplicateCopyIsColocated) {
  auto cores = MakeCores(2);
  Pair p = MakePair(*cores[0], "duplicate");
  cores[0]->Move(p.worker, cores[1]->id());
  EXPECT_EQ(p.worker.Invoke<std::int64_t>("dataLocation"),
            static_cast<std::int64_t>(cores[1]->id().value));
}

TEST_F(RelocationTest, DuplicateRefsAcrossSectionsShareOneCopy) {
  // Two complets travelling in ONE stream — a Holder and the Worker it
  // pulls along — both hold duplicate references to the same config
  // complet. The move request must create exactly one shared copy.
  auto cores = MakeCores(2);
  auto config = cores[0]->New<Data>(std::size_t{500});
  auto worker = cores[0]->New<Worker>();
  worker.Call("bind", {Value(config.handle()), Value("duplicate")});

  auto holder = cores[0]->New<Holder>();
  {
    auto anchor = std::dynamic_pointer_cast<Holder>(
        cores[0]->repository().Get(holder.target()));
    anchor->root = std::make_shared<TreeNode>();
    // Edge 1: the holder's own duplicate reference to config.
    auto dup_ref = cores[0]->RefFromHandle(config.handle());
    core::Core::GetMetaRef(dup_ref).SetRelocator(
        std::make_shared<core::Duplicate>());
    anchor->root->counter = core::ComletRef<Counter>(std::move(dup_ref));
    // Edge 2: pull the worker into the same stream.
    auto pull_ref = cores[0]->RefFromHandle(worker.handle());
    core::Core::GetMetaRef(pull_ref).SetRelocator(
        std::make_shared<core::Pull>());
    anchor->root->left = std::make_shared<TreeNode>();
    anchor->root->left->counter = core::ComletRef<Counter>(std::move(pull_ref));
  }

  cores[0]->Move(holder, cores[1]->id());
  const auto& stats = cores[0]->movement().last_move_stats();
  // Sections: holder + pulled worker; duplicate edges: holder's closure
  // ref + the worker's bound ref — ONE shared copy.
  EXPECT_EQ(stats.complets_moved, 2u);
  EXPECT_EQ(stats.complets_duplicated, 1u);
  EXPECT_TRUE(cores[0]->repository().Contains(config.target()));  // original
  // The worker works against the colocated copy, not the original.
  const std::int64_t reads_before = config.Invoke<std::int64_t>("reads");
  EXPECT_EQ(worker.Invoke<std::int64_t>("work"), 500);
  EXPECT_EQ(config.Invoke<std::int64_t>("reads"), reads_before);
}

TEST_F(RelocationTest, StampRebindsToLocalEquivalent) {
  auto cores = MakeCores(2);
  // A printer on each core; a worker stamps its printer reference.
  auto printer0 = cores[0]->New<Printer>();
  auto printer1 = cores[1]->New<Printer>();
  auto node = cores[0]->New<Node>();
  node.Call("setNext", {Value(printer0.handle()), Value("stamp")});
  // NOTE: Node's next is typed ComletRef<Node> but stamp matches by the
  // recorded anchor type, which is the handle's ("test.Printer").
  cores[0]->Move(node, cores[1]->id());
  EXPECT_TRUE(node.Invoke<bool>("hasNext"));
  // The reference now points at core1's local printer.
  auto anchor = std::dynamic_pointer_cast<Node>(
      cores[1]->repository().Get(node.target()));
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(anchor->next().target(), printer1.target());
  EXPECT_EQ(printer1.Invoke<std::int64_t>("jobs"), 0);
}

TEST_F(RelocationTest, StampWithNoLocalEquivalentLeavesUnbound) {
  auto cores = MakeCores(2);
  auto printer0 = cores[0]->New<Printer>();
  auto node = cores[0]->New<Node>();
  node.Call("setNext", {Value(printer0.handle()), Value("stamp")});
  cores[0]->Move(node, cores[1]->id());  // no printer at core1
  EXPECT_FALSE(node.Invoke<bool>("hasNext"));
}

TEST_F(RelocationTest, LatentStampRebindsAtALaterSite) {
  // A stamp that finds no equivalent at one site stays typed-but-unbound
  // and re-attempts the rebind at the next site (the mobile-desktop
  // example of §2: reconnect to a local printer wherever one exists).
  auto cores = MakeCores(3);
  auto printer0 = cores[0]->New<Printer>();
  auto printer2 = cores[2]->New<Printer>();
  auto node = cores[0]->New<Node>();
  node.Call("setNext", {Value(printer0.handle()), Value("stamp")});

  cores[0]->Move(node, cores[1]->id());  // no printer at core1
  EXPECT_FALSE(node.Invoke<bool>("hasNext"));
  cores[1]->MoveId(node.target(), cores[2]->id());  // printer here again
  EXPECT_TRUE(node.Invoke<bool>("hasNext"));
  auto anchor = std::dynamic_pointer_cast<Node>(
      cores[2]->repository().Get(node.target()));
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(anchor->next().target(), printer2.target());
}

TEST_F(RelocationTest, StampKeepsItsSemanticsAcrossMoves) {
  // After re-binding at one site, the reference remains a stamp: moving on
  // re-binds again at the next site.
  auto cores = MakeCores(3);
  auto p0 = cores[0]->New<Printer>();
  auto p1 = cores[1]->New<Printer>();
  auto p2 = cores[2]->New<Printer>();
  auto node = cores[0]->New<Node>();
  node.Call("setNext", {Value(p0.handle()), Value("stamp")});
  cores[0]->Move(node, cores[1]->id());
  EXPECT_EQ(node.Invoke<std::string>("nextType"), "stamp");
  cores[1]->MoveId(node.target(), cores[2]->id());
  auto anchor = std::dynamic_pointer_cast<Node>(
      cores[2]->repository().Get(node.target()));
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(anchor->next().target(), p2.target());
}

TEST_F(RelocationTest, RemotePullIsDeferredButArrives) {
  // worker at core0 pulls data living at core2; moving worker to core1
  // drags the remote data there with a follow-up move.
  auto cores = MakeCores(3);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[2]->New<Data>(std::size_t{500});
  worker.Call("bind", {Value(data.handle()), Value("pull")});
  cores[0]->Move(worker, cores[1]->id());
  rt.RunUntilIdle();
  EXPECT_TRUE(cores[1]->repository().Contains(worker.target()));
  EXPECT_TRUE(cores[1]->repository().Contains(data.target()));
  EXPECT_EQ(worker.Invoke<std::int64_t>("work"), 500);
}

TEST_F(RelocationTest, RuntimeRetypingChangesMoveBehaviour) {
  auto cores = MakeCores(2);
  Pair p = MakePair(*cores[0], "link");
  // Reflective retype: link -> pull (§3.2's example).
  bool retyped = false;
  for (const core::ComletRefBase* ref :
       cores[0]->RefsOwnedBy(p.worker.target())) {
    core::MetaRef& meta = core::Core::GetMetaRef(*ref);
    if (std::dynamic_pointer_cast<core::Link>(meta.GetRelocator())) {
      meta.SetRelocator(std::make_shared<core::Pull>());
      retyped = true;
    }
  }
  EXPECT_TRUE(retyped);
  cores[0]->Move(p.worker, cores[1]->id());
  EXPECT_TRUE(cores[1]->repository().Contains(p.data.target()));
}

TEST_F(RelocationTest, AnchorsPassedByReferenceDegradeToLink) {
  auto cores = MakeCores(2);
  // worker at core1 receives a handle to data (via bind with pull); when the
  // handle is passed onwards as a parameter it must arrive as link.
  auto data = cores[0]->New<Data>(std::size_t{10});
  auto worker = cores[1]->New<Worker>();
  worker.Call("bind", {Value(data.handle()), Value("pull")});
  EXPECT_EQ(worker.Invoke<std::string>("refType"), "pull");

  auto worker2 = cores[0]->New<Worker>();
  // Pass the same handle; no relocator argument: receiving side defaults.
  worker2.Call("bind", {Value(data.handle())});
  EXPECT_EQ(worker2.Invoke<std::string>("refType"), "link");
}

TEST_F(RelocationTest, ObjectGraphByValueCarriesDegradedRefsNotComplets) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  // Build an object graph embedding a ref and pass it by value.
  TreeNode node;
  node.value = 5;
  node.counter = counter;
  ObjectBlob blob = cores[0]->CaptureObject(node);

  // Materialize at the other core: the counter complet was NOT copied;
  // the embedded reference is live and degraded to link.
  auto copy = cores[1]->MaterializeObjectAs<TreeNode>(blob);
  EXPECT_EQ(copy->value, 5);
  ASSERT_TRUE(copy->counter.bound());
  EXPECT_TRUE(std::dynamic_pointer_cast<core::Link>(
      core::Core::GetMetaRef(copy->counter).GetRelocator()));
  EXPECT_EQ(cores[1]->repository().size(), 0u);  // no complet copied
  EXPECT_EQ(copy->counter.Invoke<std::int64_t>("increment"), 1);
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);  // same complet
}

// A user-defined relocator: pull the target only when its serialized size
// is below a threshold, else keep a link (the extension mechanism of §3.3).
class PullIfSmall final : public core::Relocator {
 public:
  static constexpr std::string_view kTypeName = "test.PullIfSmall";
  PullIfSmall() = default;
  explicit PullIfSmall(std::int64_t limit) : limit_(limit) {}
  std::string_view TypeName() const override { return kTypeName; }
  std::string_view Kind() const override { return "pull-if-small"; }
  core::RelocEffect EffectOnMove(const core::RelocContext& ctx) const override {
    if (!ctx.target_is_local) return core::RelocEffect::kTrack;
    const double size = ctx.source_core.profiler().Instant(
        monitor::ComletSizeProbe(ctx.target));
    return size <= static_cast<double>(limit_) ? core::RelocEffect::kMoveAlong
                                               : core::RelocEffect::kTrack;
  }
  void Serialize(serial::GraphWriter& w) const override { w.WriteInt(limit_); }
  void Deserialize(serial::GraphReader& r) override { limit_ = r.ReadInt(); }

 private:
  std::int64_t limit_ = 0;
};

TEST_F(RelocationTest, UserDefinedRelocatorExtendsTheHierarchy) {
  serial::RegisterType<PullIfSmall>();
  auto cores = MakeCores(3);

  auto small = MakePair(*cores[0], "link", 100);
  auto big = MakePair(*cores[0], "link", 100000);
  for (const core::ComletRefBase* ref :
       cores[0]->RefsOwnedBy(small.worker.target()))
    core::Core::GetMetaRef(*ref).SetRelocator(
        std::make_shared<PullIfSmall>(10000));
  for (const core::ComletRefBase* ref :
       cores[0]->RefsOwnedBy(big.worker.target()))
    core::Core::GetMetaRef(*ref).SetRelocator(
        std::make_shared<PullIfSmall>(10000));

  cores[0]->Move(small.worker, cores[1]->id());
  cores[0]->Move(big.worker, cores[2]->id());

  EXPECT_TRUE(cores[1]->repository().Contains(small.data.target()));   // pulled
  EXPECT_TRUE(cores[0]->repository().Contains(big.data.target()));     // stayed
  // The custom relocator (with its state) survived the move.
  EXPECT_EQ(small.worker.Invoke<std::string>("refType"), "pull-if-small");
}

class RefTypeSweep : public FargoTest,
                     public ::testing::WithParamInterface<const char*> {};

TEST_P(RefTypeSweep, WorkerRemainsFunctionalAfterMove) {
  auto cores = MakeCores(2);
  // A printer at each core so stamp can re-bind.
  cores[0]->New<Printer>();
  cores[1]->New<Printer>();
  Pair p = MakePair(*cores[0], GetParam());
  cores[0]->Move(p.worker, cores[1]->id());
  EXPECT_TRUE(cores[1]->repository().Contains(p.worker.target()));
  if (std::string(GetParam()) != "stamp") {
    EXPECT_EQ(p.worker.Invoke<std::int64_t>("work"), 1000);
    EXPECT_EQ(p.worker.Invoke<std::string>("refType"), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RefTypeSweep,
                         ::testing::Values("link", "pull", "duplicate"));

}  // namespace
}  // namespace fargo::testing

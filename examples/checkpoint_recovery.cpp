// Crash recovery with persistence + the home registry (§7 future work,
// both implemented as extensions; see DESIGN.md).
//
// An order-processing service runs on a durable host core, whose WAL
// checkpoints it. The host crashes without warning; the operator has a
// standby core adopt the crashed core's last checkpoint. Clients that
// located the service through the home registry keep working
// transparently; state since the last checkpoint is lost (documented
// at-checkpoint consistency).
//
// Build & run:  ./build/examples/checkpoint_recovery
#include <cstdio>

#include "src/fargo.h"

namespace {

using namespace fargo;

class OrderBook : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.OrderBook";
  OrderBook() {
    methods().Register("place", [this](const std::vector<Value>& args) {
      orders_ += args.at(0).AsString() + ";";
      return Value(static_cast<std::int64_t>(Count()));
    });
    methods().Register("count", [this](const std::vector<Value>&) {
      return Value(static_cast<std::int64_t>(Count()));
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteString(orders_);
  }
  void Deserialize(serial::GraphReader& r) override { orders_ = r.ReadString(); }

 private:
  std::size_t Count() const {
    std::size_t n = 0;
    for (char c : orders_)
      if (c == ';') ++n;
    return n;
  }
  std::string orders_;
};

const bool kReg = serial::RegisterType<OrderBook>();

}  // namespace

int main() {
  (void)kReg;
  core::Runtime rt;
  rt.EnableDirectory({});  // location-independent naming (§7)
  core::Core& registry = rt.CreateCore("registry");  // clients + homes here
  core::Core& primary = rt.CreateCore("primary");
  core::Core& standby = rt.CreateCore("standby");
  rt.network().SetDefaultLink({fargo::Millis(10), 1.25e6, true});
  // The host is durable; this demo takes its checkpoint by hand.
  core::Wal& wal = primary.EnableWal(/*checkpoint_interval=*/0);

  std::printf("== FarGo checkpoint & crash recovery ==\n");

  // The service is born at the registry core (its *home*), then deployed
  // to the primary host.
  auto book = registry.New<OrderBook>();
  registry.Move(book, primary.id());
  rt.RunUntilIdle();

  for (int i = 0; i < 5; ++i)
    book.Call("place", {Value("order-" + std::to_string(i))});
  std::printf("placed 5 orders; book at %s\n",
              ToString(registry.ResolveLocation(book)).c_str());

  // Checkpoint the primary host; it is durable once its write barrier
  // settles. (With an interval, EnableWal checkpoints periodically.)
  wal.Checkpoint();
  rt.RunUntilIdle();
  const auto checkpoint =
      rt.storage().GetBlob(core::CheckpointBlobName(primary.name()));
  std::printf("checkpoint taken: %zu bytes\n", checkpoint->size());

  // Two more orders arrive after the checkpoint... then the host dies.
  book.Call("place", {Value("order-5")});
  book.Call("place", {Value("order-6")});
  std::printf("orders before crash: %lld\n",
              static_cast<long long>(book.Call("count").AsInt()));
  primary.Crash();
  std::printf("primary CRASHED (no warning, no evacuation)\n");

  registry.SetRpcTimeout(fargo::Millis(300));
  try {
    book.Call("count");
  } catch (const UnreachableError& e) {
    std::printf("client sees: %s\n", e.what());
  }

  // The standby adopts the crashed primary's checkpoint. Each adopted
  // complet reports its new location to its home, healing client
  // references.
  standby.AdoptCheckpoint(primary.id());
  rt.RunUntilIdle();
  std::printf("checkpoint restored at standby\n");

  std::printf("client retries transparently: count = %lld "
              "(post-checkpoint orders lost, as documented)\n",
              static_cast<long long>(book.Call("count").AsInt()));
  book.Call("place", {Value("order-after-recovery")});
  std::printf("service is live again: count = %lld, served from %s\n",
              static_cast<long long>(book.Call("count").AsInt()),
              ToString(registry.ResolveLocation(book)).c_str());
  return 0;
}

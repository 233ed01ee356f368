// The administrative shell and the live terminal monitor (Fig 4
// substitute) driving a deployment — scripted here, but `RunInteractive`
// gives the same commands a REPL.
//
// Build & run:  ./build/examples/shell_demo
//   (pipe commands for interactive use: echo "cores" | ./shell_demo -i)
#include <cstdio>
#include <cstring>
#include <iostream>

#include "src/fargo.h"

namespace {

using namespace fargo;

class Inventory : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Inventory";
  Inventory() {
    methods().Register("stock", [this](const std::vector<Value>&) {
      return Value(stock_);
    });
    methods().Register("take", [this](const std::vector<Value>& args) {
      stock_ -= args.at(0).AsInt();
      return Value(stock_);
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override { w.WriteInt(stock_); }
  void Deserialize(serial::GraphReader& r) override { stock_ = r.ReadInt(); }

 private:
  std::int64_t stock_ = 100;
};

class Storefront : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Storefront";
  Storefront() {
    methods().Register("attach", [this](const std::vector<Value>& args) {
      inventory_ = core()->RefTo<Inventory>(args.at(0));
      return Value();
    });
    // A method that calls another complet returns that call's future.
    methods().Register(
        "sell", [this](const std::vector<Value>&) -> sim::Future<Value> {
          return inventory_.CallAsync("take", {Value(1)});
        });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    inventory_.SerializeTo(w);
  }
  void Deserialize(serial::GraphReader& r) override {
    inventory_.DeserializeFrom(r);
  }

 private:
  core::ComletRef<Inventory> inventory_;
};

const bool kReg =
    serial::RegisterType<Inventory>() && serial::RegisterType<Storefront>();

}  // namespace

int main(int argc, char** argv) {
  (void)kReg;
  core::Runtime rt;
  core::Core& admin = rt.CreateCore("admin");
  core::Core& east = rt.CreateCore("east");
  core::Core& west = rt.CreateCore("west");
  rt.network().SetDefaultLink({fargo::Millis(15), 1.25e6, true});

  auto store = admin.NewAt<Storefront>(east.id());
  auto inventory = admin.NewAt<Inventory>(west.id());
  store.Call("attach", {Value(inventory.handle())});
  east.BindName("store", store);
  west.BindName("inventory", inventory);
  store.Call("sell");

  shell::Shell shell(rt, admin, std::cout);

  if (argc > 1 && std::strcmp(argv[1], "-i") == 0) {
    shell.RunInteractive(std::cin);
    return 0;
  }

  std::printf("== FarGo admin shell demo ==\n");
  const char* session[] = {
      "help",
      "cores",
      "ls",
      "names",
      "methods store",
      "invoke store sell",
      "profile completLoad east",
      "profile bandwidth east west",
      "profile methodInvokeRate east store inventory",
      // Inspect and retype the storefront's reference, then colocate.
      "reftype east store inventory",
      "setref east store inventory pull",
      "move store west",
      "snapshot",
      "invoke store sell",
      "link east west 100 1",
      "profile latency east west",
      "gc",
      "shutdown east",
      "cores",
  };
  for (const char* cmd : session) {
    std::printf("fargo> %s\n", cmd);
    shell.Execute(cmd);
    rt.RunUntilIdle();
  }
  std::printf("(run with -i for an interactive session)\n");
  return 0;
}

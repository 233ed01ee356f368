// Relocation programming with the monitoring API (§4.1/§4.2).
//
// A farm of worker complets serves requests. An admin policy, written
// directly against the Core API (not the scripting language):
//   - spreads complets away from a core whose completLoad crosses a
//     threshold (asynchronous monitor event),
//   - evacuates complets from a core announcing shutdown (reliability).
//
// Build & run:  ./build/examples/load_balancer
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "src/fargo.h"

namespace {

using namespace fargo;

class JobWorker : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.JobWorker";
  JobWorker() {
    methods().Register("run", [this](const std::vector<Value>& args) {
      ++jobs_;
      return Value(args.at(0).AsInt() * 2);
    });
    methods().Register("jobs",
                       [this](const std::vector<Value>&) { return Value(jobs_); });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override { w.WriteInt(jobs_); }
  void Deserialize(serial::GraphReader& r) override { jobs_ = r.ReadInt(); }

 private:
  std::int64_t jobs_ = 0;
};

const bool kReg = serial::RegisterType<JobWorker>();

/// The admin's view of the farm: the workers each Core hosts. The admin
/// deploys and moves every worker itself, so the view stays exact — and
/// its listeners never read another Core's state, which under
/// FARGO_PARALLEL belongs to another locality.
using Layout = std::map<CoreId, std::vector<ComletId>>;

void PrintLoads(core::Runtime& rt, Layout& layout) {
  std::printf("  t=%7.1f ms  loads:", fargo::ToMillis(rt.Now()));
  for (core::Core* c : rt.Cores())
    std::printf("  %s=%zu%s", c->name().c_str(), layout[c->id()].size(),
                c->alive() ? "" : "(down)");
  std::printf("\n");
}

/// The admin's relocation policy, written directly against the Core API.
class Balancer {
 public:
  Balancer(core::Runtime& rt, core::Core& admin, std::vector<core::Core*> farm)
      : rt_(rt), admin_(admin), farm_(std::move(farm)) {}

  Layout& layout() { return layout_; }

  /// Moves `ids` off `from` one after another, each to the least-loaded
  /// node when its turn comes, then runs `done`. Listeners run inside
  /// tasks, where nothing may block: each move is routed from the admin
  /// Core, and its settle continuation starts the next one.
  void MoveEach(std::vector<ComletId> ids, std::size_t next, core::Core* from,
                std::function<void()> done) {
    core::Core* dest = next < ids.size() ? LeastLoaded(from) : nullptr;
    if (dest == nullptr) {
      done();
      return;
    }
    const ComletId id = ids[next];
    admin_.MoveIdAsync(id, dest->id())
        // fargolint: allow(capture-this) the balancer lives in main, past the runtime's last pump
        .OnSettle([this, ids = std::move(ids), next, from, dest, id,
                   done = std::move(done)](sim::Future<sim::Unit> f) mutable {
          if (f.ok()) {
            std::vector<ComletId>& here = layout_[from->id()];
            here.erase(std::find(here.begin(), here.end(), id));
            layout_[dest->id()].push_back(id);
          }
          MoveEach(std::move(ids), next + 1, from, std::move(done));
        });
  }

  /// Policy 1: spread when a node gets hot (threshold monitor event).
  /// Policy 2: reliability — evacuate a dying node (CoreShutdown event).
  void Attach() {
    for (core::Core* node : farm_) {
      admin_.ListenThresholdAt(
          node->id(), monitor::ComletLoadProbe(), 8.0,
          monitor::Trigger::kAbove, fargo::Millis(50),
          [this, node](const monitor::Event& e) {
            std::printf("  !! %s overloaded (load %.0f) -> spreading\n",
                        node->name().c_str(), e.value);
            std::vector<ComletId> here = layout_[node->id()];
            here.resize(here.size() / 2);
            MoveEach(std::move(here), 0, node,
                     [this] { PrintLoads(rt_, layout_); });
          });
      admin_.ListenAt(node->id(), monitor::EventKind::kCoreShutdown,
                      [this, node](const monitor::Event&) {
                        std::printf("  !! %s shutting down -> evacuating\n",
                                    node->name().c_str());
                        MoveEach(layout_[node->id()], 0, node, [] {});
                      });
    }
  }

 private:
  core::Core* LeastLoaded(core::Core* except) {
    core::Core* best = nullptr;
    for (core::Core* c : farm_)
      if (c != except && c->alive() &&
          (best == nullptr ||
           layout_[c->id()].size() < layout_[best->id()].size()))
        best = c;
    return best;
  }

  core::Runtime& rt_;
  core::Core& admin_;
  std::vector<core::Core*> farm_;
  Layout layout_;
};

}  // namespace

int main() {
  (void)kReg;
  core::Runtime rt;
  core::Core& admin = rt.CreateCore("admin");
  std::vector<core::Core*> farm;
  for (int i = 0; i < 3; ++i)
    farm.push_back(&rt.CreateCore("node" + std::to_string(i)));
  rt.network().SetDefaultLink({fargo::Millis(5), 1.25e7, true});

  std::printf("== FarGo load balancer (monitoring API) ==\n");
  Balancer balancer(rt, admin, farm);
  balancer.Attach();
  Layout& layout = balancer.layout();

  // Deploy 12 workers, all on node0 (a deliberately bad static layout).
  std::vector<core::ComletRef<JobWorker>> workers;
  for (int i = 0; i < 12; ++i) {
    workers.push_back(admin.NewAt<JobWorker>(farm[0]->id()));
    layout[farm[0]->id()].push_back(workers.back().target());
  }
  PrintLoads(rt, layout);

  // Serve requests; the threshold event fires and the layout spreads.
  std::int64_t checksum = 0;
  for (int round = 0; round < 20; ++round) {
    for (auto& w : workers)
      checksum += w.Invoke<std::int64_t>("run", std::int64_t{round});
    rt.RunFor(fargo::Millis(100));
  }
  PrintLoads(rt, layout);

  // Now a node dies; its complets evacuate and service continues.
  std::printf("-- announcing shutdown of node1 --\n");
  farm[1]->Shutdown(fargo::Millis(500));
  rt.RunFor(fargo::Millis(500));
  PrintLoads(rt, layout);

  for (int round = 0; round < 5; ++round)
    for (auto& w : workers)
      checksum += w.Invoke<std::int64_t>("run", std::int64_t{round});

  std::int64_t total_jobs = 0;
  for (auto& w : workers) total_jobs += w.Invoke<std::int64_t>("jobs");
  std::printf("served %lld jobs across the farm (checksum %lld); "
              "no request was lost across 1 overload + 1 node death\n",
              static_cast<long long>(total_jobs),
              static_cast<long long>(checksum));
  return 0;
}

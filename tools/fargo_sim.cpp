// fargo_sim — a config-driven FarGo deployment sandbox.
//
// Builds a deployment (cores, links, generic payload complets, synthetic
// traffic) from a plain-text config, optionally attaches a layout script,
// runs it on the simulated WAN with the live terminal monitor, and can
// drop into the interactive admin shell.
//
// Usage:
//   fargo_sim <config> [--script <file.fgs>] [--duration <seconds>] [--shell]
//
// Config lines (# comments):
//   core <name>
//   default <latency_ms> <mbit>
//   link <coreA> <coreB> <latency_ms> <mbit>
//   complet <core> <name> [payload_bytes]
//   traffic <from-complet> <to-complet> <calls_per_second>
//   home-registry on
//   directory <core> [<core>...]
//
// Example: tools/example.cfg reproduces the paper's §4.3 scenario from
// pure configuration.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/fargo.h"

namespace {

using namespace fargo;

/// Generic complet for sandbox deployments: carries a payload and can call
/// a peer (generating the cross-reference invocation traffic that layout
/// rules react to).
class Payload : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "sim.Payload";
  Payload() {
    methods().Register("ping", [this](const std::vector<Value>&) {
      return Value(static_cast<std::int64_t>(bytes_.size()));
    });
    methods().Register("resize", [this](const std::vector<Value>& args) {
      bytes_.assign(static_cast<std::size_t>(args.at(0).AsInt()), 0x5a);
      return Value();
    });
    methods().Register("peer", [this](const std::vector<Value>& args) {
      peer_ = core()->RefFromHandle(args.at(0).AsHandle());
      return Value();
    });
    methods().Register("chat",
                       [this](const std::vector<Value>&) -> sim::Future<Value> {
                         if (!peer_)
                           return sim::MakeReadyFuture(core()->scheduler(),
                                                       Value());
                         return peer_.CallAsync("ping");
                       });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteBytes(bytes_);
    peer_.SerializeTo(w);
  }
  void Deserialize(serial::GraphReader& r) override {
    bytes_ = r.ReadBytes();
    peer_.DeserializeFrom(r);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  core::ComletRefBase peer_;
};

const bool kReg = serial::RegisterType<Payload>();

struct Traffic {
  std::string from, to;
  double per_second = 1;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: fargo_sim <config> [--script <file>] [--duration "
               "<seconds>] [--shell]\n");
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FargoError("cannot open: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  (void)kReg;
  if (argc < 2) Usage();
  std::string config_path = argv[1];
  std::string script_path;
  double duration_s = 10;
  bool interactive = false;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--script") && i + 1 < argc) {
      script_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--duration") && i + 1 < argc) {
      duration_s = std::stod(argv[++i]);
    } else if (!std::strcmp(argv[i], "--shell")) {
      interactive = true;
    } else {
      Usage();
    }
  }

  core::Runtime rt;
  core::Core& admin = rt.CreateCore("admin");
  std::vector<Traffic> traffic;
  std::map<std::string, core::ComletRefBase> complets;

  // ---- parse the config -----------------------------------------------------
  std::istringstream cfg(ReadFile(config_path));
  std::string line;
  int lineno = 0;
  while (std::getline(cfg, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;
    try {
      if (word == "core") {
        std::string name;
        ls >> name;
        rt.CreateCore(name);
      } else if (word == "default") {
        double ms, mbit;
        ls >> ms >> mbit;
        rt.network().SetDefaultLink(
            {static_cast<SimTime>(ms * 1e6), mbit * 1e6 / 8, true});
      } else if (word == "link") {
        std::string a, b;
        double ms, mbit;
        ls >> a >> b >> ms >> mbit;
        core::Core* ca = rt.FindByName(a);
        core::Core* cb = rt.FindByName(b);
        if (ca == nullptr || cb == nullptr)
          throw FargoError("unknown core in link");
        rt.network().SetLink(ca->id(), cb->id(),
                             {static_cast<SimTime>(ms * 1e6),
                              mbit * 1e6 / 8, true});
      } else if (word == "complet") {
        std::string core_name, name;
        std::size_t payload = 0;
        ls >> core_name >> name;
        ls >> payload;  // optional
        core::Core* host = rt.FindByName(core_name);
        if (host == nullptr) throw FargoError("unknown core " + core_name);
        auto ref = admin.NewRemote(host->id(), Payload::kTypeName);
        if (payload > 0)
          ref.Call("resize", {Value(static_cast<std::int64_t>(payload))});
        host->BindName(name, ref);
        complets.emplace(name, std::move(ref));
      } else if (word == "traffic") {
        Traffic t;
        ls >> t.from >> t.to >> t.per_second;
        traffic.push_back(t);
      } else if (word == "home-registry") {
        // The directory plane with origin placement; "off" is the default.
        std::string flag;
        ls >> flag;
        if (flag == "on") rt.EnableDirectory({});
      } else if (word == "directory") {
        // directory <core> [<core>...] — ring placement over these owners.
        std::vector<CoreId> owners;
        std::string owner_name;
        while (ls >> owner_name) {
          core::Core* owner = rt.FindByName(owner_name);
          if (owner == nullptr)
            throw FargoError("unknown core " + owner_name);
          owners.push_back(owner->id());
        }
        rt.EnableDirectory(owners);
      } else {
        throw FargoError("unknown directive '" + word + "'");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s:%d: %s\n", config_path.c_str(), lineno,
                   e.what());
      return 1;
    }
  }

  // ---- wire traffic generators ----------------------------------------------
  std::vector<std::unique_ptr<sim::PeriodicTask>> generators;
  for (const Traffic& t : traffic) {
    auto from = complets.find(t.from);
    auto to = complets.find(t.to);
    if (from == complets.end() || to == complets.end()) {
      std::fprintf(stderr, "traffic names unknown complet: %s -> %s\n",
                   t.from.c_str(), t.to.c_str());
      return 1;
    }
    from->second.Call("peer", {Value(to->second.handle())});
    const auto interval = static_cast<SimTime>(1e9 / t.per_second);
    // The generator calls through an admin-held ref: home it on admin.
    sim::Scheduler::AffinityScope home(admin.id().value);
    generators.push_back(std::make_unique<sim::PeriodicTask>(
        rt.scheduler(), interval, [ref = from->second] {
          // Fire and forget: a transiently unreachable peer only rejects
          // this chat's future, and the generator keeps going.
          ref.CallAsync("chat");
        }));
  }

  shell::TextMonitor monitor(rt, admin, std::cout);
  monitor.Attach();

  script::Engine engine(rt, admin);
  if (!script_path.empty()) {
    // Script args: %1 = list of all cores, %2..%n+1 = complets in config
    // order (so paper-style scripts bind directly).
    std::vector<Value> args;
    Value::List core_list;
    for (core::Core* c : rt.Cores())
      core_list.push_back(Value(static_cast<std::int64_t>(c->id().value)));
    args.push_back(Value(std::move(core_list)));
    for (const auto& [name, ref] : complets)
      args.push_back(Value(ref.handle()));
    engine.Run(ReadFile(script_path), std::move(args));
    std::printf("[fargo_sim] script attached: %zu rules\n",
                engine.active_rules());
  }

  std::printf("[fargo_sim] running %.1f simulated seconds...\n", duration_s);
  rt.RunFor(static_cast<SimTime>(duration_s * 1e9));

  std::printf("\n%s", monitor.RenderSnapshot().c_str());
  std::printf("[fargo_sim] t=%.2fs messages=%llu bytes=%llu dropped=%llu "
              "script-firings=%llu\n",
              ToSeconds(rt.Now()),
              static_cast<unsigned long long>(rt.network().total_messages()),
              static_cast<unsigned long long>(rt.network().total_bytes()),
              static_cast<unsigned long long>(rt.network().dropped()),
              static_cast<unsigned long long>(engine.rule_firings()));

  if (interactive) {
    shell::Shell sh(rt, admin, std::cout);
    sh.RunInteractive(std::cin);
  }
  return 0;
}

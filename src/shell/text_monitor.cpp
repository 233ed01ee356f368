#include "src/shell/text_monitor.h"

#include <iomanip>
#include <sstream>

namespace fargo::shell {

TextMonitor::TextMonitor(core::Runtime& runtime, core::Core& admin,
                         std::ostream& out)
    : runtime_(runtime), admin_(admin), out_(out) {}

TextMonitor::~TextMonitor() {
  *alive_ = false;
  try {
    Detach();
  } catch (...) {
    // Detaching from dead cores is best-effort.
  }
}

void TextMonitor::Attach() {
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive()) continue;
    for (monitor::EventKind kind :
         {monitor::EventKind::kComletArrived,
          monitor::EventKind::kComletDeparted,
          monitor::EventKind::kCoreShutdown,
          monitor::EventKind::kCoreUnreachable,
          monitor::EventKind::kCoreRecovered}) {
      tokens_.push_back(admin_.ListenAt(
          c->id(), kind, [this, alive = alive_](const monitor::Event& e) {
            if (*alive) OnEvent(e);
          }));
    }
  }
}

void TextMonitor::Detach() {
  for (monitor::SubId token : tokens_) admin_.UnlistenAt(token);
  tokens_.clear();
}

void TextMonitor::OnEvent(const monitor::Event& e) {
  ++events_seen_;
  if (!live_) return;
  core::Core* c = runtime_.Find(e.source);
  const std::string where = c != nullptr ? c->name() : ToString(e.source);
  switch (e.kind) {
    case monitor::EventKind::kComletArrived:
      out_ << "[monitor] + " << ToString(e.comlet) << " arrived at " << where
           << "\n";
      break;
    case monitor::EventKind::kComletDeparted:
      out_ << "[monitor] - " << ToString(e.comlet) << " departed from "
           << where << "\n";
      break;
    case monitor::EventKind::kCoreShutdown:
      out_ << "[monitor] ! core " << where << " shutting down\n";
      break;
    case monitor::EventKind::kCoreUnreachable: {
      core::Core* peer = runtime_.Find(e.peer);
      out_ << "[monitor] ! core "
           << (peer != nullptr ? peer->name() : ToString(e.peer))
           << " unreachable (detected by " << where << ")\n";
      break;
    }
    case monitor::EventKind::kCoreRecovered: {
      core::Core* peer = runtime_.Find(e.peer);
      out_ << "[monitor] ! core "
           << (peer != nullptr ? peer->name() : ToString(e.peer))
           << " recovered (detected by " << where << ")\n";
      break;
    }
    case monitor::EventKind::kThreshold:
      out_ << "[monitor] ~ " << ToString(e.probe) << " = " << e.value
           << " at " << where << "\n";
      break;
  }
}

std::string TextMonitor::RenderSnapshot() const {
  std::ostringstream os;
  os << "=== deployment @ t=" << std::fixed << std::setprecision(3)
     << ToMillis(runtime_.Now()) << " ms ===\n";
  // Headline gauges: traffic from the network, machinery counters from the
  // metrics registry (see `stats` for the full dump).
  const monitor::Registry& reg = runtime_.metrics();
  const net::Network& net = runtime_.network();
  os << "messages=" << net.total_messages()
     << " drops=" << reg.CounterValue("net.drops")
     << " invocations=" << reg.CounterValue("invoke.count")
     << " retries=" << reg.CounterValue("rpc.retries")
     << " dup_hits="
     << reg.CounterValue("session.replays") +
            reg.CounterValue("session.suppressed")
     << " moves=" << reg.CounterValue("move.count") << "\n";
  for (core::Core* c : runtime_.Cores()) {
    os << c->name() << " (" << ToString(c->id()) << ")"
       << (c->alive() ? "" : " [DOWN]") << "\n";
    if (!c->alive()) continue;
    for (ComletId id : c->ComletsHere()) {
      auto anchor = c->repository().Get(id);
      os << "  " << ToString(id) << "  " << (anchor ? anchor->TypeName() : "?");
      // Show name bindings pointing at this complet.
      for (const auto& [name, handle] : c->naming().All())
        if (handle.id == id) os << "  <" << name << ">";
      os << "\n";
      // Complet references with their relocation semantics (Fig 4's
      // reference-property view).
      for (const core::ComletRefBase* ref : c->RefsOwnedBy(id)) {
        os << "    -> " << ToString(ref->target()) << " ["
           << ref->meta()->GetRelocator()->Kind()
           << ", invocations=" << ref->meta()->invocation_count() << "]\n";
      }
    }
    for (const core::TrackerEntry* t : c->trackers().All()) {
      if (t->is_local()) continue;
      os << "  tracker " << ToString(t->target) << " -> "
         << ToString(t->next) << " (stubs=" << t->stub_refs
         << ", forwarded=" << t->forwarded << ")\n";
    }
  }
  return os.str();
}

}  // namespace fargo::shell

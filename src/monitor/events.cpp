#include "src/monitor/events.h"

#include "src/common/log.h"
#include "src/core/core.h"
#include "src/core/runtime.h"
#include "src/monitor/profiler.h"

namespace fargo::monitor {

const char* ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kComletArrived:
      return "completArrived";
    case EventKind::kComletDeparted:
      return "completDeparted";
    case EventKind::kCoreShutdown:
      return "shutdown";
    case EventKind::kThreshold:
      return "threshold";
    case EventKind::kCoreUnreachable:
      return "coreUnreachable";
    case EventKind::kCoreRecovered:
      return "coreRecovered";
  }
  return "?";
}

EventKind ParseEventKind(const std::string& name) {
  if (name == "completArrived" || name == "comletArrived" ||
      name == "arrived")
    return EventKind::kComletArrived;
  if (name == "completDeparted" || name == "comletDeparted" ||
      name == "departed")
    return EventKind::kComletDeparted;
  if (name == "shutdown" || name == "coreShutdown")
    return EventKind::kCoreShutdown;
  if (name == "coreUnreachable" || name == "unreachable")
    return EventKind::kCoreUnreachable;
  if (name == "coreRecovered" || name == "recovered")
    return EventKind::kCoreRecovered;
  throw FargoError("unknown event kind: " + name);
}

Value EventToValue(const Event& e) {
  Value::Map m;
  m["kind"] = Value(static_cast<std::int64_t>(e.kind));
  m["core"] = Value(static_cast<std::int64_t>(e.source.value));
  m["comlet_origin"] = Value(static_cast<std::int64_t>(e.comlet.origin.value));
  m["comlet_seq"] = Value(static_cast<std::int64_t>(e.comlet.seq));
  m["service"] = Value(static_cast<std::int64_t>(e.probe.service));
  m["value"] = Value(e.value);
  m["peer"] = Value(static_cast<std::int64_t>(e.peer.value));
  return Value(std::move(m));
}

Event EventFromValue(const Value& v) {
  const Value::Map& m = v.AsMap();
  Event e;
  e.kind = static_cast<EventKind>(m.at("kind").AsInt());
  e.source = CoreId{static_cast<std::uint32_t>(m.at("core").AsInt())};
  e.comlet.origin =
      CoreId{static_cast<std::uint32_t>(m.at("comlet_origin").AsInt())};
  e.comlet.seq = static_cast<std::uint64_t>(m.at("comlet_seq").AsInt());
  e.probe.service = static_cast<Service>(m.at("service").AsInt());
  e.value = m.at("value").AsReal();
  if (auto it = m.find("peer"); it != m.end())
    e.peer = CoreId{static_cast<std::uint32_t>(it->second.AsInt())};
  return e;
}

void WriteProbeWire(serial::Writer& w, const ProbeKey& key) {
  w.WriteU8(static_cast<std::uint8_t>(key.service));
  w.WriteVarint(key.a.origin.value);
  w.WriteVarint(key.a.seq);
  w.WriteVarint(key.b.origin.value);
  w.WriteVarint(key.b.seq);
  w.WriteVarint(key.peer.value);
}

ProbeKey ReadProbeWire(serial::Reader& r) {
  ProbeKey key;
  key.service = static_cast<Service>(r.ReadU8());
  key.a.origin.value = static_cast<std::uint32_t>(r.ReadVarint());
  key.a.seq = r.ReadVarint();
  key.b.origin.value = static_cast<std::uint32_t>(r.ReadVarint());
  key.b.seq = r.ReadVarint();
  key.peer.value = static_cast<std::uint32_t>(r.ReadVarint());
  return key;
}

void WriteEventWire(serial::Writer& w, const Event& e) {
  w.WriteU8(static_cast<std::uint8_t>(e.kind));
  w.WriteVarint(e.source.value);
  w.WriteVarint(e.comlet.origin.value);
  w.WriteVarint(e.comlet.seq);
  WriteProbeWire(w, e.probe);
  w.WriteDouble(e.value);
  w.WriteVarint(e.peer.value);
}

Event ReadEventWire(serial::Reader& r) {
  Event e;
  e.kind = static_cast<EventKind>(r.ReadU8());
  e.source.value = static_cast<std::uint32_t>(r.ReadVarint());
  e.comlet.origin.value = static_cast<std::uint32_t>(r.ReadVarint());
  e.comlet.seq = r.ReadVarint();
  e.probe = ReadProbeWire(r);
  e.value = r.ReadDouble();
  e.peer.value = static_cast<std::uint32_t>(r.ReadVarint());
  return e;
}

EventBus::EventBus(core::Core& core) : core_(core) {
  core_.profiler().SetSampleHook(
      [this](const ProbeKey& probe, double value) { OnSample(probe, value); });
}

SubId EventBus::Listen(EventKind kind, Listener listener) {
  const SubId id = next_id_++;
  lifecycle_.emplace(id, std::make_pair(kind, std::move(listener)));
  return id;
}

SubId EventBus::ListenThreshold(const ProbeKey& probe, double threshold,
                                Trigger trigger, SimTime interval,
                                Listener listener) {
  // Registration starts the continuous profiler under the covers (§4.2);
  // the threshold stays with the listener, filtering samples per listener.
  core_.profiler().Start(probe, interval);
  const SubId id = next_id_++;
  thresholds_.emplace(
      id, ThresholdSub{probe, threshold, trigger, true, std::move(listener)});
  return id;
}

void EventBus::Unlisten(SubId id) {
  if (auto it = thresholds_.find(id); it != thresholds_.end()) {
    core_.profiler().Stop(it->second.probe);
    thresholds_.erase(it);
    return;
  }
  lifecycle_.erase(id);
}

void EventBus::Fire(const Event& event) {
  for (const auto& [id, sub] : lifecycle_) {
    if (sub.first != event.kind) continue;
    Notify(sub.second, event);
  }
}

void EventBus::OnSample(const ProbeKey& probe, double value) {
  for (auto& [id, sub] : thresholds_) {
    if (sub.probe != probe) continue;
    const bool crossed = sub.trigger == Trigger::kAbove
                             ? value > sub.threshold
                             : value < sub.threshold;
    if (crossed && sub.armed) {
      // Edge-triggered: fire once per crossing, re-arm when it clears.
      sub.armed = false;
      Event e;
      e.kind = EventKind::kThreshold;
      e.source = core_.id();
      e.probe = probe;
      e.value = value;
      Notify(sub.listener, e);
    } else if (!crossed) {
      sub.armed = true;
    }
  }
}

void EventBus::Notify(const Listener& listener, const Event& event) {
  ++notifications_;
  // Asynchronous notification: the paper starts a fresh thread per
  // notification; we schedule an immediate task on the event loop.
  core_.scheduler().ScheduleAfter(0, [listener, event] { listener(event); });
}

Listener ComletListener(core::Core& core, ComletHandle listener,
                        std::string method) {
  // A listener runs inside a task: deliver asynchronously, report on
  // settle.
  return [&core, listener, method](const Event& e) {
    core.RefFromHandle(listener)
        .CallAsync(method, {EventToValue(e)})
        .OnSettle([listener, method](sim::Future<Value> f) {
          if (!f.ok())
            LogWarn() << "event delivery to complet " << ToString(listener.id)
                      << "." << method
                      << " failed: " << sim::ErrorText(f.error());
        });
  };
}

}  // namespace fargo::monitor

// Monitor events (§4.2): asynchronous notification instead of polling.
//
// Every profiling service has a corresponding threshold event; registering
// internally starts the continuous profiler, and the threshold "is kept
// separately with the listener, in order to filter the results. This design
// allows many listeners without overloading the measurement unit."
//
// Cores additionally fire non-measurable lifecycle events: completArrived,
// completDeparted, coreShutdown. Notification is asynchronous (the paper
// starts a thread per notification; we schedule a task). Listeners may live
// on other Cores (distributed events) and may themselves be complets that
// keep receiving events after migrating — complet listeners are notified
// through ordinary complet invocation, which tracks movement.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/common/value.h"
#include "src/core/fwd.h"
#include "src/monitor/probe.h"
#include "src/serial/bytes.h"

namespace fargo::monitor {

enum class EventKind : std::uint8_t {
  kComletArrived = 0,
  kComletDeparted = 1,
  kCoreShutdown = 2,
  kThreshold = 3,
  kCoreUnreachable = 4,  ///< failure detector: peer missed K heartbeats
  kCoreRecovered = 5,    ///< failure detector: suspected peer answered again
};

const char* ToString(EventKind kind);
/// Parses script-facing names: "completArrived", "completDeparted",
/// "shutdown", "coreUnreachable", "coreRecovered". Throws FargoError on
/// unknown names.
EventKind ParseEventKind(const std::string& name);

/// Fire-when-value-crosses direction for threshold events.
enum class Trigger : std::uint8_t { kAbove = 0, kBelow = 1 };

struct Event {
  EventKind kind = EventKind::kComletArrived;
  CoreId source;       ///< Core that fired the event
  ComletId comlet{};   ///< subject (arrived/departed)
  ProbeKey probe{};    ///< threshold events: what was measured
  double value = 0;    ///< threshold events: the measured value
  CoreId peer{};       ///< failure-detector events: the suspected Core
};

/// Encodes an event as a Value map (for delivery to complet listener
/// methods and to the scripting engine).
Value EventToValue(const Event& e);
Event EventFromValue(const Value& v);

// Wire codecs used by the distributed-event protocol (Core messages).
void WriteProbeWire(serial::Writer& w, const ProbeKey& key);
ProbeKey ReadProbeWire(serial::Reader& r);
void WriteEventWire(serial::Writer& w, const Event& e);
Event ReadEventWire(serial::Reader& r);

using SubId = std::uint64_t;
using Listener = std::function<void(const Event&)>;

class EventBus {
 public:
  explicit EventBus(core::Core& core);
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Registers a listener for a lifecycle event kind at this Core.
  SubId Listen(EventKind kind, Listener listener);

  /// Registers a threshold event on a profiling service: starts continuous
  /// profiling of `probe` at `interval` and notifies when the smoothed
  /// value crosses `threshold` in the `trigger` direction (edge-triggered;
  /// re-arms when the condition clears).
  SubId ListenThreshold(const ProbeKey& probe, double threshold,
                        Trigger trigger, SimTime interval, Listener listener);

  void Unlisten(SubId id);

  /// Fires an event: every matching listener is notified asynchronously.
  void Fire(const Event& event);

  std::size_t listener_count() const { return lifecycle_.size() + thresholds_.size(); }

  /// Notifications dispatched so far (bench telemetry).
  std::uint64_t notifications() const { return notifications_; }

 private:
  friend class ThresholdDriver;

  struct ThresholdSub {
    ProbeKey probe;
    double threshold = 0;
    Trigger trigger = Trigger::kAbove;
    bool armed = true;
    Listener listener;
  };

  void OnSample(const ProbeKey& probe, double value);
  void Notify(const Listener& listener, const Event& event);

  core::Core& core_;
  SubId next_id_ = 1;
  std::map<SubId, std::pair<EventKind, Listener>> lifecycle_;
  std::map<SubId, ThresholdSub> thresholds_;
  std::uint64_t notifications_ = 0;
};

/// Adapts a complet method as an event listener: the event is delivered by
/// invoking `method(event-as-map)` through a tracked reference, so delivery
/// keeps working after the listener complet migrates.
Listener ComletListener(core::Core& core, ComletHandle listener,
                        std::string method);

}  // namespace fargo::monitor

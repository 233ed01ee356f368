// Complet anchors.
//
// A complet (§2) is a group of objects accessed through a single well-known
// interface object: the anchor. All external references into the complet
// point at the anchor; the complet's closure is the object graph reachable
// from the anchor, cut at other anchors.
//
// In the paper, the FarGo compiler generates a stub class per anchor. In
// C++, anchors instead expose their remote interface through a MethodMap
// (name → handler), which the invocation unit dispatches into; examples show
// optional hand-written typed stubs layered on ComletRef<T>.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/core/fwd.h"
#include "src/serial/registry.h"
#include "src/sim/future.h"

namespace fargo::core {

/// What a dispatched method produced: its value, or — for a method that
/// answers later — `later`, which settles with the value or the error.
struct MethodResult {
  Value value;
  sim::Future<Value> later;  ///< valid() only for an async method
};

/// Registry of remotely invocable methods of an anchor.
// fargo: domain(core)
class MethodMap {
 public:
  using Handler = std::function<Value(const std::vector<Value>&)>;
  /// A method that answers later. Methods run inside tasks, where a
  /// synchronous call would pump and throw; a method that calls another
  /// complet returns that call's future (`ref.CallAsync(...)`), and its own
  /// caller is answered when the future settles.
  using AsyncHandler =
      std::function<sim::Future<Value>(const std::vector<Value>&)>;

  /// Registers `handler` under `name`; later registrations win (overrides).
  void Register(std::string name, Handler handler) {
    handlers_[std::move(name)] = std::move(handler);
  }
  void Register(std::string name, AsyncHandler handler) {
    handlers_[std::move(name)] = std::move(handler);
  }

  bool Contains(std::string_view name) const {
    return handlers_.contains(std::string(name));
  }

  /// Invokes the named handler; throws FargoError for unknown methods.
  MethodResult Invoke(std::string_view name,
                      const std::vector<Value>& args) const;

  /// Sorted method names, for the shell's introspection commands.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::variant<Handler, AsyncHandler>, std::less<>>
      handlers_;
};

/// Base class of all complet anchors.
///
/// Subclasses must: be default-constructible, expose
/// `static constexpr std::string_view kTypeName`, be registered via
/// `serial::RegisterType<T>()`, register their methods into `methods()`
/// (typically from the default constructor), and (de)serialize their
/// closure in Serialize/Deserialize.
// fargo: domain(core)
class Anchor : public serial::Serializable {
 public:
  /// Global, movement-stable identity of this complet instance.
  ComletId id() const { return id_; }

  /// The Core currently hosting this complet (null before registration).
  Core* core() const { return core_; }

  // -- movement lifecycle callbacks (§3.3) -----------------------------------
  /// Invoked at the sending Core before the complet is marshaled.
  virtual void PreDeparture() {}
  /// Invoked at the receiving Core before unmarshaling completes (i.e.
  /// after this anchor's own state is read, before the complet is attached).
  virtual void PreArrival() {}
  /// Invoked at the receiving Core once the complet is installed.
  virtual void PostArrival() {}
  /// Invoked at the sending Core right before the stale copy is released.
  virtual void PostDeparture() {}

  const MethodMap& methods() const { return methods_; }

 protected:
  MethodMap& methods() { return methods_; }

 private:
  friend class Core;
  friend class MovementUnit;
  // Checkpoint/WAL restore re-establishes saved identities (persistence.h).
  friend std::shared_ptr<Anchor> DecodeComletImage(
      Core& core, ComletId id, const std::vector<std::uint8_t>& body);

  ComletId id_{};
  Core* core_ = nullptr;
  MethodMap methods_;
};

}  // namespace fargo::core

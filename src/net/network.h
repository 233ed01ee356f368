// Simulated wide-area network connecting Cores.
//
// Replaces the paper's Java-RMI-over-WAN transport (see DESIGN.md §2).
// Each directed Core pair has a LinkModel (propagation latency, bandwidth,
// up/down) that can be changed while the application runs — the paper's
// motivating "dynamically changing transfer rates". Message cost:
//   arrival = now + latency + (header + payload) / bandwidth
// Per-link byte/message counters feed the monitoring layer (§4.1 bandwidth
// profiling) and the benchmarks (message-count claims of §3.3).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/net/chaos.h"
#include "src/sim/scheduler.h"

namespace fargo::net {

/// Transport-level message types exchanged by Cores (the Peer Interface of
/// Fig 1).
enum class MessageKind : std::uint8_t {
  kInvokeRequest = 0,
  kInvokeReply = 1,
  kMoveRequest = 2,
  kMoveReply = 3,
  kTrackerUpdate = 4,   ///< chain-shortening repoint (§3.1)
  kEventRegister = 5,   ///< remote listener registration (§4.2)
  kEventUnregister = 6,
  kEventNotify = 7,
  kNameRequest = 8,
  kNameReply = 9,
  kNewRequest = 10,     ///< remote complet instantiation
  kNewReply = 11,
  kControl = 12,
  kControlReply = 13,   ///< answer to a control/event-register request
  kRecoveryQuery = 14,  ///< WAL recovery: "did move txn N from me install?"
  kRecoveryReply = 15,
  kBatch = 16,          ///< formation frame carrying several small messages
  kDirectoryPublish = 17,  ///< one-way location publish to a home shard
  kDirectoryLookup = 18,   ///< RPC: "where does the shard say this lives?"
  kDirectoryReply = 19,
  kDirectoryMap = 20,      ///< versioned ShardMap broadcast (higher wins)
};

const char* ToString(MessageKind kind);

/// Identifies one in-flight request within a per-(origin,peer) session
/// (src/net/session.h). Travels on the Message frame, not inside protocol
/// payloads, so forwarding hops can relay it without re-encoding. A
/// default-constructed key (epoch 0) means "no session" — the receiver
/// skips slot admission, which is what idempotent requests want.
struct SessionKey {
  CoreId origin;            ///< session owner (the retrying side)
  CoreId peer;              ///< executor the slot was acquired for
  std::uint64_t epoch = 0;  ///< origin incarnation; 0 = invalid/no session
  std::uint32_t slot = 0;   ///< slot index within the session
  std::uint64_t seq = 0;    ///< per-slot use counter (detects slot reuse)

  bool valid() const { return epoch != 0; }
  friend bool operator==(const SessionKey&, const SessionKey&) = default;
};

/// A Core-to-Core message.
struct Message {
  CoreId from;
  CoreId to;
  MessageKind kind = MessageKind::kControl;
  std::uint64_t correlation = 0;  ///< request/reply matching token
  SessionKey session;             ///< slot-replay key; invalid = sessionless
  std::vector<std::uint8_t> payload;

  std::size_t size() const { return payload.size(); }
};

/// Quality of a directed link.
struct LinkModel {
  SimTime latency = Millis(5);
  double bytes_per_sec = 1.25e6;  ///< 10 Mbit/s default WAN link
  bool up = true;
};

struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;  ///< any reason (link down, chaos, arrival)

  friend bool operator==(const LinkStats&, const LinkStats&) = default;
};

/// The deterministic message fabric. Cores register a handler; Send()
/// charges the link model and schedules delivery on the shared scheduler.
///
/// Thread safety (FARGO_PARALLEL): the fabric is the one shared artery
/// between localities, so every mutable field is guarded by one mutex.
/// Send() may be called from any locality; delivery is Post()ed to the
/// *destination* Core's home locality, which is how a message crosses an
/// ownership-domain boundary without ever touching foreign Core state
/// directly. Handlers are invoked outside the lock (they re-enter Send).
// fargo: domain(net)
class Network {
 public:
  using Handler = std::function<void(Message)>;

  explicit Network(sim::Scheduler& sched) : sched_(sched) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attaches a Core's receive handler.
  void Register(CoreId id, Handler handler);
  /// Detaches a Core; in-flight messages to it are dropped on arrival.
  void Unregister(CoreId id);
  bool IsRegistered(CoreId id) const {
    std::lock_guard<std::mutex> lk(mu_);
    return handlers_.contains(id);
  }

  /// Sets the link model in both directions between `a` and `b`.
  void SetLink(CoreId a, CoreId b, LinkModel model);
  /// Sets a single direction only (asymmetric links).
  void SetLinkOneWay(CoreId from, CoreId to, LinkModel model);
  /// Model used for pairs without an explicit link.
  void SetDefaultLink(LinkModel model);
  /// Effective model for the directed pair.
  LinkModel GetLink(CoreId from, CoreId to) const;
  /// Cuts or restores both directions, each keeping its own model.
  void SetPartitioned(CoreId a, CoreId b, bool partitioned);
  /// The least latency of any link between two distinct Cores, the default
  /// link included (loopback is not a link). Nothing a Core sends reaches
  /// another Core sooner, so it is the locality engine's lookahead.
  SimTime MinLinkLatency() const {
    std::lock_guard<std::mutex> lk(mu_);
    return min_latency_;
  }

  /// Fixed framing overhead charged per message (default 64 bytes).
  void SetHeaderBytes(std::size_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    header_bytes_ = n;
  }

  /// Sends `msg`; delivery is scheduled per the link model. Messages on a
  /// down link or to an unregistered Core are counted as dropped.
  void Send(Message msg);

  /// Observability tap: invoked for every message at send time (before
  /// drop/delivery decisions). Used by protocol tests and debug tooling.
  /// Runs under the fabric lock — serialized across localities, so a tap
  /// may append to plain containers; it must not call back into Network.
  using Tap = std::function<void(const Message&)>;
  void SetTap(Tap tap) {
    std::lock_guard<std::mutex> lk(mu_);
    tap_ = std::move(tap);
  }

  /// Drop hook: invoked for every dropped message, after the per-reason
  /// counters update. Keeps the Network monitor-agnostic — the Runtime
  /// installs a hook that feeds the metrics registry.
  using DropHook = std::function<void(const Message&, DropReason)>;
  void SetDropHook(DropHook hook) {
    std::lock_guard<std::mutex> lk(mu_);
    drop_hook_ = std::move(hook);
  }

  /// Copy hook: invoked with the payload size whenever the fabric must
  /// duplicate a message instead of moving it (chaos duplication is the
  /// only such site — the normal Send → chaos → link queue → Deliver path
  /// moves the payload end to end). Feeds `net.bytes_copied`.
  using CopyHook = std::function<void(std::size_t)>;
  void SetCopyHook(CopyHook hook) {
    std::lock_guard<std::mutex> lk(mu_);
    copy_hook_ = std::move(hook);
  }

  // -- fault injection -------------------------------------------------------
  /// Arms `plan` for every directed link and schedules its flaps/crashes.
  /// Scheduled crashes call the crash handler (Runtime installs one that
  /// invokes Core::Crash); without a handler the Core is just detached.
  void SetFaultPlan(const FaultPlan& plan);
  /// Arms `plan` for one directed link only (probabilistic faults; the
  /// plan's scheduled flaps/crashes are ignored here).
  void SetLinkFaultPlan(CoreId from, CoreId to, const FaultPlan& plan);
  /// Disarms all probabilistic fault plans. Already-scheduled flaps and
  /// crashes still fire.
  void ClearFaults() {
    std::lock_guard<std::mutex> lk(mu_);
    chaos_.Disarm();
  }
  /// Direct chaos-engine access (tests, between pumps only in parallel
  /// mode — the engine itself is guarded by the fabric lock during Send).
  ChaosEngine& chaos() { return chaos_; }
  void SetCrashHandler(std::function<void(CoreId)> handler) {
    std::lock_guard<std::mutex> lk(mu_);
    crash_handler_ = std::move(handler);
  }
  /// Handler for scheduled crash+restart cycles (FaultPlan::CoreCrash with
  /// restart_after > 0). The Runtime installs one that calls Core::Restart.
  void SetRestartHandler(std::function<void(CoreId)> handler) {
    std::lock_guard<std::mutex> lk(mu_);
    restart_handler_ = std::move(handler);
  }

  // -- telemetry -------------------------------------------------------------
  LinkStats StatsBetween(CoreId from, CoreId to) const;
  std::uint64_t total_messages() const {
    std::lock_guard<std::mutex> lk(mu_);
    return total_.messages;
  }
  std::uint64_t total_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return total_.bytes;
  }
  /// Total drops, all reasons (sum of the per-reason counters).
  std::uint64_t dropped() const;
  std::uint64_t dropped_by(DropReason reason) const {
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_by_[static_cast<int>(reason)];
  }
  std::uint64_t dropped_link_down() const {
    return dropped_by(DropReason::kLinkDown);
  }
  std::uint64_t dropped_unregistered() const {
    return dropped_by(DropReason::kUnregistered);
  }
  std::uint64_t dropped_chaos() const {
    return dropped_by(DropReason::kChaos);
  }
  std::uint64_t duplicates() const {
    std::lock_guard<std::mutex> lk(mu_);
    return chaos_.stats().duplicates;
  }
  std::uint64_t reorders() const {
    std::lock_guard<std::mutex> lk(mu_);
    return chaos_.stats().reorders;
  }
  /// Per-directed-pair stats, sorted by (from, to) for deterministic output.
  std::vector<std::pair<std::pair<CoreId, CoreId>, LinkStats>> AllLinkStats()
      const;
  void ResetStats();

  sim::Scheduler& scheduler() { return sched_; }

 private:
  using PairKey = std::uint64_t;
  static PairKey Key(CoreId from, CoreId to) {
    return (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  }

  void Deliver(Message msg);
  /// Callers hold mu_.
  void CountDrop(const Message& msg, DropReason reason);
  LinkModel GetLinkLocked(CoreId from, CoreId to) const;
  /// Sets one direction's model and keeps min_latency_ current. Callers
  /// hold mu_.
  void PutLinkLocked(CoreId from, CoreId to, LinkModel model);
  void RecomputeMinLatencyLocked();
  /// Takes one direction down or up, keeping its model (fault-plan flaps
  /// run this on the sending Core's locality).
  void SetLinkUp(CoreId from, CoreId to, bool up);

  sim::Scheduler& sched_;
  /// Guards every mutable field below (FARGO_PARALLEL: Send and Deliver
  /// run on locality workers). Handlers/hooks are copied out and invoked
  /// unlocked; the tap runs under the lock (see SetTap).
  mutable std::mutex mu_;
  std::unordered_map<CoreId, Handler> handlers_;
  std::unordered_map<PairKey, LinkModel> links_;
  std::unordered_map<PairKey, LinkStats> stats_;
  LinkModel default_link_;
  SimTime min_latency_ = default_link_.latency;  ///< see MinLinkLatency
  LinkStats total_;
  std::uint64_t dropped_by_[kDropReasonCount] = {0, 0, 0};
  std::size_t header_bytes_ = 64;
  Tap tap_;
  DropHook drop_hook_;
  CopyHook copy_hook_;
  ChaosEngine chaos_;
  std::function<void(CoreId)> crash_handler_;
  std::function<void(CoreId)> restart_handler_;
};

}  // namespace fargo::net

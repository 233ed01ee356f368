// The FarGo Core (Fig 1): the stationary runtime node.
//
// A Core hosts complets (Repository), realizes complet references (tracker
// table + stubs), migrates complets (MovementUnit), implements the
// invocation/parameter-passing scheme (InvocationUnit), provides naming,
// remote instantiation, monitoring (Profiler) and asynchronous events
// (EventBus), and talks to peer Cores through the Network (Peer Interface).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/common/value.h"
#include "src/core/anchor.h"
#include "src/core/fwd.h"
#include "src/core/naming.h"
#include "src/core/ref.h"
#include "src/core/repository.h"
#include "src/core/retry.h"
#include "src/core/tracker.h"
#include "src/monitor/events.h"
#include "src/monitor/metrics.h"
#include "src/monitor/trace.h"
#include "src/net/formation.h"
#include "src/net/network.h"
#include "src/net/session.h"
#include "src/serial/registry.h"
#include "src/sim/future.h"
#include "src/sim/scheduler.h"

namespace fargo::core {

class Directory;
class FailureDetector;
class Wal;

// System methods handled by the Core itself, never dispatched to anchors.
inline constexpr std::string_view kPingMethod = "__fargo.ping";
inline constexpr std::string_view kMoveMethod = "__fargo.move";
inline constexpr std::string_view kMethodsMethod = "__fargo.methods";

/// Outcome of one routed invocation, including tracking telemetry.
struct InvokeResult {
  Value value;
  CoreId location;  ///< Core where the target actually executed
  int hops = 0;     ///< forwarding hops the request traversed
  std::uint64_t hint_epoch = 0;  ///< executor's location stamp (0 = none)
};

// fargo: domain(core)
class Core {
 public:
  Core(Runtime& runtime, CoreId id, std::string name);
  ~Core();
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  CoreId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool alive() const { return alive_; }

  // ==== Core API (paper §3) ==================================================

  /// Instantiates a complet locally — the C++ rendering of Fig 3's
  /// `Message msg = new Message_("...")`.
  template <class T, class... Args>
  ComletRef<T> New(Args&&... args) {
    static_assert(std::is_base_of_v<Anchor, T>, "T must be an Anchor");
    auto anchor = std::make_shared<T>(std::forward<Args>(args)...);
    return ComletRef<T>(Install(std::move(anchor)));
  }

  /// Remote instantiation: default-constructs `anchor_type` at `dest`.
  ComletRefBase NewRemote(CoreId dest, std::string_view anchor_type);

  template <class T>
  ComletRef<T> NewAt(CoreId dest) {
    return ComletRef<T>(NewRemote(dest, T::kTypeName));
  }

  /// Moves the referenced complet to `dest`, honouring the relocation
  /// semantics of all its outgoing references (§3.3). Works for complets
  /// hosted anywhere: the command is routed through the tracker chain.
  /// With a continuation (§3.3), the destination Core invokes
  /// `continuation` on the moved complet with `args` after unmarshaling.
  void Move(const ComletRefBase& ref, CoreId dest,
            std::string continuation = {}, std::vector<Value> args = {});

  /// Id-addressed variant used by the scripting engine and the shell.
  void MoveId(ComletId target, CoreId dest, std::string continuation = {},
              std::vector<Value> args = {});

  /// Asynchronous movement: returns a future that settles once the move
  /// commits (including any deferred remote pulls it spawned) or rolls
  /// back. The synchronous Move/MoveId are thin wrappers that pump the
  /// scheduler until this future settles. Layout rules use this to keep
  /// acting while migrations are outstanding (§4.2–4.3).
  sim::Future<sim::Unit> MoveAsync(const ComletRefBase& ref, CoreId dest,
                                   std::string continuation = {},
                                   std::vector<Value> args = {});
  sim::Future<sim::Unit> MoveIdAsync(ComletId target, CoreId dest,
                                     std::string continuation = {},
                                     std::vector<Value> args = {});

  /// Reflection entry point (§3.2): the meta reference of a complet
  /// reference, reifying its relocation semantics.
  static MetaRef& GetMetaRef(const ComletRefBase& ref);

  /// Authoritative current location of the target: walks (and thereby
  /// shortens) the tracker chain with a ping. The sync form pumps.
  sim::Future<CoreId> ResolveLocationAsync(const ComletRefBase& ref);
  CoreId ResolveLocation(const ComletRefBase& ref);

  /// Materializes a stub from a wire handle, with reference semantics
  /// degraded to `link` (parameter-passing rule of §3.1).
  ComletRefBase RefFromHandle(const ComletHandle& handle, ComletId owner = {});

  template <class T>
  ComletRef<T> RefTo(const ComletHandle& handle) {
    return ComletRef<T>(RefFromHandle(handle));
  }
  template <class T>
  ComletRef<T> RefTo(const Value& v) {
    return RefTo<T>(v.AsHandle());
  }

  // -- naming -----------------------------------------------------------------
  Naming& naming() { return naming_; }
  void BindName(std::string name, const ComletRefBase& ref);
  /// Looks a name up at a (possibly remote) Core.
  std::optional<ComletHandle> LookupAt(CoreId where, const std::string& name);

  // -- parameter passing helpers (§3.1) ----------------------------------------
  /// Serializes an object graph for pass-by-value. Embedded complet
  /// references are encoded as handles degraded to `link`; referenced
  /// anchors are never copied.
  ObjectBlob CaptureObject(const serial::Serializable& root);
  /// Reconstructs a passed-by-value graph, re-binding embedded references
  /// at this Core.
  std::shared_ptr<serial::Serializable> MaterializeObject(
      const ObjectBlob& blob);
  template <class T>
  std::shared_ptr<T> MaterializeObjectAs(const ObjectBlob& blob) {
    auto obj = std::dynamic_pointer_cast<T>(MaterializeObject(blob));
    if (!obj) throw FargoError("materialized object has unexpected type");
    return obj;
  }

  // -- monitoring (§4) ----------------------------------------------------------
  monitor::Profiler& profiler() { return *profiler_; }
  monitor::EventBus& events() { return *events_; }

  // -- observability: causal tracing + metrics --------------------------------

  /// Per-Core span recorder. Enable with SetTracing; spans land in
  /// tracer().buffer() and export as Chrome-trace JSON via DumpTrace.
  monitor::Tracer& tracer() { return tracer_; }
  const monitor::Tracer& tracer() const { return tracer_; }
  void SetTracing(bool on) { tracer_.SetEnabled(on); }

  /// The deployment-wide metrics registry (owned by the Runtime); hot-path
  /// instruments are resolved once at Core construction.
  monitor::Registry& metrics();

  /// Writes this Core's span buffer as Chrome trace-event JSON. Returns
  /// the number of events written. (Runtime::DumpTrace merges all Cores.)
  std::size_t DumpTrace(const std::string& path) const;

  /// Distributed events (§4.2): registers `listener` for lifecycle events
  /// fired by the (possibly remote) Core `where`. Returns a local token for
  /// UnlistenAt.
  monitor::SubId ListenAt(CoreId where, monitor::EventKind kind,
                          monitor::Listener listener);
  /// Distributed threshold event on a profiling service of Core `where`.
  monitor::SubId ListenThresholdAt(CoreId where, const monitor::ProbeKey& probe,
                                   double threshold, monitor::Trigger trigger,
                                   SimTime interval,
                                   monitor::Listener listener);
  /// Cancels a subscription made with ListenAt/ListenThresholdAt.
  void UnlistenAt(monitor::SubId token);

  /// Announces shutdown: fires CoreShutdown (locally and to remote
  /// listeners), pumps the scheduler for `grace` so listeners can evacuate
  /// complets, then detaches from the network and drops what remains.
  void Shutdown(SimTime grace = Millis(500));

  /// Abrupt failure (fault injection): detaches immediately — no event, no
  /// evacuation window, no forwarding flush. Chains through this Core are
  /// severed; only the directory plane (Runtime::EnableDirectory) can
  /// recover routes afterwards.
  void Crash();

  /// Boots a crashed Core back up: volatile state (complets, trackers,
  /// names, replay windows, parked requests) comes up empty, exactly like a
  /// fresh process. A durable Core (EnableWal) then replays its checkpoint
  /// and log, re-derives its replay windows from exec records, and resolves
  /// in-doubt moves by querying their destinations. Fires kCoreRecovered.
  void Restart();

  // -- durability (write-ahead log; docs/PROTOCOL.md §Durability) -------------

  /// Makes this Core durable: every externally visible mutation is appended
  /// to a per-Core log on the Runtime's simulated disk, checkpointed every
  /// `checkpoint_interval` (0 = never). Idempotent; returns the Wal.
  Wal& EnableWal(SimTime checkpoint_interval = Millis(250));
  /// The write-ahead log, or nullptr for a non-durable Core.
  Wal* wal() { return wal_.get(); }
  /// Standby restore: installs the complets and name bindings of the
  /// crashed Core's last durable checkpoint here, as arrivals (hooks,
  /// completArrived, a publish to each home shard, so the directory heals
  /// client references). Ids already hosted here keep their live copy and
  /// are logged, not adopted. Returns the adopted ids. Never pumps. Throws
  /// FargoError if `crashed` is alive (a second live copy) or has no
  /// checkpoint, serial::SerialError on a malformed one.
  std::vector<ComletId> AdoptCheckpoint(CoreId crashed);

  /// Bumped by every Crash(). Continuations that straddle a write barrier
  /// capture this and bail out if the Core restarted underneath them.
  std::uint64_t restart_epoch() const { return restart_epoch_; }

  // -- introspection -------------------------------------------------------------
  std::vector<ComletId> ComletsHere() const { return repository_.All(); }
  /// Handles of the complets hosted at `where`, read on `where`'s own
  /// locality: a kControl round trip unless `where` is this Core.
  sim::Future<std::vector<ComletHandle>> ComletsAtAsync(CoreId where);
  Repository& repository() { return repository_; }
  const Repository& repository() const { return repository_; }
  TrackerTable& trackers() { return trackers_; }
  const TrackerTable& trackers() const { return trackers_; }
  /// The directory plane endpoint of this Core (home-shard store, publish
  /// and lookup paths); see src/core/directory.h.
  Directory& directory() { return *directory_; }
  const Directory& directory() const { return *directory_; }
  Runtime& runtime() { return runtime_; }
  net::Network& network();
  sim::Scheduler& scheduler();

  // ==== runtime internals (used by the units, monitor, script, shell) ========

  /// Executes a method on a locally hosted complet (invocation unit's final
  /// dispatch; also used for continuations and event delivery). A sync
  /// method's value comes back at once; an async one's — the move method's
  /// among them — comes back as `later`, to be finished through
  /// AfterAsyncMethod.
  MethodResult DispatchLocal(ComletId target, std::string_view method,
                             const std::vector<Value>& args);

  /// DispatchLocal for effect alone (a local oneway, an arrival
  /// continuation): a sync failure throws; an async method's failure is
  /// logged when it settles.
  void DispatchDetached(ComletId target, const std::string& method,
                        const std::vector<Value>& args);

  /// The settle continuation of an async method: once `later` settles,
  /// images `target`'s state to the WAL as a sync method's return does,
  /// then runs `then` with the settled future. The move method is not
  /// imaged: its complet has left, or is back as it was.
  void AfterAsyncMethod(ComletId target, std::string_view method,
                        sim::Future<Value> later,
                        std::function<void(sim::Future<Value>)> then);

  /// Network receive entry point.
  void HandleMessage(net::Message msg);

  /// Asynchronous request/reply: sends `payload` and returns a future for
  /// the reply payload (matched by correlation). Retry-safe failures are
  /// retried per the RetryPolicy from scheduled continuations — the calling
  /// stack never pumps. The future rejects with UnreachableError after the
  /// last attempt times out. Naming, remote-new, event registration,
  /// control round-trips, and movement all ride on this; it and
  /// InvocationUnit::InvokeAsync are the two front doors of one request
  /// engine (src/core/request.cpp).
  sim::Future<std::vector<std::uint8_t>> SendAsync(
      CoreId to, net::MessageKind kind, std::vector<std::uint8_t> payload);

  /// Synchronous wrapper over SendAsync: pumps the scheduler until the
  /// reply future settles; throws UnreachableError on timeout.
  std::vector<std::uint8_t> SendAndAwait(CoreId to, net::MessageKind kind,
                                         std::vector<std::uint8_t> payload);
  /// Sends a reply carrying `correlation`. When `skey` names a request
  /// admitted through AdmitOnce, the reply is cached in the replay window
  /// (and, on a durable Core, logged) so duplicates can be re-answered
  /// without re-executing; an invalid key leaves the reply uncached
  /// (park-expiry errors, recovery replies).
  void Reply(CoreId to, net::MessageKind kind, std::uint64_t correlation,
             std::vector<std::uint8_t> payload, net::SessionKey skey = {});

  /// One-way, best-effort kCtrlMoveAck: tells the destination of move `txn`
  /// that this source's COMMIT record is durable, so the destination can
  /// prune its move-in mark (MovementUnit::DropMoveIn). A lost ack only
  /// leaves the mark in place — never wrong, just unpruned.
  void SendMoveAck(CoreId dest, std::uint64_t txn);

  /// Mints identity/correlation counters. On a durable Core both notify the
  /// WAL, which keeps a durable ceiling ahead of them so a restart can never
  /// re-issue a value a peer may already have seen.
  ComletId MintComletId();
  std::uint64_t NextCorrelation();

  /// Installs an anchor as a hosted complet: assigns identity (unless it
  /// already has one, i.e. it arrived by movement), registers repository +
  /// tracker, publishes the location to the home shard, drains parked
  /// requests, fires completArrived. `hint_epoch` is the directory epoch
  /// the install is known at: movement passes the move's epoch proposal;
  /// 0 (reinstall, recovery) publishes a host assertion that the shard
  /// re-stamps; a freshly minted identity is stamped 1.
  ComletRefBase Install(std::shared_ptr<Anchor> anchor,
                        std::uint64_t hint_epoch = 0);

  /// Parks a message that targets a complet believed to be in transit to
  /// us. Parked requests expire after half the RPC timeout: expiry sends a
  /// transport-flagged error reply to `error_reply_to` (the request was
  /// never executed), which keeps gave-up-and-retried origins from seeing
  /// double execution.
  void Park(ComletId id, net::Message msg, CoreId error_reply_to = {});

  // -- live-reference registry (§4.1 premise: refs are visible to the Core) --
  // Registration order, not a hash of the pointer value, so every walk over
  // the registry (shell `ls`, script rule bodies) is run-to-run
  // deterministic.
  void RegisterRef(const ComletRefBase* ref) { live_refs_.push_back(ref); }
  void UnregisterRef(const ComletRefBase* ref) { std::erase(live_refs_, ref); }
  /// All live references whose containing complet is `owner` (invalid id =
  /// references held by top-level application code at this Core).
  std::vector<const ComletRefBase*> RefsOwnedBy(ComletId owner) const;
  /// All live references at this Core pointing at `target`.
  std::vector<const ComletRefBase*> RefsTo(ComletId target) const;
  std::size_t live_ref_count() const { return live_refs_.size(); }

  // -- application profiling counters (§4.1) -----------------------------------
  void RecordInvocation(ComletId src, ComletId dst);
  std::uint64_t InvocationCount(ComletId src, ComletId dst) const;
  std::uint64_t TotalInvocations() const { return total_invocations_; }

  /// Complet whose method is currently executing (invalid at top level);
  /// used to attribute materialized references to their containing complet.
  ComletId CurrentComlet() const {
    return exec_stack_.empty() ? ComletId{} : exec_stack_.back();
  }

  InvocationUnit& invocation() { return *invocation_; }
  MovementUnit& movement() { return *movement_; }

  void SetRpcTimeout(SimTime t) { rpc_timeout_ = t; }
  SimTime rpc_timeout() const { return rpc_timeout_; }
  SimTime start_time() const { return start_time_; }

  // -- at-most-once RPC (retry + slot-window replay) --------------------------

  /// Retry schedule the request engine applies to every request kind for
  /// retry-safe failures (timeouts, transport-flagged errors). Retries
  /// reuse the original correlation and session key so executors can
  /// deduplicate.
  void SetRetryPolicy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Retries performed by this Core so far (telemetry).
  std::uint64_t rpc_retries() const { return rpc_retries_; }

  /// Origin-side session pool: leases the slot each outgoing RPC carries.
  net::SessionPool& sessions() { return sessions_; }
  /// Executor-side replay windows (duplicated/retried requests).
  net::ReplayDirectory& replay() { return replay_; }
  const net::ReplayDirectory& replay() const { return replay_; }
  /// Outbound message formation (batching); see src/net/formation.h.
  net::Formation& formation() { return *formation_; }

  /// Admits `msg` for execution through its session key. Returns false for
  /// duplicates: in-progress ones are silently suppressed, already-answered
  /// ones are re-answered from the slot's cached reply, and stale seqs
  /// (settled at the origin) are dropped. Sessionless messages are always
  /// admitted — the idempotent protocols never stamp a key.
  bool AdmitOnce(const net::Message& msg);

  /// How long parked requests wait for an in-transit complet before being
  /// failed with a transport error: rpc_timeout()/2 — shorter than any
  /// origin's patience, so a parked request can never execute after its
  /// origin gave up and retried elsewhere (that would break at-most-once;
  /// see docs/PROTOCOL.md "Failure semantics").
  SimTime park_expiry() const { return rpc_timeout_ / 2; }

  // -- failure detection ------------------------------------------------------

  /// Starts (or reconfigures) the heartbeat failure detector: every
  /// `interval` this Core pings the peers it depends on; `k_missed`
  /// consecutive unanswered pings fire kCoreUnreachable (kCoreRecovered on
  /// return). Returns the detector for Watch()/telemetry.
  FailureDetector& EnableHeartbeat(SimTime interval = Millis(500),
                                   int k_missed = 3);
  /// Stops and discards the detector (no leaked timers).
  void DisableHeartbeat();
  FailureDetector* failure_detector() { return detector_.get(); }

  /// Peers this Core holds remote event subscriptions at (heartbeat peer
  /// discovery), deduplicated and sorted.
  std::vector<CoreId> RemoteSubscriptionPeers() const;

  /// Sends a heartbeat ping (kControl subkind) to `peer`.
  void SendHeartbeatPing(CoreId peer);

 private:
  friend class Directory;
  friend class InvocationUnit;
  friend class MovementUnit;
  friend class Wal;

  /// One outstanding request of any kind — a SendAsync round-trip or a
  /// remote invocation: a stable heap record shared by the correlation
  /// table, the timeout/backoff timers and the reply path, so bookkeeping
  /// survives table rehashes and late replies can be told apart from live
  /// ones. The engine (request.cpp) owns the fields; each kind supplies the
  /// hooks. `epoch` fences a record that outlives a crash: a non-durable
  /// Core re-mints correlations from 1, so only the epoch tells its stale
  /// records from the new incarnation's.
  struct PendingRpc {
    virtual ~PendingRpc() = default;
    virtual bool settled() const = 0;
    /// "<request> to <target>", for the errors the engine raises.
    virtual std::string Describe() const = 0;
    /// Puts attempt number `attempt` on the wire (route, lane, retry span).
    virtual void Transmit(Core& core) = 0;
    /// A reply carrying `corr` arrived: settle via SettleRequest, or return
    /// the error of a retry-safe failure (the request never executed) for
    /// the engine to retry.
    virtual std::exception_ptr OnReply(Core& core, net::Message msg) = 0;
    /// Rejects the future; the engine has already done its bookkeeping.
    virtual void Fail(Core& core, std::exception_ptr error,
                      monitor::SpanOutcome outcome) = 0;

    std::uint64_t corr = 0;
    net::SessionKey skey;     ///< slot lease; released when the request settles
    std::uint64_t epoch = 0;  ///< restart epoch the request started in
    int attempt = 0;
    int max_attempts = 1;
    sim::TaskId timer = 0;    ///< pending timeout or backoff task
  };
  struct ByteRpc;  ///< SendAsync's kind (request.cpp)

  /// Hot-path metric instruments, resolved once from the Runtime registry
  /// at construction so recording never takes the registry lock.
  struct Instruments {
    monitor::Counter* invocations = nullptr;      ///< origin-side completed
    monitor::Counter* invoke_errors = nullptr;    ///< origin-side failures
    monitor::Counter* execs = nullptr;            ///< executor-side dispatches
    monitor::Counter* retries = nullptr;          ///< resent attempts
    monitor::Counter* session_replays = nullptr;  ///< answered from slot cache
    monitor::Counter* session_suppressed = nullptr; ///< in-progress duplicates
    monitor::Counter* session_stale = nullptr;    ///< settled-at-origin drops
    monitor::Counter* formation_flushes = nullptr; ///< formation departures
    monitor::Counter* formation_frames = nullptr;  ///< multi-item frames sent
    monitor::Counter* formation_batched = nullptr; ///< items inside frames
    monitor::Counter* late_replies = nullptr;     ///< replies to settled RPCs
    monitor::Counter* moves = nullptr;
    monitor::Counter* hb_pings = nullptr;
    monitor::Counter* bytes_copied = nullptr;     ///< payload bytes copied
    monitor::Counter* dir_publishes = nullptr;    ///< location publishes issued
    monitor::Counter* dir_lookups = nullptr;      ///< shard lookups issued
    monitor::Counter* dir_hint_hit = nullptr;     ///< fresher-hint chain hops
    monitor::Counter* dir_hint_miss = nullptr;    ///< no fresher hint: lookup
    monitor::Counter* dir_hint_stale = nullptr;   ///< stale publishes rejected
    monitor::Histogram* invoke_latency = nullptr; ///< ns, delivered invokes
    monitor::Histogram* invoke_hops = nullptr;    ///< chain length at delivery
    monitor::Histogram* chain_len = nullptr;      ///< hops seen by each reply
    monitor::Histogram* move_duration = nullptr;  ///< ns, committed moves
    monitor::Histogram* move_bytes = nullptr;     ///< migration stream size
  };

  void DrainParked(ComletId id);
  void DispatchMessage(net::Message msg);
  /// Quiet install used by WAL replay: no events, no parked drain, no
  /// directory publish — replaces any earlier replayed image of the id.
  void RestoreComlet(ComletId id, const std::vector<std::uint8_t>& image);
  /// Appends a post-dispatch state image of `target` to the WAL (no-op for
  /// non-durable Cores, or when the method moved the complet away).
  void LogComletState(ComletId target);

  // -- the request engine (request.cpp) ---------------------------------------
  /// Mints the correlation, leases a slot toward `peer`, enters the table
  /// and sends the first attempt once the identity gate opens.
  void StartRequest(const std::shared_ptr<PendingRpc>& rpc, CoreId peer);
  void SendAttempt(const std::shared_ptr<PendingRpc>& rpc);
  void OnRequestTimeout(const std::shared_ptr<PendingRpc>& rpc);
  /// An attempt failed retry-safely: resend after the backoff while
  /// attempts remain, else retire the request and fail it with `error`.
  void RetryOrFail(const std::shared_ptr<PendingRpc>& rpc,
                   std::exception_ptr error, monitor::SpanOutcome outcome);
  /// A reply settles the request: cancels its timer, leaves the table and
  /// frees the slot.
  void SettleRequest(PendingRpc& rpc);
  /// A record from before the last crash: fails its own future, touches
  /// nothing else, and returns true.
  bool FailIfStale(PendingRpc& rpc);
  /// Every reply kind: matches the table by correlation, or counts a late
  /// reply.
  void HandleReply(net::Message msg);
  /// The one outbound identity gate (docs/PROTOCOL.md §Durability): calls
  /// `send(true)` at once when every identity minted so far sits below a
  /// durable ceiling; otherwise holds it until the covering barrier
  /// settles, and calls `send(false)` if the Core died meanwhile.
  template <class Send>
  void AfterIdentityGate(Send send) {
    if (IdentitiesDurable()) {
      send(true);
    } else {
      HoldForIdentities(std::move(send));
    }
  }
  bool IdentitiesDurable() const;
  void HoldForIdentities(std::function<void(bool)> send);

  void HandleNameRequest(const net::Message& msg);
  void HandleNewRequest(const net::Message& msg);
  void HandleControl(net::Message msg);
  void HandleBatch(net::Message msg);
  std::vector<ComletHandle> HostedHandles() const;
  /// Routes a reply message out (kRecoveryReply bypasses formation: the
  /// querier is mid-recovery and must not wait on a batch deadline).
  void SendReplyOut(net::Message msg);
  /// One-way kCtrlSlotAck to `key.origin`: the oneway request holding this
  /// slot executed (or was recognized as a duplicate), so the origin can
  /// release the lease without waiting out its fallback timer.
  void SendSlotAck(const net::SessionKey& key);
  /// Barrier-before-reply wrapper around SendSlotAck: on a durable executor
  /// the ack is released only after every WAL record appended so far (the
  /// slot's exec record included) is durable — an acked slot the origin
  /// retires must survive the executor's crash. No-op for invalid keys.
  void AckSlotDurable(const net::SessionKey& key);

  Runtime& runtime_;
  CoreId id_;
  std::string name_;
  bool alive_ = true;
  SimTime start_time_ = 0;

  Repository repository_;
  TrackerTable trackers_;
  Naming naming_;
  std::unique_ptr<Directory> directory_;
  std::unique_ptr<InvocationUnit> invocation_;
  std::unique_ptr<MovementUnit> movement_;
  std::unique_ptr<monitor::Profiler> profiler_;
  std::unique_ptr<monitor::EventBus> events_;
  monitor::Tracer tracer_;
  Instruments inst_{};

  std::uint64_t next_comlet_seq_ = 0;
  std::uint64_t next_correlation_ = 0;
  SimTime rpc_timeout_ = Seconds(30);
  RetryPolicy retry_policy_;
  net::SessionPool sessions_;      ///< origin side: slot leases per peer
  net::ReplayDirectory replay_;    ///< executor side: per-slot reply cache
  std::unique_ptr<net::Formation> formation_;
  std::uint64_t rpc_retries_ = 0;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<Wal> wal_;  ///< null until EnableWal
  std::uint64_t restart_epoch_ = 0;

  /// Every outstanding request, keyed by correlation; Restart clears it.
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingRpc>> pending_replies_;
  std::unordered_map<ComletId, std::vector<net::Message>> parked_;

  struct PairHash {
    std::size_t operator()(const std::pair<ComletId, ComletId>& p) const {
      return std::hash<ComletId>{}(p.first) * 1315423911u ^
             std::hash<ComletId>{}(p.second);
    }
  };
  std::unordered_map<std::pair<ComletId, ComletId>, std::uint64_t, PairHash>
      invocation_counts_;
  std::uint64_t total_invocations_ = 0;
  std::vector<ComletId> exec_stack_;

  struct RemoteSub {
    CoreId where;
    monitor::SubId remote_id = 0;
    monitor::Listener listener;  ///< local callback (remote subscriptions)
    std::uint64_t last_seq = 0;  ///< highest notify seq seen (dup filter)
  };
  std::unordered_map<monitor::SubId, RemoteSub> remote_subs_;
  monitor::SubId next_token_ = 1;
  std::vector<const ComletRefBase*> live_refs_;  // in registration order
};

}  // namespace fargo::core

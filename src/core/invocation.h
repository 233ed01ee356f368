// The Invocation unit (Fig 1, §3.1): routes method invocations from stubs
// through tracker chains to the target anchor, implements the parameter
// passing scheme, and shortens chains on return.
//
// Invocations run as an explicit asynchronous state machine: each call is a
// heap-allocated AsyncCall record driven entirely by scheduled
// continuations, never by re-entrant scheduler pumps. A remote call's
// attempts (send → timeout → backoff → resend → reply) run on the Core's
// request engine (src/core/request.cpp); this unit supplies the routing,
// the spans and the reply triage. The synchronous Invoke is a thin wrapper
// that pumps the scheduler at top level until the call's future settles.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/core/core.h"
#include "src/core/wire.h"
#include "src/monitor/trace.h"
#include "src/net/network.h"
#include "src/sim/future.h"

namespace fargo::core {

// fargo: domain(core)
class InvocationUnit {
 public:
  explicit InvocationUnit(Core& core) : core_(core) {}

  /// Invokes `method` on the complet named by `handle`. Dispatches directly
  /// when the target is hosted here; otherwise forwards along the tracker
  /// chain, blocks for the reply, and repoints this Core's tracker to the
  /// target's answered location (chain shortening, §3.1).
  ///
  /// When the Core's RetryPolicy allows more than one attempt, retry-safe
  /// failures (timeouts and transport-flagged error replies, both of which
  /// mean the method never executed) are retried with exponential backoff.
  /// Retries reuse the original correlation and session key, and executors
  /// detect duplicates by slot replay (src/net/session.h), so a method runs
  /// at most once per Invoke call.
  ///
  /// On a transport failure (severed chain, dead Core) with the home
  /// registry enabled, the target's home is consulted and the invocation
  /// retried once along the fresh route — safe because UnreachableError
  /// means the request never executed.
  InvokeResult Invoke(const ComletHandle& handle, std::string_view method,
                      std::vector<Value> args);

  /// Asynchronous form of Invoke: returns immediately with a future that
  /// settles when the invocation completes (value) or fails (the same
  /// exceptions Invoke throws). Multiple InvokeAsync calls pipeline: N
  /// concurrent invocations over a high-latency link complete in ~1 RTT
  /// instead of N RTTs.
  sim::Future<InvokeResult> InvokeAsync(const ComletHandle& handle,
                                        std::string_view method,
                                        std::vector<Value> args);

  /// One-way invocation: routes exactly like Invoke but returns
  /// immediately; the result (or error) is discarded. The paper's Core
  /// starts a thread per invocation — this is the sender-side analogue for
  /// fire-and-forget interactions.
  void Post(const ComletHandle& handle, std::string_view method,
            std::vector<Value> args);

  /// Request arriving from the network: execute here, forward to the next
  /// tracker hop, or park if the target is in transit to this Core.
  void HandleRequest(net::Message msg);

  /// A kInvokeReply that matched no outstanding request: records where the
  /// reply died in its trace.
  void TraceLateReply(const net::Message& msg);

  /// Chain-shortening notification: repoint our tracker for a complet.
  void HandleTrackerUpdate(net::Message msg);

  /// Tracker-change callback (wired by the Core): wakes invocations parked
  /// on a missing route once the target lands or a forward appears.
  void NotifyRouteChanged(ComletId id);

  /// Maximum forwarding hops before a request is failed (routing-loop
  /// safety net).
  void SetMaxHops(int n) { max_hops_ = n; }

  /// Ablation switch: disables automatic chain shortening (§3.1) at this
  /// Core — no origin repoint, no TrackerUpdate fan-out when executing.
  void SetChainShortening(bool on) { shortening_ = on; }
  bool chain_shortening() const { return shortening_; }

 private:
  /// One origin-side invocation in flight. Its remote attempts ride the
  /// Core's request engine, whose PendingRpc base carries the correlation,
  /// slot lease, attempt count and timer; local dispatches and route waits
  /// use the same record and leave those fields alone.
  struct AsyncCall final : Core::PendingRpc {
    explicit AsyncCall(sim::Scheduler& s) : promise(s) {}
    /// The invocation as it will travel the wire, built ONCE per call:
    /// attempts mutate only `req.trace` and `req.handle.last_known` in
    /// place, so resends never re-copy the method name or the argument
    /// values (they used to, per attempt). Local dispatch reads the same
    /// fields, so the record is also the single owner of handle/method/args.
    wire::InvokeRequest req;
    sim::Promise<InvokeResult> promise;
    monitor::Tracer::Opened root{};  ///< the invocation's root span
    SimTime begin = 0;

    bool settled() const override { return promise.settled(); }
    std::string Describe() const override {
      return "invocation of " + req.method + " on " + ToString(req.handle.id);
    }
    void Transmit(Core& core) override { core.invocation().SendAttempt(*this); }
    std::exception_ptr OnReply(Core& core, net::Message msg) override {
      return core.invocation().HandleReply(*this, std::move(msg));
    }
    void Fail(Core& core, std::exception_ptr error,
              monitor::SpanOutcome outcome) override {
      core.invocation().FinalizeError(*this, std::move(error), outcome);
    }
  };

  /// One invocation parked on a missing route (target in transit to us).
  struct RouteWait {
    std::shared_ptr<AsyncCall> call;
    sim::TaskId timer = 0;  ///< deadline task
  };

  /// One routed attempt sequence: opens the root span and dispatches
  /// locally, parks on the route, or goes remote. (The home-registry
  /// fallback in InvokeAsync wraps this.) Takes ownership of `args`.
  sim::Future<InvokeResult> StartCall(const ComletHandle& handle,
                                      const std::string& method,
                                      std::vector<Value> args);

  /// Runs the call on its locally hosted target; an async method settles
  /// it from the method's settle continuation.
  void DispatchLocalCall(const std::shared_ptr<AsyncCall>& call);
  /// Settles a local call with its method's value, behind a WAL barrier on
  /// a durable Core.
  void AnswerLocal(const std::shared_ptr<AsyncCall>& call, Value value);
  void AwaitRoute(const std::shared_ptr<AsyncCall>& call, SimTime deadline);
  void ResumeAfterRoute(const std::shared_ptr<AsyncCall>& call,
                        SimTime deadline);
  /// Hands the call to the request engine, leasing its slot toward the
  /// first resolved hop.
  void BeginRemote(const std::shared_ptr<AsyncCall>& call);
  /// One attempt on the wire: re-routes, stamps the retry span, and sends
  /// (or loops back to this Core's own executor path).
  void SendAttempt(AsyncCall& call);
  /// Reply triage: success and application errors settle the call; a
  /// transport-flagged error is retry-safe and is returned to the engine.
  std::exception_ptr HandleReply(AsyncCall& call, net::Message msg);

  /// Completion: closes the root span, records metrics, settles the future.
  void FinalizeOk(AsyncCall& call, InvokeResult res);
  void FinalizeError(AsyncCall& call, std::exception_ptr error,
                     monitor::SpanOutcome outcome);

  /// Executor-side handling of a decoded request. `msg` is the carrier the
  /// request arrived in (payload only needed if the request parks); the
  /// same-Core loopback fast path calls this directly with an empty-payload
  /// carrier, skipping wire encode/decode entirely.
  void ProcessRequest(wire::InvokeRequest rq, net::Message msg);

  /// Routes `rq` at this Core: execute, park, or forward. Under the sharded
  /// directory, a non-hosting Core only chains along its own tracker hint
  /// when that hint is strictly fresher than the stamp the request was
  /// routed by; otherwise (`allow_lookup`) it asks the home shard once,
  /// merges the answer into its tracker, and re-routes — bounding steady-
  /// state delivery at two hops however long the underlying chain is.
  void RouteRequest(wire::InvokeRequest rq, net::Message msg,
                    bool allow_lookup);
  /// One chain hop: re-parents the trace, stamps the request with the
  /// routing knowledge's epoch, and forwards to `entry.next`.
  void ForwardRequest(wire::InvokeRequest rq, const net::Message& msg,
                      TrackerEntry& entry);

  /// Executes an admitted request; an async method answers from its
  /// settle continuation.
  void ExecuteAndReply(const wire::InvokeRequest& rq,
                       std::uint64_t correlation,
                       const net::SessionKey& skey);
  /// Settles an executed request: closes its exec span, then answers the
  /// origin (two-way) or completes the slot and acks it (oneway). `error`
  /// is the method's failure, if any.
  void FinishExec(const wire::InvokeRequest& rq, std::uint64_t correlation,
                  const net::SessionKey& skey,
                  const monitor::Tracer::Opened& exec, int hops, Value result,
                  const std::optional<std::string>& error);
  void SendShorteningUpdates(const wire::InvokeRequest& rq,
                             const wire::TraceContext& ctx);

  Core& core_;
  int max_hops_ = 64;
  bool shortening_ = true;
  std::unordered_map<ComletId, std::vector<std::shared_ptr<RouteWait>>>
      route_waiters_;
};

}  // namespace fargo::core

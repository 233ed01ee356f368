#include "src/core/invocation.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/log.h"
#include "src/core/directory.h"
#include "src/core/movement.h"
#include "src/core/runtime.h"
#include "src/core/wal.h"
#include "src/core/wire.h"
#include "src/serial/value_codec.h"

namespace fargo::core {

namespace {
// Where a request for `entry`'s complet goes next: the forward hint, or this
// Core itself when the complet is hosted here or has no usable hint.
CoreId NextHop(const TrackerEntry* entry, CoreId self) {
  return entry != nullptr && !entry->is_local() && entry->next.valid() &&
                 entry->next != self
             ? entry->next
             : self;
}

// How a method's own failure closes its span: an UnreachableError means
// it never ran (transport), anything else is the application's.
monitor::SpanOutcome OutcomeOf(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const UnreachableError&) {
    return monitor::SpanOutcome::kTransportError;
  } catch (...) {
    return monitor::SpanOutcome::kAppError;
  }
}
}  // namespace

// ==== origin side: the async invocation state machine ========================
//
// One invocation = one AsyncCall record driven by continuations:
//
//   StartCall ──local──▶ DispatchLocalCall ──▶ settle
//       │
//       ├─no route──▶ AwaitRoute ──tracker change──▶ ResumeAfterRoute ─┐
//       │                  └─deadline──▶ settle(unreachable)           │
//       │                                                             ▼
//       └─remote──▶ BeginRemote ──▶ Core request engine ──reply──▶ HandleReply ─▶ settle
//                                    (attempts, timeout, backoff: request.cpp)
//
// The machinery never pumps the scheduler (NoPumpScope enforces it); only
// the synchronous Invoke wrapper below pumps, at top level.

InvokeResult InvocationUnit::Invoke(const ComletHandle& handle,
                                    std::string_view method,
                                    std::vector<Value> args) {
  return sim::Await(InvokeAsync(handle, method, std::move(args)));
}

// Everything below is the async machinery proper: the static twin of the
// NoPumpScope runtime guard bans blocking calls from here on.
// fargolint: no-pump-region

sim::Future<InvokeResult> InvocationUnit::InvokeAsync(
    const ComletHandle& handle, std::string_view method,
    std::vector<Value> args) {
  sim::Scheduler::AffinityScope aff(core_.id().value);
  const std::string m(method);
  // Without the directory the fallback below could never produce a better
  // route (the lookup answers "unknown"), so don't pay for it: the
  // arguments move straight into the call record instead of being cloned
  // into a rescue lambda on every invocation.
  if (!core_.directory().enabled())
    return StartCall(handle, m, std::move(args));
  sim::Future<InvokeResult> first = StartCall(handle, m, args);
  // Home-shard fallback (§7 future work): on a severed chain, ask the
  // target's home shard for a fresh route and retry once — safe because
  // UnreachableError means the request never executed.
  return first.OrElse(
      // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
      [this, handle, m, args = std::move(args)](
          std::exception_ptr e) -> sim::Future<InvokeResult> {
        try {
          std::rethrow_exception(e);
        } catch (const UnreachableError&) {
          // Eligible for the fallback; anything else propagates out of the
          // rethrow above and rejects the invocation unchanged.
        }
        TrackerEntry* entry = core_.trackers().Find(handle.id);
        if (entry != nullptr && entry->is_local())
          std::rethrow_exception(e);  // can't improve
        return core_.directory()
            .LookupAsync(handle.id)
            .OrElse(
                [id = handle.id](std::exception_ptr) -> wire::DirectoryHint {
                  throw UnreachableError("home registry of " + ToString(id) +
                                         " is unreachable too");
                })
            // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
            .Then([this, handle, m, args,
                   e](wire::DirectoryHint& hint) -> sim::Future<InvokeResult> {
              const CoreId home_route = hint.found ? hint.location : CoreId{};
              if (!home_route.valid() || home_route == core_.id())
                std::rethrow_exception(e);
              TrackerEntry* entry = core_.trackers().Find(handle.id);
              if (entry != nullptr && !entry->is_local() &&
                  entry->next == home_route)
                std::rethrow_exception(e);  // no better route than what failed
              core_.trackers().SetForward(handle.id, home_route,
                                          handle.anchor_type);
              return StartCall(handle, m, args);
            });
      });
}

sim::Future<InvokeResult> InvocationUnit::StartCall(
    const ComletHandle& handle, const std::string& method,
    std::vector<Value> args) {
  sim::Scheduler& sched = core_.scheduler();
  monitor::Tracer& tracer = core_.tracer();
  auto call = std::make_shared<AsyncCall>(sched);
  call->req.handle = handle;
  call->req.method = method;
  call->req.args = std::move(args);
  call->req.origin = core_.id();
  call->begin = sched.Now();
  // The trace root: a fresh trace at top level, a child span when this
  // invocation runs inside another traced execution (ambient context).
  call->root = tracer.OpenSpan(monitor::SpanKind::kRoot, method,
                               tracer.Current(), call->begin);

  TrackerEntry& entry = core_.trackers().Ensure(handle);
  if (entry.is_local()) {
    // Fast path: the single extra indirection of the stub/tracker split —
    // target hosted here means a plain local dispatch.
    DispatchLocalCall(call);
  } else if (!entry.next.valid() || entry.next == core_.id()) {
    // The target may be in transit *to us*; wait for it to land.
    AwaitRoute(call, call->begin + core_.rpc_timeout());
  } else {
    BeginRemote(call);
  }
  return call->promise.future();
}

void InvocationUnit::DispatchLocalCall(const std::shared_ptr<AsyncCall>& call) {
  core_.inst_.execs->Inc();
  MethodResult result;
  try {
    monitor::TraceScope scope(core_.tracer(), call->root.ctx);
    result = core_.DispatchLocal(call->req.handle.id, call->req.method,
                                 call->req.args);
  } catch (...) {
    FinalizeError(*call, std::current_exception(),
                  OutcomeOf(std::current_exception()));
    return;
  }
  if (!result.later.valid()) {
    AnswerLocal(call, std::move(result.value));
    return;
  }
  core_.AfterAsyncMethod(
      call->req.handle.id, call->req.method, std::move(result.later),
      // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
      [this, call](sim::Future<Value> f) {
        if (!f.ok()) {
          FinalizeError(*call, f.error(), OutcomeOf(f.error()));
        } else if (call->req.method == kMoveMethod) {
          // No WAL barrier for a move: the movement protocol's own commit
          // barriers gated the settle.
          FinalizeOk(*call, InvokeResult{f.Take(), core_.id(), 0});
        } else {
          AnswerLocal(call, f.Take());
        }
      });
}

void InvocationUnit::AnswerLocal(const std::shared_ptr<AsyncCall>& call,
                                 Value value) {
  InvokeResult res{std::move(value), core_.id(), 0,
                   core_.trackers().HostedStamp(call->req.handle.id)};
  Wal* wal = core_.wal();
  if (wal == nullptr || wal->replaying()) {
    FinalizeOk(*call, std::move(res));
    return;
  }
  // A durable Core acknowledges execution only after a barrier covers the
  // state records the dispatch appended — the caller must never act on a
  // result the log could still lose.
  const std::uint64_t epoch = core_.restart_epoch();
  wal->Sync().OnSettle(
      // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
      [this, call, res = std::move(res), epoch](sim::Future<sim::Unit>) mutable {
        if (!core_.alive() || core_.restart_epoch() != epoch) {
          FinalizeError(*call,
                        std::make_exception_ptr(UnreachableError(
                            "core crashed before the invocation was durable")),
                        monitor::SpanOutcome::kTransportError);
          return;
        }
        FinalizeOk(*call, std::move(res));
      });
}

void InvocationUnit::AwaitRoute(const std::shared_ptr<AsyncCall>& call,
                                SimTime deadline) {
  auto wait = std::make_shared<RouteWait>();
  wait->call = call;
  const ComletId id = call->req.handle.id;
  // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
  wait->timer = core_.scheduler().ScheduleAt(deadline, [this, id, wait] {
    auto it = route_waiters_.find(id);
    if (it != route_waiters_.end()) {
      auto& waits = it->second;
      waits.erase(std::remove(waits.begin(), waits.end(), wait), waits.end());
      if (waits.empty()) route_waiters_.erase(it);
    }
    if (wait->call->promise.settled()) return;
    FinalizeError(*wait->call,
                  std::make_exception_ptr(UnreachableError(
                      "invocation target " + ToString(id) +
                      " unreachable from " + ToString(core_.id()))),
                  monitor::SpanOutcome::kTransportError);
  });
  route_waiters_[id].push_back(std::move(wait));
}

void InvocationUnit::NotifyRouteChanged(ComletId id) {
  auto it = route_waiters_.find(id);
  if (it == route_waiters_.end()) return;
  TrackerEntry* entry = core_.trackers().Find(id);
  const bool routable =
      entry != nullptr && (entry->is_local() ||
                           (entry->next.valid() && entry->next != core_.id()));
  if (!routable) return;
  std::vector<std::shared_ptr<RouteWait>> waits = std::move(it->second);
  route_waiters_.erase(it);
  sim::Scheduler& sched = core_.scheduler();
  for (auto& wait : waits) {
    sched.Cancel(wait->timer);
    const SimTime deadline = wait->call->begin + core_.rpc_timeout();
    // Resume as a fresh event: the tracker hook may fire mid-install or
    // mid-move, and dispatch must not run inside that mutation.
    // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
    sched.ScheduleAfter(0, [this, call = wait->call, deadline] {
      ResumeAfterRoute(call, deadline);
    });
  }
}

void InvocationUnit::ResumeAfterRoute(const std::shared_ptr<AsyncCall>& call,
                                      SimTime deadline) {
  if (call->promise.settled()) return;
  TrackerEntry* entry = core_.trackers().Find(call->req.handle.id);
  if (entry == nullptr ||
      (!entry->is_local() &&
       (!entry->next.valid() || entry->next == core_.id()))) {
    AwaitRoute(call, deadline);  // the route flapped away again; keep waiting
    return;
  }
  if (entry->is_local()) {
    DispatchLocalCall(call);
    return;
  }
  BeginRemote(call);
}

// ==== remote attempts ========================================================
//
// On a retry-safe failure (timeout, or a transport-flagged error reply —
// both mean the method never executed) the request is resent with the SAME
// session key (epoch, slot, seq), so any executor that does see both copies
// recognizes the duplicate by slot replay and answers from its cached reply
// instead of re-executing.

void InvocationUnit::BeginRemote(const std::shared_ptr<AsyncCall>& call) {
  // Lease the session slot against the first resolved hop. The key is an
  // identity, not a route: later attempts may travel to a different Core
  // (the target moved), and every executor indexes its replay window by the
  // (origin, peer) pair baked into the key, wherever the request lands.
  core_.StartRequest(
      call, NextHop(core_.trackers().Find(call->req.handle.id), core_.id()));
}

void InvocationUnit::SendAttempt(AsyncCall& call) {
  monitor::Tracer& tracer = core_.tracer();
  // The first attempt travels as the root span; each resend travels as a
  // fresh child span tagged with its retry ordinal.
  wire::TraceContext attempt_ctx = call.root.ctx;
  if (call.attempt > 1) {
    attempt_ctx =
        tracer
            .RecordInstant(monitor::SpanKind::kRetry, call.req.method,
                           call.root.ctx, core_.scheduler().Now(),
                           static_cast<std::uint32_t>(call.attempt - 1))
            .ctx;
  }
  // Re-resolve the route each attempt: the target may have moved — possibly
  // to this very Core, in which case the send loops back through our own
  // slot-checked handler rather than re-dispatching locally (an earlier
  // attempt may already have executed elsewhere).
  TrackerEntry* entry = core_.trackers().Find(call.req.handle.id);
  if (entry == nullptr) entry = &core_.trackers().Ensure(call.req.handle);
  const CoreId next = NextHop(entry, core_.id());
  // The request record was built by StartCall; per attempt only the trace
  // context and the routing hint change. Route by our tracker's knowledge,
  // not the stub's stale hint, so the next hop parks rather than bouncing
  // the request back at us.
  call.req.trace = attempt_ctx;
  call.req.handle.last_known = next;
  // Stamp the request with the epoch of the knowledge routing it, so a hop
  // whose own hint is no fresher consults the home shard instead of walking
  // the chain.
  call.req.hint_epoch = entry->hint_epoch;

  if (next == core_.id()) {
    // Same-Core loopback (the target moved toward us mid-retry): the
    // request must still cross the slot-checked executor path as a fresh
    // scheduled event — an earlier attempt may already have executed
    // elsewhere — but there is no wire between us and ourselves, so skip
    // the encode/decode round-trip and hand over the in-memory request.
    net::Message carrier;
    carrier.from = core_.id();
    carrier.to = core_.id();
    carrier.kind = net::MessageKind::kInvokeRequest;
    carrier.correlation = call.corr;
    carrier.session = call.skey;
    core_.scheduler().ScheduleAfter(
        0,
        // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
        [this, rq = call.req, carrier = std::move(carrier)]() mutable {
          if (!core_.alive()) return;
          try {
            ProcessRequest(std::move(rq), std::move(carrier));
          } catch (const std::exception& e) {
            LogWarn() << "core " << core_.name()
                      << " dropped a loopback request: " << e.what();
          }
        });
    return;
  }
  ++entry->forwarded;
  net::Message msg;
  msg.from = core_.id();
  msg.to = next;
  msg.kind = net::MessageKind::kInvokeRequest;
  msg.correlation = call.corr;
  msg.session = call.skey;
  msg.payload = wire::EncodeInvokeRequest(call.req);
  core_.formation().Enqueue(std::move(msg), net::Formation::Lane::kImmediate);
}

// Settling a call drops its arguments: every attempt has encoded or
// dispatched them already, and the cancelled attempt timer — which holds
// `call` until the scheduler's next queue compaction — must not keep them
// alive meanwhile.
void InvocationUnit::FinalizeOk(AsyncCall& call, InvokeResult res) {
  call.req.args = std::vector<Value>();
  const SimTime now = core_.scheduler().Now();
  core_.tracer().CloseSpan(call.root.token, now, monitor::SpanOutcome::kOk,
                           res.hops);
  core_.inst_.invocations->Inc();
  core_.inst_.invoke_latency->Observe(static_cast<double>(now - call.begin));
  core_.inst_.invoke_hops->Observe(static_cast<double>(res.hops));
  call.promise.Resolve(std::move(res));
}

void InvocationUnit::FinalizeError(AsyncCall& call, std::exception_ptr error,
                                   monitor::SpanOutcome outcome) {
  call.req.args = std::vector<Value>();
  core_.inst_.invoke_errors->Inc();
  core_.tracer().CloseSpan(call.root.token, core_.scheduler().Now(), outcome);
  call.promise.Reject(std::move(error));
}

// ==== oneway =================================================================

void InvocationUnit::Post(const ComletHandle& handle, std::string_view method,
                          std::vector<Value> args) {
  sim::Scheduler::AffinityScope aff(core_.id().value);
  TrackerEntry& entry = core_.trackers().Ensure(handle);
  if (entry.is_local()) {
    // Asynchronous even locally: dispatched as a scheduled task, like the
    // paper's per-invocation thread.
    core_.scheduler().ScheduleAfter(
        // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
        0, [this, id = handle.id, method = std::string(method),
            args = std::move(args)] {
          core_.inst_.execs->Inc();
          try {
            core_.DispatchDetached(id, method, args);
          } catch (const std::exception& e) {
            LogWarn() << "one-way invocation of " << method << " failed: "
                      << e.what();
          }
        });
    return;
  }
  if (!entry.next.valid() || entry.next == core_.id()) {
    LogWarn() << "one-way invocation dropped: no route to "
              << ToString(handle.id);
    return;
  }
  wire::InvokeRequest rq{handle,     std::string(method), std::move(args),
                         core_.id(), {},                  true,
                         entry.hint_epoch,    core_.tracer().Current()};
  rq.handle.last_known = entry.next;
  ++entry.forwarded;
  net::Message msg;
  msg.from = core_.id();
  msg.to = entry.next;
  msg.kind = net::MessageKind::kInvokeRequest;
  // No reply ever comes back, so the slot is released by the executor's
  // SlotAck — with a local timeout as the lost-ack fallback (the slot
  // would otherwise stay leased forever; re-leasing it early merely
  // demotes an undelivered oneway to kStale, within the best-effort
  // contract).
  msg.correlation = core_.NextCorrelation();
  msg.session = core_.sessions().Acquire(core_.id(), entry.next);
  msg.payload = wire::EncodeInvokeRequest(rq);
  core_.scheduler().ScheduleAfter(
      core_.rpc_timeout(),
      // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
      [this, skey = msg.session] { core_.sessions().Release(skey); });
  // The slot identity passes the identity gate like any request's; dropping
  // the send on restart is within the oneway best-effort contract.
  core_.AfterIdentityGate([this, msg = std::move(msg)](bool current) mutable {
    if (current)
      core_.formation().Enqueue(std::move(msg),
                                net::Formation::Lane::kImmediate);
  });
}

// ==== executor side ==========================================================

void InvocationUnit::HandleRequest(net::Message msg) {
  wire::InvokeRequest rq = wire::DecodeInvokeRequest(msg.payload);
  ProcessRequest(std::move(rq), std::move(msg));
}

void InvocationUnit::ProcessRequest(wire::InvokeRequest rq, net::Message msg) {
  // At-most-once, checked before routing, not just before execution: a Core
  // that executed the request and then moved the target away must replay
  // from its slot window, not forward the retry to be executed a second
  // time at the new host. Peek is read-only — admission (which claims the
  // slot) happens only on the execute path below.
  const net::ReplayDirectory::AdmitResult peek = core_.replay().Peek(msg.session);
  switch (peek.outcome) {
    case net::Admission::kFresh:
      break;  // unseen here: route it
    case net::Admission::kInProgress:
      // A duplicate raced in while the first copy is still executing (e.g.
      // behind its durability barrier); the eventual reply covers both.
      core_.inst_.session_suppressed->Inc();
      return;
    case net::Admission::kReplay:
      core_.inst_.session_replays->Inc();
      if (rq.oneway) {
        // No reply to replay, but the origin's slot must still come free —
        // the first ack may be the very loss that caused this retry. Same
        // durability contract as the first ack: the exec record this slot
        // state rests on may still be behind an unsettled barrier.
        core_.AckSlotDurable(msg.session);
      } else {
        // Replay copy: the cached reply must survive further duplicates.
        core_.inst_.bytes_copied->Inc(peek.reply->size());
        core_.Reply(rq.origin, peek.reply_kind, msg.correlation, *peek.reply,
                    msg.session);
      }
      return;
    case net::Admission::kStale:
      core_.inst_.session_stale->Inc();
      return;
  }

  RouteRequest(std::move(rq), std::move(msg), /*allow_lookup=*/true);
}

void InvocationUnit::RouteRequest(wire::InvokeRequest rq, net::Message msg,
                                  bool allow_lookup) {
  TrackerEntry& entry = core_.trackers().Ensure(rq.handle);

  if (entry.is_local()) {
    if (!core_.AdmitOnce(msg)) return;
    ExecuteAndReply(rq, msg.correlation, msg.session);
    return;
  }

  // Target in transit to this Core (the stream is still in flight): park
  // the request; it is drained on arrival or failed on expiry. A request
  // that arrived through the loopback fast path travels in an empty
  // carrier; parking is the one consumer that needs real payload bytes
  // (the park queue re-handles through the wire path), so encode now.
  if (!entry.next.valid() || entry.next == core_.id()) {
    if (msg.payload.empty()) msg.payload = wire::EncodeInvokeRequest(rq);
    core_.Park(rq.handle.id, std::move(msg), rq.origin);
    return;
  }

  if (static_cast<int>(rq.path.size()) + 1 > max_hops_) {
    if (rq.oneway) {
      LogWarn() << "one-way invocation of " << rq.method
                << " dropped: exceeded max forwarding hops";
      return;
    }
    serial::Writer w;
    w.WriteBool(false);  // not ok
    w.WriteBool(true);   // transport failure: never executed
    w.WriteString("invocation exceeded max forwarding hops (loop?)");
    wire::WriteTraceTail(w, rq.trace);
    core_.Reply(rq.origin, net::MessageKind::kInvokeReply, msg.correlation,
                w.Take());
    return;
  }

  // Bounded-hop routing (whenever the directory is on): chaining is allowed
  // only on knowledge strictly fresher than the stamp that already routed
  // the request here. Otherwise the chain could be walked end to end; one
  // shard lookup replaces that walk, so steady-state delivery is at most
  // two hops.
  if (allow_lookup && core_.directory().enabled()) {
    if (entry.hint_epoch > rq.hint_epoch) {
      core_.inst_.dir_hint_hit->Inc();
    } else {
      core_.inst_.dir_hint_miss->Inc();
      core_.directory().LookupAsync(rq.handle.id).OnSettle(
          // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
          [this, rq = std::move(rq), msg = std::move(msg)](
              sim::Future<wire::DirectoryHint> f) mutable {
            if (!core_.alive()) return;
            if (f.ok()) {
              const wire::DirectoryHint hint = f.Take();
              if (hint.found && hint.location != core_.id())
                core_.trackers().MergeHint(rq.handle.id, hint.location,
                                           hint.epoch, rq.handle.anchor_type);
            }
            // Re-route on the merged knowledge — at most once per Core
            // visit: a shard that knows nothing newer leaves the chain as
            // the only route, and max-hops still bounds any residual loop.
            RouteRequest(std::move(rq), std::move(msg),
                         /*allow_lookup=*/false);
          });
      return;
    }
  }

  ForwardRequest(std::move(rq), msg, entry);
}

// Forward one hop down the chain, recording the hop as a child span and
// re-parenting the in-flight context so the causal chain mirrors the
// tracker chain.
void InvocationUnit::ForwardRequest(wire::InvokeRequest rq,
                                    const net::Message& msg,
                                    TrackerEntry& entry) {
  rq.trace = core_.tracer()
                 .RecordInstant(monitor::SpanKind::kHop, rq.method, rq.trace,
                                core_.scheduler().Now(), rq.trace.retry)
                 .ctx;
  ++entry.forwarded;
  rq.path.push_back(core_.id());
  rq.handle.last_known = entry.next;
  if (entry.hint_epoch > rq.hint_epoch) rq.hint_epoch = entry.hint_epoch;
  net::Message fwd;
  fwd.from = core_.id();
  fwd.to = entry.next;
  fwd.kind = net::MessageKind::kInvokeRequest;
  fwd.correlation = msg.correlation;
  fwd.session = msg.session;  // the slot identity survives every hop
  fwd.payload = wire::EncodeInvokeRequest(rq);
  core_.formation().Enqueue(std::move(fwd), net::Formation::Lane::kImmediate);
}

void InvocationUnit::ExecuteAndReply(const wire::InvokeRequest& rq,
                                     std::uint64_t correlation,
                                     const net::SessionKey& skey) {
  monitor::Tracer& tracer = core_.tracer();
  const int hops = static_cast<int>(rq.path.size()) + 1;
  monitor::Tracer::Opened exec =
      tracer.OpenSpan(monitor::SpanKind::kExec, rq.method, rq.trace,
                      core_.scheduler().Now(), rq.trace.retry);
  core_.inst_.execs->Inc();
  MethodResult result;
  std::optional<std::string> error;
  try {
    monitor::TraceScope scope(tracer, exec.ctx);
    result = core_.DispatchLocal(rq.handle.id, rq.method, rq.args);
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (!result.later.valid()) {
    FinishExec(rq, correlation, skey, exec, hops, std::move(result.value),
               error);
    return;
  }
  // An async method (the move method among them) answers from its
  // future's settle continuation. Its slot stays in progress until then,
  // so a retry that races in is suppressed, not run a second time.
  const std::uint64_t epoch = core_.restart_epoch();
  core_.AfterAsyncMethod(
      rq.handle.id, rq.method, std::move(result.later),
      // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
      [this, rq, correlation, skey, exec, hops, epoch](sim::Future<Value> f) {
        if (!core_.alive() || core_.restart_epoch() != epoch) return;
        std::optional<std::string> error;
        if (!f.ok()) error = sim::ErrorText(f.error());
        FinishExec(rq, correlation, skey, exec, hops,
                   f.ok() ? f.Take() : Value(), error);
      });
}

void InvocationUnit::FinishExec(const wire::InvokeRequest& rq,
                                std::uint64_t correlation,
                                const net::SessionKey& skey,
                                const monitor::Tracer::Opened& exec, int hops,
                                Value result,
                                const std::optional<std::string>& error) {
  core_.tracer().CloseSpan(exec.token, core_.scheduler().Now(),
                           error ? monitor::SpanOutcome::kAppError
                                 : monitor::SpanOutcome::kOk,
                           hops);
  if (rq.oneway) {
    // Reply-less flow: mark the slot complete (with an empty cached reply —
    // duplicates are dropped, not re-answered) and still shorten the chain;
    // errors die here with a log line.
    if (error)
      LogWarn() << "one-way invocation of " << rq.method
                << " failed: " << *error;
    core_.replay().Complete(skey, net::MessageKind::kInvokeReply, {});
    // No reply carries this slot state into the log (Core::Reply logs the
    // two-way ones), so record it here: a recovered executor must keep
    // dropping duplicates of oneways it already ran.
    if (Wal* wal = core_.wal(); wal != nullptr && !wal->replaying())
      wal->AppendExec(skey, net::MessageKind::kInvokeReply, {});
    // Hand the slot back to the origin (there is no reply to do it). The
    // ack waits out a durability barrier over the exec record above — the
    // origin retires the slot on it, so it must survive our crash.
    core_.AckSlotDurable(skey);
    SendShorteningUpdates(rq, exec.ctx);
    return;
  }
  serial::Writer w;
  if (error) {
    w.WriteBool(false);  // not ok
    w.WriteBool(false);  // application error: the method DID run/throw
    w.WriteString(*error);
  } else {
    wire::WriteOk(w);
    serial::WriteValue(w, result);
    wire::WriteCoreId(w, core_.id());
    w.WriteVarint(rq.path.size() + 1);  // hops traversed by the request
    // Location hint epoch: how fresh "the target lives here" is. Stamped
    // from our tracker *after* dispatch — if the method itself moved the
    // target away, the entry is no longer local and the hint rides
    // unstamped (epoch 0), so it cannot outrank the movement's publish.
    w.WriteVarint(core_.trackers().HostedStamp(rq.handle.id));
  }
  wire::WriteTraceTail(w, exec.ctx);
  // Reply straight to the origin. A thrown method ran too, so its error is
  // the cached outcome: either reply carries the session key and completes
  // the slot...
  core_.Reply(rq.origin, net::MessageKind::kInvokeReply, correlation,
              w.Take(), skey);
  // ...and a success shortens the whole chain (§3.1).
  if (!error) SendShorteningUpdates(rq, exec.ctx);
}

void InvocationUnit::SendShorteningUpdates(const wire::InvokeRequest& rq,
                                           const wire::TraceContext& ctx) {
  // Every tracker that forwarded the request is repointed directly at us
  // (§3.1). The updates travel in the same trace, so shortening is visible
  // in the trace view.
  if (!shortening_) return;
  const std::uint64_t epoch = core_.trackers().HostedStamp(rq.handle.id);
  for (CoreId hop : rq.path) {
    if (hop == core_.id()) continue;
    serial::Writer upd;
    wire::WriteComletId(upd, rq.handle.id);
    wire::WriteCoreId(upd, core_.id());
    upd.WriteString(rq.handle.anchor_type);
    upd.WriteVarint(epoch);
    wire::WriteTraceTail(upd, ctx);
    net::Message u;
    u.from = core_.id();
    u.to = hop;
    u.kind = net::MessageKind::kTrackerUpdate;
    u.payload = upd.Take();
    // Priority lane: routing freshness must not queue behind bulk frames.
    core_.formation().Enqueue(std::move(u), net::Formation::Lane::kPriority);
  }
}

// ==== replies at the origin ==================================================

void InvocationUnit::TraceLateReply(const net::Message& msg) {
  // Emit a drop-reason span so traces show where the reply died.
  wire::TraceContext trace;
  try {
    serial::Reader peek(msg.payload);
    if (peek.ReadBool()) {
      serial::ReadValue(peek);
      wire::ReadCoreId(peek);
      peek.ReadVarint();  // hops
      peek.ReadVarint();  // hint epoch
    } else {
      peek.ReadBool();
      peek.ReadString();
    }
    trace = wire::ReadTraceTail(peek);
  } catch (...) {
    // Chaos-corrupted payload: drop it untraced.
  }
  if (trace.valid())
    core_.tracer().RecordInstant(monitor::SpanKind::kControl,
                                 "late_reply_dropped", trace,
                                 core_.scheduler().Now());
}

std::exception_ptr InvocationUnit::HandleReply(AsyncCall& call,
                                               net::Message msg) {
  serial::Reader r(msg.payload);
  if (r.ReadBool()) {
    Value value = serial::ReadValue(r);
    CoreId location = wire::ReadCoreId(r);
    int reply_hops = static_cast<int>(r.ReadVarint());
    std::uint64_t reply_epoch = r.ReadVarint();
    (void)wire::ReadTraceTail(r);
    core_.SettleRequest(call);
    // The chain length this delivery actually experienced — the signal the
    // directory plane exists to drive toward 1.
    core_.inst_.chain_len->Observe(static_cast<double>(reply_hops));
    // Chain shortening at the origin (§3.1): point our tracker straight at
    // the Core that answered — unless the complet meanwhile arrived *here*
    // (MergeHint refuses local entries) or our hint already outranks the
    // reply's stamp (a newer movement published while it was in flight).
    if (shortening_ && location.valid() && location != core_.id())
      core_.trackers().MergeHint(call.req.handle.id, location, reply_epoch,
                                 call.req.handle.anchor_type);
    FinalizeOk(call, InvokeResult{std::move(value), location, reply_hops,
                                  reply_epoch});
    return nullptr;
  }
  const bool transport_failure = r.ReadBool();
  std::string error = r.ReadString();
  (void)wire::ReadTraceTail(r);
  if (!transport_failure) {
    // Application error: the anchor's own exception — never retried.
    core_.SettleRequest(call);
    FinalizeError(call, std::make_exception_ptr(FargoError(error)),
                  monitor::SpanOutcome::kAppError);
    return nullptr;
  }
  // Transport-flagged error: never executed, retry-safe.
  return std::make_exception_ptr(UnreachableError(error));
}

void InvocationUnit::HandleTrackerUpdate(net::Message msg) {
  serial::Reader r(msg.payload);
  ComletId id = wire::ReadComletId(r);
  CoreId location = wire::ReadCoreId(r);
  std::string type = r.ReadString();
  std::uint64_t epoch = r.ReadVarint();
  wire::TraceContext trace = wire::ReadTraceTail(r);
  if (trace.valid())
    core_.tracer().RecordInstant(monitor::SpanKind::kControl, "tracker_update",
                                 trace, core_.scheduler().Now());
  TrackerEntry* entry = core_.trackers().Find(id);
  if (entry == nullptr) return;
  if (entry->is_local()) {
    // A home-shard echo answering our own assertion publish: adopt the
    // authoritative stamp for the complet we host. Anything else aimed at
    // a hosting Core is stale.
    if (location == core_.id()) core_.trackers().Stamp(id, epoch);
    return;
  }
  if (location == core_.id()) return;  // stale update; we'd self-loop
  core_.trackers().MergeHint(id, location, epoch, type);
}

}  // namespace fargo::core

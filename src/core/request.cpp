// The request engine: the one request lifecycle behind SendAsync and
// InvocationUnit::InvokeAsync. One correlation-keyed table, one identity
// gate, one per-attempt timeout and one backoff routine; a request kind
// (PendingRpc) only decides how an attempt travels and what a reply means.
//
//   StartRequest ──identity gate──▶ SendAttempt ──reply──▶ HandleReply ─▶ OnReply
//                                    ▲    └─timeout─▶ OnRequestTimeout      │
//                                    │                      │   retry-safe  │
//                                    │                      ▼     error     │
//                                    └────backoff──── RetryOrFail ◀─────────┘
//
// Every attempt reuses the correlation and session key, so the receiver's
// replay window recognizes retries of the request and a late reply to any
// attempt settles it. A timeout is retry-safe by the transport contract:
// either the request never executed, or its reply will be replayed from the
// receiver's slot cache when the retry lands.
#include <algorithm>

#include "src/common/log.h"
#include "src/core/core.h"
#include "src/core/invocation.h"
#include "src/core/wal.h"

namespace fargo::core {

// The engine runs as scheduled continuations: the static twin of the
// NoPumpScope runtime guard bans blocking calls from here on.
// fargolint: no-pump-region

/// SendAsync's request kind: an opaque payload, resent byte for byte.
struct Core::ByteRpc final : PendingRpc {
  explicit ByteRpc(sim::Scheduler& s) : promise(s) {}
  sim::Promise<std::vector<std::uint8_t>> promise;
  CoreId to;
  net::MessageKind kind{};
  std::vector<std::uint8_t> payload;  ///< kept for resends

  bool settled() const override { return promise.settled(); }
  std::string Describe() const override {
    return std::string(net::ToString(kind)) + " to " + ToString(to);
  }
  void Transmit(Core& core) override;
  std::exception_ptr OnReply(Core& core, net::Message msg) override {
    core.SettleRequest(*this);
    promise.Resolve(std::move(msg.payload));
    return nullptr;
  }
  void Fail(Core&, std::exception_ptr error, monitor::SpanOutcome) override {
    promise.Reject(std::move(error));
  }
};

sim::Future<std::vector<std::uint8_t>> Core::SendAsync(
    CoreId to, net::MessageKind kind, std::vector<std::uint8_t> payload) {
  sim::Scheduler::AffinityScope aff(id_.value);
  auto rpc = std::make_shared<ByteRpc>(scheduler());
  rpc->to = to;
  rpc->kind = kind;
  rpc->payload = std::move(payload);
  StartRequest(rpc, to);
  return rpc->promise.future();
}

void Core::ByteRpc::Transmit(Core& core) {
  if (attempt > 1)
    core.tracer_.RecordInstant(monitor::SpanKind::kRetry, net::ToString(kind),
                               core.tracer_.Current(), core.scheduler().Now(),
                               static_cast<std::uint32_t>(attempt - 1));
  net::Message msg;
  msg.from = core.id_;
  msg.to = to;
  msg.kind = kind;
  msg.correlation = corr;
  msg.session = skey;
  // Retention copy: every attempt but the last keeps the payload for a
  // possible resend; the final attempt surrenders it to the wire.
  if (attempt == max_attempts) {
    msg.payload = std::move(payload);
  } else {
    core.inst_.bytes_copied->Inc(payload.size());
    msg.payload = payload;
  }
  if (kind == net::MessageKind::kRecoveryQuery) {
    // Recovery traffic must not sit behind a formation deadline: the Core
    // is blocked mid-recovery until the in-doubt move resolves.
    core.network().Send(std::move(msg));
  } else if (kind == net::MessageKind::kDirectoryLookup) {
    // Directory traffic rides the priority lane: a lookup unblocking a
    // forwarded invocation must not share a frame with bulk traffic.
    core.formation_->Enqueue(std::move(msg), net::Formation::Lane::kPriority);
  } else {
    core.formation_->Enqueue(std::move(msg), net::Formation::Lane::kImmediate);
  }
}

void Core::StartRequest(const std::shared_ptr<PendingRpc>& rpc, CoreId peer) {
  rpc->corr = NextCorrelation();
  // Lease a session slot for the request's lifetime: every attempt reuses
  // the key, and the executor's replay window deduplicates by it.
  rpc->skey = sessions_.Acquire(id_, peer);
  rpc->max_attempts = std::max(1, retry_policy_.max_attempts);
  rpc->epoch = restart_epoch_;
  pending_replies_[rpc->corr] = rpc;
  // The correlation just minted (and any identities the request carries)
  // must not reach a peer before a durable ceiling covers them.
  AfterIdentityGate([this, rpc](bool current) {
    if (!current) {
      if (!rpc->settled())
        rpc->Fail(*this,
                  std::make_exception_ptr(UnreachableError(
                      "core restarted before its identity barrier")),
                  monitor::SpanOutcome::kTransportError);
      return;
    }
    if (!rpc->settled()) SendAttempt(rpc);
  });
}

bool Core::IdentitiesDurable() const {
  return wal_ == nullptr || wal_->SequencesDurable();
}

void Core::HoldForIdentities(std::function<void(bool)> send) {
  // A crash before the barrier settles could let recovery re-issue the
  // held identities, and a peer's replay window would then answer the new
  // request with a stale reply: never send across a restart.
  const std::uint64_t epoch = restart_epoch_;
  wal_->WhenSequencesDurable().OnSettle(
      // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
      [this, epoch, send = std::move(send)](sim::Future<sim::Unit>) {
        send(alive_ && restart_epoch_ == epoch);
      });
}

void Core::SendAttempt(const std::shared_ptr<PendingRpc>& rpc) {
  sim::Scheduler::NoPumpScope no_pump(scheduler());
  if (FailIfStale(*rpc)) return;
  if (++rpc->attempt > 1) {
    ++rpc_retries_;
    inst_.retries->Inc();
  }
  rpc->Transmit(*this);
  rpc->timer = scheduler().ScheduleAfter(
      // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
      rpc_timeout_, [this, rpc] { OnRequestTimeout(rpc); });
}

void Core::OnRequestTimeout(const std::shared_ptr<PendingRpc>& rpc) {
  if (rpc->settled() || FailIfStale(*rpc)) return;
  RetryOrFail(rpc,
              std::make_exception_ptr(
                  UnreachableError(rpc->Describe() + " timed out")),
              monitor::SpanOutcome::kTimeout);
}

void Core::RetryOrFail(const std::shared_ptr<PendingRpc>& rpc,
                       std::exception_ptr error,
                       monitor::SpanOutcome outcome) {
  if (rpc->attempt >= rpc->max_attempts) {
    pending_replies_.erase(rpc->corr);
    sessions_.Release(rpc->skey);
    rpc->Fail(*this, std::move(error), outcome);
    return;
  }
  // Back off while still listening: the request stays in the table, so a
  // late reply to the previous attempt settles it and the resend no-ops.
  rpc->timer = scheduler().ScheduleAfter(
      retry_policy_.BackoffAfter(rpc->attempt, rpc->corr),
      // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
      [this, rpc] {
        if (!rpc->settled()) SendAttempt(rpc);
      });
}

void Core::SettleRequest(PendingRpc& rpc) {
  scheduler().Cancel(rpc.timer);
  pending_replies_.erase(rpc.corr);
  // The request settled: its slot can carry the next request to this peer.
  sessions_.Release(rpc.skey);
}

bool Core::FailIfStale(PendingRpc& rpc) {
  if (rpc.epoch == restart_epoch_) return false;
  // Restart cleared the table and re-leases slots (and, on a non-durable
  // Core, re-mints this very correlation): a resend or a table/slot update
  // from here would hijack the new incarnation's request.
  rpc.Fail(*this,
           std::make_exception_ptr(
               UnreachableError(rpc.Describe() + " was cut off by a crash")),
           monitor::SpanOutcome::kTransportError);
  return true;
}

void Core::HandleReply(net::Message msg) {
  auto it = pending_replies_.find(msg.correlation);
  if (it == pending_replies_.end()) {
    // Reply to a request that already settled (timed out, or answered by
    // an earlier duplicate): count and drop.
    inst_.late_replies->Inc();
    if (msg.kind == net::MessageKind::kInvokeReply)
      invocation_->TraceLateReply(msg);
    LogDebug() << "core " << name_ << " dropped late "
               << net::ToString(msg.kind) << " corr " << msg.correlation;
    return;
  }
  sim::Scheduler::NoPumpScope no_pump(scheduler());
  std::shared_ptr<PendingRpc> rpc = it->second;
  if (std::exception_ptr error = rpc->OnReply(*this, std::move(msg))) {
    scheduler().Cancel(rpc->timer);
    RetryOrFail(rpc, std::move(error), monitor::SpanOutcome::kTransportError);
  }
}

}  // namespace fargo::core

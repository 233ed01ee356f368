// Causal tracing: spans recorded per Core into a fixed-capacity ring
// buffer, linked into traces by the wire-propagated TraceContext
// (src/core/wire.h).
//
// A trace is minted at each root invocation (or root movement / heartbeat
// round) and every message of its causal chain — forwarding hops, retries,
// the execution itself, chain-shortening updates, the migration stream —
// records a span carrying the same trace id. Span taxonomy:
//
//   kRoot     origin-side invocation, one per Invoke call (the trace root
//             unless the invocation is nested inside another span)
//   kRetry    one per resent attempt (same trace, retry = n tag)
//   kHop      one per intermediate forwarding Core
//   kExec     the method execution at the host
//   kMove     sender side of a movement (duration = stream send .. ack)
//   kInstall  receiver side of a movement
//   kControl  control-plane traffic (heartbeat ping/pong, tracker updates)
//
// Invariants locked down by tests/monitor/trace_test.cpp: every span's
// trace id resolves to exactly one root (parent_span == 0) span across all
// Cores, and an invocation records exactly 1 + forwarding-hops + retries
// origin/hop spans.
//
// Span recording is cheap (one ring slot write, no allocation: names are
// clamped into a fixed char array) so tracing can stay on during soaks;
// export is Chrome trace-event JSON (chrome://tracing, Perfetto) via
// WriteChromeTrace / Core::DumpTrace / Runtime::DumpTrace.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/core/wire.h"

namespace fargo::monitor {

enum class SpanKind : std::uint8_t {
  kRoot = 0,
  kRetry = 1,
  kHop = 2,
  kExec = 3,
  kMove = 4,
  kInstall = 5,
  kControl = 6,
};
const char* ToString(SpanKind kind);

enum class SpanOutcome : std::uint8_t {
  kPending = 0,         ///< span never closed (crash, eviction, timeout path)
  kOk = 1,
  kAppError = 2,        ///< the method ran and threw
  kTransportError = 3,  ///< never executed (severed route, park expiry...)
  kTimeout = 4,         ///< all attempts exhausted without a reply
};
const char* ToString(SpanOutcome outcome);

/// One recorded span. Fixed-size (the name is clamped) so the ring buffer
/// is a flat preallocated array and recording never allocates.
struct Span {
  std::uint64_t token = 0;  ///< buffer sequence number (eviction check)
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  SpanKind kind = SpanKind::kRoot;
  SpanOutcome outcome = SpanOutcome::kPending;
  std::uint32_t retry = 0;  ///< retry ordinal (kRetry), else 0
  int hops = 0;             ///< forwarding hops at delivery (kRoot/kExec)
  CoreId core;              ///< Core that recorded the span
  SimTime begin = 0;
  SimTime end = 0;
  std::uint64_t bytes = 0;  ///< stream size (kMove/kInstall)
  char name[32] = {};       ///< method / detail, clamped

  void SetName(std::string_view n);
  std::string_view name_view() const;
};

/// Fixed-capacity ring of spans. Tokens are monotonically increasing; a
/// span stays addressable by token until `capacity` newer spans evict it.
/// The ring is allocated by the first Add and freed by Reset, so a Core
/// that never traces holds no ring.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 8192);

  /// Copies `s` into the ring, stamping and returning its token.
  std::uint64_t Add(const Span& s);
  /// Span by token; nullptr once evicted. The pointer is valid until the
  /// next Add that wraps onto its slot.
  Span* Find(std::uint64_t token);

  /// Oldest-to-newest copy of the live contents.
  std::vector<Span> Snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_added() const { return next_token_ - 1; }
  std::uint64_t evicted() const;

  /// Drops all recorded spans and frees the ring; `capacity = 0` keeps the
  /// current capacity.
  void Reset(std::size_t capacity = 0);

 private:
  std::size_t capacity_;
  std::vector<Span> ring_;  ///< empty until the first Add
  std::uint64_t next_token_ = 1;  ///< token 0 = "no span"
};

/// Per-Core tracing front end: mints trace/span ids (deterministically,
/// from the Core id and a local sequence), maintains the ambient context
/// stack (so nested invocations chain causally), and records spans into
/// the Core's ring buffer. All calls are no-ops while disabled — contexts
/// pass through unchanged, so a tracing origin keeps trace continuity
/// across non-tracing Cores.
class Tracer {
 public:
  explicit Tracer(CoreId core, std::size_t capacity = 8192)
      : core_(core), buffer_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  struct Opened {
    std::uint64_t token = 0;       ///< 0 while disabled
    core::wire::TraceContext ctx;  ///< context for wire propagation
  };

  /// Opens a span under `parent` (a fresh trace when `parent` is invalid).
  /// Returns the new span's wire context; the caller closes it by token.
  Opened OpenSpan(SpanKind kind, std::string_view name,
                  const core::wire::TraceContext& parent, SimTime now,
                  std::uint32_t retry = 0);

  void CloseSpan(std::uint64_t token, SimTime now, SpanOutcome outcome,
                 int hops = 0, std::uint64_t bytes = 0);

  /// Zero-duration span (forwarding hops, control traffic).
  Opened RecordInstant(SpanKind kind, std::string_view name,
                       const core::wire::TraceContext& parent, SimTime now,
                       std::uint32_t retry = 0);

  // -- ambient context (nested-invocation chaining) ---------------------------
  void Push(const core::wire::TraceContext& ctx) { stack_.push_back(ctx); }
  void Pop() { stack_.pop_back(); }
  core::wire::TraceContext Current() const {
    return stack_.empty() ? core::wire::TraceContext{} : stack_.back();
  }

  TraceBuffer& buffer() { return buffer_; }
  const TraceBuffer& buffer() const { return buffer_; }

  std::uint64_t traces_started() const { return traces_started_; }

 private:
  std::uint64_t MintId() {
    return (static_cast<std::uint64_t>(core_.value) << 40) | ++next_seq_;
  }

  CoreId core_;
  bool enabled_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t traces_started_ = 0;
  TraceBuffer buffer_;
  std::vector<core::wire::TraceContext> stack_;
};

/// RAII ambient-context scope around a dispatched execution.
class TraceScope {
 public:
  TraceScope(Tracer& tracer, const core::wire::TraceContext& ctx)
      : tracer_(tracer) {
    tracer_.Push(ctx);
  }
  ~TraceScope() { tracer_.Pop(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer& tracer_;
};

/// Serializes spans as Chrome trace-event JSON ("X" complete events; pid =
/// recording Core, tid = trace id, causal links in args). `names` labels
/// pids with Core names. Returns the number of events written.
std::size_t WriteChromeTrace(
    std::ostream& os, const std::vector<std::vector<Span>>& per_core_spans,
    const std::vector<std::pair<CoreId, std::string>>& names);

}  // namespace fargo::monitor

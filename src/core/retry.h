// Client-side retry schedule for at-most-once RPC.
//
// Retries are only safe for failures the transport *guarantees* never
// executed the request (timeouts and transport-flagged error replies); the
// retry reuses the original correlation and session key (epoch, slot, seq
// — src/net/session.h) so the executor side can recognize the request if
// both the original and the retry arrive. The executor's ReplayDirectory
// closes the loop: it suppresses concurrent duplicates and answers late
// ones from the cached reply instead of re-executing — turning the
// at-least-once retry loop into at-most-once execution.
#pragma once

#include <cstdint>

#include "src/common/time.h"

namespace fargo::core {

/// Client-side retry schedule for retry-safe RPC failures, applied by the
/// Core's request engine (src/core/request.cpp) to SendAsync round-trips
/// and remote invocations alike. The default (max_attempts = 1) preserves
/// single-shot semantics.
struct RetryPolicy {
  int max_attempts = 1;            ///< total tries, including the first
  SimTime initial_backoff = Millis(10);
  double multiplier = 2.0;         ///< exponential growth per failure
  SimTime max_backoff = Seconds(2);
  double jitter = 0.1;             ///< +/- fraction applied to each backoff
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  ///< jitter stream seed

  bool enabled() const { return max_attempts > 1; }

  /// Backoff to wait after the `failed_attempt`-th failure (1-based).
  /// Deterministic: the jitter is a pure function of (seed, salt, attempt),
  /// so identical runs replay identical schedules.
  SimTime BackoffAfter(int failed_attempt, std::uint64_t salt) const;
};

}  // namespace fargo::core

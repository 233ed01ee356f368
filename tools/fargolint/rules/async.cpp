// Async family: scheduled-continuation hygiene. Continuations outlive the
// stack that created them, so default reference captures and bare `this`
// are lifetime bugs in waiting. Pumping the event loop from inside a task
// throws at run time (PumpGuard); the no-pump rule is its static twin over
// every closure that runs as a task: continuations, complet methods and
// event listeners.
#include "tools/fargolint/rules.h"

namespace fargolint {
namespace {

void CheckBlockingCallsIn(const FileCtx& f, std::size_t begin, std::size_t end,
                          const char* where, std::vector<Finding>& out) {
  const std::vector<Token>& t = f.lx.toks;
  for (std::size_t i = begin; i < end && i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || BlockingNames().count(t[i].text) == 0)
      continue;
    if (!IsPunct(t[i + 1], "(")) continue;
    out.push_back({"no-pump", f.src->path, t[i].line,
                   "blocking call '" + t[i].text + "' " + where +
                       "; use the *Async form or restructure as a "
                       "continuation (DESIGN.md §5)",
                   ExcerptAt(f.lx, t[i].line)});
  }
}

void CheckContinuations(const FileCtx& f, std::vector<Finding>& out) {
  const std::vector<Token>& t = f.lx.toks;
  // Closures that become task bodies of their own without being scheduled
  // continuations: complet methods and event listeners.
  static const std::set<std::string> kTaskBodies = {
      "Register", "Listen", "ListenAt", "ListenThreshold", "ListenThresholdAt"};
  std::vector<Span> task_spans;
  for (std::size_t i = 0; i + 1 < t.size(); ++i)
    if (t[i].kind == Tok::kIdent && kTaskBodies.count(t[i].text) > 0 &&
        IsPunct(t[i + 1], "("))
      task_spans.push_back({i + 1, MatchingClose(t, i + 1)});
  auto in_any = [](const std::vector<Span>& spans, std::size_t i) {
    for (const Span& s : spans)
      if (s.Contains(i)) return true;
    return false;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!IsPunct(t[i], "[") || !IsLambdaIntro(t, i)) continue;
    const bool sink = in_any(f.sink_spans, i);
    if (!sink && !in_any(task_spans, i)) continue;
    Lambda lam = ParseLambda(t, i);
    if (lam.body_open == 0) continue;  // not actually a lambda
    // -- body: no blocking calls inside a task -----------------------------
    CheckBlockingCallsIn(f, lam.body_open, lam.body_close,
                         sink ? "inside a scheduled continuation"
                              : "inside a complet method or listener",
                         out);
    if (!sink) continue;

    // -- capture list inspection ------------------------------------------
    bool has_keepalive = false;
    for (std::size_t j = i + 1; j < lam.capture_end; ++j) {
      if (t[j].kind != Tok::kIdent) continue;
      const std::string& s = t[j].text;
      if (s == "shared_from_this") has_keepalive = true;
      // An init-capture whose name says "I am the lifetime guard":
      // `alive = alive_`, `keepalive = anchor`, `self = shared_from_this()`.
      if (j + 1 < t.size() && IsPunct(t[j + 1], "=") &&
          (s == "self" || s.find("alive") != std::string::npos ||
           s.find("keep") != std::string::npos || s.find("guard") != std::string::npos))
        has_keepalive = true;
    }
    for (std::size_t j = i + 1; j < lam.capture_end; ++j) {
      if (IsPunct(t[j], "&") &&
          (IsPunct(t[j + 1], "]") || IsPunct(t[j + 1], ","))) {
        out.push_back(
            {"capture-ref", f.src->path, t[j].line,
             "[&] default reference capture in a scheduled continuation: "
             "everything captured must outlive the event queue. Capture "
             "explicitly by value (move handles/ids in) instead",
             ExcerptAt(f.lx, t[j].line)});
      }
      if (t[j].kind == Tok::kIdent && t[j].text == "this" &&
          !(j > 0 && IsPunct(t[j - 1], "*")) && !has_keepalive) {
        out.push_back(
            {"capture-this", f.src->path, t[j].line,
             "bare `this` captured into a scheduled continuation without an "
             "owner-keepalive: pair it with `self = shared_from_this()`, an "
             "`alive`-flag capture, or annotate allow(capture-this) with the "
             "lifetime argument",
             ExcerptAt(f.lx, t[j].line)});
      }
    }
  }

  // -- declared no-pump region -------------------------------------------
  if (f.ann.no_pump_region_start != 0) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].line > f.ann.no_pump_region_start) {
        CheckBlockingCallsIn(f, i, t.size(), "inside a no-pump region", out);
        break;
      }
    }
  }
}

}  // namespace

const std::set<std::string>& SinkNames() {
  static const std::set<std::string> kSinks = {
      "Then",       "OrElse",    "OnSettle", "ScheduleAt",
      "ScheduleAfter", "ExpireAfter",
      // The affinity-routed cross-locality handoffs (FARGO_PARALLEL): a
      // closure handed to Post runs on another locality's worker thread,
      // so every continuation rule applies with extra force.
      "Post", "PostAfter"};
  return kSinks;
}

const std::set<std::string>& BlockingNames() {
  static const std::set<std::string> kBlocking = {
      "Invoke", "Call", "Move", "MoveId", "Await", "Pump", "PumpUntil",
      "RunUntil", "RunUntilOr", "RunUntilIdle", "RunFor", "RunOne",
      "ResolveLocation", "LookupAt", "NewRemote", "SendAndAwait", "Shutdown"};
  return kBlocking;
}

std::vector<RuleInfo> AsyncRules() {
  return {
      {"no-pump",
       "blocking call (Invoke/Call/Move/Await/RunUntil/...) inside a "
       "scheduled continuation, a complet method, an event listener or a "
       "declared no-pump region"},
      {"capture-ref",
       "default reference capture [&] in a lambda handed to the scheduler or "
       "future layer"},
      {"capture-this",
       "bare `this` captured into a scheduled continuation without an "
       "owner-keepalive (shared_from_this / alive-flag / keepalive capture)"},
  };
}

void CheckAsync(const Index& idx, std::vector<Finding>& out) {
  for (const FileCtx& f : idx.files) CheckContinuations(f, out);
}

}  // namespace fargolint

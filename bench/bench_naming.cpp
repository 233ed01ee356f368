// E9 (ablation, §7 future work): tracker chains vs the location-independent
// home-registry naming scheme.
//
// The paper tracks moving complets with chains and names "a global
// location-independent naming scheme" as future work ("an alternative to
// tracking complet objects using chains"). This bench quantifies the trade:
//   - chains: zero bookkeeping messages per move, but a stale reference
//     pays one hop per former host, and a crashed hop severs the route;
//   - home registry: one extra (async) message per move, stale references
//     resolve in at most home-query + one hop, crashes are survivable.
#include "bench/support.h"

using namespace fargo;
using namespace fargo::bench;

namespace {

void MoveOverheadTable(Report& report) {
  std::printf("-- bookkeeping cost per move --\n");
  TableHeader({"scheme", "msgs per move", "move (sim ms)"});
  for (bool home : {false, true}) {
    World w(3);
    if (home) w.rt.EnableDirectory({});
    auto msg = w[1].New<Message>("m");  // home is core1
    w.rt.network().ResetStats();
    const SimTime t0 = w.rt.Now();
    const int moves = 10;
    for (int i = 0; i < moves; ++i) {
      core::Core& from = *w.cores[1 + (i % 2)];
      core::Core& to = *w.cores[1 + ((i + 1) % 2)];
      from.MoveId(msg.target(), to.id());
    }
    w.rt.RunUntilIdle();
    const std::string pre =
        std::string("moves.") + (home ? "registry" : "chains");
    report.Gate(pre + ".msgs", w.rt.network().total_messages());
    report.Gate(pre + ".sim_ns", static_cast<std::uint64_t>(w.rt.Now() - t0));
    Row("| %-13s | %13.1f | %13.1f |", home ? "home registry" : "chains",
        static_cast<double>(w.rt.network().total_messages()) / moves,
        ToMillis(w.rt.Now() - t0) / moves);
  }
  std::printf("\nShape check: the registry costs +1 message per move that "
              "lands away from home (the async home update; arrivals at the "
              "home itself are recorded locally); move latency is unchanged "
              "(the update is off the critical path).\n");
}

void StaleResolutionTable(Report& report) {
  std::printf("\n-- stale reference: first-call cost after N moves --\n");
  TableHeader({"scheme", "moves", "1st call (sim ms)", "1st call hops"});
  for (bool home : {false, true}) {
    for (int n : {2, 8, 16}) {
      World w(n + 2);
      if (home) w.rt.EnableDirectory({});
      auto beta = w[0].New<Message>("beta");
      auto observer =
          w[static_cast<std::size_t>(n + 1)].RefTo<Message>(beta.handle());
      for (int i = 0; i < n; ++i)
        w[static_cast<std::size_t>(i)].MoveId(
            beta.target(), w[static_cast<std::size_t>(i + 1)].id());
      w.rt.RunUntilIdle();
      core::Core& oc = *w.cores[static_cast<std::size_t>(n + 1)];
      // With the registry, resolve through the home first — the pattern a
      // registry-based runtime would use for cold references.
      SimTime t0 = w.rt.Now();
      if (home) {
        CoreId where =
            sim::Await(oc.directory().LookupAsync(beta.target())).location;
        oc.trackers().SetForward(beta.target(), where, "test.Message");
      }
      core::InvokeResult r =
          oc.invocation().Invoke(observer.handle(), "text", {});
      const std::string pre = std::string("stale.") +
                              (home ? "registry" : "chains") +
                              std::to_string(n);
      report.Gate(pre + ".sim_ns",
                  static_cast<std::uint64_t>(w.rt.Now() - t0));
      report.Gate(pre + ".hops", static_cast<std::uint64_t>(r.hops));
      Row("| %-13s | %5d | %17.1f | %13d |",
          home ? "home registry" : "chains", n, ToMillis(w.rt.Now() - t0),
          r.hops);
    }
  }
  std::printf("\nShape check: chains pay ~10 ms per former host once; the "
              "registry pays one fixed home round trip regardless of "
              "history.\n");
}

void CrashSurvivalTable(Report& report) {
  std::printf("\n-- crash of an intermediate hop: does a stale reference "
              "survive? --\n");
  TableHeader({"scheme", "outcome", "recovery (sim ms)"});
  for (bool home : {false, true}) {
    World w(4);
    if (home) w.rt.EnableDirectory({});
    auto beta = w[0].New<Message>("beta");
    w[0].Move(beta, w[1].id());
    auto observer = w[3].RefTo<Message>(beta.handle());
    observer.Call("print");  // observer -> core1, directly
    w[1].MoveId(beta.target(), w[2].id());
    w.rt.RunUntilIdle();
    w[1].Crash();
    w[3].SetRpcTimeout(Millis(200));
    const SimTime t0 = w.rt.Now();
    const char* outcome;
    try {
      observer.Call("text");
      outcome = "recovered";
    } catch (const UnreachableError&) {
      outcome = "SEVERED";
    }
    report.Gate(std::string("crash.") + (home ? "registry" : "chains") +
                    ".recovered",
                std::string(outcome) == "recovered" ? 1 : 0);
    Row("| %-13s | %-9s | %17.1f |", home ? "home registry" : "chains",
        outcome, ToMillis(w.rt.Now() - t0));
  }
  std::printf("\nShape check: chains lose the route (after the timeout); "
              "the registry re-routes via the home and answers.\n");
}

}  // namespace

int main() {
  Report report("naming");
  std::printf("== E9 (ablation): chains vs location-independent naming "
              "(§7) ==\n\n");
  MoveOverheadTable(report);
  StaleResolutionTable(report);
  CrashSurvivalTable(report);
  report.Write();
  return 0;
}

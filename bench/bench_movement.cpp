// E2 (§3.3): movement protocol cost — move latency and stream size vs
// closure size, and the single-inter-Core-message property as the pull
// group grows.
#include "bench/support.h"

using namespace fargo;
using namespace fargo::bench;

namespace {

void ClosureSizeSweep(Report& report) {
  std::printf("-- movement cost vs closure size (10 ms, 10 Mbit/s link) --\n");
  TableHeader({"closure bytes", "stream bytes", "move (sim ms)",
               "data msgs", "total msgs"});
  for (std::size_t size :
       {std::size_t{1} << 10, std::size_t{1} << 12, std::size_t{1} << 14,
        std::size_t{1} << 16, std::size_t{1} << 18, std::size_t{1} << 20}) {
    World w(2);
    auto data = w[0].New<Data>(size);
    w.rt.network().ResetStats();
    Section section(report, w, "closure" + std::to_string(size));
    const SimTime t0 = w.rt.Now();
    w[0].Move(data, w[1].id());
    section.Commit();
    const double ms = ToMillis(w.rt.Now() - t0);
    report.Gate("closure" + std::to_string(size) + ".stream_bytes",
                w[0].movement().last_move_stats().stream_bytes);
    const auto fwd = w.rt.network().StatsBetween(w[0].id(), w[1].id());
    Row("| %13zu | %12zu | %13.1f | %9llu | %10llu |", size,
        w[0].movement().last_move_stats().stream_bytes, ms,
        static_cast<unsigned long long>(fwd.messages),
        static_cast<unsigned long long>(w.rt.network().total_messages()));
  }
}

void PullGroupSweep(Report& report) {
  std::printf("\n-- one stream per move request: pulled group size sweep "
              "(chain of Node complets) --\n");
  TableHeader({"pulled complets", "complets moved", "stream bytes",
               "data msgs A->B", "move (sim ms)"});
  for (int pulled : {0, 1, 2, 4, 8, 16}) {
    World w(2);
    // head pulls a chain of `pulled` complets.
    auto head = w[0].New<Node>();
    core::ComletRef<Node> prev = head;
    std::vector<core::ComletRef<Node>> chain;
    for (int i = 0; i < pulled; ++i) {
      auto next = w[0].New<Node>();
      prev.Call("setNext", {Value(next.handle()), Value("pull")});
      chain.push_back(next);
      prev = next;
    }
    w.rt.network().ResetStats();
    Section section(report, w, "pull" + std::to_string(pulled));
    const SimTime t0 = w.rt.Now();
    w[0].Move(head, w[1].id());
    section.Commit();
    const double ms = ToMillis(w.rt.Now() - t0);
    const auto& stats = w[0].movement().last_move_stats();
    report.Gate("pull" + std::to_string(pulled) + ".complets_moved",
                stats.complets_moved);
    report.Gate("pull" + std::to_string(pulled) + ".stream_bytes",
                stats.stream_bytes);
    Row("| %15d | %14zu | %12zu | %14llu | %13.1f |", pulled,
        stats.complets_moved, stats.stream_bytes,
        static_cast<unsigned long long>(
            w.rt.network().StatsBetween(w[0].id(), w[1].id()).messages),
        ms);
  }
  std::printf("\nShape check: data msgs A->B stays 1 regardless of group "
              "size (§3.3: \"only a single inter-Core message\").\n");
}

void RefFixupSweep(Report& report) {
  std::printf("\n-- incoming/outgoing reference fix-up: move a complet "
              "referenced by N remote cores --\n");
  TableHeader({"inbound refs", "move (sim ms)", "msgs during move",
               "1st call hops", "2nd call hops"});
  for (int watchers : {1, 4, 16, 64}) {
    World w(static_cast<std::size_t>(watchers) + 2);
    auto target = w[0].New<Message>("t");
    std::vector<core::ComletRefBase> refs;
    for (int i = 0; i < watchers; ++i)
      refs.push_back(
          w[static_cast<std::size_t>(i + 2)].RefFromHandle(target.handle()));
    w.rt.network().ResetStats();
    Section section(report, w, "fixup" + std::to_string(watchers));
    const SimTime t0 = w.rt.Now();
    w[0].Move(target, w[1].id());
    section.Commit();
    const double ms = ToMillis(w.rt.Now() - t0);
    const auto msgs = w.rt.network().total_messages();
    // A stale watcher pays one forwarding hop, then is shortened.
    core::Core& wcore = w[2];
    core::InvokeResult first =
        wcore.invocation().Invoke(refs[0].handle(), "text", {});
    w.rt.RunUntilIdle();
    core::InvokeResult second =
        wcore.invocation().Invoke(refs[0].handle(), "text", {});
    Row("| %12d | %13.1f | %16llu | %13d | %13d |", watchers, ms,
        static_cast<unsigned long long>(msgs), first.hops, second.hops);
  }
  std::printf("\nShape check: move cost is independent of the number of "
              "inbound references (incoming refs are fixed by repointing "
              "ONE local tracker, §3.3).\n");
}

void RacingInvocationsTable(Report& report) {
  std::printf("\n-- invocations racing a slow migration stream (parked at "
              "the destination, §3.3 transit consistency) --\n");
  TableHeader({"racers", "completed", "answered at", "extra latency vs "
               "idle racer (sim ms)"});
  for (int racers : {1, 4, 16}) {
    World w(3, Millis(5), 2e5);  // 200 KB/s: a 200 KB stream takes ~1 s
    auto data = w[0].New<Data>(std::size_t{200000});
    auto client = w[2].RefTo<Data>(data.handle());

    int completed = 0;
    SimTime last_done = 0;
    for (int i = 0; i < racers; ++i) {
      // A racer runs inside a task: it calls asynchronously and counts
      // the answer from the settle continuation.
      // fargolint: allow(capture-ref) client/completed/last_done and the World all outlive the RunUntilIdle below in this same scope
      w.rt.scheduler().ScheduleAfter(Millis(1 + i), [&] {
        // fargolint: allow(capture-ref) same scope as above
        client.CallAsync("read").OnSettle([&](sim::Future<Value> f) {
          if (f.ok() && f.value().AsInt() == 200000) ++completed;
          last_done = w.rt.Now();
        });
      });
    }
    Section section(report, w, "race" + std::to_string(racers));
    const SimTime t0 = w.rt.Now();
    w[0].Move(data, w[1].id());
    w.rt.RunUntilIdle();
    section.Commit();
    report.Gate("race" + std::to_string(racers) + ".completed",
                static_cast<std::uint64_t>(completed));
    core::Core* at = w[1].repository().Contains(data.target()) ? &w[1] : &w[0];
    // An idle racer would pay one round trip (~10ms); the racers waited
    // for the stream instead.
    Row("| %6d | %9d | %-11s | %27.1f |", racers, completed,
        at->name().c_str(), ToMillis(last_done - t0) - 10.0);
  }
  std::printf("\nShape check: every racer completes exactly once, against "
              "the POST-move complet (requests parked at the destination "
              "until the stream lands — never lost, never doubled).\n");
}

}  // namespace

int main() {
  Report report("movement");
  std::printf("== E2: movement under layout constraints (§3.3) ==\n\n");
  ClosureSizeSweep(report);
  PullGroupSweep(report);
  RefFixupSweep(report);
  RacingInvocationsTable(report);
  report.Write();
  return 0;
}

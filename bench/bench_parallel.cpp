// E18: FARGO_PARALLEL locality-engine scaling.
//
// Wall-clock only — the whole point of the locality engine is host-CPU
// parallelism, which is exactly the thing the deterministic gate must not
// measure. Every metric here is Info() (never gated); the acceptance shape
// (>= 2x from 1 to 4 localities on the engine workload) is printed for the
// CI artifact, not enforced. bench/baselines/BENCH_parallel.json keeps an
// empty gated set so benchgate treats the file as a schema anchor only.
//
// Two layers:
//   engine.*   ParallelScheduler alone: CPU-bound tasks fanned across 8
//              affinity keys, conservative rounds, no runtime on top.
//   invoke.*   the full runtime: cross-core invocations executed at each
//              owner Core's home locality (request work parallelises;
//              the conductor's pump and the network mutex do not).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "src/sim/parallel_sched.h"

using namespace fargo;
using namespace fargo::bench;

namespace {

constexpr int kAffinities = 8;     // Cores-worth of affinity keys
constexpr int kEngineTasks = 256;  // per engine run
constexpr int kSpinIters = 60000;  // ~100us of splitmix64 per task
constexpr int kInvokesPerCore = 150;
constexpr std::size_t kResizeBytes = 262144;

/// Seed-deterministic CPU burn; the sink defeats dead-code elimination.
std::uint64_t Spin(std::uint64_t seed) {
  std::uint64_t x = seed;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSpinIters; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  return acc;
}

double EngineRunMs(int localities) {
  sim::ParallelScheduler sched(localities);
  std::atomic<std::uint64_t> sink{0};
  std::atomic<int> done{0};
  for (int i = 0; i < kEngineTasks; ++i)
    sched.Post(static_cast<std::uint64_t>(i % kAffinities), 1, [&sink, &done, i] {
      sink.fetch_add(Spin(static_cast<std::uint64_t>(i)),
                     std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto t0 = std::chrono::steady_clock::now();
  sched.RunUntilIdle();
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto dt = std::chrono::steady_clock::now() - t0;
  if (done.load() != kEngineTasks) std::abort();  // lost work = bogus numbers
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// Cross-core invocations: Data lives on core i, the caller refs it from
/// core (i+1)%8, so every "resize" executes at the owner's home locality.
double InvokeRunMs(int localities, bool print_telemetry = false) {
  core::Runtime rt(core::RuntimeOptions{localities});
  testing::RegisterTestComlets();
  std::vector<core::Core*> cores;
  for (int i = 0; i < kAffinities; ++i)
    cores.push_back(&rt.CreateCore("core" + std::to_string(i)));
  rt.network().SetDefaultLink({Millis(1), 1.25e8, true});
  std::vector<core::ComletRef<Data>> owned, remote;
  for (int i = 0; i < kAffinities; ++i)
    owned.push_back(cores[static_cast<std::size_t>(i)]->New<Data>());
  for (int i = 0; i < kAffinities; ++i)
    remote.push_back(cores[static_cast<std::size_t>((i + 1) % kAffinities)]
                         ->RefTo<Data>(owned[static_cast<std::size_t>(i)]
                                           .handle()));
  rt.RunUntilIdle();  // settle tracker setup outside the timed region
  rt.SyncSerialStats();
  const monitor::Registry& reg = rt.metrics();
  const std::uint64_t setup_rounds = reg.CounterValue("locality.rounds");

  constexpr int kInvokes = kAffinities * kInvokesPerCore;
  std::vector<sim::Future<Value>> futures;
  futures.reserve(static_cast<std::size_t>(kInvokes));
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kInvokesPerCore; ++round)
    for (auto& ref : remote)
      futures.push_back(ref.InvokeAsync(
          "resize", static_cast<std::int64_t>(kResizeBytes)));
  rt.RunUntilIdle();
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto dt = std::chrono::steady_clock::now() - t0;
  for (auto& f : futures)
    if (!f.ok()) std::abort();  // a failed invoke = bogus numbers
  if (print_telemetry && localities > 0) {
    rt.SyncSerialStats();
    const std::uint64_t rounds = reg.CounterValue("locality.rounds");
    std::printf("telemetry (N=%d): handoffs=%llu rounds=%llu "
                "rounds_per_invoke=%.3g max_queue_depth=%llu\n",
                localities,
                static_cast<unsigned long long>(
                    reg.CounterValue("locality.handoffs")),
                static_cast<unsigned long long>(rounds),
                static_cast<double>(rounds - setup_rounds) / kInvokes,
                static_cast<unsigned long long>(
                    static_cast<std::uint64_t>(
                        reg.GaugeValue("locality.queue_depth"))));
  }
  return std::chrono::duration<double, std::milli>(dt).count();
}

}  // namespace

int main() {
  Report report("parallel");
  std::printf("== E18: FARGO_PARALLEL locality-engine scaling ==\n");
  // fargolint: allow(thread) reads the host cpu count for the report; spawns nothing
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host cpus: %u (wall-clock speedups are bounded by this)\n", hw);
  if (DeterministicMode()) {
    // Wall-clock is the subject here; in CI's deterministic sweep the
    // bench only proves it still builds and writes its (gate-empty) file.
    std::printf("deterministic mode: wall-clock sections skipped\n");
    report.Write();
    return 0;
  }

  std::printf("\n-- engine: %d CPU-bound tasks over %d affinities --\n",
              kEngineTasks, kAffinities);
  TableHeader({"localities", "wall ms", "speedup vs 1"});
  double engine_ms1 = 0;
  for (int n : {1, 2, 4}) {
    // Warm-up run absorbs thread spawn + first-touch costs, then report
    // the median-ish second run.
    (void)EngineRunMs(n);
    const double ms = EngineRunMs(n);
    if (n == 1) engine_ms1 = ms;
    report.Info("engine.ms_" + std::to_string(n), ms);
    Row("| %10d | %7.1f | %11.2fx |", n, ms, engine_ms1 / ms);
    if (n > 1)
      report.Info("engine.speedup_1_to_" + std::to_string(n), engine_ms1 / ms);
  }

  std::printf("\n-- runtime: %d cross-core invocations over %d cores --\n",
              kAffinities * kInvokesPerCore, kAffinities);
  TableHeader({"localities", "wall ms", "speedup vs sim"});
  double invoke_sim_ms = 0;
  for (int n : {0, 1, 2, 4}) {
    const double ms = InvokeRunMs(n, /*print_telemetry=*/n == 4);
    if (n == 0) invoke_sim_ms = ms;
    const std::string key = n == 0 ? "sim" : std::to_string(n);
    report.Info("invoke.ms_" + key, ms);
    Row("| %10s | %7.1f | %13.2fx |", key.c_str(), ms, invoke_sim_ms / ms);
    if (n == 4) report.Info("invoke.speedup_sim_to_4", invoke_sim_ms / ms);
  }

  const double speedup = engine_ms1 / EngineRunMs(4);
  std::printf("\nacceptance shape (informational, never gated): engine 1->4 "
              "localities = %.2fx -> %s\n",
              speedup,
              speedup >= 2.0       ? "PASS (>= 2x)"
              : hw < 4             ? "N/A (host has too few cpus)"
                                   : "BELOW 2x (host-dependent)");
  report.Info("host.cpus", static_cast<double>(hw));
  report.Write();
  return 0;
}

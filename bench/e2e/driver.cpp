// fargo_e2e driver: the closed loop, the timed phases, and the report.
//
//   fargo_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--quick]
//   fargo_e2e --smoke
//
// Prints one JSON object on stdout (metrics with units and an `exact` flag,
// the verdict, ops attempted and failed) and exits 1 if a correctness check
// failed. --smoke runs every workload's quick variant twice untraced (the
// exact metrics must agree bit-for-bit) and once traced.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/e2e/e2e.h"

namespace fargo::e2e {

// ---- host clocks --------------------------------------------------------------

double WallSeconds() {
  // fargolint: allow(wallclock) host throughput is this benchmark's subject; simulated time is measured separately
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- statistics ----------------------------------------------------------------

void LatencyMap::Merge(const LatencyMap& other) {
  for (const auto& [ns, n] : other.counts_) counts_[ns] += n;
  n_ += other.n_;
}

double LatencyMap::QuantileMs(double q) const {
  if (n_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n_)));
  std::uint64_t seen = 0;
  for (const auto& [ns, n] : counts_) {
    seen += n;
    if (seen >= std::max<std::uint64_t>(rank, 1))
      return static_cast<double>(ns) / 1e6;
  }
  return static_cast<double>(counts_.rbegin()->first) / 1e6;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- the closed loop -------------------------------------------------------------

namespace {
/// Issue-time samples kept per client in the traced phase (p50 only).
constexpr std::size_t kIssueSamples = 1 << 15;
}  // namespace

void Client::Start() {
  while (in_flight_ < window_) Issue();
}

std::uint64_t Client::settled() const {
  std::uint64_t n = 0;
  for (int k = 0; k < kOpKinds; ++k) n += ok_[k] + failed_[k];
  return n;
}

void Client::Issue() {
  if (!ctl_.time_issue || issue_ns_.size() >= kIssueSamples) {
    IssueOne();
    return;
  }
  const double t0 = WallSeconds();
  IssueOne();
  issue_ns_.push_back(static_cast<std::uint32_t>((WallSeconds() - t0) * 1e9));
}

void Client::Done(OpKind kind, SimTime begin, bool ok, std::int64_t tag) {
  --in_flight_;
  const int k = static_cast<int>(kind);
  ++(ok ? ok_[k] : failed_[k]);
  const SimTime now = home_.scheduler().Now();
  if (ok && now >= ctl_.window_begin && now < ctl_.window_end) {
    latency_[k].Add(now - begin);
    ++in_window_;
  }
  OnSettled(kind, ok, tag);
  if (!ctl_.stop) Issue();
}

void World::MeshLinks(std::uint64_t seed) {
  Rng topo(0x5eed70b0);  // fixed topology seed: see the header comment
  Rng jitter(seed);
  for (std::size_t a = 0; a < cores.size(); ++a)
    for (std::size_t b = a + 1; b < cores.size(); ++b) {
      const auto latency = static_cast<SimTime>(topo.Uniform(2e6, 20e6) *
                                                jitter.Uniform(0.99, 1.01));
      rt->network().SetLink(cores[a]->id(), cores[b]->id(),
                            net::LinkModel{latency, 1.25e6, true});
    }
}

void World::StartClients() {
  for (auto& c : clients) {
    sim::Scheduler::AffinityScope aff(c->home().id().value);
    c->Start();
  }
}

void World::Drain() {
  ctl.stop = true;
  rt->RunUntilIdle();
  ctl.stop = false;
}

std::uint64_t World::SettledOps() const {
  std::uint64_t n = 0;
  for (const auto& c : clients) n += c->settled();
  return n;
}

std::uint64_t World::WindowOps() const {
  std::uint64_t n = 0;
  for (const auto& c : clients) n += c->in_window();
  return n;
}

std::uint64_t World::FailedOps() const {
  std::uint64_t n = 0;
  for (const auto& c : clients)
    n += c->failed(OpKind::kInvoke) + c->failed(OpKind::kMove);
  return n;
}

void World::CheckHostedOnce(std::size_t expected, Verdict& verdict) const {
  std::map<ComletId, int> hosts;
  for (core::Core* c : rt->Cores())
    for (ComletId id : c->ComletsHere()) ++hosts[id];
  std::size_t doubled = 0;
  for (const auto& [id, n] : hosts) doubled += n > 1 ? 1 : 0;
  verdict.Require(doubled == 0,
                  std::to_string(doubled) + " complets hosted on >1 Core");
  verdict.Require(hosts.size() == expected,
                  std::to_string(hosts.size()) + " complets hosted, expected " +
                      std::to_string(expected));
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool traced = false;
  bool quick = false;
};

/// Virtual step between wall-clock checks: small next to any workload's
/// round trip, large next to the cost of the check itself.
constexpr SimTime kSlice = Millis(10);
/// Host-metric sampling window. Co-tenants on a shared host only ever slow
/// a window down, so throughput is the upper decile over these windows and
/// CPU per op the lower decile: the least-disturbed share of the run.
constexpr double kSampleSeconds = 0.25;

/// One timed phase of the closed loop.
struct Phase {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;     ///< ops settled during the phase
  std::uint64_t failed = 0;  ///< ... of which failed
  std::uint64_t tasks = 0;   ///< scheduler events executed
  std::vector<double> ops_per_s;     ///< per sampling window
  std::vector<double> cpu_us_per_op;
  // exact window (untraced timed phase only)
  std::uint64_t window_ops = 0;
  std::uint64_t window_msgs = 0;
  std::uint64_t window_bytes = 0;
  bool window_complete = false;

  double OpsPerSecond() const {
    if (!ops_per_s.empty()) return Quantile(ops_per_s, 0.9);
    return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0;
  }
  double CpuUsPerOp() const {
    if (!cpu_us_per_op.empty()) return Quantile(cpu_us_per_op, 0.1);
    return ops > 0 ? cpu_s * 1e6 / static_cast<double>(ops) : 0;
  }
};

/// Host seconds of closed loop between set-up bursts, and length of a burst.
constexpr double kSetupEverySeconds = 1.0;
constexpr double kSetupBurstSeconds = 0.05;

/// Times set-ups of a workload's World (construction → populated and
/// drained) in short bursts spread over the timed phase. The machine's
/// speed drifts by a third for tens of seconds at a time on a shared host,
/// and a fresh process is slow for its first fraction of a second, so a
/// median over set-ups that span the whole run is steadier than one taken
/// all at its start. Freed memory goes back to the OS before each build, so
/// every one is a cold set-up, as in a fresh process. Without that, whether
/// a build reuses the last one's pages turns on where they sit in the heap
/// the timed World shares. Bursts run between slices, while the timed
/// World's workers wait at its barrier, so no more threads run at once than
/// one World uses.
class SetupTimer {
 public:
  SetupTimer(const Workload& wl, std::uint64_t seed) : wl_(wl), seed_(seed) {}

  /// Builds and destroys Worlds, at least one, for kSetupBurstSeconds.
  void Burst() {
    const double begin = WallSeconds();
    do {
      malloc_trim(0);
      const double t0 = WallSeconds();
      std::unique_ptr<World> world = wl_.build(seed_, wl_.localities);
      times_.push_back(WallSeconds() - t0);
    } while (WallSeconds() - begin < kSetupBurstSeconds);
  }

  double Median() const { return e2e::Median(times_); }

 private:
  const Workload& wl_;
  std::uint64_t seed_;
  std::vector<double> times_;
};

/// How a phase treats the workload's exact-metric window.
enum class Window {
  kOff,      ///< record nothing
  kRecord,   ///< record latencies settling inside it
  kRequire,  ///< ... and keep running until it has closed
};

/// Runs the closed loop for at least `budget_s` host seconds (and, under
/// Window::kRequire, until the exact window has closed), then drains.
/// Traced phases feed `probe` after every slice. With `setups`, a set-up
/// burst runs at the start and after every kSetupEverySeconds; the phase's
/// host time and CPU leave the bursts out.
Phase RunPhase(World& w, const Workload& wl, double budget_s, Window window,
               LayerProbe* probe, SetupTimer* setups = nullptr) {
  core::Runtime& rt = *w.rt;
  const SimTime start = rt.Now();
  const bool record = window != Window::kOff;
  w.ctl.window_begin = record ? start + wl.window_begin : 0;
  w.ctl.window_end = record ? start + wl.window_end : 0;
  const SimTime seg =
      wl.segments > 0 ? (wl.window_end - wl.window_begin) / wl.segments : 0;
  SimTime next_seg = seg > 0 ? start + seg : 0;
  bool at_begin = !record, at_end = !record;
  std::uint64_t msgs0 = 0, bytes0 = 0;

  Phase p;
  const std::uint64_t ops0 = w.SettledOps(), failed0 = w.FailedOps();
  const std::uint64_t window_ops0 = w.WindowOps();
  const std::uint64_t tasks0 = rt.scheduler().executed();
  w.StartClients();
  const double wall0 = WallSeconds(), cpu0 = CpuSeconds();
  double sample_wall = wall0, sample_cpu = cpu0;
  std::uint64_t sample_ops = ops0;
  double next_burst = wall0, burst_wall = 0, burst_cpu = 0;

  for (;;) {
    const SimTime now = rt.Now();
    if (!at_begin && now >= w.ctl.window_begin) {
      at_begin = true;
      msgs0 = rt.network().total_messages();
      bytes0 = rt.network().total_bytes();
    }
    if (!at_end && now >= w.ctl.window_end) {
      at_end = true;
      p.window_complete = true;
      p.window_msgs = rt.network().total_messages() - msgs0;
      p.window_bytes = rt.network().total_bytes() - bytes0;
    }
    if (seg > 0 && now >= next_seg) {
      w.Drain();
      if (probe != nullptr) ConsumeSpans(*probe, w);
      w.AtSegmentEnd();
      w.StartClients();
      next_seg = rt.Now() + seg;
      continue;
    }
    double wall = WallSeconds();
    if (wall - sample_wall >= kSampleSeconds) {
      const double cpu = CpuSeconds();
      const std::uint64_t ops = w.SettledOps();
      if (ops > sample_ops) {
        p.ops_per_s.push_back(static_cast<double>(ops - sample_ops) /
                              (wall - sample_wall));
        p.cpu_us_per_op.push_back((cpu - sample_cpu) * 1e6 /
                                  static_cast<double>(ops - sample_ops));
      }
      sample_wall = wall;
      sample_cpu = cpu;
      sample_ops = ops;
    }
    if (setups != nullptr && wall >= next_burst) {
      const double cpu = CpuSeconds();
      setups->Burst();
      const double wall_after = WallSeconds(), cpu_after = CpuSeconds();
      burst_wall += wall_after - wall;
      burst_cpu += cpu_after - cpu;
      // The sampling window in progress is dropped, not charged the burst.
      sample_wall = wall = wall_after;
      sample_cpu = cpu_after;
      sample_ops = w.SettledOps();
      next_burst = wall_after + kSetupEverySeconds;
    }
    if (wall - wall0 - burst_wall >= budget_s &&
        (at_end || window != Window::kRequire))
      break;
    // Step to the next boundary that must be observed exactly.
    SimTime step = kSlice;
    if (!at_begin) step = std::min(step, w.ctl.window_begin - now);
    if (!at_end) step = std::min(step, w.ctl.window_end - now);
    if (seg > 0) step = std::min(step, next_seg - now);
    rt.RunFor(std::max<SimTime>(step, 1));
    if (probe != nullptr) ConsumeSpans(*probe, w);
  }
  w.Drain();
  if (probe != nullptr) ConsumeSpans(*probe, w);

  p.wall_s = WallSeconds() - wall0 - burst_wall;
  p.cpu_s = CpuSeconds() - cpu0 - burst_cpu;
  p.ops = w.SettledOps() - ops0;
  p.failed = w.FailedOps() - failed0;
  p.tasks = rt.scheduler().executed() - tasks0;
  p.window_ops = w.WindowOps() - window_ops0;
  w.ctl.window_begin = w.ctl.window_end = 0;
  return p;
}

struct Report {
  Metrics metrics;
  Verdict verdict;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Latency percentiles of `kind` ops settled inside the window. They are
/// exact when the window is the untraced phase's required one.
void LatencyMetrics(const World& w, OpKind kind, const std::string& prefix,
                    const std::string& unit, bool exact, Metrics& out) {
  LatencyMap all;
  for (const auto& c : w.clients) all.Merge(c->latency(kind));
  if (all.count() == 0) return;
  Put(out, prefix + "_p50_ms", all.QuantileMs(0.50), unit, exact);
  Put(out, prefix + "_p99_ms", all.QuantileMs(0.99), unit, exact);
  Put(out, prefix + "_samples", static_cast<double>(all.count()), "count",
      exact);
}

Report RunUntraced(const Workload& wl, const Options& o) {
  Report r;
  std::unique_ptr<World> w = wl.build(o.seed, wl.localities);
  SetupTimer setups(wl, o.seed);
  const Phase p =
      RunPhase(*w, wl, o.seconds, Window::kRequire, nullptr, &setups);
  r.attempted = p.ops;
  r.failed = p.failed;
  Metrics& m = r.metrics;
  Put(m, "setup_s", setups.Median(), "s", false);
  Put(m, "ops_per_s", p.OpsPerSecond(), "1/s", false);
  Put(m, "cpu_us_per_op", p.CpuUsPerOp(), "us", false);
  LatencyMetrics(*w, OpKind::kInvoke, "invoke", "ms", true, m);
  LatencyMetrics(*w, OpKind::kMove, "core.movement.move", "virtual_ms", true,
                 m);
  const auto window_ops = static_cast<double>(p.window_ops);
  Put(m, "msgs_per_op", PerOp(static_cast<double>(p.window_msgs), window_ops),
      "msgs", true);
  Put(m, "wire_bytes_per_op",
      PerOp(static_cast<double>(p.window_bytes), window_ops), "B", true);
  Put(m, "window_ops", window_ops, "count", true);
  Put(m, "fail_ratio", PerOp(static_cast<double>(p.failed),
                             static_cast<double>(p.ops)),
      "ratio", false);
  Put(m, "timed_s", p.wall_s, "s", false);
  w->AfterRun(m, r.verdict);
  w->Check(r.verdict);
  r.verdict.Require(p.window_complete && p.window_ops > 0,
                    "exact-metric window never completed");
  Put(m, "peak_rss_mb", PeakRssMiB(), "MiB", false);
  return r;
}

/// Per-layer run: an untraced phase (registry counts, untraced ops/s), a
/// traced phase (spans, tap, issue timing), then the layer probes. For the
/// locality engine a sim-engine phase of equal length gives the speedup.
Report RunTraced(const Workload& wl, const Options& o) {
  Report r;
  Metrics& m = r.metrics;
  // Workload-specific layer metrics read 0 where the layer is unused.
  for (const char* name :
       {"core.movement.move_p50_ms", "core.movement.move_p99_ms",
        "core.wal.recovery_p50_ms"})
    Put(m, name, 0, "virtual_ms", false);
  for (const char* name : {"core.wal.replay_records_p50",
                           "core.tracker.gc_reclaimed"})
    Put(m, name, 0, "count", false);
  Put(m, "sim.locality.speedup_vs_sim", 0, "x", false);

  const bool with_sim = wl.localities > 0;
  const double a_budget = o.seconds * (with_sim ? 0.25 : 0.35);
  const double b_budget = o.seconds - a_budget * (with_sim ? 2 : 1);

  std::unique_ptr<World> w = wl.build(o.seed, wl.localities);
  core::Runtime& rt = *w->rt;
  rt.SyncSerialStats();
  rt.metrics().Reset();
  const Phase a = RunPhase(*w, wl, a_budget, Window::kRecord, nullptr);
  RegistryMetrics(rt, static_cast<double>(a.ops), m);
  LatencyMetrics(*w, OpKind::kMove, "core.movement.move", "virtual_ms", false,
                 m);

  const std::shared_ptr<LayerProbe> probe = MakeLayerProbe();
  rt.SyncSerialStats();
  const std::uint64_t moves0 = rt.metrics().CounterValue("move.count");
  const std::uint64_t rounds0 = rt.metrics().CounterValue("locality.rounds");
  const std::uint64_t records0 = rt.metrics().CounterValue("wal.records");
  BeginTrace(*probe, *w);
  w->ctl.time_issue = true;
  const Phase b = RunPhase(*w, wl, b_budget, Window::kOff, probe.get());
  w->ctl.time_issue = false;
  EndTrace(*probe, *w);
  rt.SyncSerialStats();
  TracedPhase tp;
  tp.ops = static_cast<double>(b.ops);
  tp.cpu_s = b.cpu_s;
  tp.tasks = b.tasks;
  tp.moves = rt.metrics().CounterValue("move.count") - moves0;
  tp.rounds = rt.metrics().CounterValue("locality.rounds") - rounds0;
  tp.wal_records = rt.metrics().CounterValue("wal.records") - records0;
  for (const auto& c : w->clients)
    tp.issue_ns.insert(tp.issue_ns.end(), c->issue_ns().begin(),
                       c->issue_ns().end());
  Put(m, "monitor.trace.overhead_ratio",
      b.OpsPerSecond() > 0 ? a.OpsPerSecond() / b.OpsPerSecond() : 0, "x",
      false);
  r.attempted = a.ops + b.ops;
  r.failed = a.failed + b.failed;

  w->AfterRun(m, r.verdict);
  w->Check(r.verdict);
  w.reset();  // join the engine's workers before any probe starts threads

  if (with_sim) {
    std::unique_ptr<World> sim = wl.build(o.seed, 0);
    const Phase c = RunPhase(*sim, wl, a_budget, Window::kOff, nullptr);
    sim->Check(r.verdict);
    Put(m, "sim.locality.speedup_vs_sim",
        c.OpsPerSecond() > 0 ? a.OpsPerSecond() / c.OpsPerSecond() : 0, "x",
        false);
  }
  RunProbes(*probe, o.quick ? 0.05 : 1.0);
  LayerMetrics(*probe, tp, m);
  Put(m, "peak_rss_mb", PeakRssMiB(), "MiB", false);
  return r;
}

std::string Json(const std::string& workload, const Options& o,
                 const Report& r) {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return std::string(buf);
  };
  auto str = [](const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  };
  std::string j = "{\"workload\": " + str(workload) +
                  ", \"seed\": " + std::to_string(o.seed) +
                  ", \"traced\": " + (o.traced ? "true" : "false") +
                  ", \"quick\": " + (o.quick ? "true" : "false") +
                  ", \"correct\": " +
                  (r.verdict.violations.empty() ? "true" : "false") +
                  ", \"violations\": [";
  for (std::size_t i = 0; i < r.verdict.violations.size(); ++i)
    j += (i ? ", " : "") + str(r.verdict.violations[i]);
  j += "], \"attempted\": " + std::to_string(r.attempted) +
       ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    j += (first ? "" : ", ") + str(name) + ": {\"value\": " +
         num(metric.value) + ", \"unit\": " + str(metric.unit) +
         ", \"exact\": " + (metric.exact ? "true" : "false") + "}";
    first = false;
  }
  return j + "}}";
}

Report Run(const Workload& wl, const Options& o) {
  Workload w = wl;
  if (o.quick) {  // 1% of the window, so of the work
    w.window_begin /= 100;
    w.window_end /= 100;
  }
  return o.traced ? RunTraced(w, o) : RunUntraced(w, o);
}

/// Quick variants of every workload: twice untraced (exact metrics must
/// match bit-for-bit) and once traced. Returns the process exit code.
int Smoke() {
  int rc = 0;
  for (const Workload& wl : Workloads()) {
    Options o;
    o.quick = true;
    o.seconds = 0;
    const Report first = Run(wl, o);
    const Report second = Run(wl, o);
    o.traced = true;
    const Report traced = Run(wl, o);
    for (const Report* r : {&first, &second, &traced})
      for (const std::string& v : r->verdict.violations) {
        std::fprintf(stderr, "e2e_smoke %s: %s\n", wl.name, v.c_str());
        rc = 1;
      }
    for (const auto& [name, metric] : first.metrics) {
      if (!metric.exact) continue;
      auto it = second.metrics.find(name);
      if (it == second.metrics.end() || it->second.value != metric.value) {
        std::fprintf(stderr, "e2e_smoke %s: %s differs between runs\n",
                     wl.name, name.c_str());
        rc = 1;
      }
    }
    std::fprintf(stderr, "e2e_smoke %s: %s\n", wl.name, rc ? "FAIL" : "ok");
  }
  return rc;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fargo_e2e --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick]\n       fargo_e2e --smoke\n"
               "workloads:");
  for (const Workload& wl : Workloads()) std::fprintf(stderr, " %s", wl.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace fargo::e2e

int main(int argc, char** argv) {
  using namespace fargo::e2e;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") return Smoke();
    if (arg == "--quick") {
      o.quick = true;
    } else if (val != nullptr && arg == "--workload") {
      o.workload = argv[++i];
    } else if (val != nullptr && arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (val != nullptr && arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (val != nullptr && arg == "--trace") {
      o.traced = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage();
    }
  }
  const Workload* wl = FindWorkload(o.workload);
  if (wl == nullptr || !(o.seconds >= 0)) return Usage();
  if (o.quick) o.seconds = 0;
  const auto r = Run(*wl, o);
  std::printf("%s\n", Json(wl->name, o, r).c_str());
  for (const std::string& v : r.verdict.violations)
    std::fprintf(stderr, "fargo_e2e: VIOLATION %s\n", v.c_str());
  return r.verdict.violations.empty() ? 0 : 1;
}

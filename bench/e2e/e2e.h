// fargo_e2e: closed-loop end-to-end workloads over the public runtime API.
//
// Every workload builds a World (a Runtime, its Cores, complets and
// clients), drives it with closed-loop clients for a host-time budget, and
// reports two kinds of numbers:
//   - virtual (simulated) costs — latency percentiles, messages and bytes
//     per op — taken over a fixed virtual window, so they are a pure
//     function of (engine, seed) however fast the host is;
//   - host costs — throughput, CPU per op, set-up time, memory — which are
//     medians over sub-second windows of the timed phase.
// A traced run (--trace 1) adds the per-layer breakdown (layers.cpp).
// See bench/e2e/README.md for the metric catalogue.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fargo.h"
#include "tests/support/comlets.h"

namespace fargo::e2e {

/// splitmix64: the same stream on every compiler and standard library
/// (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Host clocks: monotonic wall seconds and process CPU (user + sys, all
/// threads) seconds. The only non-virtual time sources of the benchmark.
double WallSeconds();
double CpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMiB();

/// Exact latency distribution: a count map keyed by virtual ns. The
/// simulated network yields few distinct latencies, so memory stays flat.
class LatencyMap {
 public:
  void Add(SimTime ns) {
    ++counts_[ns];
    ++n_;
  }
  void Merge(const LatencyMap& other);
  std::uint64_t count() const { return n_; }
  /// Nearest-rank quantile in milliseconds (0 when empty).
  double QuantileMs(double q) const;

 private:
  std::map<SimTime, std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// Linearly interpolated quantile of a sample (0 when empty).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// One reported number. `exact` marks virtual-time/count metrics, which
/// repeat bit-for-bit for a fixed engine and seed.
struct Metric {
  double value = 0;
  std::string unit;
  bool exact = false;
};
using Metrics = std::map<std::string, Metric>;

inline void Put(Metrics& out, const std::string& name, double value,
                const std::string& unit, bool exact) {
  out[name] = Metric{value, unit, exact};
}
inline double PerOp(double x, double ops) { return ops > 0 ? x / ops : 0; }

/// Correctness verdict of a run. A violation fails the run; failed ops do
/// not (they are reported against the ops attempted).
struct Verdict {
  std::vector<std::string> violations;
  void Require(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

enum class OpKind { kInvoke = 0, kMove = 1 };
inline constexpr int kOpKinds = 2;

/// Loop state shared by the conductor and every client. The conductor
/// writes it only between pumps; clients read it inside their own
/// continuations (the parallel engine's round barrier orders the two).
struct LoopControl {
  bool stop = false;         ///< settling ops issue no successor
  SimTime window_begin = 0;  ///< exact-metric window, absolute virtual ns
  SimTime window_end = 0;
  bool time_issue = false;   ///< traced phase: time each issue call
};

/// A closed-loop client: keeps `window` ops in flight from its home Core
/// and issues each successor from the previous op's settle continuation,
/// so it is only ever touched on its home Core's locality.
class Client {
 public:
  Client(core::Core& home, int window, std::uint64_t seed,
         const LoopControl& ctl)
      : home_(home), rng_(seed), window_(window), ctl_(ctl) {}
  virtual ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Tops the window up to `window` ops in flight.
  void Start();

  core::Core& home() const { return home_; }
  std::uint64_t ok(OpKind k) const { return ok_[static_cast<int>(k)]; }
  std::uint64_t failed(OpKind k) const { return failed_[static_cast<int>(k)]; }
  std::uint64_t settled() const;
  std::uint64_t in_window() const { return in_window_; }
  const LatencyMap& latency(OpKind k) const {
    return latency_[static_cast<int>(k)];
  }
  /// Host ns of each timed issue call (traced phase), capped in size.
  const std::vector<std::uint32_t>& issue_ns() const { return issue_ns_; }

 protected:
  /// Issues one op and hands its future to Track.
  virtual void IssueOne() = 0;
  /// Called on every settlement, with the op's tag, before the successor
  /// is issued.
  virtual void OnSettled(OpKind kind, bool ok, std::int64_t tag) {
    (void)kind;
    (void)ok;
    (void)tag;
  }

  /// Counts `f` in flight; its settlement records latency and outcome,
  /// calls OnSettled(kind, ok, tag) and issues the successor.
  template <class T>
  void Track(OpKind kind, sim::Future<T> f, std::int64_t tag = 0) {
    const SimTime begin = home_.scheduler().Now();
    ++in_flight_;
    // fargolint: allow(capture-this) clients outlive the event queue: every phase drains the scheduler before a World is destroyed
    f.OnSettle([this, kind, begin, tag](sim::Future<T> done) {
      Done(kind, begin, done.ok(), tag);
    });
  }

  core::Core& home_;
  Rng rng_;

 private:
  void Issue();
  void Done(OpKind kind, SimTime begin, bool ok, std::int64_t tag);

  int window_;
  const LoopControl& ctl_;
  int in_flight_ = 0;
  std::uint64_t ok_[kOpKinds] = {0, 0};
  std::uint64_t failed_[kOpKinds] = {0, 0};
  std::uint64_t in_window_ = 0;
  LatencyMap latency_[kOpKinds];
  std::vector<std::uint32_t> issue_ns_;
};

/// One deployment under test. `rt` is declared before `clients` so the
/// clients (and the complet references they hold) are destroyed while
/// every Core is still alive.
class World {
 public:
  explicit World(int localities)
      : rt(std::make_unique<core::Runtime>(core::RuntimeOptions{localities})) {
    testing::RegisterTestComlets();
  }
  virtual ~World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs at every segment boundary, with the deployment drained.
  virtual void AtSegmentEnd() {}
  /// Runs once after the timed phases, at quiescence (recovery cycles);
  /// reports under the per-layer names.
  virtual void AfterRun(Metrics& out, Verdict& verdict) {
    (void)out;
    (void)verdict;
  }
  /// End-of-run correctness checks.
  virtual void Check(Verdict& verdict) = 0;

  /// Sets up a full mesh over `cores` at 1.25e6 B/s. Per-pair latency is
  /// drawn from U[2,20] ms with a fixed topology seed, so runs at every seed
  /// measure one network, then jittered by ±1% from the run seed.
  void MeshLinks(std::uint64_t seed);
  /// Stops the loop and drains the scheduler; StartClients resumes it.
  void Drain();
  void StartClients();
  std::uint64_t SettledOps() const;
  std::uint64_t FailedOps() const;
  std::uint64_t WindowOps() const;
  /// Every complet id hosted on exactly one Core, and `expected` of them.
  void CheckHostedOnce(std::size_t expected, Verdict& verdict) const;

  std::unique_ptr<core::Runtime> rt;
  std::vector<core::Core*> cores;
  LoopControl ctl;
  std::vector<std::unique_ptr<Client>> clients;
};

/// A workload: how to build its World and which virtual window its exact
/// metrics cover (relative to the start of the timed phase).
struct Workload {
  const char* name;
  int localities;        ///< 0 = sim engine, N = locality engine
  SimTime window_begin;  ///< warm-up excluded from exact metrics
  SimTime window_end;
  /// Drained segments per window (0 = one unbroken loop); the loop keeps
  /// the same segment length past the window.
  int segments;
  std::unique_ptr<World> (*build)(std::uint64_t seed, int localities);
};

/// The benchmark workloads, plus move_churn_gc (workloads.cpp).
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Collects the per-layer evidence of a traced phase and turns it into
/// per-layer metrics (layers.cpp).
class LayerProbe;
std::shared_ptr<LayerProbe> MakeLayerProbe();
/// Installs the network tap and enables span recording on `world`.
void BeginTrace(LayerProbe& probe, World& world);
/// Consumes every span closed since the previous call.
void ConsumeSpans(LayerProbe& probe, World& world);
/// Stops recording and captures what the probes replay (WAL records).
void EndTrace(LayerProbe& probe, World& world);
/// Replays the captured inputs through each layer's public functions on
/// private instances and reports host ns per item.
void RunProbes(LayerProbe& probe, double budget_s);
/// Per-op layer counts from the registry, which the caller zeroed at the
/// start of an untraced phase of `ops` ops.
void RegistryMetrics(core::Runtime& rt, double ops, Metrics& out);

/// What a traced phase observed, for the per-layer metrics.
struct TracedPhase {
  double ops = 0;
  double cpu_s = 0;
  std::uint64_t tasks = 0;
  std::uint64_t moves = 0;
  std::uint64_t rounds = 0;
  std::uint64_t wal_records = 0;
  std::vector<std::uint32_t> issue_ns;
};
void LayerMetrics(const LayerProbe& probe, const TracedPhase& phase,
                  Metrics& out);

}  // namespace fargo::e2e

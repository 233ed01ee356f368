// The four fargo_e2e workloads. Why each exists, and which layers it
// exercises or bypasses, is in bench/e2e/README.md.
#include <iterator>

#include "bench/e2e/e2e.h"
#include "src/core/wal.h"

namespace fargo::e2e {
namespace {

using testing::Counter;
using testing::Data;
using testing::Message;

/// Seed of client `i`'s op stream: distinct per client, fixed per run seed.
std::uint64_t ClientSeed(std::uint64_t seed, std::size_t i) {
  return Rng(seed * 0x100000001b3ull + i).Next();
}

template <class T>
T* AnchorAs(core::Core& c, ComletId id) {
  return dynamic_cast<T*>(c.repository().Get(id).get());
}

/// Refs from `home` to every complet of `all` hosted elsewhere.
template <class T>
std::vector<core::ComletRef<T>> RemoteRefs(
    core::Core& home, const std::vector<core::ComletRef<T>>& all) {
  std::vector<core::ComletRef<T>> refs;
  refs.reserve(all.size());
  for (const auto& ref : all)
    if (ref.handle().last_known != home.id())
      refs.push_back(home.RefTo<T>(ref.handle()));
  return refs;
}

// ---- invoke_small / invoke_durable ------------------------------------------

/// Calls `increment` (seeded amount, so the seed drives payload size) — or,
/// with reads on, `get` half the time — on seeded remote Counters.
class CounterClient : public Client {
 public:
  CounterClient(core::Core& home, std::vector<core::ComletRef<Counter>> refs,
                bool reads, std::uint64_t seed, const LoopControl& ctl)
      : Client(home, 16, seed, ctl), refs_(std::move(refs)), reads_(reads) {}

  std::int64_t incremented() const { return incremented_; }

 protected:
  void IssueOne() override {
    const auto& ref = refs_[rng_.Below(refs_.size())];
    if (reads_ && rng_.Below(2) == 0) {
      Track(OpKind::kInvoke, ref.InvokeAsync("get"));
      return;
    }
    const auto amount = static_cast<std::int64_t>(1 + rng_.Below(1000));
    Track(OpKind::kInvoke, ref.InvokeAsync("increment", amount), amount);
  }
  void OnSettled(OpKind, bool ok, std::int64_t amount) override {
    if (ok) incremented_ += amount;
  }

 private:
  std::vector<core::ComletRef<Counter>> refs_;
  bool reads_;
  std::int64_t incremented_ = 0;
};

/// 8 Cores, 64 Counters, 8 clients x window 16. `durable` turns on the WAL
/// everywhere and a 50/50 get/increment mix, and adds recovery cycles.
class CounterWorld : public World {
 public:
  CounterWorld(std::uint64_t seed, int localities, bool durable)
      : World(localities), durable_(durable) {
    for (int i = 0; i < 8; ++i)
      cores.push_back(&rt->CreateCore("core" + std::to_string(i)));
    MeshLinks(seed);
    if (durable)
      for (core::Core* c : cores) c->EnableWal(Millis(250));
    for (std::size_t k = 0; k < 64; ++k)
      counters_.push_back(cores[k % cores.size()]->New<Counter>());
    for (std::size_t i = 0; i < cores.size(); ++i)
      clients.push_back(std::make_unique<CounterClient>(
          *cores[i], RemoteRefs(*cores[i], counters_), durable,
          ClientSeed(seed, i), ctl));
    rt->RunUntilIdle();
  }

  void AfterRun(Metrics& out, Verdict& verdict) override {
    if (!durable_) return;
    // Two crash/restart cycles per Core at quiescence. Each measures the
    // virtual time from Restart() to the first invoke the Core serves.
    LatencyMap recovery;
    std::vector<double> replayed;
    for (std::size_t k = 0; k < 2 * cores.size(); ++k) {
      CheckSum("before recovery cycle " + std::to_string(k), verdict);
      core::Core& victim = *cores[k % cores.size()];
      core::Core& caller = *cores[(k + 1) % cores.size()];
      const std::uint64_t replayed0 = victim.wal()->records_replayed();
      victim.Crash();
      victim.Restart();
      const SimTime restarted = rt->Now();
      replayed.push_back(
          static_cast<double>(victim.wal()->records_replayed() - replayed0));
      auto ref = caller.RefTo<Counter>(counters_[k % cores.size()].handle());
      SimTime served = restarted;
      ref.InvokeAsync("get").OnSettle(
          [&served, s = &rt->scheduler()](sim::Future<Value> f) {
            if (f.ok()) served = s->Now();
          });
      rt->RunUntilIdle();
      verdict.Require(served > restarted,
                      "no invoke served after recovery cycle " +
                          std::to_string(k));
      recovery.Add(served - restarted);
      CheckSum("after recovery cycle " + std::to_string(k), verdict);
    }
    // Not exact: the log each Core replays depends on where the wall-clock
    // budget stopped the loop.
    Put(out, "core.wal.recovery_p50_ms", recovery.QuantileMs(0.5),
        "virtual_ms", false);
    Put(out, "core.wal.replay_records_p50", Median(replayed), "count", false);
  }

  void Check(Verdict& verdict) override {
    CheckSum("at the end", verdict);
    CheckHostedOnce(counters_.size(), verdict);
  }

 private:
  /// Σ Counter values equals the successful increments.
  void CheckSum(const std::string& when, Verdict& verdict) {
    std::int64_t expected = 0, actual = 0;
    for (const auto& c : clients)
      expected += static_cast<const CounterClient&>(*c).incremented();
    for (const auto& ref : counters_)
      for (core::Core* c : cores)
        if (const Counter* counter = AnchorAs<Counter>(*c, ref.target()))
          actual += counter->value();
    verdict.Require(actual == expected,
                    "counter sum " + std::to_string(actual) + " != " +
                        std::to_string(expected) + " increments " + when);
  }

  bool durable_;
  std::vector<core::ComletRef<Counter>> counters_;
};

// ---- move_churn --------------------------------------------------------------

/// Moves seeded complets of its own disjoint set to seeded destinations,
/// one move at a time, issuing each from the complet's current host.
class Mover : public Client {
 public:
  Mover(core::Core& home, std::vector<ComletId> ids,
        std::vector<std::size_t> hosts, const std::vector<core::Core*>& cores,
        std::uint64_t seed, const LoopControl& ctl)
      : Client(home, 1, seed, ctl),
        ids_(std::move(ids)),
        hosts_(std::move(hosts)),
        cores_(cores) {}

 protected:
  void IssueOne() override {
    const std::size_t i = rng_.Below(ids_.size());
    std::size_t dest = rng_.Below(cores_.size() - 1);
    if (dest >= hosts_[i]) ++dest;  // never the current host
    core::Core& host = *cores_[hosts_[i]];
    sim::Scheduler::AffinityScope aff(host.id().value);
    Track(OpKind::kMove, host.MoveIdAsync(ids_[i], cores_[dest]->id()),
          static_cast<std::int64_t>(i * cores_.size() + dest));
  }
  void OnSettled(OpKind, bool ok, std::int64_t tag) override {
    const auto t = static_cast<std::size_t>(tag);
    if (ok) hosts_[t / cores_.size()] = t % cores_.size();
  }

 private:
  std::vector<ComletId> ids_;
  std::vector<std::size_t> hosts_;  ///< index into cores_, per id
  const std::vector<core::Core*>& cores_;
};

/// Calls `read` on seeded complets through observer refs that are never
/// told about moves.
class Reader : public Client {
 public:
  Reader(core::Core& home, const std::vector<core::ComletRef<Data>>& all,
         std::uint64_t seed, const LoopControl& ctl)
      : Client(home, 8, seed, ctl) {
    refs_.reserve(all.size());
    for (const auto& ref : all) refs_.push_back(home.RefTo<Data>(ref.handle()));
  }

 protected:
  void IssueOne() override {
    Track(OpKind::kInvoke, refs_[rng_.Below(refs_.size())].InvokeAsync("read"));
  }

 private:
  std::vector<core::ComletRef<Data>> refs_;
};

/// 16 Cores, a sharded directory over 4 owners, 1024 Data complets of
/// seeded size {1, 8, 64} KiB; 8 movers and 8 readers (Cores 8-15). Under
/// move_churn_gc the run is cut into drained segments and every Core
/// collects its tracker garbage after each, so stale observers must
/// re-resolve through the home shard.
class ChurnWorld : public World {
 public:
  ChurnWorld(std::uint64_t seed, int localities) : World(localities) {
    for (int i = 0; i < 16; ++i)
      cores.push_back(&rt->CreateCore("core" + std::to_string(i)));
    MeshLinks(seed);
    rt->EnableDirectory({cores[0]->id(), cores[1]->id(), cores[2]->id(),
                         cores[3]->id()},
                        /*vnodes=*/16);
    // An equal share of each size, in seeded order: the seed moves which
    // complet is large, not how much data there is.
    constexpr std::size_t kKiB[] = {1, 8, 64};
    std::vector<std::size_t> kib(1024);
    for (std::size_t k = 0; k < kib.size(); ++k) kib[k] = kKiB[k % 3];
    Rng order(seed ^ 0xda7a);
    for (std::size_t k = kib.size() - 1; k > 0; --k)
      std::swap(kib[k], kib[order.Below(k + 1)]);
    for (std::size_t k = 0; k < kib.size(); ++k)
      data_.push_back(cores[k % cores.size()]->New<Data>(kib[k] * 1024));
    for (std::size_t m = 0; m < 8; ++m) {
      std::vector<ComletId> ids;
      std::vector<std::size_t> hosts;
      for (std::size_t k = m; k < data_.size(); k += 8) {
        ids.push_back(data_[k].target());
        hosts.push_back(k % cores.size());
      }
      clients.push_back(std::make_unique<Mover>(*cores[m], std::move(ids),
                                                std::move(hosts), cores,
                                                ClientSeed(seed, m), ctl));
    }
    for (std::size_t r = 0; r < 8; ++r)
      clients.push_back(std::make_unique<Reader>(
          *cores[8 + r], data_, ClientSeed(seed, 8 + r), ctl));
    rt->RunUntilIdle();
  }

  void AtSegmentEnd() override {
    for (core::Core* c : cores) gc_reclaimed_ += c->trackers().CollectGarbage();
  }

  void AfterRun(Metrics& out, Verdict&) override {
    Put(out, "core.tracker.gc_reclaimed", static_cast<double>(gc_reclaimed_),
        "count", false);
  }

  void Check(Verdict& verdict) override {
    std::uint64_t ok_reads = 0, failed_reads = 0;
    for (const auto& c : clients) {
      ok_reads += c->ok(OpKind::kInvoke);
      failed_reads += c->failed(OpKind::kInvoke);
    }
    std::uint64_t reads = 0;
    for (const auto& ref : data_)
      for (core::Core* c : cores)
        if (const Data* d = AnchorAs<Data>(*c, ref.target()))
          reads += static_cast<std::uint64_t>(d->reads());
    verdict.Require(ok_reads <= reads && reads <= ok_reads + failed_reads,
                    "Data reads " + std::to_string(reads) +
                        " outside [ok, ok + failed] = [" +
                        std::to_string(ok_reads) + ", " +
                        std::to_string(ok_reads + failed_reads) + "]");
    CheckHostedOnce(data_.size(), verdict);
  }

 private:
  std::vector<core::ComletRef<Data>> data_;
  std::uint64_t gc_reclaimed_ = 0;
};

// ---- parallel_fanout -----------------------------------------------------------

constexpr std::size_t kTextBytes = 4096;

/// Calls `set` with a seeded 4 KiB string on seeded remote Messages.
class SetClient : public Client {
 public:
  SetClient(core::Core& home, std::vector<core::ComletRef<Message>> refs,
            std::uint64_t seed, const LoopControl& ctl)
      : Client(home, 16, seed, ctl), refs_(std::move(refs)) {
    for (std::string& t : texts_) {
      t.resize(kTextBytes);
      for (char& ch : t) ch = static_cast<char>('a' + rng_.Below(26));
    }
  }

 protected:
  void IssueOne() override {
    Track(OpKind::kInvoke,
          refs_[rng_.Below(refs_.size())].InvokeAsync(
              "set", texts_[rng_.Below(std::size(texts_))]));
  }

 private:
  std::vector<core::ComletRef<Message>> refs_;
  std::string texts_[4];
};

/// 6 Cores (2 per locality under 3 workers), 48 Messages, 6 clients x
/// window 16.
class FanoutWorld : public World {
 public:
  FanoutWorld(std::uint64_t seed, int localities) : World(localities) {
    for (int i = 0; i < 6; ++i)
      cores.push_back(&rt->CreateCore("core" + std::to_string(i)));
    MeshLinks(seed);
    for (std::size_t k = 0; k < 48; ++k)
      messages_.push_back(cores[k % cores.size()]->New<Message>(
          std::string(kTextBytes, 'm')));
    for (std::size_t i = 0; i < cores.size(); ++i)
      clients.push_back(std::make_unique<SetClient>(
          *cores[i], RemoteRefs(*cores[i], messages_), ClientSeed(seed, i),
          ctl));
    rt->RunUntilIdle();
  }

  void Check(Verdict& verdict) override {
    std::size_t wrong = 0;
    for (const auto& ref : messages_)
      for (core::Core* c : cores)
        if (const Message* msg = AnchorAs<Message>(*c, ref.target()))
          wrong += msg->text().size() == kTextBytes ? 0 : 1;
    verdict.Require(wrong == 0, std::to_string(wrong) +
                                    " Message texts are not 4096 bytes");
    CheckHostedOnce(messages_.size(), verdict);
  }

 private:
  std::vector<core::ComletRef<Message>> messages_;
};

}  // namespace

const std::vector<Workload>& Workloads() {
  auto counters = [](std::uint64_t seed, int loc) -> std::unique_ptr<World> {
    return std::make_unique<CounterWorld>(seed, loc, false);
  };
  auto durable = [](std::uint64_t seed, int loc) -> std::unique_ptr<World> {
    return std::make_unique<CounterWorld>(seed, loc, true);
  };
  auto churn = [](std::uint64_t seed, int loc) -> std::unique_ptr<World> {
    return std::make_unique<ChurnWorld>(seed, loc);
  };
  auto fanout = [](std::uint64_t seed, int loc) -> std::unique_ptr<World> {
    return std::make_unique<FanoutWorld>(seed, loc);
  };
  // Each window holds 4-11 host seconds of work on a 4-CPU Xeon VM.
  // parallel_fanout's also outlasts the 30 s RPC timeout: cancelled timeout
  // tasks keep their request alive until due, which sets the peak RSS.
  static const std::vector<Workload> kWorkloads = {
      {"invoke_small", 0, Seconds(1), Seconds(121), 0, counters},
      {"invoke_durable", 0, Seconds(1), Seconds(121), 0, durable},
      {"move_churn", 0, Seconds(1), Seconds(121), 0, churn},
      {"parallel_fanout", 3, Seconds(1), Seconds(31), 0, fanout},
      // Not a benchmark workload: reads fail after tracker GC (README).
      {"move_churn_gc", 0, Seconds(1), Seconds(121), 8, churn},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& wl : Workloads())
    if (name == wl.name) return &wl;
  return nullptr;
}

}  // namespace fargo::e2e

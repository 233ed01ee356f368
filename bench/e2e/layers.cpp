// Per-layer evidence for fargo_e2e's traced run.
//
// Three sources, all through public APIs:
//   - the metrics registry (always on): per-op counts of each layer;
//   - the traced phase: a Network tap classifying every message (kBatch
//     frames unwrapped) and keeping the first few of each kind, the span
//     rings of every Core, and the WAL records left on the simulated disk;
//   - layer probes: after the deployment is gone, the captured messages and
//     records are replayed through each layer's public functions on private
//     instances, timed on the host clock, and reported as ns per item.
#include <algorithm>
#include <array>
#include <cmath>

#include "bench/e2e/e2e.h"
#include "src/core/wal.h"
#include "src/core/wire.h"
#include "src/net/formation.h"
#include "src/net/session.h"
#include "src/serial/frame.h"
#include "src/serial/value_codec.h"
#include "src/sim/parallel_sched.h"
#include "src/sim/storage.h"

namespace fargo::e2e {
namespace {

constexpr std::size_t kKinds =
    static_cast<std::size_t>(net::MessageKind::kDirectoryMap) + 1;
/// Messages kept per kind for the probes, and their byte cap.
constexpr std::size_t kCaptureCount = 4096;
constexpr std::size_t kCaptureBytes = 8u << 20;
constexpr std::size_t kCaptureRecords = 4096;

/// Wire kinds reported as `net.network.msgs.<name>_per_op`.
constexpr std::pair<net::MessageKind, const char*> kReportedKinds[] = {
    {net::MessageKind::kInvokeRequest, "invoke_request"},
    {net::MessageKind::kInvokeReply, "invoke_reply"},
    {net::MessageKind::kMoveRequest, "move_request"},
    {net::MessageKind::kMoveReply, "move_reply"},
    {net::MessageKind::kTrackerUpdate, "tracker_update"},
    {net::MessageKind::kDirectoryPublish, "directory_publish"},
    {net::MessageKind::kDirectoryLookup, "directory_lookup"},
    {net::MessageKind::kDirectoryReply, "directory_reply"},
    {net::MessageKind::kBatch, "batch"},
};

std::size_t KindIndex(net::MessageKind k) { return static_cast<std::size_t>(k); }

/// Bounded sample of messages of one kind.
struct Capture {
  std::vector<net::Message> msgs;
  std::size_t bytes = 0;
  void Keep(const net::Message& m) {
    if (msgs.size() >= kCaptureCount || bytes + m.size() > kCaptureBytes)
      return;
    bytes += m.size();
    msgs.push_back(m);
  }
};

/// Per-Core span cursor: the next unread token plus tokens still open.
struct SpanCursor {
  std::uint64_t next = 1;
  std::vector<std::uint64_t> open;
};

/// Runs `body` (returning items processed) until `budget_s` host seconds
/// have passed, at least once; returns host ns per item.
template <class F>
double NsPerItem(double budget_s, F body) {
  double items = 0;
  const double t0 = WallSeconds();
  double elapsed = 0;
  do {
    items += static_cast<double>(body());
    elapsed = WallSeconds() - t0;
  } while (elapsed < budget_s);
  return items > 0 ? elapsed * 1e9 / items : 0;
}

}  // namespace

class LayerProbe {
 public:
  // -- tap (runs under the fabric lock, so it is serialized) -------------------
  std::array<std::uint64_t, kKinds> items{};   ///< batch items unwrapped
  std::array<std::uint64_t, kKinds> item_bytes{};
  std::array<Capture, kKinds> wire;   ///< as sent (frames stay frames)
  std::array<Capture, kKinds> inner;  ///< batch items unwrapped

  void Tap(const net::Message& m) {
    wire[KindIndex(m.kind)].Keep(m);
    if (m.kind != net::MessageKind::kBatch) {
      Item(m);
      return;
    }
    ++items[KindIndex(m.kind)];
    serial::FrameReader frame(m.payload);
    while (frame.HasNext()) {
      serial::Reader r = frame.Next();
      net::Message item = net::ReadBatchItem(r);
      item.from = m.from;
      item.to = m.to;
      Item(item);
    }
  }

  // -- spans ----------------------------------------------------------------------
  std::vector<SpanCursor> cursors;
  /// Closed exec spans waiting for their root: trace id -> (core, duration).
  std::map<std::uint64_t, std::pair<std::uint32_t, SimTime>> execs;
  /// Root duration minus exec and link latencies, split by whether a
  /// network transfer still has to be subtracted (remote) or not.
  LatencyMap nonlink_local, nonlink_remote;
  LatencyMap move_spans;
  std::uint64_t evicted = 0;
  std::vector<std::vector<SimTime>> latency;  ///< [from id][to id]
  double bytes_per_sec = 1.25e6;

  // -- replay inputs and results ----------------------------------------------
  std::vector<std::vector<std::uint8_t>> wal_records;
  double ns_per_task = 0, us_per_round = 0, ns_per_send = 0, ns_per_item = 0,
         ns_per_admit = 0, ns_per_invoke_request = 0, ns_per_kib = 0,
         ns_per_record = 0;

 private:
  void Item(const net::Message& m) {
    ++items[KindIndex(m.kind)];
    item_bytes[KindIndex(m.kind)] += m.size();
    inner[KindIndex(m.kind)].Keep(m);
  }
};

std::shared_ptr<LayerProbe> MakeLayerProbe() {
  return std::make_shared<LayerProbe>();
}

void BeginTrace(LayerProbe& probe, World& world) {
  core::Runtime& rt = *world.rt;
  std::uint32_t max_id = 0;
  for (core::Core* c : rt.Cores()) max_id = std::max(max_id, c->id().value);
  probe.latency.assign(max_id + 1, std::vector<SimTime>(max_id + 1, 0));
  for (core::Core* a : rt.Cores())
    for (core::Core* b : rt.Cores())
      if (a != b) {
        const net::LinkModel link = rt.network().GetLink(a->id(), b->id());
        probe.latency[a->id().value][b->id().value] = link.latency;
        probe.bytes_per_sec = link.bytes_per_sec;
      }
  probe.cursors.assign(rt.Cores().size(), SpanCursor{});
  for (std::size_t i = 0; i < rt.Cores().size(); ++i)
    probe.cursors[i].next = rt.Cores()[i]->tracer().buffer().total_added() + 1;
  LayerProbe* p = &probe;
  rt.network().SetTap([p](const net::Message& m) { p->Tap(m); });
  rt.SetTracing(true);
}

void ConsumeSpans(LayerProbe& probe, World& world) {
  std::vector<monitor::Span> closed;
  const std::vector<core::Core*> cores = world.rt->Cores();
  for (std::size_t i = 0; i < cores.size(); ++i) {
    monitor::TraceBuffer& buf = cores[i]->tracer().buffer();
    SpanCursor& cur = probe.cursors[i];
    std::vector<std::uint64_t> still_open;
    auto visit = [&](std::uint64_t token) {
      const monitor::Span* s = buf.Find(token);
      if (s == nullptr) {
        ++probe.evicted;  // overwritten before it was read
      } else if (s->outcome == monitor::SpanOutcome::kPending) {
        still_open.push_back(token);
      } else {
        closed.push_back(*s);
      }
    };
    for (std::uint64_t token : cur.open) visit(token);
    for (; cur.next <= buf.total_added(); ++cur.next) visit(cur.next);
    cur.open = std::move(still_open);
  }
  // Execs first: a root and its exec may close within one slice.
  for (const monitor::Span& s : closed)
    if (s.kind == monitor::SpanKind::kExec)
      probe.execs[s.trace_id] = {s.core.value, s.end - s.begin};
  for (const monitor::Span& s : closed) {
    if (s.kind == monitor::SpanKind::kMove &&
        s.outcome == monitor::SpanOutcome::kOk)
      probe.move_spans.Add(s.end - s.begin);
    if (s.kind != monitor::SpanKind::kRoot ||
        s.outcome != monitor::SpanOutcome::kOk)
      continue;
    auto it = probe.execs.find(s.trace_id);
    if (it == probe.execs.end()) continue;
    const std::uint32_t origin = s.core.value, host = it->second.first;
    SimTime wait = s.end - s.begin - it->second.second;
    if (origin == host) {
      probe.nonlink_local.Add(wait);
    } else {
      wait -= probe.latency[origin][host] + probe.latency[host][origin];
      probe.nonlink_remote.Add(wait);
    }
    probe.execs.erase(it);
  }
  // Execs whose root never closes here (moves, retried duplicates) must
  // not accumulate without bound.
  if (probe.execs.size() > (1u << 16)) probe.execs.clear();
}

void EndTrace(LayerProbe& probe, World& world) {
  core::Runtime& rt = *world.rt;
  rt.SetTracing(false);
  rt.network().SetTap(nullptr);
  for (core::Core* c : rt.Cores()) {
    if (c->wal() == nullptr) continue;
    for (auto& rec : rt.storage().ReadDurable(c->wal()->log_name())) {
      if (probe.wal_records.size() >= kCaptureRecords) break;
      probe.wal_records.push_back(std::move(rec));
    }
  }
}

// ---- layer probes -----------------------------------------------------------------

namespace {

double ProbeScheduler(double budget_s) {
  sim::SimScheduler sched;
  Rng rng(1);
  return NsPerItem(budget_s, [&sched, &rng] {
    constexpr int kTasks = 4096;
    for (int i = 0; i < kTasks; ++i)
      sched.ScheduleAt(sched.Now() + static_cast<SimTime>(rng.Below(Millis(20))),
                       [] {});
    while (sched.RunOne()) {
    }
    return kTasks;
  });
}

/// Host µs per barrier round of a 3-worker engine: at each timestamp every
/// locality runs one task that hands a follow-up to the next locality, so
/// a round costs the barrier plus a few trivial tasks.
double ProbeLocality(double budget_s) {
  sim::ParallelScheduler sched(3);
  const double ns = NsPerItem(budget_s, [&sched] {
    const std::uint64_t before = sched.telemetry().rounds;
    for (std::uint64_t t = 1; t <= 256; ++t)
      for (std::uint64_t a = 0; a < 3; ++a)
        sched.Post(a, sched.Now() + Millis(static_cast<SimTime>(t)),
                   [s = &sched, a] { s->Post(a + 1, s->Now(), [] {}); });
    sched.RunUntilIdle();
    return sched.telemetry().rounds - before;
  });
  return ns / 1e3;
}

void RegisterSinks(net::Network& net, const std::vector<net::Message>& msgs) {
  for (const net::Message& m : msgs) {
    if (!net.IsRegistered(m.to)) net.Register(m.to, [](net::Message) {});
    if (!net.IsRegistered(m.from)) net.Register(m.from, [](net::Message) {});
  }
}

double ProbeSend(const std::vector<net::Message>& msgs, double budget_s) {
  if (msgs.empty()) return 0;
  sim::SimScheduler sched;
  net::Network net(sched);
  RegisterSinks(net, msgs);
  double ns_total = 0, sent = 0;
  const double t0 = WallSeconds();
  do {
    std::vector<net::Message> batch = msgs;
    const double s0 = WallSeconds();
    for (net::Message& m : batch) net.Send(std::move(m));
    ns_total += (WallSeconds() - s0) * 1e9;
    sent += static_cast<double>(batch.size());
    sched.RunUntilIdle();  // delivery is not the send's cost
  } while (WallSeconds() - t0 < budget_s);
  return ns_total / sent;
}

/// Formation::Enqueue plus the flushes it schedules (frame encoding and the
/// resulting Network::Send), per item; every item leaves one Core.
double ProbeFormation(const std::vector<net::Message>& msgs, double budget_s) {
  if (msgs.empty()) return 0;
  const CoreId self{0xfffff};
  std::vector<net::Message> items = msgs;
  for (net::Message& m : items) m.from = self;
  sim::SimScheduler sched;
  net::Network net(sched);
  RegisterSinks(net, items);
  net::Formation formation(self, sched, net);
  return NsPerItem(budget_s, [&] {
    std::vector<net::Message> batch = items;
    std::size_t n = 0;
    for (net::Message& m : batch) {
      formation.Enqueue(std::move(m), net::Formation::Lane::kImmediate);
      if (++n % 16 == 0) sched.RunUntilIdle();
    }
    sched.RunUntilIdle();
    return batch.size();
  });
}

/// One request's session round: lease, admit, cache the reply, release.
double ProbeSession(const std::vector<net::Message>& replies, double budget_s) {
  if (replies.empty()) return 0;
  net::SessionPool pool;
  net::ReplayDirectory dir;
  return NsPerItem(budget_s, [&] {
    for (const net::Message& m : replies) {
      const net::SessionKey key = pool.Acquire(m.to, m.from);
      dir.Admit(key);
      dir.Complete(key, m.kind, m.payload);
      pool.Release(key);
    }
    return replies.size();
  });
}

double ProbeWal(const std::vector<std::vector<std::uint8_t>>& records,
                double budget_s) {
  if (records.empty()) return 0;
  std::vector<core::WalRecord> decoded;
  for (const auto& bytes : records) decoded.push_back(core::DecodeWalRecord(bytes));
  sim::SimScheduler sched;
  sim::Storage storage(sched);
  const std::string log = "probe";
  return NsPerItem(budget_s, [&] {
    std::size_t n = 0;
    for (const core::WalRecord& rec : decoded) {
      std::vector<std::uint8_t> bytes = core::EncodeWalRecord(rec);
      const core::WalRecord back = core::DecodeWalRecord(bytes);
      storage.Append(log, std::move(bytes));
      if (++n % 16 == 0 || n == decoded.size()) {
        storage.Sync(log);
        sched.RunUntilIdle();
        storage.TruncateLog(log, storage.NextIndex(log));
      }
      (void)back;
    }
    return n;
  });
}

}  // namespace

void RunProbes(LayerProbe& probe, double budget_s) {
  const double each = budget_s / 8;
  auto inner = [&probe](net::MessageKind k) -> const std::vector<net::Message>& {
    return probe.inner[KindIndex(k)].msgs;
  };
  std::vector<net::Message> sent, items;
  for (std::size_t k = 0; k < kKinds; ++k) {
    sent.insert(sent.end(), probe.wire[k].msgs.begin(), probe.wire[k].msgs.end());
    items.insert(items.end(), probe.inner[k].msgs.begin(),
                 probe.inner[k].msgs.end());
  }
  const std::vector<net::Message>& replies =
      inner(net::MessageKind::kInvokeReply);

  probe.ns_per_task = ProbeScheduler(each);
  probe.us_per_round = ProbeLocality(each);
  probe.ns_per_send = ProbeSend(sent, each);
  probe.ns_per_item = ProbeFormation(items, each);
  probe.ns_per_admit = ProbeSession(replies, each);

  std::vector<core::wire::InvokeRequest> requests;
  for (const net::Message& m : inner(net::MessageKind::kInvokeRequest))
    requests.push_back(core::wire::DecodeInvokeRequest(m.payload));
  if (!requests.empty()) {
    probe.ns_per_invoke_request = NsPerItem(each, [&requests] {
      for (const core::wire::InvokeRequest& rq : requests) {
        const core::wire::InvokeRequest back =
            core::wire::DecodeInvokeRequest(core::wire::EncodeInvokeRequest(rq));
        if (back.method != rq.method) std::abort();
      }
      return requests.size();
    });
    double kib = 0;
    const double ns_args = NsPerItem(each, [&requests, &kib] {
      std::size_t bytes = 0;
      for (const core::wire::InvokeRequest& rq : requests) {
        serial::Writer w;
        serial::WriteValues(w, rq.args);
        bytes += w.size();
        serial::Reader r(w.buffer());
        if (serial::ReadValues(r).size() != rq.args.size()) std::abort();
      }
      kib = static_cast<double>(bytes) / 1024;
      return std::size_t{1};
    });
    probe.ns_per_kib = kib > 0 ? ns_args / kib : 0;
  }

  // A workload without a WAL still yields the exec records a durable Core
  // would log for its replies, so the probe reads a time everywhere.
  std::vector<std::vector<std::uint8_t>> records = probe.wal_records;
  if (records.empty())
    for (const net::Message& m : replies) {
      core::WalRecord rec;
      rec.kind = core::kWalExec;
      rec.session = m.session;
      rec.reply_kind = static_cast<std::uint8_t>(m.kind);
      rec.reply = m.payload;
      records.push_back(core::EncodeWalRecord(rec));
    }
  probe.ns_per_record = ProbeWal(records, each);
}

// ---- metrics ---------------------------------------------------------------------------

void RegistryMetrics(core::Runtime& rt, double ops, Metrics& out) {
  rt.SyncSerialStats();
  monitor::Registry& reg = rt.metrics();
  auto count = [&reg](const char* name) {
    return static_cast<double>(reg.CounterValue(name));
  };
  auto hist = [&reg](const char* name) -> monitor::Histogram& {
    return reg.histogram(name, monitor::Registry::CountBounds());
  };
  Put(out, "sim.locality.rounds_per_op", PerOp(count("locality.rounds"), ops),
      "rounds", false);
  Put(out, "sim.locality.handoffs_per_op",
      PerOp(count("locality.handoffs"), ops), "tasks", false);
  Put(out, "sim.locality.overflows", count("locality.handoff_overflows"),
      "count", false);
  Put(out, "sim.locality.max_queue_depth", reg.GaugeValue("locality.queue_depth"),
      "tasks", false);
  Put(out, "net.network.drops", count("net.drops"), "count", false);
  const double frames = count("formation.frames");
  Put(out, "net.formation.items_per_frame",
      frames > 0 ? count("formation.batched_items") / frames : 0, "items",
      false);
  Put(out, "net.formation.flushes_per_op",
      PerOp(count("formation.flushes"), ops), "flushes", false);
  Put(out, "net.session.replays_per_op", PerOp(count("session.replays"), ops),
      "replays", false);
  Put(out, "net.session.suppressed", count("session.suppressed"), "count",
      false);
  Put(out, "net.session.stale", count("session.stale"), "count", false);
  Put(out, "net.session.retries_per_op", PerOp(count("rpc.retries"), ops),
      "retries", false);
  Put(out, "net.session.late_replies", count("rpc.late_replies"), "count",
      false);
  Put(out, "serial.allocs_per_op", PerOp(count("alloc.count"), ops), "allocs",
      false);
  Put(out, "serial.bytes_copied_per_op",
      PerOp(count("net.bytes_copied"), ops), "B", false);
  Put(out, "core.wal.records_per_op", PerOp(count("wal.records"), ops),
      "records", false);
  Put(out, "core.wal.bytes_per_op", PerOp(count("wal.bytes"), ops), "B", false);
  Put(out, "core.wal.fsyncs_per_op", PerOp(count("wal.fsyncs"), ops),
      "fsyncs", false);
  const double moves = count("move.count");
  Put(out, "core.directory.lookups_per_op", PerOp(count("dir.lookups"), ops),
      "lookups", false);
  Put(out, "core.directory.publishes_per_move",
      PerOp(count("dir.publishes"), moves), "publishes", false);
  Put(out, "core.directory.hint_hits_per_op",
      PerOp(count("dir.hint.hit"), ops), "hits", false);
  Put(out, "core.directory.hint_misses", count("dir.hint.miss"), "count",
      false);
  Put(out, "core.directory.hint_stale", count("dir.hint.stale"), "count",
      false);
  Put(out, "core.tracker.hops_mean", hist("invoke.hops").mean(), "hops", false);
  Put(out, "core.tracker.hops_p99", hist("invoke.hops").Quantile(0.99), "hops",
      false);
  Put(out, "core.tracker.chain_len_p99", hist("tracker.chain_len").Quantile(0.99),
      "hops", false);
  Put(out, "core.movement.stream_bytes_mean",
      reg.histogram("move.bytes", monitor::Registry::SizeBounds()).mean(), "B",
      false);
}

void LayerMetrics(const LayerProbe& probe, const TracedPhase& phase,
                  Metrics& out) {
  const double ops = phase.ops;
  for (const auto& [kind, name] : kReportedKinds)
    Put(out, std::string("net.network.msgs.") + name + "_per_op",
        PerOp(static_cast<double>(probe.items[KindIndex(kind)]), ops), "msgs",
        false);
  const double moves = static_cast<double>(phase.moves);
  Put(out, "core.movement.msgs_per_move",
      PerOp(static_cast<double>(
                probe.items[KindIndex(net::MessageKind::kMoveRequest)] +
                probe.items[KindIndex(net::MessageKind::kMoveReply)]),
            moves),
      "msgs", false);
  Put(out, "core.movement.span_ms_p50", probe.move_spans.QuantileMs(0.5),
      "virtual_ms", false);

  // Non-link wait: remote samples still hold the request and reply
  // transfer, estimated from the mean wire size of each kind.
  auto mean_wire = [&probe](net::MessageKind k) {
    const auto i = KindIndex(k);
    return probe.items[i] > 0 ? static_cast<double>(probe.item_bytes[i]) /
                                        static_cast<double>(probe.items[i]) +
                                    64
                              : 0;
  };
  const double transfer_ms =
      (mean_wire(net::MessageKind::kInvokeRequest) +
       mean_wire(net::MessageKind::kInvokeReply)) /
      probe.bytes_per_sec * 1e3;
  LatencyMap nonlink = probe.nonlink_local;
  nonlink.Merge(probe.nonlink_remote);
  // Remote samples dominate every workload; shift by the transfer estimate
  // weighted by their share.
  const double remote_share =
      nonlink.count() > 0 ? static_cast<double>(probe.nonlink_remote.count()) /
                                static_cast<double>(nonlink.count())
                          : 0;
  Put(out, "core.invocation.nonlink_wait_ms_p50",
      nonlink.QuantileMs(0.5) - remote_share * transfer_ms, "virtual_ms",
      false);
  Put(out, "core.invocation.nonlink_wait_ms_p99",
      nonlink.QuantileMs(0.99) - remote_share * transfer_ms, "virtual_ms",
      false);
  std::vector<double> issue(phase.issue_ns.begin(), phase.issue_ns.end());
  Put(out, "core.invocation.issue_host_ns_p50", Median(issue), "ns", false);

  Put(out, "sim.scheduler.tasks_per_op",
      PerOp(static_cast<double>(phase.tasks), ops), "tasks", false);
  Put(out, "sim.scheduler.host_ns_per_task", probe.ns_per_task, "ns", false);
  Put(out, "sim.locality.host_us_per_round", probe.us_per_round, "us", false);
  Put(out, "net.network.host_ns_per_send", probe.ns_per_send, "ns", false);
  Put(out, "net.formation.host_ns_per_item", probe.ns_per_item, "ns", false);
  Put(out, "net.session.host_ns_per_admit", probe.ns_per_admit, "ns", false);
  Put(out, "serial.host_ns_per_invoke_request", probe.ns_per_invoke_request,
      "ns", false);
  Put(out, "serial.host_ns_per_kib", probe.ns_per_kib, "ns", false);
  Put(out, "core.wal.host_ns_per_record", probe.ns_per_record, "ns", false);

  // Share of the traced phase's CPU that no probe accounts for. Formation
  // items include their sends; every invoke request is encoded once and
  // decoded once (one probe item); each reply is one session round; each
  // WAL record is encoded, appended and synced.
  auto items_of = [&probe](net::MessageKind k) {
    return static_cast<double>(probe.items[KindIndex(k)]);
  };
  double item_total = 0;
  for (std::size_t k = 0; k < kKinds; ++k)
    if (k != KindIndex(net::MessageKind::kBatch))
      item_total += static_cast<double>(probe.items[k]);
  const double attributed_ns =
      static_cast<double>(phase.tasks) * probe.ns_per_task +
      static_cast<double>(phase.rounds) * probe.us_per_round * 1e3 +
      item_total * probe.ns_per_item +
      items_of(net::MessageKind::kInvokeRequest) * probe.ns_per_invoke_request +
      items_of(net::MessageKind::kInvokeReply) * probe.ns_per_admit +
      static_cast<double>(phase.wal_records) * probe.ns_per_record;
  Put(out, "host.unattributed_cpu_share",
      phase.cpu_s > 0 ? 1 - attributed_ns / (phase.cpu_s * 1e9) : 0, "ratio",
      false);
  Put(out, "monitor.trace.evicted", static_cast<double>(probe.evicted),
      "count", false);
}

}  // namespace fargo::e2e

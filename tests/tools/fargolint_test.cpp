// Golden-fixture suite for fargolint (tools/fargolint/).
//
// Each rule gets three fixtures: a positive (asserting the rule id AND the
// exact line), a suppressed variant (allow-with-reason), and a clean
// variant. Line numbers are computed from the fixture text itself
// (LineOf), so editing a fixture cannot silently desynchronise the
// assertion from the code.

#include "tools/fargolint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fargolint {
namespace {

std::vector<Finding> Lint1(const std::string& path, const std::string& src) {
  return Lint({SourceFile{path, src}});
}

/// 1-based line of the first occurrence of `needle`.
int LineOf(const std::string& src, const std::string& needle) {
  std::size_t at = src.find(needle);
  EXPECT_NE(at, std::string::npos) << "fixture lacks: " << needle;
  if (at == std::string::npos) return -1;
  return 1 + static_cast<int>(std::count(src.begin(), src.begin() + at, '\n'));
}

bool Has(const std::vector<Finding>& fs, const std::string& rule, int line) {
  for (const Finding& f : fs)
    if (f.rule == rule && f.line == line) return true;
  return false;
}

int CountRule(const std::vector<Finding>& fs, const std::string& rule) {
  int n = 0;
  for (const Finding& f : fs)
    if (f.rule == rule) ++n;
  return n;
}

std::string Dump(const std::vector<Finding>& fs) {
  std::string out;
  for (const Finding& f : fs)
    out += f.file + ":" + std::to_string(f.line) + " [" + f.rule + "] " +
           f.message + "\n";
  return out;
}

// ==== rule registry ==========================================================

TEST(Rules, StableIdsInStableOrder) {
  // AllRules() serves ids sorted, so --list-rules output is stable however
  // the family registration table is ordered.
  const std::vector<RuleInfo> rules = AllRules();
  const std::vector<std::string> expect = {
      "annotation",     "barrier-before-reply", "capture-ref",
      "capture-this",   "domain",               "domain-handoff",
      "domain-missing", "no-pump",              "switch-exhaustiveness",
      "thread",
      "unordered-iter", "unseeded-rng",         "wal-record-coverage",
      "wallclock",      "wire-asymmetry",       "wire-dup-marker",
      "wire-schema"};
  ASSERT_EQ(rules.size(), expect.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].id, expect[i]);
    EXPECT_FALSE(rules[i].summary.empty());
    if (i > 0) {
      EXPECT_LT(rules[i - 1].id, rules[i].id);
    }
  }
}

// ==== wallclock ==============================================================

TEST(Wallclock, FlagsChronoClocks) {
  const std::string src = R"(#include <chrono>
void F() {
  auto t = std::chrono::system_clock::now();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "wallclock", LineOf(src, "system_clock"))) << Dump(fs);
}

TEST(Wallclock, FlagsCTimeCalls) {
  const std::string src = R"(void F() {
  long t = time(nullptr);
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "wallclock", LineOf(src, "time(nullptr)"))) << Dump(fs);
}

TEST(Wallclock, MemberNamedTimeIsClean) {
  const std::string src = R"(void F(Span& s) {
  auto t = s.time();
  auto u = s->clock();
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "wallclock"), 0);
}

TEST(Wallclock, SimulatorIsExempt) {
  const std::string src = R"(void F() {
  auto t = std::chrono::steady_clock::now();
}
)";
  EXPECT_EQ(CountRule(Lint1("src/sim/clock.cpp", src), "wallclock"), 0);
}

TEST(Wallclock, SuppressedWithReason) {
  const std::string src = R"(void F() {
  // fargolint: allow(wallclock) wall time is only logged, never branched on
  auto t = std::chrono::system_clock::now();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "wallclock"), 0) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "annotation"), 0) << Dump(fs);
}

// ==== unseeded-rng ===========================================================

TEST(UnseededRng, FlagsRandAndRandomDevice) {
  const std::string src = R"(#include <random>
int F() {
  std::random_device rd;
  return rand();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "unseeded-rng", LineOf(src, "random_device"))) << Dump(fs);
  EXPECT_TRUE(Has(fs, "unseeded-rng", LineOf(src, "rand()"))) << Dump(fs);
}

TEST(UnseededRng, DefaultConstructedEngineFlagged) {
  const std::string src = R"(#include <random>
void F() {
  std::mt19937 rng;
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "unseeded-rng", LineOf(src, "mt19937 rng"))) << Dump(fs);
}

TEST(UnseededRng, SeededEngineIsClean) {
  const std::string src = R"(#include <random>
void F(unsigned seed) {
  std::mt19937 rng(seed);
  std::mt19937_64 rng2{seed};
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "unseeded-rng"), 0);
}

// ==== thread =================================================================

TEST(Thread, FlagsStdThreadOutsideSim) {
  const std::string src = R"(#include <thread>
void F() {
  std::thread t([] {});
  t.join();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "thread", LineOf(src, "std::thread t"))) << Dump(fs);
}

TEST(Thread, UnqualifiedAndMemberUsesAreClean) {
  const std::string src = R"(void F(Pool& p) {
  int thread = 3;          // a variable merely named thread
  p.async(thread);         // a member function named async
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "thread"), 0);
}

TEST(Thread, MetricsRegistryIsExempt) {
  const std::string src = R"(#include <thread>
void F() { std::thread t([] {}); t.join(); }
)";
  EXPECT_EQ(CountRule(Lint1("src/monitor/metrics.cpp", src), "thread"), 0);
  EXPECT_EQ(CountRule(Lint1("src/sim/pump.cpp", src), "thread"), 0);
}

// ==== unordered-iter =========================================================

TEST(UnorderedIter, FlagsRangeForOverUnorderedMember) {
  const std::string src = R"(#include <unordered_map>
struct T {
  std::unordered_map<int, int> entries_;
  int Sum() const {
    int s = 0;
    for (const auto& [k, v] : entries_) s += v;
    return s;
  }
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_TRUE(Has(fs, "unordered-iter", LineOf(src, "for (const auto&")))
      << Dump(fs);
}

TEST(UnorderedIter, HeaderImplPairingSharesDecls) {
  // The member is declared unordered in the header; the loop lives in the
  // paired .cpp. Linting both as one batch must still flag the loop.
  const std::string hdr = R"(#include <unordered_map>
struct T {
  std::unordered_map<int, int> entries_;
  int Sum() const;
};
)";
  const std::string impl = R"(#include "t.h"
int T::Sum() const {
  int s = 0;
  for (const auto& [k, v] : entries_) s += v;
  return s;
}
)";
  auto fs = Lint({SourceFile{"src/core/t.h", hdr}, SourceFile{"src/core/t.cpp", impl}});
  EXPECT_TRUE(Has(fs, "unordered-iter", LineOf(impl, "for ("))) << Dump(fs);
  // And only in the impl: the header has no loop.
  EXPECT_EQ(CountRule(fs, "unordered-iter"), 1) << Dump(fs);
}

TEST(UnorderedIter, UnrelatedFilesDoNotShareDecls) {
  // `entries_` is unordered in a DIFFERENT stem: no pairing, no finding.
  const std::string other = R"(#include <unordered_map>
struct O { std::unordered_map<int, int> entries_; };
)";
  const std::string impl = R"(#include <map>
struct T {
  std::map<int, int> entries_;
  int Sum() const {
    int s = 0;
    for (const auto& [k, v] : entries_) s += v;
    return s;
  }
};
)";
  auto fs = Lint({SourceFile{"src/core/other.h", other},
                  SourceFile{"src/core/t.h", impl}});
  EXPECT_EQ(CountRule(fs, "unordered-iter"), 0) << Dump(fs);
}

TEST(UnorderedIter, OrderInsensitiveAnnotationSuppresses) {
  const std::string src = R"(#include <unordered_map>
struct T {
  std::unordered_map<int, int> entries_;
  int Sum() const {
    int s = 0;
    // fargolint: order-insensitive(summation commutes)
    for (const auto& [k, v] : entries_) s += v;
    return s;
  }
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_EQ(CountRule(fs, "unordered-iter"), 0) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "annotation"), 0) << Dump(fs);
}

TEST(UnorderedIter, ClassicForLoopIsClean) {
  const std::string src = R"(#include <unordered_map>
struct T {
  std::unordered_map<int, int> entries_;
  bool Probe() const {
    for (int i = 0; i < 3; ++i)
      if (entries_.count(i)) return true;
    return false;
  }
};
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.h", src), "unordered-iter"), 0);
}

// ==== no-pump ================================================================

TEST(NoPump, FlagsBlockingCallInsideContinuation) {
  const std::string src = R"(void F(sim::Future<int> f, Core& core) {
  f.Then([&core](int v) {
    core.Invoke(v);
  });
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "no-pump", LineOf(src, "core.Invoke"))) << Dump(fs);
}

TEST(NoPump, TopLevelBlockingCallIsClean) {
  const std::string src = R"(int F(Core& core) {
  return core.Invoke(7);
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "no-pump"), 0);
}

TEST(NoPump, RegionMarkerBansToEndOfFile) {
  const std::string src = R"(void Above(sim::Scheduler& s) {
  s.Pump();
}
// fargolint: no-pump-region
void Below(sim::Scheduler& s) {
  s.Pump();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  ASSERT_EQ(CountRule(fs, "no-pump"), 1) << Dump(fs);
  const int marker = LineOf(src, "no-pump-region");
  for (const Finding& f : fs) {
    if (f.rule == "no-pump") {
      EXPECT_GT(f.line, marker);
    }
  }
}

TEST(NoPump, FlagsSyncCallInsideAComletMethod) {
  // A complet method runs inside a task: a sync Call there pumps.
  const std::string src = R"(Worker::Worker() {
  methods().Register("work", [this](const std::vector<Value>&) {
    return data_.Call("read");
  });
}
)";
  auto fs = Lint1("examples/x.cpp", src);
  EXPECT_TRUE(Has(fs, "no-pump", LineOf(src, "data_.Call"))) << Dump(fs);
  // Register lambdas are not continuations: `this` is the anchor's own.
  EXPECT_EQ(CountRule(fs, "capture-this"), 0) << Dump(fs);
}

TEST(NoPump, AsyncCallInsideAComletMethodIsClean) {
  const std::string src = R"(Worker::Worker() {
  methods().Register("work", [this](const std::vector<Value>&)
                                 -> sim::Future<Value> {
    return data_.CallAsync("read");
  });
}
)";
  EXPECT_EQ(CountRule(Lint1("examples/x.cpp", src), "no-pump"), 0);
}

TEST(NoPump, FlagsBlockingCallsInsideAListener) {
  const std::string src = R"(void F(Core& admin, Core& node, Core& safe) {
  admin.ListenAt(node.id(), EventKind::kCoreShutdown, [&](const Event&) {
    node.MoveId(id, safe.id());
    node.ResolveLocation(ref);
  });
}
)";
  auto fs = Lint1("tests/support/x.cpp", src);
  EXPECT_TRUE(Has(fs, "no-pump", LineOf(src, "node.MoveId"))) << Dump(fs);
  EXPECT_TRUE(Has(fs, "no-pump", LineOf(src, "node.ResolveLocation")))
      << Dump(fs);
}

TEST(NoPump, SuppressedWithReason) {
  const std::string src = R"(void F(sim::Future<int> f, Core& core) {
  f.Then([&core](int v) {
    // fargolint: allow(no-pump) test harness runs at top level of the pump
    core.Await(v);
  });
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "no-pump"), 0) << Dump(fs);
}

// ==== capture-ref ============================================================

TEST(CaptureRef, FlagsDefaultRefCaptureInSink) {
  const std::string src = R"(void F(sim::Scheduler& sched, int x) {
  sched.ScheduleAfter(5, [&] { Use(x); });
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "capture-ref", LineOf(src, "[&]"))) << Dump(fs);
}

TEST(CaptureRef, PlainLambdaIsClean) {
  const std::string src = R"(void F(std::vector<int>& v, int x) {
  std::sort(v.begin(), v.end(), [&](int a, int b) { return a + x < b; });
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "capture-ref"), 0);
}

TEST(CaptureRef, NamedRefCapturesAreClean) {
  // Only the DEFAULT capture is flagged; explicit `&name` is reviewable.
  const std::string src = R"(void F(sim::Scheduler& sched, Log& log) {
  sched.ScheduleAfter(5, [&log] { log.Flush(); });
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "capture-ref"), 0);
}

// ==== capture-this ===========================================================

TEST(CaptureThis, FlagsBareThisInScheduledLambda) {
  const std::string src = R"(void T::Arm(sim::Scheduler& sched) {
  sched.ScheduleAt(5, [this] { Fire(); });
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "capture-this", LineOf(src, "[this]"))) << Dump(fs);
}

TEST(CaptureThis, AliveFlagKeepaliveIsClean) {
  const std::string src = R"(void T::Arm(sim::Scheduler& sched) {
  sched.ScheduleAt(5, [this, alive = alive_] {
    if (!*alive) return;
    Fire();
  });
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "capture-this"), 0);
}

TEST(CaptureThis, SharedFromThisKeepaliveIsClean) {
  const std::string src = R"(void T::Arm(sim::Scheduler& sched) {
  sched.ScheduleAt(5, [this, self = shared_from_this()] { Fire(); });
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "capture-this"), 0);
}

TEST(CaptureThis, CopyCaptureOfStarThisIsClean) {
  const std::string src = R"(void T::Arm(sim::Scheduler& sched) {
  sched.ScheduleAt(5, [*this] { Fire(); });
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "capture-this"), 0);
}

TEST(CaptureThis, ThisOutsideSinkIsClean) {
  const std::string src = R"(int T::Sum(const std::vector<int>& v) {
  return std::count_if(v.begin(), v.end(), [this](int x) { return Ok(x); });
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "capture-this"), 0);
}

TEST(CaptureThis, SuppressedWithLifetimeArgument) {
  const std::string src = R"(void T::Arm(sim::Scheduler& sched) {
  // fargolint: allow(capture-this) T is owned by Runtime, which clears the queue first
  sched.ScheduleAt(5, [this] { Fire(); });
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "capture-this"), 0) << Dump(fs);
}

// ==== wire-asymmetry =========================================================

TEST(WireAsymmetry, FlagsDriftedField) {
  const std::string src = R"(void EncodeFoo(Writer& w, const Foo& m) {
  w.U32(m.a);
  w.U32(m.b);
}
Foo DecodeFoo(Reader& r) {
  Foo m;
  m.a = r.U32();
  return m;
}
)";
  auto fs = Lint1("src/core/wirefoo.h", src);
  // `b` is written but never read; flagged at the Encode definition.
  EXPECT_TRUE(Has(fs, "wire-asymmetry", LineOf(src, "void EncodeFoo")))
      << Dump(fs);
  ASSERT_EQ(CountRule(fs, "wire-asymmetry"), 1) << Dump(fs);
  EXPECT_NE(fs[0].message.find("'b'"), std::string::npos) << fs[0].message;
}

TEST(WireAsymmetry, SymmetricPairIsClean) {
  const std::string src = R"(void EncodeFoo(Writer& w, const Foo& m) {
  w.U32(m.a);
  w.U32(m.b);
}
Foo DecodeFoo(Reader& r) {
  Foo m;
  m.a = r.U32();
  m.b = r.U32();
  return m;
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/wirefoo.h", src), "wire-asymmetry"), 0);
}

TEST(WireAsymmetry, ScalarCodecsWithNoVisibleFieldsAreSkipped) {
  // ReadCoreId builds its value from the stream with no member accesses; an
  // empty field set on either side means "not verifiable", not "drifted".
  const std::string src = R"(void WriteCoreId(Writer& w, CoreId id) {
  w.U32(id.value);
}
CoreId ReadCoreId(Reader& r) {
  return CoreId{r.U32()};
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/wirefoo.h", src), "wire-asymmetry"), 0);
}

TEST(WireAsymmetry, CallSitesAreNotDefinitions) {
  const std::string src = R"(void Relay(Writer& w, Reader& r, const Foo& m) {
  EncodeFoo(w, m.body);
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/x.cpp", src), "wire-asymmetry"), 0);
}

TEST(WireAsymmetry, BatchCodecNestedFieldDriftIsFlagged) {
  // The formation batch-item codec writes nested session fields
  // (m.session.slot etc.); every level of the access chain is compared, so
  // dropping one nested field on the read side is drift, not noise.
  const std::string src = R"(void WriteBatchItem(Writer& w, const Message& m) {
  w.WriteU8(m.kind);
  w.WriteVarint(m.session.slot);
  w.WriteVarint(m.session.seq);
  w.WriteBytes(m.payload);
}
Message ReadBatchItem(Reader& r) {
  Message m;
  m.kind = r.ReadU8();
  m.session.slot = r.ReadVarint();
  m.payload = r.ReadBytes();
  return m;
}
)";
  auto fs = Lint1("src/net/formation.cpp", src);
  EXPECT_TRUE(Has(fs, "wire-asymmetry", LineOf(src, "void WriteBatchItem")))
      << Dump(fs);
  ASSERT_EQ(CountRule(fs, "wire-asymmetry"), 1) << Dump(fs);
  EXPECT_NE(fs[0].message.find("'seq'"), std::string::npos) << fs[0].message;
}

TEST(WireAsymmetry, SymmetricBatchCodecIsClean) {
  const std::string src = R"(void WriteBatchItem(Writer& w, const Message& m) {
  w.WriteU8(m.kind);
  w.WriteVarint(m.session.slot);
  w.WriteVarint(m.session.seq);
  w.WriteBytes(m.payload);
}
Message ReadBatchItem(Reader& r) {
  Message m;
  m.kind = r.ReadU8();
  m.session.slot = r.ReadVarint();
  m.session.seq = r.ReadVarint();
  m.payload = r.ReadBytes();
  return m;
}
)";
  EXPECT_EQ(
      CountRule(Lint1("src/net/formation.cpp", src), "wire-asymmetry"), 0);
}

TEST(WireAsymmetry, DirectoryPublishEpochDriftIsFlagged) {
  // The kDirectoryPublish codec carries the hint epoch between comlet/location
  // and the trace tail; a reader that forgets the stamp would silently
  // downgrade every publish to an assertion.
  const std::string src = R"(void EncodeDirectoryPublish(Writer& w, const DirectoryPublish& p) {
  WriteComletId(w, p.comlet);
  WriteCoreId(w, p.location);
  w.WriteVarint(p.epoch);
  w.WriteVarint(p.as_of);
}
DirectoryPublish DecodeDirectoryPublish(Reader& r) {
  DirectoryPublish p;
  p.comlet = ReadComletId(r);
  p.location = ReadCoreId(r);
  p.as_of = r.ReadVarint();
  return p;
}
)";
  auto fs = Lint1("src/core/wire.h", src);
  EXPECT_TRUE(
      Has(fs, "wire-asymmetry", LineOf(src, "void EncodeDirectoryPublish")))
      << Dump(fs);
  ASSERT_EQ(CountRule(fs, "wire-asymmetry"), 1) << Dump(fs);
  EXPECT_NE(fs[0].message.find("'epoch'"), std::string::npos) << fs[0].message;
}

TEST(WireAsymmetry, DirectoryCodecFamilyIsClean) {
  // The shapes of the real kDirectoryPublish / kDirectoryLookup / hint
  // codecs (src/core/wire.h): every field written is read back in order.
  const std::string src = R"(void EncodeDirectoryPublish(Writer& w, const DirectoryPublish& p) {
  WriteComletId(w, p.comlet);
  WriteCoreId(w, p.location);
  w.WriteVarint(p.epoch);
  w.WriteVarint(p.as_of);
}
DirectoryPublish DecodeDirectoryPublish(Reader& r) {
  DirectoryPublish p;
  p.comlet = ReadComletId(r);
  p.location = ReadCoreId(r);
  p.epoch = r.ReadVarint();
  p.as_of = r.ReadVarint();
  return p;
}
void WriteDirectoryHint(Writer& w, const DirectoryHint& h) {
  w.WriteBool(h.found);
  WriteCoreId(w, h.location);
  w.WriteVarint(h.epoch);
}
DirectoryHint ReadDirectoryHint(Reader& r) {
  DirectoryHint h;
  h.found = r.ReadBool();
  h.location = ReadCoreId(r);
  h.epoch = r.ReadVarint();
  return h;
}
)";
  EXPECT_EQ(CountRule(Lint1("src/core/wire.h", src), "wire-asymmetry"), 0);
}

// ==== wire-dup-marker ========================================================

TEST(WireDupMarker, FlagsSameFileDuplicate) {
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kRefA = 0x10;
inline constexpr std::uint8_t kRefB = 0x10;
)";
  auto fs = Lint1("src/core/proto.h", src);
  EXPECT_TRUE(Has(fs, "wire-dup-marker", LineOf(src, "kRefB"))) << Dump(fs);
}

TEST(WireDupMarker, DistinctValuesAreClean) {
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kRefA = 0x10;
inline constexpr std::uint8_t kRefB = 0x11;
)";
  EXPECT_EQ(CountRule(Lint1("src/core/proto.h", src), "wire-dup-marker"), 0);
}

TEST(WireDupMarker, CollisionWithWireHReservedValue) {
  // This is the PR-2 near-miss: wire.h reserves 0x54 for the trace tail,
  // which rides inside every payload; another protocol reusing the byte
  // would make an un-traced message parse as traced.
  const std::string wire = R"(#include <cstdint>
inline constexpr std::uint8_t kTraceTailMarker = 0x54;
)";
  const std::string other = R"(#include <cstdint>
inline constexpr std::uint8_t kMyMagic = 0x54;
)";
  auto fs = Lint({SourceFile{"src/core/wire.h", wire},
                  SourceFile{"src/monitor/proto.h", other}});
  ASSERT_EQ(CountRule(fs, "wire-dup-marker"), 1) << Dump(fs);
  EXPECT_EQ(fs[0].file, "src/monitor/proto.h");
  EXPECT_EQ(fs[0].line, LineOf(other, "kMyMagic"));
}

TEST(WireDupMarker, WiderConstantsAreOutOfScope) {
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint32_t kMagicA = 0xF00D;
inline constexpr std::uint32_t kMagicB = 0xF00D;
)";
  EXPECT_EQ(CountRule(Lint1("src/core/proto.h", src), "wire-dup-marker"), 0);
}

// ==== annotation hygiene =====================================================

TEST(Annotation, AllowWithoutReasonIsFlagged) {
  const std::string src = R"(void F() {
  // fargolint: allow(wallclock)
  auto t = std::chrono::system_clock::now();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  // The malformed allow does NOT suppress, and is itself a finding.
  EXPECT_TRUE(Has(fs, "annotation", LineOf(src, "allow(wallclock)"))) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "wallclock"), 1) << Dump(fs);
}

TEST(Annotation, UnknownRuleIsFlagged) {
  const std::string src = R"(// fargolint: allow(made-up-rule) because reasons
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "annotation", 1)) << Dump(fs);
}

TEST(Annotation, UnknownDirectiveIsFlagged) {
  const std::string src = R"(// fargolint: frobnicate everything
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "annotation", 1)) << Dump(fs);
}

TEST(Annotation, AllowForWrongRuleDoesNotSuppress) {
  const std::string src = R"(void F() {
  // fargolint: allow(thread) not the rule that fires here
  auto t = std::chrono::system_clock::now();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "wallclock"), 1) << Dump(fs);
}

TEST(Annotation, TrailingSameLineAllowSuppresses) {
  const std::string src =
      "void F() {\n"
      "  auto t = std::chrono::system_clock::now();  "
      "// fargolint: allow(wallclock) logged only\n"
      "}\n";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "wallclock"), 0) << Dump(fs);
}

TEST(Annotation, AllowTwoLinesAboveDoesNotSuppress) {
  // The contract is annotation-on-finding-line or directly above; a stale
  // annotation drifting away from its code must resurface the finding.
  const std::string src = R"(void F() {
  // fargolint: allow(wallclock) drifted away from its line
  int unrelated = 0;
  auto t = std::chrono::system_clock::now();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "wallclock"), 1) << Dump(fs);
}

// ==== wal-record-coverage ====================================================

TEST(WalRecordCoverage, FlagsMarkerWithMissingCodec) {
  // kWalNote has a writer but no reader: appended records would be
  // undecodable on recovery. Both missing directions are reported.
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kWalNote = 9;
inline constexpr std::uint8_t kWalPing = 10;
void WriteNoteRecord(Writer& w, const Rec& r) { w.U64(r.a); }
)";
  auto fs = Lint1("src/core/wal.h", src);
  const int line_note = LineOf(src, "kWalNote");
  const int line_ping = LineOf(src, "kWalPing");
  EXPECT_TRUE(Has(fs, "wal-record-coverage", line_note)) << Dump(fs);
  EXPECT_TRUE(Has(fs, "wal-record-coverage", line_ping)) << Dump(fs);
  // kWalNote lacks only the reader; kWalPing lacks both.
  EXPECT_EQ(CountRule(fs, "wal-record-coverage"), 3) << Dump(fs);
}

TEST(WalRecordCoverage, CompletePairIsClean) {
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kWalNote = 9;
void WriteNoteRecord(Writer& w, const Rec& r) { w.U64(r.a); }
Rec ReadNoteRecord(Reader& r) { Rec out; out.a = r.U64(); return out; }
)";
  auto fs = Lint1("src/core/wal.h", src);
  EXPECT_EQ(CountRule(fs, "wal-record-coverage"), 0) << Dump(fs);
}

TEST(WalRecordCoverage, CodecsInSiblingFileCountAcrossTheBatch) {
  // Markers in the header, codec definitions in the implementation file:
  // coverage is a batch-wide property, like wire.h marker reservation.
  const std::string hdr = R"(#include <cstdint>
inline constexpr std::uint8_t kWalNote = 9;
void WriteNoteRecord(Writer& w, const Rec& r);
Rec ReadNoteRecord(Reader& r);
)";
  const std::string impl = R"(void WriteNoteRecord(Writer& w, const Rec& r) {}
Rec ReadNoteRecord(Reader& r) { return {}; }
)";
  auto fs = Lint({SourceFile{"src/core/wal.h", hdr},
                  SourceFile{"src/core/wal.cpp", impl}});
  EXPECT_EQ(CountRule(fs, "wal-record-coverage"), 0) << Dump(fs);
}

TEST(WalRecordCoverage, DirPublishPairIsClean) {
  // The PR-8 directory-publish record (kWalDirPublish): marker plus both
  // codec directions, as in the real src/core/wal.h / wal.cpp.
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kWalDirPublish = 6;
void WriteDirPublishRecord(Writer& w, const WalRecord& r) {
  WriteComletId(w, r.comlet);
  WriteCoreId(w, r.location);
  w.WriteVarint(r.epoch);
  w.WriteInt(r.as_of);
}
WalRecord ReadDirPublishRecord(Reader& r) {
  WalRecord rec;
  rec.comlet = ReadComletId(r);
  rec.location = ReadCoreId(r);
  rec.epoch = r.ReadVarint();
  rec.as_of = r.ReadInt();
  return rec;
}
)";
  auto fs = Lint1("src/core/wal.h", src);
  EXPECT_EQ(CountRule(fs, "wal-record-coverage"), 0) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "wire-asymmetry"), 0) << Dump(fs);
}

TEST(WalRecordCoverage, DirPublishWithoutReaderIsFlagged) {
  // A kWalDirPublish marker whose reader went missing: recovery could not
  // decode published locations and every replay would fail.
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kWalDirPublish = 6;
void WriteDirPublishRecord(Writer& w, const WalRecord& r) {
  WriteComletId(w, r.comlet);
}
)";
  auto fs = Lint1("src/core/wal.h", src);
  EXPECT_TRUE(
      Has(fs, "wal-record-coverage", LineOf(src, "kWalDirPublish")))
      << Dump(fs);
  EXPECT_EQ(CountRule(fs, "wal-record-coverage"), 1) << Dump(fs);
}

TEST(WalRecordCoverage, NonWalMarkersAreOutOfScope) {
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kWalrusByte = 9;
inline constexpr std::uint8_t kRequest = 1;
)";
  auto fs = Lint1("src/net/wire.h", src);
  EXPECT_EQ(CountRule(fs, "wal-record-coverage"), 0) << Dump(fs);
}

TEST(WalRecordCoverage, SuppressedWithReason) {
  const std::string src = R"(#include <cstdint>
// fargolint: allow(wal-record-coverage) retired kind kept for old logs
inline constexpr std::uint8_t kWalLegacy = 3;
)";
  auto fs = Lint1("src/core/wal.h", src);
  EXPECT_EQ(CountRule(fs, "wal-record-coverage"), 0) << Dump(fs);
}

// ==== ownership domains ======================================================

TEST(Domain, FlagsCrossDomainFieldAccessFromContinuation) {
  const std::string src = R"(// fargo: domain(tracker)
class TrackerTable {
 public:
  int entries_ = 0;
};
// fargo: domain(movement)
class MovementUnit {
 public:
  void Arm(Future<int> f) {
    f.Then([this](int v) {
      entries_ += v;
    });
  }
 private:
  int staged_ = 0;
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_TRUE(Has(fs, "domain", LineOf(src, "entries_ += v"))) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "domain"), 1) << Dump(fs);
}

TEST(Domain, OwnFieldInOwnDomainIsClean) {
  const std::string src = R"(// fargo: domain(movement)
class MovementUnit {
 public:
  void Arm(Future<int> f) {
    f.Then([this](int v) {
      staged_ += v;
    });
  }
 private:
  int staged_ = 0;
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain"), 0) << Dump(fs);
}

TEST(Domain, FieldLevelOverrideBeatsClassDomain) {
  // A field handed to another domain: even the declaring class's own
  // continuations may not touch it.
  const std::string src = R"(// fargo: domain(core)
class Core {
 public:
  void Arm(Future<int> f) {
    f.Then([this](int v) {
      shared_counter_ += v;
    });
  }
 private:
  // fargo: domain(monitor)
  int shared_counter_ = 0;
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_TRUE(Has(fs, "domain", LineOf(src, "shared_counter_ += v")))
      << Dump(fs);
}

TEST(Domain, AmbiguousOwnerIsSkipped) {
  // `count_` is declared by two classes: the access cannot be attributed to
  // one owner, so the rule errs toward silence.
  const std::string src = R"(// fargo: domain(a)
class A {
 public:
  int count_ = 0;
};
// fargo: domain(b)
class B {
 public:
  int count_ = 0;
};
// fargo: domain(c)
class C {
 public:
  void Arm(Future<int> f) {
    f.Then([](int v) { count_ += v; });
  }
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain"), 0) << Dump(fs);
}

TEST(Domain, SuppressedWithReason) {
  const std::string src = R"(// fargo: domain(tracker)
class TrackerTable {
 public:
  int entries_ = 0;
};
// fargo: domain(movement)
class MovementUnit {
 public:
  void Arm(Future<int> f) {
    f.Then([this](int v) {
      // fargolint: allow(domain) stale read is fine: metric sampling only
      entries_ += v;
    });
  }
 private:
  int staged_ = 0;
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain"), 0) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "annotation"), 0) << Dump(fs);
}

// ==== cross-locality handoffs (FARGO_PARALLEL) ===============================

TEST(DomainHandoff, FlagsUnlockedFieldAccessInHandoffClosure) {
  // A closure handed to Post runs on the destination locality's worker:
  // even the enclosing class's own same-domain field is cross-thread there.
  const std::string src = R"(// fargo: domain(net)
class Network {
 public:
  void Send(Message msg) {
    sched_.Post(msg.to.value, 0, [this] {
      delivered_ += 1;
    });
  }
 private:
  int delivered_ = 0;
};
)";
  auto fs = Lint1("src/net/x.h", src);
  EXPECT_TRUE(Has(fs, "domain-handoff", LineOf(src, "delivered_ += 1")))
      << Dump(fs);
  // The handoff semantics replace the inheritance-based check: no double
  // report from the plain `domain` rule.
  EXPECT_EQ(CountRule(fs, "domain"), 0) << Dump(fs);
}

TEST(DomainHandoff, LockedAccessIsClean) {
  const std::string src = R"(// fargo: domain(net)
class Network {
 public:
  void Send(Message msg) {
    sched_.PostAfter(msg.to.value, delay, [this] {
      std::lock_guard<std::mutex> lk(mu_);
      delivered_ += 1;
    });
  }
 private:
  std::mutex mu_;
  int delivered_ = 0;
};
)";
  auto fs = Lint1("src/net/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain-handoff"), 0) << Dump(fs);
}

TEST(DomainHandoff, ValueCaptureIsClean) {
  // Moving the data into the closure is the sanctioned handoff shape:
  // nothing implicit-this remains to race.
  const std::string src = R"(// fargo: domain(net)
class Network {
 public:
  void Send(Message msg) {
    sched_.Post(msg.to.value, 0, [m = std::move(msg)]() mutable {
      Deliver(std::move(m));
    });
  }
 private:
  int delivered_ = 0;
};
)";
  auto fs = Lint1("src/net/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain-handoff"), 0) << Dump(fs);
}

TEST(DomainHandoff, SuppressedWithReason) {
  const std::string src = R"(// fargo: domain(net)
class Network {
 public:
  void Send(Message msg) {
    sched_.Post(msg.to.value, 0, [this] {
      // fargolint: allow(domain-handoff) counter is a relaxed atomic
      delivered_ += 1;
    });
  }
 private:
  std::atomic<int> delivered_{0};
};
)";
  auto fs = Lint1("src/net/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain-handoff"), 0) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "annotation"), 0) << Dump(fs);
}

TEST(DomainMissing, StatefulClassWithoutDomainIsFlagged) {
  const std::string src = R"(class Tracker {
 public:
  int hops_ = 0;
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_TRUE(Has(fs, "domain-missing", LineOf(src, "class Tracker")))
      << Dump(fs);
}

TEST(DomainMissing, AnnotatedClassIsClean) {
  const std::string src = R"(// fargo: domain(tracker)
class Tracker {
 public:
  int hops_ = 0;
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain-missing"), 0) << Dump(fs);
}

TEST(DomainMissing, OnlyCoreNetSimPathsAreSwept) {
  const std::string src = R"(class Render {
 public:
  int rows_ = 0;
};
)";
  auto fs = Lint1("src/shell/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain-missing"), 0) << Dump(fs);
}

TEST(DomainMissing, NestedClassInheritsEnclosingDomain) {
  const std::string src = R"(// fargo: domain(net)
class Network {
 public:
  struct Link {
    int bytes_ = 0;
  };
  int taps_ = 0;
};
)";
  auto fs = Lint1("src/net/x.h", src);
  EXPECT_EQ(CountRule(fs, "domain-missing"), 0) << Dump(fs);
}

TEST(DomainAnnotation, UnattachedDirectiveIsAFinding) {
  const std::string src = R"(// fargo: domain(core)
int free_counter = 0;
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_TRUE(Has(fs, "annotation", LineOf(src, "domain(core)"))) << Dump(fs);
}

TEST(DomainAnnotation, MalformedNameIsAFinding) {
  const std::string src = R"(// fargo: domain(no spaces allowed)
class Tracker {
 public:
  int hops_ = 0;
};
)";
  auto fs = Lint1("src/core/x.h", src);
  EXPECT_EQ(CountRule(fs, "annotation"), 1) << Dump(fs);
}

// ==== barrier-before-reply ===================================================

TEST(Barrier, FlagsAckAfterAppendWithoutBarrier) {
  // The PR 6 bug class, distilled: an exec record is appended and the slot
  // ack leaves before any durability barrier covers it.
  const std::string src = R"(void Ack(Wal* wal, Key key) {
  wal->AppendExec(key, kind, payload);
  SendSlotAck(key);
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(
      Has(fs, "barrier-before-reply", LineOf(src, "SendSlotAck(key);")))
      << Dump(fs);
}

TEST(Barrier, SendInsideWhenDurableContinuationIsClean) {
  const std::string src = R"(void Ack(Wal* wal, Key key) {
  wal->AppendExec(key, kind, payload);
  wal->WhenDurable().OnSettle([key](Future<Unit>) {
    SendSlotAck(key);
  });
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "barrier-before-reply"), 0) << Dump(fs);
}

TEST(Barrier, SyncContinuationAlsoCounts) {
  const std::string src = R"(void Publish(Wal* wal, Msg m) {
  wal->AppendDirPublish(m.comlet, m.location, m.epoch, m.now);
  wal->Sync().OnSettle([m](Future<Unit>) {
    SendReply(m);
  });
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "barrier-before-reply"), 0) << Dump(fs);
}

TEST(Barrier, UnconditionalReturnEndsThePath) {
  const std::string src = R"(void Ack(Wal* wal, Key key, bool durable) {
  if (durable) {
    wal->AppendExec(key, kind, payload);
    Park(key);
    return;
  }
  SendSlotAck(key);
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "barrier-before-reply"), 0) << Dump(fs);
}

TEST(Barrier, ConditionalReturnDoesNotEndThePath) {
  const std::string src = R"(void Ack(Wal* wal, Key key) {
  wal->AppendExec(key, kind, payload);
  if (!key.valid()) return;
  SendSlotAck(key);
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(
      Has(fs, "barrier-before-reply", LineOf(src, "SendSlotAck(key);")))
      << Dump(fs);
}

TEST(Barrier, AppendDefinitionDoesNotArmTheRule) {
  // `Wal::AppendExec(...) { ... }` is the definition, not a call; egress in
  // unrelated functions below it must not be blamed.
  const std::string src = R"(void Wal::AppendExec(Key key, int kind, Bytes payload) {
  Append(MakeRecord(key, kind, payload));
}
void Pong(Key key) {
  SendSlotAck(key);
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "barrier-before-reply"), 0) << Dump(fs);
}

TEST(Barrier, SuppressedWithReason) {
  const std::string src = R"(void Ack(Wal* wal, Key key) {
  wal->AppendExec(key, kind, payload);
  // fargolint: allow(barrier-before-reply) test-only shim: no peer observes this ack
  SendSlotAck(key);
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "barrier-before-reply"), 0) << Dump(fs);
  EXPECT_EQ(CountRule(fs, "annotation"), 0) << Dump(fs);
}

// ==== switch-exhaustiveness ==================================================

TEST(Switch, MissingEnumeratorWithoutDefaultIsFlagged) {
  const std::string src = R"(enum class Kind { kA, kB, kC };
void F(Kind k) {
  switch (k) {
    case Kind::kA: break;
    case Kind::kB: break;
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "switch-exhaustiveness", LineOf(src, "switch (k)")))
      << Dump(fs);
}

TEST(Switch, SilentDefaultIsFlagged) {
  const std::string src = R"(enum class Kind { kA, kB };
void F(Kind k) {
  switch (k) {
    case Kind::kA: break;
    case Kind::kB: break;
    default: break;
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "switch-exhaustiveness", LineOf(src, "switch (k)")))
      << Dump(fs);
}

TEST(Switch, ThrowingDefaultIsAnExplicitRejection) {
  const std::string src = R"(enum class Kind { kA, kB, kC };
void F(Kind k) {
  switch (k) {
    case Kind::kA: break;
    default: throw Error("unhandled kind");
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "switch-exhaustiveness"), 0) << Dump(fs);
}

TEST(Switch, FullCoverageWithoutDefaultIsClean) {
  const std::string src = R"(enum class Kind { kA, kB };
void F(Kind k) {
  switch (k) {
    case Kind::kA: break;
    case Kind::kB: break;
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "switch-exhaustiveness"), 0) << Dump(fs);
}

TEST(Switch, WalMarkerSwitchUsesTheMarkerFamily) {
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kWalPing = 1;
inline constexpr std::uint8_t kWalPong = 2;
void F(std::uint8_t kind) {
  switch (kind) {
    case kWalPing: break;
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_TRUE(Has(fs, "switch-exhaustiveness", LineOf(src, "switch (kind)")))
      << Dump(fs);
}

TEST(Switch, NumericLabelsAreOutOfScope) {
  // Raw protocol bytes (the kCtrl* subkind switches): a corrupt byte
  // legitimately falls through, so these are not a checked family.
  const std::string src = R"(void F(int b) {
  switch (b) {
    case 3: break;
    case 4: break;
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "switch-exhaustiveness"), 0) << Dump(fs);
}

TEST(Switch, UnresolvableLabelsAreOutOfScope) {
  const std::string src = R"(void F(int b) {
  switch (b) {
    case kSomewhereElse: break;
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "switch-exhaustiveness"), 0) << Dump(fs);
}

TEST(Switch, SuppressedWithReason) {
  const std::string src = R"(enum class Kind { kA, kB };
void F(Kind k) {
  // fargolint: allow(switch-exhaustiveness) kB is handled by the caller
  switch (k) {
    case Kind::kA: break;
  }
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  EXPECT_EQ(CountRule(fs, "switch-exhaustiveness"), 0) << Dump(fs);
}

// ==== wire-schema ============================================================

TEST(WireSchema, WidthDriftWithSymmetricFieldsIsFlagged) {
  // Both sides touch the same fields, so wire-asymmetry is blind — but the
  // writer emits u8 where the reader parses varint.
  const std::string src = R"(void WritePing(Writer& w, const Ping& p) {
  w.WriteVarint(p.seq);
  w.WriteU8(p.flag);
}
Ping ReadPing(Reader& r) {
  Ping p;
  p.seq = r.ReadVarint();
  p.flag = r.ReadVarint();
  return p;
}
)";
  auto fs = Lint1("src/net/wire.h", src);
  EXPECT_TRUE(Has(fs, "wire-schema", LineOf(src, "void WritePing")))
      << Dump(fs);
  EXPECT_EQ(CountRule(fs, "wire-asymmetry"), 0) << Dump(fs);
}

TEST(WireSchema, TrailingFieldOnOneSideIsFlagged) {
  const std::string src = R"(void WritePing(Writer& w, const Ping& p) {
  w.WriteVarint(p.seq);
  w.WriteString(p.note);
}
Ping ReadPing(Reader& r) {
  Ping p;
  p.seq = r.ReadVarint();
  return p;
}
)";
  auto fs = Lint1("src/net/wire.h", src);
  EXPECT_TRUE(Has(fs, "wire-schema", LineOf(src, "void WritePing")))
      << Dump(fs);
}

TEST(WireSchema, PairsAcrossFilesInTheBatch) {
  const std::string enc = R"(void EncodePing(Writer& w, const Ping& p) {
  w.WriteVarint(p.seq);
}
)";
  const std::string dec = R"(Ping DecodePing(Reader& r) {
  Ping p;
  p.seq = r.ReadU8();
  return p;
}
)";
  auto fs = Lint({SourceFile{"src/net/enc.cpp", enc},
                  SourceFile{"src/net/dec.cpp", dec}});
  EXPECT_EQ(CountRule(fs, "wire-schema"), 1) << Dump(fs);
}

TEST(WireSchema, NestedCodecsAndOkMarkersPairUp) {
  const std::string src = R"(void WriteReply(Writer& w, const R& x) {
  WriteOk(w);
  WriteCoreId(w, x.id);
  w.WriteVarint(x.n);
}
R ReadReply(Reader& r) {
  CheckOk(r);
  R x;
  x.id = ReadCoreId(r);
  x.n = r.ReadVarint();
  return x;
}
)";
  auto fs = Lint1("src/net/wire.h", src);
  EXPECT_EQ(CountRule(fs, "wire-schema"), 0) << Dump(fs);
}

TEST(WireSchema, SerializerPrimitivesAreNotMessageCodecs) {
  // bytes.h-style primitive implementations: WriteInt's body is varint
  // zig-zag, graph.h wraps it — neither is a message, and pairing them
  // batch-wide would compare a primitive with its own wrapper.
  const std::string prim = R"(void WriteInt(std::int64_t v) {
  WriteVarint(ZigZag(v));
}
std::int64_t ReadInt() {
  return UnZigZag(ReadVarint());
}
)";
  const std::string wrap = R"(void WriteInt(std::int64_t v) { out_.WriteInt(v); }
std::int64_t ReadInt() { return in_.ReadInt(); }
)";
  auto fs = Lint({SourceFile{"src/serial/bytes.h", prim},
                  SourceFile{"src/serial/graph.h", wrap}});
  EXPECT_EQ(CountRule(fs, "wire-schema"), 0) << Dump(fs);
}

TEST(WireSchema, SuppressedWithReason) {
  const std::string src = R"(// fargolint: allow(wire-schema) hook-driven graph codec, ops interleave per reference
void WritePing(Writer& w, const Ping& p) {
  w.WriteVarint(p.seq);
}
Ping ReadPing(Reader& r) {
  Ping p;
  p.seq = r.ReadU8();
  return p;
}
)";
  auto fs = Lint1("src/net/wire.h", src);
  EXPECT_EQ(CountRule(fs, "wire-schema"), 0) << Dump(fs);
}

// ==== schema extraction ======================================================

TEST(Schema, EmitsDeterministicJson) {
  const std::string src = R"(#include <cstdint>
inline constexpr std::uint8_t kPing = 7;
enum class Phase { kIdle = 0, kBusy = 1 };
void WritePing(Writer& w, const Ping& p) {
  w.WriteU8(kPing);
  w.WriteVarint(p.seq);
}
Ping ReadPing(Reader& r) {
  Ping p;
  r.ReadU8();
  p.seq = r.ReadVarint();
  return p;
}
)";
  const std::string expect = R"({
  "schema": 1,
  "markers": [
    {"name": "kPing", "value": 7, "file": "src/net/wire.h"}
  ],
  "enums": [
    {"name": "Phase", "file": "src/net/wire.h", "enumerators": [["kIdle", 0], ["kBusy", 1]]}
  ],
  "messages": [
    {"name": "Ping", "encoder": "WritePing", "file": "src/net/wire.h", "ops": ["u8", "varint"]}
  ]
}
)";
  EXPECT_EQ(ExtractWireSchema({SourceFile{"src/net/wire.h", src}}), expect);
}

TEST(Schema, WidthDriftChangesTheDocument) {
  // The CI gate is a byte comparison; a varint->u8 width change must
  // produce a different document even when field names stay put.
  const std::string before = R"(void WritePing(Writer& w, const Ping& p) {
  w.WriteVarint(p.seq);
}
Ping ReadPing(Reader& r) {
  Ping p;
  p.seq = r.ReadVarint();
  return p;
}
)";
  std::string after = before;
  const std::string from = "w.WriteVarint(p.seq);";
  after.replace(after.find(from), from.size(), "w.WriteU8(p.seq);");
  const std::string doc_before =
      ExtractWireSchema({SourceFile{"src/net/wire.h", before}});
  const std::string doc_after =
      ExtractWireSchema({SourceFile{"src/net/wire.h", after}});
  EXPECT_NE(doc_before, doc_after);
}

TEST(Schema, UnpairedCodecsAndValuelessEnumsDegradeGracefully) {
  const std::string src = R"(enum class Mode { kAuto = kDefaultMode, kManual };
void WriteLone(Writer& w, const L& x) {
  w.WriteVarint(x.a);
}
)";
  const std::string doc = ExtractWireSchema({SourceFile{"src/net/wire.h", src}});
  // Unpaired encoder: no message entry. Non-literal initializer: value null.
  EXPECT_EQ(doc.find("WriteLone"), std::string::npos) << doc;
  EXPECT_NE(doc.find("[\"kAuto\", null]"), std::string::npos) << doc;
}

// ==== output contract ========================================================

TEST(Output, FindingsSortedByFileLineRule) {
  const std::string a = R"(void F() {
  auto t = std::chrono::system_clock::now();
  std::random_device rd;
}
)";
  const std::string b = R"(void G() {
  auto t = std::chrono::steady_clock::now();
}
)";
  auto fs = Lint({SourceFile{"src/core/b.cpp", b}, SourceFile{"src/core/a.cpp", a}});
  ASSERT_GE(fs.size(), 3u) << Dump(fs);
  for (std::size_t i = 1; i < fs.size(); ++i) {
    const bool ordered =
        fs[i - 1].file < fs[i].file ||
        (fs[i - 1].file == fs[i].file && fs[i - 1].line <= fs[i].line);
    EXPECT_TRUE(ordered) << Dump(fs);
  }
}

TEST(Output, ExcerptIsTheOffendingLine) {
  const std::string src = R"(void F() {
  auto t = std::chrono::system_clock::now();
}
)";
  auto fs = Lint1("src/core/x.cpp", src);
  ASSERT_EQ(fs.size(), 1u) << Dump(fs);
  EXPECT_EQ(fs[0].excerpt, "auto t = std::chrono::system_clock::now();");
}

}  // namespace
}  // namespace fargolint

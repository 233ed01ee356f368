// Flagship scenario: a wide-area document indexing application — the kind
// of large-scale, resource-sensitive program §1 motivates.
//
// Topology: a coordinator site and three data sites, each holding a local
// document shard (site-bound complets). An Indexer complet visits the data
// sites (weak mobility + arrival continuations), indexing each site's
// shard *locally* instead of dragging documents over the WAN:
//   - the indexer's accumulating index travels with it (pull),
//   - its stopword table is replicated at each site (duplicate),
//   - its shard reference re-binds to each site's local shard (stamp).
// A layout script supervises reliability: if a data site announces
// shutdown mid-run, its complets evacuate to the coordinator and the run
// completes. Compare the moving-code plan against the naive
// move-the-data-to-the-coordinator plan at the end.
//
// Build & run:  ./build/examples/wide_area_index
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/fargo.h"

namespace {

using namespace fargo;

/// A site-local document shard (never moves: it is the site's data).
class Shard : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "wai.Shard";
  Shard() {
    methods().Register("load", [this](const std::vector<Value>& args) {
      docs_ = args.at(0).AsString();
      return Value();
    });
    methods().Register("docs", [this](const std::vector<Value>&) {
      return Value(docs_);
    });
    methods().Register("bytes", [this](const std::vector<Value>&) {
      return Value(static_cast<std::int64_t>(docs_.size()));
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteString(docs_);
  }
  void Deserialize(serial::GraphReader& r) override { docs_ = r.ReadString(); }

 private:
  std::string docs_;
};

/// Read-only stopword table (replicable: duplicate semantics).
class Stopwords : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "wai.Stopwords";
  Stopwords() {
    methods().Register("contains", [this](const std::vector<Value>& args) {
      return Value(words_.find(" " + args.at(0).AsString() + " ") !=
                   std::string::npos);
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteString(words_);
  }
  void Deserialize(serial::GraphReader& r) override { words_ = r.ReadString(); }

 private:
  std::string words_ = " the a an of to and in is it ";
};

/// The travelling indexer: visits sites, indexes the local shard.
class Indexer : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "wai.Indexer";
  Indexer() {
    methods().Register("setup", [this](const std::vector<Value>& args) {
      stopwords_ = core()->RefTo<Stopwords>(args.at(0));
      shard_ = core()->RefTo<Shard>(args.at(1));
      core::Core::GetMetaRef(stopwords_).SetRelocator(
          core::MakeRelocator("duplicate"));
      core::Core::GetMetaRef(shard_).SetRelocator(
          core::MakeRelocator("stamp"));
      return Value();
    });
    // Arrival continuation: index the local shard. It runs inside a task,
    // where nothing may block: it asks for the documents, then checks every
    // word against the stopword table at once and indexes the survivors
    // when the last answer is in.
    methods().Register(
        "indexHere", [this](const std::vector<Value>&) -> sim::Future<Value> {
          if (!shard_)
            return sim::MakeReadyFuture(core()->scheduler(),
                                        Value("no shard at " + core()->name()));
          return shard_.CallAsync("docs").Then(
              // fargolint: allow(capture-this) the indexer stays here until indexHere settles: main pumps to idle before the next move
              [this](Value& docs) { return IndexWords(docs.AsString()); });
        });
    methods().Register("summary", [this](const std::vector<Value>&) {
      Value::Map m;
      m["distinct_terms"] = Value(static_cast<std::int64_t>(index_.size()));
      m["sites"] = Value(sites_);
      std::int64_t total = 0;
      for (const auto& [w, n] : index_) total += n;
      m["total_terms"] = Value(total);
      return Value(std::move(m));
    });
    methods().Register("count", [this](const std::vector<Value>& args) {
      auto it = index_.find(args.at(0).AsString());
      return Value(it == index_.end() ? std::int64_t{0} : it->second);
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    stopwords_.SerializeTo(w);
    shard_.SerializeTo(w);
    w.WriteString(sites_);
    w.WriteVarint(index_.size());
    for (const auto& [word, n] : index_) {
      w.WriteString(word);
      w.WriteInt(n);
    }
  }
  void Deserialize(serial::GraphReader& r) override {
    stopwords_.DeserializeFrom(r);
    shard_.DeserializeFrom(r);
    sites_ = r.ReadString();
    index_.clear();
    const std::uint64_t n = r.ReadVarint();
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string word = r.ReadString();
      index_[std::move(word)] = r.ReadInt();
    }
  }

 private:
  sim::Future<Value> IndexWords(const std::string& docs) {
    std::istringstream in(docs);
    auto words = std::make_shared<std::vector<std::string>>();
    for (std::string word; in >> word;) words->push_back(std::move(word));
    auto stop = std::make_shared<std::vector<bool>>(words->size());
    auto pending = std::make_shared<std::size_t>(words->size() + 1);
    sim::Promise<Value> done(core()->scheduler());
    auto finish = [this, words, stop, pending, done]() mutable {
      if (--*pending > 0) return;
      std::int64_t indexed = 0;
      for (std::size_t i = 0; i < words->size(); ++i) {
        if ((*stop)[i]) continue;
        index_[(*words)[i]] += 1;
        ++indexed;
      }
      sites_ += core()->name() + " ";
      done.Resolve(Value("indexed " + std::to_string(indexed) +
                         " terms at " + core()->name()));
    };
    for (std::size_t i = 0; i < words->size(); ++i)
      stopwords_.CallAsync("contains", {Value((*words)[i])})
          .OnSettle([stop, i, finish](sim::Future<Value> f) mutable {
            (*stop)[i] = f.ok() && f.value().AsBool();
            finish();
          });
    finish();  // an empty shard indexes nothing
    return done.future();
  }

  core::ComletRef<Stopwords> stopwords_;
  core::ComletRef<Shard> shard_;
  std::map<std::string, std::int64_t> index_;
  std::string sites_;
};

const bool kReg = serial::RegisterType<Shard>() &&
                  serial::RegisterType<Stopwords>() &&
                  serial::RegisterType<Indexer>();

const char* kShardData[] = {
    "the quick brown fox jumps over the lazy dog and the dog barks",
    "a distributed system is a system of components on networked hosts "
    "and the components communicate by passing messages",
    "mobile code moves the computation to the data because the data is "
    "large and the network is slow",
};

}  // namespace

int main() {
  (void)kReg;
  core::Runtime rt;
  rt.EnableDirectory({});
  core::Core& hq = rt.CreateCore("hq");
  std::vector<core::Core*> sites;
  for (int i = 0; i < 3; ++i)
    sites.push_back(&rt.CreateCore("site" + std::to_string(i)));
  // A slow WAN: exactly the regime where moving code beats moving data.
  rt.network().SetDefaultLink({fargo::Millis(60), 2.5e5 /* 2 Mbit/s */, true});

  std::printf("== FarGo wide-area indexer ==\n");

  // Site data (never moves on its own). Each site holds a large corpus —
  // the regime where shipping computation beats shipping documents.
  std::vector<core::ComletRef<Shard>> shards;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    auto shard = hq.NewAt<Shard>(sites[i]->id());
    std::string corpus;
    for (int rep = 0; rep < 2000; ++rep) {
      corpus += kShardData[i];
      corpus += ' ';
    }
    shard.Call("load", {Value(std::move(corpus))});
    shards.push_back(shard);
  }

  // Reliability supervision, in the scripting language.
  script::Engine engine(rt, hq);
  engine.Run(
      "$sites = %1\n"
      "$safe = %2\n"
      "on shutdown firedby $c listenAt $sites do\n"
      "  move completsIn $c to $safe\n"
      "end",
      {Value(Value::List{
           Value(static_cast<std::int64_t>(sites[0]->id().value)),
           Value(static_cast<std::int64_t>(sites[1]->id().value)),
           Value(static_cast<std::int64_t>(sites[2]->id().value))}),
       Value(static_cast<std::int64_t>(hq.id().value))});

  // Plan A: moving code. The indexer tours the sites.
  auto stopwords = hq.New<Stopwords>();
  auto indexer = hq.New<Indexer>();
  indexer.Call("setup", {Value(stopwords.handle()), Value(shards[0].handle())});

  rt.network().ResetStats();
  const SimTime t0 = rt.Now();
  for (core::Core* site : sites) {
    hq.MoveId(indexer.target(), site->id(), "indexHere", {});
    rt.RunUntilIdle();
  }
  hq.MoveId(indexer.target(), hq.id());  // come home with the index
  const double code_ms = fargo::ToMillis(rt.Now() - t0);
  const auto code_bytes = rt.network().total_bytes();

  Value summary = indexer.Call("summary");
  std::printf("tour complete: %s\n", summary.ToDebugString().c_str());
  std::printf("term 'the' filtered: count=%lld; term 'data': count=%lld\n",
              static_cast<long long>(indexer.Call("count", {Value("the")}).AsInt()),
              static_cast<long long>(indexer.Call("count", {Value("data")}).AsInt()));

  // Plan B: moving data. Fetch every shard's documents to hq.
  rt.network().ResetStats();
  const SimTime t1 = rt.Now();
  std::size_t fetched = 0;
  for (auto& shard : shards) fetched += shard.Call("docs").AsString().size();
  const double data_ms = fargo::ToMillis(rt.Now() - t1);
  const auto data_bytes = rt.network().total_bytes();

  std::printf("\nplan comparison on a 60 ms / 2 Mbit WAN:\n");
  std::printf("  move the code:  %7.1f ms, %6llu bytes on the wire\n",
              code_ms, static_cast<unsigned long long>(code_bytes));
  std::printf("  move the data:  %7.1f ms, %6llu bytes (and %zu bytes of "
              "documents would grow with the corpus)\n",
              data_ms, static_cast<unsigned long long>(data_bytes), fetched);

  // Mid-run failure drill: a site announces shutdown while hosting data;
  // the script evacuates it and the shard stays queryable.
  std::printf("\nfailure drill: site2 announces shutdown\n");
  sites[2]->Shutdown(fargo::Millis(500));
  rt.RunUntilIdle();
  std::printf("shard2 now answers from %s: %lld bytes\n",
              ToString(hq.ResolveLocation(shards[2])).c_str(),
              static_cast<long long>(shards[2].Call("bytes").AsInt()));
  return 0;
}

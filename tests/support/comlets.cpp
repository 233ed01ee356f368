#include "tests/support/comlets.h"

namespace fargo::testing {

void RegisterTestComlets() {
  serial::RegisterType<Message>();
  serial::RegisterType<Counter>();
  serial::RegisterType<OpLedger>();
  serial::RegisterType<Data>();
  serial::RegisterType<Worker>();
  serial::RegisterType<Printer>();
  serial::RegisterType<Node>();
  serial::RegisterType<TreeNode>();
  serial::RegisterType<Holder>();
}

// ---- Message ----------------------------------------------------------------

Message::Message() {
  methods().Register("print", [this](const std::vector<Value>&) {
    ++prints_;
    return Value(text_);
  });
  methods().Register("text",
                     [this](const std::vector<Value>&) { return Value(text_); });
  methods().Register("set", [this](const std::vector<Value>& args) {
    text_ = args.at(0).AsString();
    return Value();
  });
  methods().Register("whereami", [this](const std::vector<Value>&) {
    return Value(core()->name());
  });
  // Continuation target for Carrier.move-style calls (§3.3).
  methods().Register("start", [this](const std::vector<Value>& args) {
    ++continuations_;
    if (!args.empty() && args[0].IsString()) text_ = args[0].AsString();
    return Value();
  });
}

Message::Message(std::string text) : Message() { text_ = std::move(text); }

void Message::Serialize(serial::GraphWriter& w) const {
  w.WriteString(text_);
  w.WriteInt(prints_);
  w.WriteInt(continuations_);
  // Callback counters travel too, so tests can observe ordering across the
  // move (PreDeparture runs before marshal; PostDeparture after).
  w.WriteInt(pre_departures);
  w.WriteInt(pre_arrivals);
  w.WriteInt(post_arrivals);
  w.WriteInt(post_departures);
}

void Message::Deserialize(serial::GraphReader& r) {
  text_ = r.ReadString();
  prints_ = static_cast<int>(r.ReadInt());
  continuations_ = static_cast<int>(r.ReadInt());
  pre_departures = static_cast<int>(r.ReadInt());
  pre_arrivals = static_cast<int>(r.ReadInt());
  post_arrivals = static_cast<int>(r.ReadInt());
  post_departures = static_cast<int>(r.ReadInt());
}

// ---- Counter ----------------------------------------------------------------

Counter::Counter() {
  methods().Register("increment", [this](const std::vector<Value>& args) {
    value_ += args.empty() ? 1 : args[0].AsInt();
    return Value(value_);
  });
  methods().Register("get",
                     [this](const std::vector<Value>&) { return Value(value_); });
}

void Counter::Serialize(serial::GraphWriter& w) const { w.WriteInt(value_); }
void Counter::Deserialize(serial::GraphReader& r) { value_ = r.ReadInt(); }

// ---- OpLedger ---------------------------------------------------------------

OpLedger::OpLedger() {
  methods().Register("apply", [this](const std::vector<Value>& args) {
    const std::int64_t op_id = args.at(0).AsInt();
    const std::int64_t inc = args.size() > 1 ? args[1].AsInt() : 1;
    if (!seen_.insert(op_id).second) ++dups_;
    total_ += inc;
    return Value(total_);
  });
  methods().Register("get",
                     [this](const std::vector<Value>&) { return Value(total_); });
  methods().Register("dups",
                     [this](const std::vector<Value>&) { return Value(dups_); });
  methods().Register("ops", [this](const std::vector<Value>&) {
    return Value(static_cast<std::int64_t>(seen_.size()));
  });
  methods().Register("has", [this](const std::vector<Value>& args) {
    return Value(static_cast<std::int64_t>(seen_.count(args.at(0).AsInt())));
  });
}

void OpLedger::Serialize(serial::GraphWriter& w) const {
  w.WriteInt(total_);
  w.WriteInt(dups_);
  w.WriteInt(static_cast<std::int64_t>(seen_.size()));
  for (std::int64_t id : seen_) w.WriteInt(id);
}

void OpLedger::Deserialize(serial::GraphReader& r) {
  total_ = r.ReadInt();
  dups_ = r.ReadInt();
  const std::int64_t n = r.ReadInt();
  seen_.clear();
  for (std::int64_t i = 0; i < n; ++i) seen_.insert(r.ReadInt());
}

// ---- Data -------------------------------------------------------------------

Data::Data() {
  methods().Register("read", [this](const std::vector<Value>&) {
    ++reads_;
    return Value(static_cast<std::int64_t>(payload_.size()));
  });
  methods().Register("resize", [this](const std::vector<Value>& args) {
    payload_.assign(static_cast<std::size_t>(args.at(0).AsInt()), 0xab);
    return Value();
  });
  methods().Register("reads",
                     [this](const std::vector<Value>&) { return Value(reads_); });
}

Data::Data(std::size_t payload_bytes) : Data() {
  payload_.assign(payload_bytes, 0xab);
}

void Data::Serialize(serial::GraphWriter& w) const {
  w.WriteBytes(payload_);
  w.WriteInt(reads_);
}

void Data::Deserialize(serial::GraphReader& r) {
  payload_ = r.ReadBytes();
  reads_ = r.ReadInt();
}

// ---- Worker -----------------------------------------------------------------

Worker::Worker() {
  methods().Register("bind", [this](const std::vector<Value>& args) {
    data_ = core()->RefTo<Data>(args.at(0));
    if (args.size() > 1)
      core::Core::GetMetaRef(data_).SetRelocator(
          core::MakeRelocator(args[1].AsString()));
    return Value();
  });
  methods().Register("work",
                     [this](const std::vector<Value>&) -> sim::Future<Value> {
                       if (!data_) throw FargoError("worker has no data source");
                       ++work_done_;
                       return data_.CallAsync("read");
                     });
  methods().Register("workDone", [this](const std::vector<Value>&) {
    return Value(work_done_);
  });
  methods().Register("dataBound", [this](const std::vector<Value>&) {
    return Value(static_cast<bool>(data_));
  });
  methods().Register(
      "dataLocation", [this](const std::vector<Value>&) -> sim::Future<Value> {
        return core()->ResolveLocationAsync(data_).Then([](CoreId& where) {
          return Value(static_cast<std::int64_t>(where.value));
        });
      });
  methods().Register("refType", [this](const std::vector<Value>&) {
    if (!data_) return Value("unbound");
    return Value(std::string(core::Core::GetMetaRef(data_).GetRelocator()->Kind()));
  });
}

void Worker::Serialize(serial::GraphWriter& w) const {
  data_.SerializeTo(w);
  w.WriteInt(work_done_);
}

void Worker::Deserialize(serial::GraphReader& r) {
  data_.DeserializeFrom(r);
  work_done_ = r.ReadInt();
}

// ---- Printer ----------------------------------------------------------------

Printer::Printer() {
  methods().Register("print", [this](const std::vector<Value>& args) {
    ++jobs_;
    std::string text = args.empty() ? "" : args[0].AsString();
    return Value("printed '" + text + "' at " + core()->name());
  });
  methods().Register("jobs",
                     [this](const std::vector<Value>&) { return Value(jobs_); });
}

void Printer::Serialize(serial::GraphWriter& w) const { w.WriteInt(jobs_); }
void Printer::Deserialize(serial::GraphReader& r) { jobs_ = r.ReadInt(); }

// ---- Node -------------------------------------------------------------------

Node::Node() {
  methods().Register("setTag", [this](const std::vector<Value>& args) {
    tag_ = args.at(0).AsInt();
    return Value();
  });
  methods().Register("tag",
                     [this](const std::vector<Value>&) { return Value(tag_); });
  methods().Register("setNext", [this](const std::vector<Value>& args) {
    next_ = core()->RefTo<Node>(args.at(0));
    if (args.size() > 1)
      core::Core::GetMetaRef(next_).SetRelocator(
          core::MakeRelocator(args[1].AsString()));
    return Value();
  });
  // Sums the tags along the chain, `depth` hops deep.
  methods().Register(
      "sum", [this](const std::vector<Value>& args) -> sim::Future<Value> {
        std::int64_t depth = args.at(0).AsInt();
        if (depth <= 0 || !next_)
          return sim::MakeReadyFuture(core()->scheduler(), Value(tag_));
        return next_.CallAsync("sum", {Value(depth - 1)})
            .Then([tag = tag_](Value& rest) { return Value(tag + rest.AsInt()); });
      });
  methods().Register("hasNext", [this](const std::vector<Value>&) {
    return Value(static_cast<bool>(next_));
  });
  methods().Register("nextType", [this](const std::vector<Value>&) {
    if (!next_) return Value("unbound");
    return Value(std::string(core::Core::GetMetaRef(next_).GetRelocator()->Kind()));
  });
}

void Node::Serialize(serial::GraphWriter& w) const {
  next_.SerializeTo(w);
  w.WriteInt(tag_);
}

void Node::Deserialize(serial::GraphReader& r) {
  next_.DeserializeFrom(r);
  tag_ = r.ReadInt();
}

// ---- TreeNode / Holder -------------------------------------------------------

void TreeNode::Serialize(serial::GraphWriter& w) const {
  w.WriteInt(value);
  w.WriteObject(left);
  w.WriteObject(right);
  counter.SerializeTo(w);
}

void TreeNode::Deserialize(serial::GraphReader& r) {
  value = r.ReadInt();
  left = r.ReadObjectAs<TreeNode>();
  right = r.ReadObjectAs<TreeNode>();
  counter.DeserializeFrom(r);
}

Holder::Holder() {
  methods().Register("rootValue", [this](const std::vector<Value>&) {
    return Value(root ? root->value : -1);
  });
  methods().Register("sharedChildren", [this](const std::vector<Value>&) {
    return Value(root && root->left != nullptr && root->left == root->right);
  });
  methods().Register(
      "bump", [this](const std::vector<Value>&) -> sim::Future<Value> {
        if (root && root->counter) return root->counter.CallAsync("increment");
        return sim::MakeReadyFuture(core()->scheduler(), Value());
      });
}

void Holder::Serialize(serial::GraphWriter& w) const { w.WriteObject(root); }

void Holder::Deserialize(serial::GraphReader& r) {
  root = r.ReadObjectAs<TreeNode>();
}

}  // namespace fargo::testing

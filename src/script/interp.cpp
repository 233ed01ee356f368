#include "src/script/interp.h"

#include <cstdio>

#include "src/common/log.h"
#include "src/core/invocation.h"
#include "src/monitor/events.h"
#include "src/monitor/probe.h"

namespace fargo::script {

namespace {
[[noreturn]] void Fail(int line, const std::string& what) {
  throw ScriptError("script error (line " + std::to_string(line) + "): " +
                    what);
}
}  // namespace

Engine::Engine(core::Runtime& runtime, core::Core& admin)
    : runtime_(runtime), admin_(admin) {
  // Built-in administrative action (the Fig 4 capability of "examining and
  // changing the type of complet references", scriptable):
  //   retype <owner-complet> <target-complet> <link|pull|duplicate|stamp>
  RegisterAction("retype", [](Engine& eng, const std::vector<Value>& args) {
    if (args.size() != 3)
      throw ScriptError("retype needs: owner target kind");
    const ComletHandle owner = args[0].AsHandle();
    const ComletHandle target = args[1].AsHandle();
    const std::string& kind = args[2].AsString();
    core::Core* host = eng.runtime().Find(eng.ToCore(args[0]));
    if (host == nullptr || !host->alive())
      throw ScriptError("retype: owner's core is unavailable");
    bool found = false;
    for (const core::ComletRefBase* ref : host->RefsOwnedBy(owner.id)) {
      if (ref->target() != target.id) continue;
      core::Core::GetMetaRef(*ref).SetRelocator(core::MakeRelocator(kind));
      found = true;
    }
    if (!found)
      throw ScriptError("retype: no live reference " + ToString(owner.id) +
                        " -> " + ToString(target.id));
  });
}

Engine::~Engine() {
  *alive_ = false;
  try {
    Detach();
  } catch (const std::exception& e) {
    LogWarn() << "script engine detach failed: " << e.what();
  }
}

void Engine::Run(const std::string& source, std::vector<Value> args) {
  RunParsed(Parse(source), std::move(args));
}

void Engine::RunParsed(const Script& script, std::vector<Value> args) {
  args_ = std::move(args);
  Env env;
  for (const Statement& st : script.statements) {
    if (const auto* a = std::get_if<Assignment>(&st)) {
      globals_[a->var] = EvalNow(*a->value, env);
    } else if (const auto* r = std::get_if<Rule>(&st)) {
      AttachRule(*r);
    } else {
      // Run runs on the conductor: each top-level command finishes —
      // every move in flight settled — before the next one starts.
      Settle(env, [&] { Execute(std::get<Command>(st), env); });
      runtime_.scheduler().RunUntil([this] { return moves_in_flight_ == 0; });
    }
  }
}

void Engine::RegisterAction(std::string name, Action action) {
  actions_[std::move(name)] = std::move(action);
}

void Engine::Detach() {
  for (AttachedRule& ar : rules_)
    for (monitor::SubId token : ar.tokens) admin_.UnlistenAt(token);
  rules_.clear();
}

Value Engine::GetVar(const std::string& name) const {
  auto it = globals_.find(name);
  return it == globals_.end() ? Value() : it->second;
}

CoreId Engine::ToCore(const Value& v) {
  if (v.IsInt()) return CoreId{static_cast<std::uint32_t>(v.AsInt())};
  if (v.IsString()) {
    core::Core* c = runtime_.FindByName(v.AsString());
    if (c == nullptr)
      throw ScriptError("unknown core name: " + v.AsString());
    return c->id();
  }
  if (v.IsHandle())
    return admin_.ResolveLocation(admin_.RefFromHandle(v.AsHandle()));
  throw ScriptError("value does not denote a core: " + v.ToDebugString());
}

CoreId Engine::CoreOf(const Value& v, const Expr& at, const Env& env) {
  if (!v.IsHandle()) return ToCore(v);
  return CoreId{static_cast<std::uint32_t>(
      Fact(at, Expr::Kind::kCoreOf, v, env).AsInt())};
}

Value Engine::Fact(const Expr& at, Expr::Kind kind, const Value& of,
                   const Env& env) {
  const FactKey key{&at, kind};
  if (auto it = env.facts.find(key); it != env.facts.end()) return it->second;
  throw PendingFact{key, FetchFact(kind, of)};
}

sim::Future<Value> Engine::FetchFact(Expr::Kind kind, const Value& of) {
  if (kind == Expr::Kind::kCoreOf)
    return admin_.ResolveLocationAsync(admin_.RefFromHandle(of.AsHandle()))
        .Then([](CoreId& where) {
          return Value(static_cast<std::int64_t>(where.value));
        });
  if (kind == Expr::Kind::kComletsIn)
    // A Core that cannot answer hosts nothing the script can move.
    return admin_
        .ComletsAtAsync(CoreId{static_cast<std::uint32_t>(of.AsInt())})
        .Then([](std::vector<ComletHandle>& hosted) {
          return Value(Value::List(hosted.begin(), hosted.end()));
        })
        .OrElse([](std::exception_ptr) { return Value(Value::List{}); });
  // kHintEpochOf: the stamp at the Core hosting the complet, carried back
  // by a ping; when the ping fails, the admin Core's own (possibly stale)
  // hint. 0 = unstamped/unknown.
  const ComletHandle h = of.AsHandle();
  return admin_.invocation()
      .InvokeAsync(h, core::kPingMethod, {})
      .Then([](core::InvokeResult& r) {
        return Value(static_cast<std::int64_t>(r.hint_epoch));
      })
      .OrElse([&admin = admin_, id = h.id](std::exception_ptr) {
        const core::TrackerEntry* te = admin.trackers().Find(id);
        return Value(static_cast<std::int64_t>(te ? te->hint_epoch : 0));
      });
}

void Engine::Settle(Env& env, const std::function<void()>& step) {
  for (;;) {
    try {
      step();
      return;
    } catch (PendingFact& p) {
      env.facts[p.key] = sim::Await(p.fetch);
    }
  }
}

Value Engine::EvalNow(const Expr& e, Env& env) {
  Value v;
  Settle(env, [&] { v = Eval(e, env); });
  return v;
}

std::vector<ComletHandle> Engine::ToComlets(const Value& v) const {
  std::vector<ComletHandle> out;
  if (v.IsHandle()) {
    out.push_back(v.AsHandle());
  } else if (v.IsList()) {
    for (const Value& e : v.AsList()) out.push_back(e.AsHandle());
  } else {
    throw ScriptError("value does not denote complet(s): " +
                      v.ToDebugString());
  }
  return out;
}

Value Engine::Eval(const Expr& e, const Env& env) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kVar: {
      if (auto it = env.local.find(e.var); it != env.local.end())
        return it->second;
      if (auto it = globals_.find(e.var); it != globals_.end())
        return it->second;
      Fail(e.line, "undefined variable $" + e.var);
    }
    case Expr::Kind::kArg: {
      if (e.arg_index < 1 ||
          static_cast<std::size_t>(e.arg_index) > args_.size())
        Fail(e.line, "missing script argument %" + std::to_string(e.arg_index));
      return args_[static_cast<std::size_t>(e.arg_index) - 1];
    }
    case Expr::Kind::kIndex: {
      Value base = Eval(*e.base, env);
      const Value::List& list = base.AsList();
      if (e.index >= list.size())
        Fail(e.line, "index " + std::to_string(e.index) + " out of range");
      return list[e.index];
    }
    case Expr::Kind::kCoreOf: {
      Value base = Eval(*e.base, env);
      return Value(static_cast<std::int64_t>(CoreOf(base, *e.base, env).value));
    }
    case Expr::Kind::kHintEpochOf: {
      Value base = Eval(*e.base, env);
      if (!base.IsHandle())
        Fail(e.line, "hintEpochOf needs a complet handle");
      return Fact(e, e.kind, base, env);
    }
    case Expr::Kind::kComletsIn: {
      Value base = Eval(*e.base, env);
      const CoreId where = CoreOf(base, *e.base, env);
      return Fact(e, e.kind, Value(static_cast<std::int64_t>(where.value)),
                  env);
    }
    case Expr::Kind::kList: {
      Value::List items;
      items.reserve(e.items.size());
      for (const ExprPtr& item : e.items) items.push_back(Eval(*item, env));
      return Value(std::move(items));
    }
  }
  Fail(e.line, "corrupt expression");
}

void Engine::Execute(const Command& cmd, const Env& env) {
  switch (cmd.kind) {
    case Command::Kind::kMove: {
      // Commands may run inside a rule's listener, where nothing may block:
      // every move is a MoveAsync.
      const CoreId dest = CoreOf(Eval(*cmd.dest, env), *cmd.dest, env);
      StartMoves(ToComlets(Eval(*cmd.subject, env)), dest);
      return;
    }
    case Command::Kind::kLog: {
      Value v = Eval(*cmd.args.at(0), env);
      std::printf("[fargo-script] %s\n", v.ToDebugString().c_str());
      return;
    }
    case Command::Kind::kAction: {
      auto it = actions_.find(cmd.action);
      if (it == actions_.end())
        Fail(cmd.line, "unknown action '" + cmd.action + "'");
      std::vector<Value> args;
      args.reserve(cmd.args.size());
      for (const ExprPtr& a : cmd.args) args.push_back(Eval(*a, env));
      it->second(*this, args);
      return;
    }
  }
}

void Engine::StartMoves(const std::vector<ComletHandle>& subjects,
                        CoreId dest) {
  for (const ComletHandle& h : subjects) {
    ++moves_in_flight_;
    admin_.MoveAsync(admin_.RefFromHandle(h), dest)
        .OnSettle([this, alive = alive_, id = h.id](sim::Future<sim::Unit> f) {
          if (!*alive) return;
          --moves_in_flight_;
          if (f.ok()) {
            ++moves_executed_;
          } else {
            LogWarn() << "script move of " << ToString(id)
                      << " failed: " << sim::ErrorText(f.error());
          }
        });
  }
}

void Engine::ExecuteBody(std::shared_ptr<const Rule> rule, Env env,
                         std::size_t next) {
  // Inside a listener nothing waits: the moves a command starts run on.
  for (; next < rule->body.size(); ++next) {
    try {
      Execute(rule->body[next], env);
    } catch (PendingFact& p) {
      p.fetch.OnSettle([this, alive = alive_, rule, env = std::move(env),
                        next, key = p.key](sim::Future<Value> f) mutable {
        if (!*alive) return;
        if (f.ok()) {
          env.facts[key] = f.Take();
        } else {
          LogWarn() << "script rule (line " << rule->line
                    << ") command failed: " << sim::ErrorText(f.error());
          ++next;
        }
        ExecuteBody(rule, std::move(env), next);
      });
      return;
    } catch (const std::exception& e) {
      LogWarn() << "script rule (line " << rule->line << ") command failed: "
                << e.what();
    }
  }
}

void Engine::AttachRule(const Rule& rule_in) {
  for (const Command& cmd : rule_in.body)
    if (cmd.kind == Command::Kind::kAction && cmd.action == "retype")
      Fail(cmd.line,
           "retype edits its owner's Core, so it runs only at top level");
  auto rule = std::make_shared<Rule>(rule_in);
  AttachedRule attached;
  attached.rule = rule;
  Env env;

  if (rule->is_periodic) {
    // The body touches admin_'s trackers and request table, so the timer
    // lives on admin_'s home locality.
    sim::Scheduler::AffinityScope home(admin_.id().value);
    attached.timer = std::make_unique<sim::PeriodicTask>(
        runtime_.scheduler(), rule->interval, [this, rule, alive = alive_] {
          if (!*alive) return;
          ++rule_firings_;
          ExecuteBody(rule, Env{});
        });
    rules_.push_back(std::move(attached));
    return;
  }

  if (!rule->is_threshold) {
    const monitor::EventKind kind = monitor::ParseEventKind(rule->event_name);
    Value at = EvalNow(*rule->listen_at, env);
    std::vector<CoreId> cores;
    if (at.IsList()) {
      for (const Value& v : at.AsList()) cores.push_back(ToCore(v));
    } else {
      cores.push_back(ToCore(at));
    }
    for (CoreId where : cores) {
      monitor::Listener listener = [this, rule,
                                    alive = alive_](const monitor::Event& e) {
        if (!*alive) return;
        Env fire_env;
        // Failure-detector events name the *suspected* Core in e.peer; for
        // those, "fired by" means the peer, not the detecting Core.
        if (!rule->firedby_var.empty())
          fire_env.local[rule->firedby_var] = Value(static_cast<std::int64_t>(
              e.peer.valid() ? e.peer.value : e.source.value));
        if (e.comlet.valid())
          fire_env.local["comlet"] =
              Value(ComletHandle{e.comlet, e.source, std::string()});
        fire_env.local["value"] = Value(e.value);
        fire_env.local["peer"] =
            Value(static_cast<std::int64_t>(e.peer.value));
        ++rule_firings_;
        ExecuteBody(rule, std::move(fire_env));
      };
      attached.tokens.push_back(admin_.ListenAt(where, kind, listener));
    }
  } else {
    const monitor::Service service = monitor::ParseService(rule->event_name);
    monitor::ProbeKey probe;
    probe.service = service;
    CoreId where;
    switch (service) {
      case monitor::Service::kInvocationRate: {
        if (!rule->from) Fail(rule->line, "methodInvokeRate needs 'from/to'");
        ComletHandle a = EvalNow(*rule->from, env).AsHandle();
        ComletHandle b = EvalNow(*rule->to, env).AsHandle();
        probe.a = a.id;
        probe.b = b.id;
        // Measure at the Core hosting the source complet: that is where the
        // reference's stub lives and where invocations are counted.
        where = ToCore(Value(a));
        break;
      }
      case monitor::Service::kBandwidth:
      case monitor::Service::kLatency:
      case monitor::Service::kThroughput:
      case monitor::Service::kMessageRate: {
        if (!rule->from) Fail(rule->line, rule->event_name + " needs 'from/to'");
        where = ToCore(EvalNow(*rule->from, env));
        probe.peer = ToCore(EvalNow(*rule->to, env));
        break;
      }
      case monitor::Service::kComletSize: {
        if (!rule->at) Fail(rule->line, "completSize needs 'at <complet>'");
        ComletHandle subject = EvalNow(*rule->at, env).AsHandle();
        probe.a = subject.id;
        where = ToCore(Value(subject));
        break;
      }
      case monitor::Service::kComletLoad:
      case monitor::Service::kMemoryUse: {
        if (!rule->at) Fail(rule->line, rule->event_name + " needs 'at <core>'");
        where = ToCore(EvalNow(*rule->at, env));
        break;
      }
    }
    const monitor::Trigger trigger =
        rule->below ? monitor::Trigger::kBelow : monitor::Trigger::kAbove;
    monitor::Listener listener = [this, rule,
                                  alive = alive_](const monitor::Event& e) {
      if (!*alive) return;
      Env fire_env;
      if (!rule->firedby_var.empty())
        fire_env.local[rule->firedby_var] =
            Value(static_cast<std::int64_t>(e.source.value));
      fire_env.local["value"] = Value(e.value);
      ++rule_firings_;
      ExecuteBody(rule, std::move(fire_env));
    };
    attached.tokens.push_back(admin_.ListenThresholdAt(
        where, probe, rule->threshold, trigger, rule->interval, listener));
  }

  rules_.push_back(std::move(attached));
}

}  // namespace fargo::script

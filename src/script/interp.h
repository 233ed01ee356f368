// The layout script engine (§4.3).
//
// Scripts are defined externally — "possibly after the application has been
// deployed" — and attached to a running system by an administrator. The
// engine runs in the context of an administrative Core: assignments and
// top-level commands execute immediately; rules subscribe to monitor events
// (locally or at remote Cores) and execute their bodies when events fire.
//
// The action vocabulary is extensible with user-registered native actions —
// the C++ rendering of the paper's "any user-defined (Java) class ...
// automatically loaded upon its invocation".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/value.h"
#include "src/core/core.h"
#include "src/core/runtime.h"
#include "src/script/ast.h"
#include "src/script/parser.h"
#include "src/sim/scheduler.h"

namespace fargo::script {

class Engine {
 public:
  /// `admin` is the Core at which the engine runs (subscriptions and moves
  /// are issued from it).
  Engine(core::Runtime& runtime, core::Core& admin);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses and runs `source`. `%1`, `%2`, ... in the script bind to
  /// `args[0]`, `args[1]`, ...
  void Run(const std::string& source, std::vector<Value> args = {});
  void RunParsed(const Script& script, std::vector<Value> args = {});

  /// Registers a native action usable as a command: `name expr...`.
  using Action = std::function<void(Engine&, const std::vector<Value>&)>;
  void RegisterAction(std::string name, Action action);

  /// Cancels all rule subscriptions made by this engine.
  void Detach();

  // -- introspection -----------------------------------------------------------
  std::size_t active_rules() const { return rules_.size(); }
  std::uint64_t rule_firings() const { return rule_firings_; }
  std::uint64_t moves_executed() const { return moves_executed_; }
  Value GetVar(const std::string& name) const;
  void SetVar(std::string name, Value value) {
    globals_[std::move(name)] = std::move(value);
  }

  core::Core& admin() { return admin_; }
  core::Runtime& runtime() { return runtime_; }

  // -- value coercions (used by Eval and by native actions) --------------------
  /// Accepts a core id (int), a core name (string), or a complet handle
  /// (meaning coreOf: located with a ping, which pumps, so a native action
  /// passes a handle here only at top level).
  CoreId ToCore(const Value& v);
  /// Accepts a single handle or a list of handles.
  std::vector<ComletHandle> ToComlets(const Value& v) const;

 private:
  /// A fact that lives on another Core: where a complet is (`coreOf`), what
  /// a Core hosts (`completsIn`), a complet's hint epoch (`hintEpochOf`).
  /// Keyed by the expression it is fetched for and its kind.
  using FactKey = std::pair<const Expr*, Expr::Kind>;
  struct Env {
    std::map<std::string, Value> local;
    std::map<FactKey, Value> facts;  ///< fetched so far
  };
  /// Thrown by Eval when a command needs a fact its Env lacks: the caller
  /// stores the fetched fact and re-runs the command, which has done
  /// nothing yet (commands evaluate every expression before acting).
  struct PendingFact {
    FactKey key;
    sim::Future<Value> fetch;
  };
  struct AttachedRule {
    std::shared_ptr<Rule> rule;
    std::vector<monitor::SubId> tokens;
    std::unique_ptr<sim::PeriodicTask> timer;  // periodic rules
  };

  Value Eval(const Expr& e, const Env& env);
  /// The fact `kind` about `of`, fetched for `at`: from `env`, else thrown
  /// as a PendingFact whose fetch runs on the Core that holds it.
  Value Fact(const Expr& at, Expr::Kind kind, const Value& of,
             const Env& env);
  sim::Future<Value> FetchFact(Expr::Kind kind, const Value& of);
  /// ToCore, with a complet handle (the value of `at`) located by a fact.
  CoreId CoreOf(const Value& v, const Expr& at, const Env& env);
  /// Runs `step` on the conductor, pumping for each fact it needs.
  void Settle(Env& env, const std::function<void()>& step);
  Value EvalNow(const Expr& e, Env& env);
  void Execute(const Command& cmd, const Env& env);
  /// Starts moving each subject to `dest` from the admin Core.
  void StartMoves(const std::vector<ComletHandle>& subjects, CoreId dest);
  /// Runs a rule's body from command `next` on, inside a listener task:
  /// a command that needs a fact resumes once the fact arrives.
  void ExecuteBody(std::shared_ptr<const Rule> rule, Env env,
                   std::size_t next = 0);
  void AttachRule(const Rule& rule);

  core::Runtime& runtime_;
  core::Core& admin_;
  /// Liveness token captured by rule listeners: an in-flight (scheduled)
  /// notification delivered after this engine died becomes a no-op instead
  /// of a use-after-free.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::map<std::string, Value> globals_;
  std::vector<Value> args_;
  std::map<std::string, Action> actions_;
  std::vector<AttachedRule> rules_;
  std::uint64_t rule_firings_ = 0;
  std::uint64_t moves_executed_ = 0;
  /// Moves started and not yet settled; a top-level command returns once
  /// this is back to zero.
  std::uint64_t moves_in_flight_ = 0;
};

}  // namespace fargo::script

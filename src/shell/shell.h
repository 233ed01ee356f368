// The FarGo administrative shell (§3: "a command-line shell for
// administering remote Cores" — a system complet in the paper).
//
// Commands:
//   help                          — list commands
//   cores                         — list cores with load
//   ls [<core>]                   — complets at a core (default: all)
//   names [<core>]                — name bindings
//   methods <comlet>              — remotely invocable methods
//   move <comlet> <core>          — relocate a complet (drag-and-drop analog)
//   amove <comlet> <core>         — start the move and return at once; the
//                                   outcome is printed when it settles
//   post <comlet> <method> [args...]
//                                 — one-way invocation (no reply expected)
//   reftype <core> <from> <to>    — show the relocation type between complets
//   setref <core> <from> <to> <link|pull|duplicate|stamp>
//                                 — change a reference's relocation type
//   profile <service> ...         — instant profiling readout
//   invoke <comlet> <method> [args...]
//   gc [<core>]                   — collect unreferenced trackers
//   dir                           — directory plane: placement, shard map
//                                   version/owners, per-shard entry counts,
//                                   hint hit/miss/stale counters
//   link <coreA> <coreB> <lat_ms> <mbit>   — reshape a network link
//   net                           — network counters (drops by reason,
//                                   chaos stats, per-link traffic)
//   chaos <drop> <dup> <reorder> [seed] | chaos off
//                                 — arm/disarm global fault injection
//   crash <core>                  — kill a core abruptly (no shutdown
//                                   protocol; trackers are left dangling)
//   wal <core>                    — durability stats for a core's log
//   wal <core> on [interval_ms]   — make a core durable (write-ahead log +
//                                   periodic checkpoint)
//   wal <core> checkpoint         — checkpoint + truncate the log now
//   recover <core>                — restart a crashed core (replays its
//                                   log if it was durable)
//   heartbeat <core> <interval_ms> <missed> | heartbeat <core> off
//                                 — start/stop the failure detector
//   shutdown <core>               — announce shutdown of a core
//   trace on|off|dump [path]      — toggle causal tracing / export the
//                                   recorded spans as Chrome-trace JSON
//   sessions [<core>]             — RPC session / slot-replay / formation
//                                   stats (default: every live core)
//   stats                         — dump the metrics registry (counters,
//                                   gauges, histograms)
//   snapshot                      — render the deployment (text monitor)
//   script <text...>              — run an inline layout script
//   quit
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/script/interp.h"
#include "src/shell/text_monitor.h"

namespace fargo::shell {

class Shell {
 public:
  Shell(core::Runtime& runtime, core::Core& admin, std::ostream& out);
  ~Shell();

  /// Executes one command line. Returns false when the shell should exit.
  bool Execute(const std::string& line);

  /// Reads and executes lines from `in` until EOF or `quit`.
  void RunInteractive(std::istream& in, bool prompt = true);

 private:
  core::Core* ResolveCore(const std::string& token) const;
  ComletId ResolveComlet(const std::string& token) const;
  core::ComletRefBase RefToComlet(const std::string& token);

  void CmdHelp();
  void CmdCores();
  void CmdLs(const std::vector<std::string>& args);
  void CmdNames(const std::vector<std::string>& args);
  void CmdMethods(const std::vector<std::string>& args);
  void CmdMove(const std::vector<std::string>& args);
  void CmdAMove(const std::vector<std::string>& args);
  void CmdRefType(const std::vector<std::string>& args, bool set);
  void CmdProfile(const std::vector<std::string>& args);
  void CmdInvoke(const std::vector<std::string>& args);
  void CmdPost(const std::vector<std::string>& args);
  /// Shell-token → Value conversion shared by invoke/post (numbers become
  /// ints/reals, everything else strings).
  static std::vector<Value> ParseCallArgs(const std::vector<std::string>& args,
                                          std::size_t from);
  void CmdGc(const std::vector<std::string>& args);
  void CmdDir();
  void CmdLink(const std::vector<std::string>& args);
  void CmdNet();
  void CmdChaos(const std::vector<std::string>& args);
  void CmdCrash(const std::vector<std::string>& args);
  void CmdWal(const std::vector<std::string>& args);
  void CmdRecover(const std::vector<std::string>& args);
  void CmdHeartbeat(const std::vector<std::string>& args);
  void CmdShutdown(const std::vector<std::string>& args);
  void CmdTrace(const std::vector<std::string>& args);
  void CmdSessions(const std::vector<std::string>& args);
  void CmdStats();

  core::Runtime& runtime_;
  core::Core& admin_;
  std::ostream& out_;
  script::Engine engine_;
  TextMonitor monitor_;
  /// Keepalive flag captured by async completions (amove): the shell may be
  /// destroyed while a move is still in flight, and the continuation must
  /// not touch `out_` through a dangling `this`.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace fargo::shell

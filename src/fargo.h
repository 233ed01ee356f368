// Umbrella header: the FarGo public API.
//
// Quick tour (see README.md and examples/):
//   core::Runtime  — the deployment space (scheduler + network + Cores)
//   core::Core     — a stationary runtime node hosting complets
//   core::Anchor   — base class of complet anchors (your components)
//   core::ComletRef<T> — a stub: a movement-tracking complet reference
//   core::Link/Pull/Duplicate/Stamp — relocation semantics (set via MetaRef)
//   monitor::Profiler / monitor::EventBus — §4 monitoring & events
//   script::Engine — the layout scripting language
//   shell::Shell / shell::TextMonitor — administration tools
#pragma once

#include "src/common/ids.h"
#include "src/common/log.h"
#include "src/common/time.h"
#include "src/common/value.h"
#include "src/core/anchor.h"
#include "src/core/core.h"
#include "src/core/invocation.h"
#include "src/core/meta_ref.h"
#include "src/core/movement.h"
#include "src/core/naming.h"
#include "src/core/persistence.h"
#include "src/core/ref.h"
#include "src/core/relocator.h"
#include "src/core/repository.h"
#include "src/core/runtime.h"
#include "src/core/tracker.h"
#include "src/core/wal.h"
#include "src/monitor/ema.h"
#include "src/monitor/events.h"
#include "src/monitor/probe.h"
#include "src/monitor/profiler.h"
#include "src/net/network.h"
#include "src/script/interp.h"
#include "src/serial/graph.h"
#include "src/serial/registry.h"
#include "src/serial/value_codec.h"
#include "src/shell/shell.h"
#include "src/shell/text_monitor.h"
#include "src/sim/scheduler.h"

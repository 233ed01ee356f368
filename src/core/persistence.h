// Complet persistence (§7 future work): the one image codec for the
// complets hosted at a Core. A byte image can be restored later — possibly
// at a different Core (crash recovery, cold migration). The WAL stores its
// checkpoints in this format (src/core/wal.h); the simulator itself never
// writes host files.
//
// The image preserves complet identities, closures (with aliasing), the
// relocation semantics of every outgoing reference (with best routing
// hints), and the Core's name bindings. Restoring installs the complets
// like arrivals: trackers go local, completArrived fires, parked requests
// drain, and — with the directory plane on — the home shards learn the new
// location, so stale references recover.
#pragma once

#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/core/core.h"

namespace fargo::core {

/// Serializes one hosted complet's closure — the graph body of an image
/// entry, without the id/type header. Shared by core images and the WAL
/// (install and post-dispatch state records).
std::vector<std::uint8_t> EncodeComletImage(Core& core, const Anchor& anchor);

/// Rebuilds a complet from EncodeComletImage bytes with its identity
/// re-established; references re-bind carrying the saved routing hints.
/// The caller installs it (Core::Install or the WAL's quiet restore).
std::shared_ptr<Anchor> DecodeComletImage(Core& core, ComletId id,
                                          const std::vector<std::uint8_t>& body);

struct RestoreResult {
  std::vector<ComletId> restored;
  /// Ids already hosted at the Core, left untouched; each fires a
  /// completRestoreSkipped event instead of silently disappearing.
  std::vector<ComletId> skipped;
};

/// Serializes every complet hosted at `core` (plus its name bindings).
std::vector<std::uint8_t> SaveCoreImage(Core& core);

/// Restores an image into `core`; already-hosted ids are reported (and
/// announced) in `skipped` rather than overwritten.
RestoreResult LoadCoreImage(Core& core, const std::vector<std::uint8_t>& image);

}  // namespace fargo::core

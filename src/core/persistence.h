// Complet persistence (§7 future work): the complet graph codec. One hosted
// complet's closure becomes a byte image that can be rebuilt later, at the
// same Core (WAL recovery) or at another (a standby adopting a crashed
// Core's checkpoint, Core::AdoptCheckpoint). The WAL's install and state
// records carry these images, and a checkpoint is a compacted prefix of
// such records (src/core/wal.h); the simulator itself never writes host
// files.
//
// An image preserves the complet's closure (with aliasing) and the
// relocation semantics of every outgoing reference, with this Core's best
// routing hint. Identity and name bindings travel in the enclosing WAL
// records.
#pragma once

#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/core/core.h"

namespace fargo::core {

/// Serializes one hosted complet's closure, without its id and type (the
/// WAL install and post-dispatch state records carry those).
std::vector<std::uint8_t> EncodeComletImage(Core& core, const Anchor& anchor);

/// Rebuilds a complet from EncodeComletImage bytes with its identity
/// re-established; references re-bind carrying the saved routing hints.
/// The caller installs it: quietly (WAL replay) or as an arrival
/// (Core::AdoptCheckpoint).
std::shared_ptr<Anchor> DecodeComletImage(Core& core, ComletId id,
                                          const std::vector<std::uint8_t>& body);

}  // namespace fargo::core

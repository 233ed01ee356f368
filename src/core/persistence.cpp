#include "src/core/persistence.h"

#include <memory>

#include "src/core/meta_ref.h"
#include "src/core/relocator.h"
#include "src/core/wire.h"
#include "src/serial/graph.h"

namespace fargo::core {

// fargolint: allow(wire-asymmetry) graph codec, not a field-wise wire pair: the writer stamps a routing hint the reader consumes via ReadHandle
std::vector<std::uint8_t> EncodeComletImage(Core& core, const Anchor& anchor) {  // fargolint: allow(wire-schema) hook-driven graph codec: ops interleave per reference, not as a linear field list
  // Closure with verbatim reference semantics: relocator object + handle
  // carrying this Core's best routing knowledge.
  serial::Writer body;
  auto hook = [&core](serial::GraphWriter& gw, const void* p) {
    const auto* ref = static_cast<const ComletRefBase*>(p);
    gw.WriteObject(ref->meta()->GetRelocator().get());
    ComletHandle handle = ref->handle();
    if (const TrackerEntry* e = core.trackers().Find(handle.id))
      handle.last_known = e->is_local() ? core.id() : e->next;
    wire::WriteHandle(gw.raw(), handle);
  };
  serial::GraphWriter gw(body, hook);
  gw.WriteObject(&anchor);
  return body.Take();
}

// fargolint: allow(wire-asymmetry) graph codec, not a field-wise wire pair: object graphs are rebuilt via ReadObjectAs, not field reads
std::shared_ptr<Anchor> DecodeComletImage(
    Core& core, ComletId id, const std::vector<std::uint8_t>& body) {
  auto hook = [&core, id](serial::GraphReader& gr, void* p) {
    auto* ref = static_cast<ComletRefBase*>(p);
    auto relocator = gr.ReadObjectAs<Relocator>();
    ComletHandle handle = wire::ReadHandle(gr.raw());
    ref->Bind(core, handle, std::make_shared<MetaRef>(handle.id, relocator),
              id);
  };
  serial::Reader body_reader(body);
  serial::GraphReader gr(body_reader, hook);
  std::shared_ptr<Anchor> anchor = gr.ReadObjectAs<Anchor>();
  if (!anchor) throw serial::SerialError("image carried a null anchor");
  anchor->id_ = id;
  return anchor;
}

}  // namespace fargo::core

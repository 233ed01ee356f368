#include "src/core/persistence.h"

#include <memory>

#include "src/common/log.h"
#include "src/core/meta_ref.h"
#include "src/core/relocator.h"
#include "src/core/wal.h"
#include "src/core/wire.h"
#include "src/monitor/events.h"
#include "src/serial/graph.h"

namespace fargo::core {

namespace {
constexpr std::uint32_t kImageMagic = 0x464152u;  // "FAR"
constexpr std::uint8_t kImageVersion = 1;
}  // namespace

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

std::vector<std::uint8_t> SaveCoreImage(Core& core) {
  serial::Writer out;
  out.WriteVarint(kImageMagic);
  out.WriteU8(kImageVersion);

  const std::vector<ComletId> ids = core.ComletsHere();
  out.WriteVarint(ids.size());
  for (ComletId id : ids) {
    std::shared_ptr<Anchor> anchor = core.repository().Get(id);
    wire::WriteComletId(out, id);
    out.WriteString(anchor->TypeName());
    out.WriteBytes(EncodeComletImage(core, *anchor));
  }

  // Name bindings.
  const auto names = core.naming().All();
  out.WriteVarint(names.size());
  for (const auto& [name, handle] : names) {
    out.WriteString(name);
    wire::WriteHandle(out, handle);
  }
  return out.Take();
}

RestoreResult LoadCoreImage(Core& core,
                            const std::vector<std::uint8_t>& image) {
  serial::Reader in(image);
  if (in.ReadVarint() != kImageMagic)
    throw serial::SerialError("not a FarGo core image");
  if (in.ReadU8() != kImageVersion)
    throw serial::SerialError("unsupported core-image version");

  RestoreResult result;
  const std::uint64_t count = in.ReadVarint();
  for (std::uint64_t i = 0; i < count; ++i) {
    ComletId id = wire::ReadComletId(in);
    std::string type = in.ReadString();
    (void)type;
    std::vector<std::uint8_t> body = in.ReadBytes();

    if (core.repository().Contains(id)) {
      // The live copy wins; tell listeners rather than warn into a log
      // nobody watches (an operator restoring onto a busy Core needs to
      // know which complets kept their in-memory state).
      LogWarn() << "restore skipped " << ToString(id)
                << ": already hosted at " << core.name();
      core.events().Fire(monitor::Event{
          monitor::EventKind::kComletRestoreSkipped, core.id(), id, {}, 0.0});
      result.skipped.push_back(id);
      continue;
    }

    std::shared_ptr<Anchor> anchor = DecodeComletImage(core, id, body);
    anchor->PreArrival();
    core.Install(anchor);
    anchor->PostArrival();
    result.restored.push_back(id);
  }

  const std::uint64_t names = in.ReadVarint();
  for (std::uint64_t i = 0; i < names; ++i) {
    std::string name = in.ReadString();
    ComletHandle handle = wire::ReadHandle(in);
    // Restored bindings are mutations like any other: durable Cores log
    // them (a no-op while the WAL itself is replaying this image).
    if (Wal* wal = core.wal()) wal->AppendBind(name, handle);
    core.naming().Bind(std::move(name), std::move(handle));
  }
  return result;
}

}  // namespace fargo::core

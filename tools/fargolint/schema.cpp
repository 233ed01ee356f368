// Wire-schema extraction: renders the phase-1 index's wire-facing facts —
// marker bytes, indexed enums with values, and the ordered primitive-op
// sequence of every paired codec — as deterministic JSON. CI regenerates
// this over src/ and diffs it against the checked-in docs/wire_schema.json,
// so any field-order, width or discriminator drift fails the build even
// when both codec sides were updated in lockstep (the symmetry rules cannot
// see that kind of drift; the schema gate supersedes them for it).
#include <algorithm>
#include <sstream>

#include "tools/fargolint/index.h"
#include "tools/fargolint/lint.h"

namespace fargolint {
namespace {

/// Repo-relative form of a path: everything from the first "src/" on, so
/// the emitted schema is byte-identical whether the linter is invoked with
/// relative or absolute roots.
std::string SchemaPath(const std::string& path) {
  std::size_t at = path.find("src/");
  return at == std::string::npos ? path : path.substr(at);
}

void JsonEscape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << ' ';
        else
          os << c;
    }
  }
}

}  // namespace

std::string ExtractWireSchema(const std::vector<SourceFile>& files) {
  const Index idx = BuildIndex(files);
  std::ostringstream os;
  os << "{\n  \"schema\": 1,\n";

  // ---- markers: kind -> discriminator byte ---------------------------------
  std::vector<MarkerConst> markers = idx.markers;
  std::sort(markers.begin(), markers.end(),
            [](const MarkerConst& a, const MarkerConst& b) {
              if (a.name != b.name) return a.name < b.name;
              return SchemaPath(a.file) < SchemaPath(b.file);
            });
  os << "  \"markers\": [\n";
  for (std::size_t i = 0; i < markers.size(); ++i) {
    os << "    {\"name\": \"";
    JsonEscape(os, markers[i].name);
    os << "\", \"value\": " << markers[i].value << ", \"file\": \"";
    JsonEscape(os, SchemaPath(markers[i].file));
    os << "\"}" << (i + 1 < markers.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // ---- enums: wire kinds and state machines with values --------------------
  struct EnumRow {
    std::string name, file;
    const EnumSym* sym;
  };
  std::vector<EnumRow> enums;
  for (const EnumSym& e : idx.enums)
    enums.push_back({e.name, SchemaPath(idx.files[e.file].src->path), &e});
  std::sort(enums.begin(), enums.end(), [](const EnumRow& a, const EnumRow& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.file < b.file;
  });
  os << "  \"enums\": [\n";
  for (std::size_t i = 0; i < enums.size(); ++i) {
    os << "    {\"name\": \"";
    JsonEscape(os, enums[i].name);
    os << "\", \"file\": \"";
    JsonEscape(os, enums[i].file);
    os << "\", \"enumerators\": [";
    const auto& ens = enums[i].sym->enumerators;
    for (std::size_t j = 0; j < ens.size(); ++j) {
      os << "[\"";
      JsonEscape(os, ens[j].name);
      os << "\", ";
      if (ens[j].value_known)
        os << ens[j].value;
      else
        os << "null";
      os << "]" << (j + 1 < ens.size() ? ", " : "");
    }
    os << "]}" << (i + 1 < enums.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // ---- messages: ordered op sequence of every paired encode-side codec -----
  struct MsgRow {
    std::string name, encoder, file;
    const CodecDef* def;
  };
  std::vector<MsgRow> msgs;
  for (const CodecDef& c : idx.codecs) {
    if (c.verb != "Encode" && c.verb != "Write") continue;
    if (c.ops.empty()) continue;
    const std::string pair = c.verb == "Encode" ? "Decode" : "Read";
    bool paired = false;
    for (const CodecDef& d : idx.codecs)
      if (d.verb == pair && d.suffix == c.suffix && !d.ops.empty()) paired = true;
    if (!paired) continue;
    msgs.push_back({c.suffix, c.verb + c.suffix,
                    SchemaPath(idx.files[c.file].src->path), &c});
  }
  std::sort(msgs.begin(), msgs.end(), [](const MsgRow& a, const MsgRow& b) {
    if (a.name != b.name) return a.name < b.name;
    if (a.file != b.file) return a.file < b.file;
    return a.encoder < b.encoder;  // Encode* and Write* of one message
  });
  os << "  \"messages\": [\n";
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    os << "    {\"name\": \"";
    JsonEscape(os, msgs[i].name);
    os << "\", \"encoder\": \"";
    JsonEscape(os, msgs[i].encoder);
    os << "\", \"file\": \"";
    JsonEscape(os, msgs[i].file);
    os << "\", \"ops\": [";
    const auto& ops = msgs[i].def->ops;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      os << "\"";
      JsonEscape(os, ops[j]);
      os << "\"" << (j + 1 < ops.size() ? ", " : "");
    }
    os << "]}" << (i + 1 < msgs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace fargolint

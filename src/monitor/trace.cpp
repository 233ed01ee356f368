#include "src/monitor/trace.h"

#include <algorithm>
#include <cstring>

namespace fargo::monitor {

const char* ToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRoot:
      return "root";
    case SpanKind::kRetry:
      return "retry";
    case SpanKind::kHop:
      return "hop";
    case SpanKind::kExec:
      return "exec";
    case SpanKind::kMove:
      return "move";
    case SpanKind::kInstall:
      return "install";
    case SpanKind::kControl:
      return "control";
  }
  return "?";
}

const char* ToString(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kPending:
      return "pending";
    case SpanOutcome::kOk:
      return "ok";
    case SpanOutcome::kAppError:
      return "app_error";
    case SpanOutcome::kTransportError:
      return "transport_error";
    case SpanOutcome::kTimeout:
      return "timeout";
  }
  return "?";
}

void Span::SetName(std::string_view n) {
  const std::size_t len = std::min(n.size(), sizeof(name) - 1);
  std::memcpy(name, n.data(), len);
  name[len] = '\0';
}

std::string_view Span::name_view() const { return std::string_view(name); }

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::uint64_t TraceBuffer::Add(const Span& s) {
  if (ring_.empty()) ring_.resize(capacity_);
  const std::uint64_t token = next_token_++;
  Span& slot = ring_[token % capacity_];
  slot = s;
  slot.token = token;
  return token;
}

Span* TraceBuffer::Find(std::uint64_t token) {
  if (token == 0 || ring_.empty()) return nullptr;
  Span& slot = ring_[token % capacity_];
  return slot.token == token ? &slot : nullptr;
}

std::size_t TraceBuffer::size() const {
  return std::min<std::uint64_t>(total_added(), capacity_);
}

std::uint64_t TraceBuffer::evicted() const {
  return total_added() - size();
}

std::vector<Span> TraceBuffer::Snapshot() const {
  std::vector<Span> out;
  const std::size_t n = size();
  out.reserve(n);
  for (std::uint64_t token = next_token_ - n; token < next_token_; ++token) {
    const Span& slot = ring_[token % capacity_];
    if (slot.token == token) out.push_back(slot);
  }
  return out;
}

void TraceBuffer::Reset(std::size_t capacity) {
  if (capacity != 0) capacity_ = capacity;
  ring_ = {};
  next_token_ = 1;
}

Tracer::Opened Tracer::OpenSpan(SpanKind kind, std::string_view name,
                                const core::wire::TraceContext& parent,
                                SimTime now, std::uint32_t retry) {
  if (!enabled_) return Opened{0, parent};
  Span s;
  if (parent.valid()) {
    s.trace_id = parent.trace_id;
    s.parent_span = parent.span_id;
  } else {
    s.trace_id = MintId();
    ++traces_started_;
  }
  s.span_id = MintId();
  s.kind = kind;
  s.retry = retry;
  s.core = core_;
  s.begin = now;
  s.end = now;
  s.SetName(name);
  Opened opened;
  opened.token = buffer_.Add(s);
  opened.ctx = core::wire::TraceContext{s.trace_id, s.span_id, s.parent_span,
                                        retry};
  return opened;
}

void Tracer::CloseSpan(std::uint64_t token, SimTime now, SpanOutcome outcome,
                       int hops, std::uint64_t bytes) {
  Span* s = buffer_.Find(token);
  if (s == nullptr) return;  // disabled, or evicted by a wrap
  s->end = now;
  s->outcome = outcome;
  s->hops = hops;
  s->bytes = bytes;
}

Tracer::Opened Tracer::RecordInstant(SpanKind kind, std::string_view name,
                                     const core::wire::TraceContext& parent,
                                     SimTime now, std::uint32_t retry) {
  Opened opened = OpenSpan(kind, name, parent, now, retry);
  CloseSpan(opened.token, now, SpanOutcome::kOk);
  return opened;
}

namespace {

void JsonEscape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << ' ';  // control chars cannot appear raw in JSON strings
        else
          os << c;
    }
  }
}

}  // namespace

std::size_t WriteChromeTrace(
    std::ostream& os, const std::vector<std::vector<Span>>& per_core_spans,
    const std::vector<std::pair<CoreId, std::string>>& names) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Process-name metadata rows label each Core lane.
  for (const auto& [id, name] : names) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << id.value
       << ",\"args\":{\"name\":\"";
    JsonEscape(os, name);
    os << "\"}}";
  }
  std::size_t events = 0;
  for (const std::vector<Span>& spans : per_core_spans) {
    for (const Span& s : spans) {
      if (!first) os << ",";
      first = false;
      ++events;
      // SimTime is ns; Chrome trace ts/dur are microseconds.
      const double ts = static_cast<double>(s.begin) / 1e3;
      const double dur =
          static_cast<double>(s.end > s.begin ? s.end - s.begin : 0) / 1e3;
      os << "{\"name\":\"";
      JsonEscape(os, ToString(s.kind));
      if (s.name[0] != '\0') {
        os << ":";
        JsonEscape(os, s.name_view());
      }
      os << "\",\"cat\":\"" << ToString(s.kind) << "\",\"ph\":\"X\",\"ts\":"
         << ts << ",\"dur\":" << dur << ",\"pid\":" << s.core.value
         << ",\"tid\":" << s.trace_id << ",\"args\":{\"trace\":" << s.trace_id
         << ",\"span\":" << s.span_id << ",\"parent\":" << s.parent_span
         << ",\"retry\":" << s.retry << ",\"hops\":" << s.hops
         << ",\"bytes\":" << s.bytes << ",\"outcome\":\""
         << ToString(s.outcome) << "\"}}";
    }
  }
  os << "]}";
  return events;
}

}  // namespace fargo::monitor

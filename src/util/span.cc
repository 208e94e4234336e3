#include "util/span.h"

#include <algorithm>

#include "util/check.h"

namespace mar {

std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::hop: return "hop";
    case SpanKind::queue_wait: return "queue_wait";
    case SpanKind::lock_wait: return "lock_wait";
    case SpanKind::step_exec: return "step_exec";
    case SpanKind::commit_flush: return "commit_flush";
    case SpanKind::convoy_wait: return "convoy_wait";
    case SpanKind::wire: return "wire";
    case SpanKind::apply: return "apply";
    case SpanKind::recovery_replay: return "recovery_replay";
  }
  return "?";
}

namespace {
// Notes are short ASCII ("steps=3"); escape just enough to keep the
// JSONL well-formed if one ever carries a quote or control byte.
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

void Span::write_jsonl(std::ostream& os) const {
  os << "{\"trace_id\": " << trace_id << ", \"span_id\": " << span_id
     << ", \"parent\": " << parent << ", \"kind\": \"" << to_string(kind)
     << "\", \"node\": " << node << ", \"agent\": " << agent
     << ", \"begin_us\": " << begin_us << ", \"end_us\": " << end_us
     << ", \"note\": \"" << escape(note) << "\"}\n";
}

void SpanSink::record(Span span) {
  if (!enabled_) return;
  if (span.node >= rings_.size()) rings_.resize(span.node + 1);
  auto& ring = rings_[span.node];
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(std::move(span));
  } else {
    // Full: overwrite the oldest slot in place — no allocation.
    ring.buf[ring.head] = std::move(span);
    ring.head = (ring.head + 1) % ring.buf.size();
  }
}

void SpanSink::add(std::uint64_t trace_id, std::uint64_t span_id,
                   std::uint64_t parent, SpanKind kind, std::uint32_t node,
                   std::uint64_t agent, std::uint64_t begin_us,
                   std::uint64_t end_us, std::string note) {
  record(Span{.trace_id = trace_id,
              .span_id = span_id != 0 ? span_id : next_id(),
              .parent = parent, .kind = kind, .node = node, .agent = agent,
              .begin_us = begin_us, .end_us = end_us, .note = std::move(note)});
}

void SpanSink::set_capacity(std::size_t cap) {
  // A ring of zero slots has nowhere to put a span; span_tracing = false
  // is how recording is turned off.
  MAR_CHECK_MSG(cap > 0, "span ring capacity must be at least 1");
  capacity_ = cap;
  rings_.clear();
}

void SpanSink::append_in_order(const Ring& ring, std::vector<Span>& out) {
  for (std::size_t i = ring.head; i < ring.buf.size(); ++i)
    out.push_back(ring.buf[i]);
  for (std::size_t i = 0; i < ring.head; ++i) out.push_back(ring.buf[i]);
}

std::size_t SpanSink::size() const {
  std::size_t n = 0;
  for (const Ring& ring : rings_) n += ring.buf.size();
  return n;
}

std::size_t SpanSink::count(SpanKind kind) const {
  std::size_t n = 0;
  for (const Ring& ring : rings_)
    for (const Span& s : ring.buf)
      if (s.kind == kind) ++n;
  return n;
}

std::vector<Span> SpanSink::spans() const {
  std::vector<Span> out;
  for (const Ring& ring : rings_) append_in_order(ring, out);
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.span_id < b.span_id; });
  return out;
}

std::vector<Span> SpanSink::of_kind(SpanKind kind) const {
  std::vector<Span> out;
  for (Span& s : spans())
    if (s.kind == kind) out.push_back(std::move(s));
  return out;
}

void SpanSink::dump(std::ostream& os) const {
  for (const Span& s : spans()) s.write_jsonl(os);
}

void SpanSink::dump_node(std::uint32_t node, std::string_view reason,
                         std::uint64_t time_us, std::ostream& os) const {
  std::vector<Span> ours;
  if (node < rings_.size()) append_in_order(rings_[node], ours);
  std::sort(ours.begin(), ours.end(),
            [](const Span& a, const Span& b) { return a.span_id < b.span_id; });
  os << "{\"event\": \"flight_dump\", \"node\": " << node << ", \"reason\": \""
     << escape(reason) << "\", \"time_us\": " << time_us
     << ", \"spans\": " << ours.size() << "}\n";
  for (const Span& s : ours) s.write_jsonl(os);
}

void SpanSink::clear() {
  rings_.clear();
  next_id_ = 1;
}

}  // namespace mar

#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>

#include "common/clock.h"

namespace arkfs::obs {

namespace {

std::atomic<std::uint64_t> g_next_id{1};

thread_local ActiveTrace t_active;

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::uint64_t Tracer::NewId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(SpanRecord rec) {
  std::lock_guard lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
    next_ = ring_.size() % capacity_;
    return;
  }
  ring_[next_] = std::move(rec);
  next_ = (next_ + 1) % capacity_;
  wrapped_ = true;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (wrapped_ && ring_.size() == capacity_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out = ring_;
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
}

std::string Tracer::FormatText(const std::vector<SpanRecord>& spans) {
  std::vector<SpanRecord> sorted = spans;
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  std::map<std::uint64_t, int> depth;
  std::ostringstream out;
  std::uint64_t cur_trace = 0;
  for (const SpanRecord& s : sorted) {
    if (s.trace_id != cur_trace) {
      cur_trace = s.trace_id;
      out << "trace " << cur_trace << "\n";
    }
    int d = 0;
    auto it = depth.find(s.parent_span);
    if (it != depth.end()) d = it->second + 1;
    depth[s.span_id] = d;
    out << "  ";
    for (int i = 0; i < d; ++i) out << "  ";
    out << s.name << " span=" << s.span_id << " parent=" << s.parent_span
        << " dur=" << (s.end_ns - s.start_ns) << "ns\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Thread-local active trace + RAII scopes
// ---------------------------------------------------------------------------

ActiveTrace CaptureTrace() { return t_active; }

TraceContext CurrentContext() { return t_active.ctx; }

std::uint32_t CurrentTenant() { return t_active.ctx.tenant; }

TraceScope::TraceScope(Tracer* tracer, TraceContext ctx) : prev_(t_active) {
  t_active = ActiveTrace{tracer, ctx};
}

TraceScope::~TraceScope() { t_active = prev_; }

TenantScope::TenantScope(std::uint32_t tenant) : prev_(t_active.ctx.tenant) {
  t_active.ctx.tenant = tenant;
}

TenantScope::~TenantScope() { t_active.ctx.tenant = prev_; }

Span::Span(const char* name) {
  if (!t_active.active()) return;
  tracer_ = t_active.tracer;
  rec_.trace_id = t_active.ctx.trace_id;
  rec_.parent_span = t_active.ctx.parent_span;
  rec_.span_id = Tracer::NewId();
  rec_.start_ns = NowNanos();
  rec_.name = name;
  prev_parent_ = t_active.ctx.parent_span;
  t_active.ctx.parent_span = rec_.span_id;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  t_active.ctx.parent_span = prev_parent_;
  rec_.end_ns = NowNanos();
  tracer_->Record(std::move(rec_));
}

RootSpan::RootSpan(Tracer* tracer, const char* name) {
  if (t_active.active()) {
    // Nested entry (convenience wrapper, in-process forwarded op): keep the
    // caller's trace and just add a child span.
    tracer_ = t_active.tracer;
    rec_.trace_id = t_active.ctx.trace_id;
    rec_.parent_span = t_active.ctx.parent_span;
    prev_ = t_active;
    rec_.span_id = Tracer::NewId();
    rec_.start_ns = NowNanos();
    rec_.name = name;
    t_active.ctx.parent_span = rec_.span_id;
    return;
  }
  if (tracer == nullptr) return;
  tracer_ = tracer;
  rooted_ = true;
  rec_.trace_id = Tracer::NewId();
  rec_.parent_span = 0;
  rec_.span_id = Tracer::NewId();
  rec_.start_ns = NowNanos();
  rec_.name = name;
  prev_ = t_active;
  // Rooting a fresh trace must not drop the ambient tenant: the TenantScope
  // a Vfs entry point installs outlives this RootSpan.
  t_active = ActiveTrace{
      tracer_, TraceContext{rec_.trace_id, rec_.span_id, prev_.ctx.tenant}};
}

RootSpan::~RootSpan() {
  if (tracer_ == nullptr) return;
  if (rooted_) {
    t_active = prev_;
  } else {
    t_active.ctx.parent_span = rec_.parent_span;
  }
  rec_.end_ns = NowNanos();
  tracer_->Record(std::move(rec_));
}

}  // namespace arkfs::obs

// Request-scoped tracing spine.
//
// A TraceContext{trace_id, parent_span} is rooted at the Vfs entry point
// (RootSpan) and rides along with the request: in-process it travels as a
// thread-local active trace (the RPC fabric runs handlers on the caller
// thread, so same-process hops inherit it for free); across wire hops it is
// carried as two u64 fields in the request frame, next to the fence token,
// and the receiving side re-installs it with a TraceScope around the
// handler. Work handed to background threads (journal group commits,
// AsyncObjectIo workers) captures the active trace at submit time and
// restores it inside the worker, so a deferred commit still lands in the
// trace of the op that opened the transaction.
//
// Spans are RAII: constructing a Span under an active trace allocates a
// span id, re-parents nested spans to it, and on destruction appends a
// SpanRecord to the owning Tracer's bounded ring buffer (oldest spans are
// overwritten; the default ring keeps the last 1024 spans per client).
// Without an active trace every Span/TraceScope is a no-op, so traced code
// paths cost nothing when nobody is looking.
//
// Vfs::Introspect() hands the ring back as typed SpanRecords, and
// Tracer::FormatText renders them (that is what `arkfs_cli introspect`
// prints). Spans have no serialized form.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace arkfs::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = no trace
  std::uint64_t parent_span = 0;
  // Requesting tenant (0 = default/untenanted). Rides in the thread-local
  // context exactly like the trace id — across wire hops it travels as a
  // trailing-extension field next to the fence token, and background workers
  // inherit it through the same CaptureTrace/TraceScope hand-off — so QoS
  // enforcement points (admission, fair queueing, quotas) can always answer
  // "whose request is this?" without threading a parameter through every
  // layer. Deliberately independent of active(): an untraced request still
  // carries its tenant.
  std::uint32_t tenant = 0;

  bool active() const { return trace_id != 0; }
};

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  // 0 = root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string name;
};

// Bounded per-client span ring. Thread-safe.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  // Globally unique (per process) id; used for both trace and span ids.
  static std::uint64_t NewId();

  void Record(SpanRecord rec);
  std::vector<SpanRecord> Spans() const;  // oldest first
  void Clear();
  std::size_t capacity() const { return capacity_; }

  // Pretty-print: one line per span, grouped by trace, indented by depth.
  static std::string FormatText(const std::vector<SpanRecord>& spans);

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
};

// The thread's active trace: which ring to record into, and where in the
// span tree we are.
struct ActiveTrace {
  Tracer* tracer = nullptr;
  TraceContext ctx;

  bool active() const { return tracer != nullptr && ctx.active(); }
};

// Captures the calling thread's active trace for replay on another thread
// (the journal flusher, async I/O workers).
ActiveTrace CaptureTrace();
// The calling thread's current context ({0,0} when untraced) — what wire
// frames embed.
TraceContext CurrentContext();
// The calling thread's ambient tenant (0 = default/untenanted).
std::uint32_t CurrentTenant();

// Installs {tracer, ctx} as the thread's active trace; restores the
// previous one on destruction. Installing an inactive context effectively
// suspends tracing for the scope.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, TraceContext ctx);
  explicit TraceScope(const ActiveTrace& capture)
      : TraceScope(capture.tracer, capture.ctx) {}
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  ActiveTrace prev_;
};

// Sets the thread's ambient tenant for the scope (keeping the trace intact);
// restores the previous tenant on destruction. Vfs entry points install one
// from the client's configured tenant; the serving side of a forwarded op
// gets the tenant re-installed by the TraceScope built from the wire frame.
class TenantScope {
 public:
  explicit TenantScope(std::uint32_t tenant);
  ~TenantScope();
  TenantScope(const TenantScope&) = delete;
  TenantScope& operator=(const TenantScope&) = delete;

 private:
  std::uint32_t prev_ = 0;
};

// A child span of the thread's active trace; no-op when none is active.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
  std::uint64_t prev_parent_ = 0;
};

// Vfs entry point: roots a fresh trace on `tracer` — unless the thread
// already has an active trace (convenience wrappers calling the primitive
// op, forwarded ops served in-process), in which case it nests as a plain
// child span so the whole request keeps one trace id.
class RootSpan {
 public:
  RootSpan(Tracer* tracer, const char* name);
  ~RootSpan();
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

  std::uint64_t trace_id() const { return rec_.trace_id; }

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
  bool rooted_ = false;
  ActiveTrace prev_;
};

}  // namespace arkfs::obs

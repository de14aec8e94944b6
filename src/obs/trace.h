#ifndef GPUTC_OBS_TRACE_H_
#define GPUTC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/deadline.h"
#include "util/status.h"

namespace gputc {

// Tracing spans for the counting pipeline. A Span is an RAII handle: it
// measures wall-clock time between construction and Finish() (or
// destruction) and records itself into its Tracer together with a trace id,
// a parent span id, and key:value attributes. The design rule for hot paths
// is *poll, don't allocate*: spans are opened at stage granularity (load,
// validate, direct, order, count, one per fallback attempt, one per A-order
// bucket pass) — never per block, per vertex, or per arc, where the existing
// ExecContext poll already visits. An inert Span (no tracer) is two pointer
// stores, so instrumented code runs untraced at effectively zero cost.

/// One finished span. Times are microseconds relative to the tracer's epoch
/// (steady clock), so a trace file is self-consistent even across threads.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace.
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  /// Small stable id of the recording thread (first-use order), used as the
  /// Chrome trace "tid" so Perfetto lanes match worker threads.
  int thread_id = 0;
  /// Attributes in insertion order. Values are preformatted strings; numeric
  /// setters format once at set time so export never re-parses.
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Process-unique, never-zero trace id: a per-process random salt mixed with
/// a monotonic counter, so ids from concurrent services do not collide and a
/// journal line's id is unique within (and practically across) runs.
uint64_t GenerateTraceId();

/// 16-digit lower-case hex rendering used by the journal and exporters.
std::string TraceIdHex(uint64_t trace_id);

/// Appends `s` as JSON string content (quotes, backslashes and control
/// characters escaped): the escaping of the trace export and the journal.
void AppendJsonEscaped(std::string& out, std::string_view s);

class Tracer;

/// RAII span handle. Default-constructed spans are inert: every method is a
/// cheap no-op, which is how untraced runs pay nothing. Move-only.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { Finish(); }

  /// Records the span into its tracer. Idempotent; the destructor calls it.
  void Finish();

  void SetAttr(std::string_view key, std::string_view value);
  void SetAttr(std::string_view key, const char* value) {
    SetAttr(key, std::string_view(value));
  }
  void SetAttr(std::string_view key, int64_t value);
  void SetAttr(std::string_view key, double value);
  /// Records "status" = code string for a non-OK status; no-op on OK.
  void SetStatus(const Status& status);

  bool active() const { return tracer_ != nullptr; }
  uint64_t id() const { return record_.span_id; }
  uint64_t trace_id() const { return record_.trace_id; }

 private:
  friend class Tracer;
  Tracer* tracer_ = nullptr;
  SpanRecord record_;
};

/// Thread-safe collector of finished spans plus the exporters. Writers only
/// touch the tracer on Finish() (one lock + one vector push per span);
/// in-progress spans live on the opener's stack.
class Tracer {
 public:
  Tracer();
  /// Injectable microsecond clock for deterministic tests (golden Chrome
  /// traces need stable ts/dur values).
  explicit Tracer(std::function<int64_t()> clock_us);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewTraceId() const { return GenerateTraceId(); }

  /// Opens a span under (`trace_id`, `parent_id`). parent_id 0 makes a root.
  Span StartSpan(std::string_view name, uint64_t trace_id,
                 uint64_t parent_id = 0);

  /// Microseconds since the tracer's epoch (or the injected clock's value).
  int64_t NowMicros() const { return clock_(); }

  /// Copy of every finished span, in completion order.
  std::vector<SpanRecord> Snapshot() const;
  size_t size() const;

  /// Chrome trace-event JSON ("X" complete events), loadable in
  /// chrome://tracing and Perfetto. Span/trace/parent ids land in "args".
  std::string ChromeTraceJson() const;

 private:
  friend class Span;
  void Record(SpanRecord record);

  std::function<int64_t()> clock_;
  std::atomic<uint64_t> next_span_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Opens a span as a child of `ctx`'s current span on `ctx`'s tracer; inert
/// when the context carries no tracer. This is the one-liner the pipeline
/// stages and counters use, so instrumentation never branches by hand.
Span StartSpan(const ExecContext& ctx, std::string_view name);

/// Copy of `ctx` re-parented under `span`, for handing to a callee whose
/// spans should nest inside it. When `span` is inert the copy is unchanged.
ExecContext WithSpan(const ExecContext& ctx, const Span& span);

}  // namespace gputc

#endif  // GPUTC_OBS_TRACE_H_

#include "obs/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <random>

namespace gputc {
namespace {

/// Stable small per-thread id, assigned in first-use order. The Chrome trace
/// "tid" field wants small integers, not opaque std::thread::id hashes.
int CurrentThreadId() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

uint64_t GenerateTraceId() {
  // The salt decorrelates concurrent processes; the counter guarantees
  // uniqueness within one. The low bit is forced so an id is never 0.
  static const uint64_t salt = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<uint64_t> next{1};
  const uint64_t n = next.fetch_add(1, std::memory_order_relaxed);
  // SplitMix64-style finalizer spreads the counter over the word.
  uint64_t z = salt + n * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1ull;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, trace_id);
  return buf;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    Finish();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::Finish() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  record_.dur_us = tracer->NowMicros() - record_.start_us;
  record_.thread_id = CurrentThreadId();
  tracer->Record(std::move(record_));
}

void Span::SetAttr(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  record_.attrs.emplace_back(std::string(key), std::string(value));
}

void Span::SetAttr(std::string_view key, int64_t value) {
  if (tracer_ == nullptr) return;
  record_.attrs.emplace_back(std::string(key), std::to_string(value));
}

void Span::SetAttr(std::string_view key, double value) {
  if (tracer_ == nullptr) return;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  record_.attrs.emplace_back(std::string(key), buf);
}

void Span::SetStatus(const Status& status) {
  if (tracer_ == nullptr || status.ok()) return;
  SetAttr("status", StatusCodeName(status.code()));
}

Tracer::Tracer() {
  const auto epoch = std::chrono::steady_clock::now();
  clock_ = [epoch] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  };
}

Tracer::Tracer(std::function<int64_t()> clock_us) : clock_(std::move(clock_us)) {}

Span Tracer::StartSpan(std::string_view name, uint64_t trace_id,
                       uint64_t parent_id) {
  Span span;
  span.tracer_ = this;
  span.record_.trace_id = trace_id;
  span.record_.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  span.record_.parent_id = parent_id;
  span.record_.name = std::string(name);
  span.record_.start_us = NowMicros();
  return span;
}

void Tracer::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"";
    AppendJsonEscaped(out, s.name);
    out += "\",\"cat\":\"gputc\",\"ph\":\"X\",\"ts\":" +
           std::to_string(s.start_us) + ",\"dur\":" + std::to_string(s.dur_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(s.thread_id) + ",\"args\":{";
    out += "\"trace_id\":\"" + TraceIdHex(s.trace_id) + "\"";
    out += ",\"span_id\":" + std::to_string(s.span_id);
    out += ",\"parent_id\":" + std::to_string(s.parent_id);
    for (const auto& [key, value] : s.attrs) {
      out += ",\"";
      AppendJsonEscaped(out, key);
      out += "\":\"";
      AppendJsonEscaped(out, value);
      out += "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

Span StartSpan(const ExecContext& ctx, std::string_view name) {
  if (ctx.tracer == nullptr) return Span();
  return ctx.tracer->StartSpan(name, ctx.trace_id, ctx.parent_span);
}

ExecContext WithSpan(const ExecContext& ctx, const Span& span) {
  ExecContext child = ctx;
  if (span.active()) {
    child.trace_id = span.trace_id();
    child.parent_span = span.id();
  }
  return child;
}

}  // namespace gputc

// Tests for the observability layer: metric primitives under concurrency,
// span mechanics and nesting, the three exporters (Prometheus text, JSON,
// Chrome trace events), and the batch service's per-request trace plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch_service.h"
#include "util/deadline.h"
#include "report_log.h"

namespace gputc {
namespace {

// -- metric primitives ------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("obs_test_total", "help");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5);
  // Same (name, labels) resolves to the same series.
  EXPECT_EQ(&registry.GetCounter("obs_test_total", "help"), &c);

  Gauge& g = registry.GetGauge("obs_test_gauge", "help");
  g.Set(2.5);
  g.Add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(MetricsTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("obs_labeled_total", "help",
                                   {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.GetCounter("obs_labeled_total", "help",
                                   {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& other =
      registry.GetCounter("obs_labeled_total", "help", {{"a", "2"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsTest, HistogramBucketsValuesCorrectly) {
  MetricsRegistry registry;
  HistogramMetric& h =
      registry.GetHistogram("obs_hist", "help", 0.0, 10.0, 5);
  h.Observe(-1.0);  // Below lo clamps into the first bucket.
  h.Observe(0.0);
  h.Observe(3.0);
  h.Observe(9.99);
  h.Observe(10.0);  // >= hi lands in the overflow bucket.
  h.Observe(1e9);
  const HistogramMetric::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.counts.size(), 6u);
  EXPECT_EQ(snap.counts[0], 2);  // -1 and 0.
  EXPECT_EQ(snap.counts[1], 1);  // 3.
  EXPECT_EQ(snap.counts[4], 1);  // 9.99.
  EXPECT_EQ(snap.counts[5], 2);  // 10 and 1e9 overflow.
  EXPECT_EQ(snap.count, 6);
  EXPECT_DOUBLE_EQ(h.UpperEdge(0), 2.0);
  EXPECT_DOUBLE_EQ(h.UpperEdge(4), 10.0);
}

// Eight threads hammer one histogram while a reader keeps snapshotting: the
// snapshot invariant (count == sum of buckets) must hold at every instant,
// and the final snapshot must account for every observation exactly.
TEST(MetricsTest, HistogramSnapshotsStayCoherentUnderConcurrency) {
  MetricsRegistry registry;
  HistogramMetric& h =
      registry.GetHistogram("obs_concurrent_ms", "help", 0.0, 100.0, 10);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>((t * 31 + i) % 120));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent snapshots: coherent by construction, monotone in count.
  int64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const HistogramMetric::Snapshot snap = h.TakeSnapshot();
    const int64_t bucket_sum =
        std::accumulate(snap.counts.begin(), snap.counts.end(), int64_t{0});
    EXPECT_EQ(snap.count, bucket_sum);
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
  }
  for (std::thread& w : writers) w.join();
  const HistogramMetric::Snapshot final_snap = h.TakeSnapshot();
  EXPECT_EQ(final_snap.count, int64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, ManyThreadsResolvingSeriesConcurrently) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry
            .GetCounter("obs_race_total", "help",
                        {{"shard", std::to_string(i % 4)}})
            .Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (const MetricSample& s : registry.Snapshot()) total += s.counter_value;
  EXPECT_EQ(total, kThreads * 1000);
}

// -- exporters --------------------------------------------------------------

TEST(MetricsTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.GetCounter("alpha_total", "Alpha things", {{"kind", "x"}})
      .Increment(3);
  registry.GetGauge("beta_ratio", "Beta level").Set(0.5);
  HistogramMetric& h = registry.GetHistogram("gamma_ms", "Gamma latency",
                                             0.0, 4.0, 2);
  h.Observe(1.0);
  h.Observe(3.0);
  h.Observe(9.0);
  const std::string expected =
      "# HELP alpha_total Alpha things\n"
      "# TYPE alpha_total counter\n"
      "alpha_total{kind=\"x\"} 3\n"
      "# HELP beta_ratio Beta level\n"
      "# TYPE beta_ratio gauge\n"
      "beta_ratio 0.5\n"
      "# HELP gamma_ms Gamma latency\n"
      "# TYPE gamma_ms histogram\n"
      "gamma_ms_bucket{le=\"2\"} 1\n"
      "gamma_ms_bucket{le=\"4\"} 2\n"
      "gamma_ms_bucket{le=\"+Inf\"} 3\n"
      "gamma_ms_sum 13\n"
      "gamma_ms_count 3\n";
  EXPECT_EQ(registry.PrometheusText(), expected);
}

TEST(MetricsTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("alpha_total", "Alpha things", {{"kind", "x"}})
      .Increment(3);
  HistogramMetric& h =
      registry.GetHistogram("gamma_ms", "Gamma latency", 0.0, 4.0, 2);
  h.Observe(1.0);
  h.Observe(9.0);
  const std::string expected =
      "{\"metrics\":["
      "{\"name\":\"alpha_total\",\"type\":\"counter\","
      "\"labels\":{\"kind\":\"x\"},\"value\":3},"
      "{\"name\":\"gamma_ms\",\"type\":\"histogram\",\"labels\":{},"
      "\"histogram\":{\"lo\":0,\"hi\":4,\"counts\":[1,0,1],"
      "\"count\":2,\"sum\":10}}"
      "]}";
  EXPECT_EQ(registry.Json(), expected);
}

// -- spans ------------------------------------------------------------------

TEST(TraceTest, GeneratedTraceIdsAreUniqueAndNonZero) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t id = GenerateTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(TraceIdHex(0xabcdef).size(), 16u);
  EXPECT_EQ(TraceIdHex(0xabcdef), "0000000000abcdef");
}

TEST(TraceTest, InertSpanIsHarmless) {
  Span span;
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.SetAttr("key", "value");
  span.SetAttr("n", int64_t{7});
  span.Finish();  // No tracer: all of this must be a no-op.
}

TEST(TraceTest, SpansRecordNestingAndAttrs) {
  Tracer tracer;
  const uint64_t trace_id = tracer.NewTraceId();
  {
    Span root = tracer.StartSpan("root", trace_id);
    EXPECT_TRUE(root.active());
    Span child = tracer.StartSpan("child", trace_id, root.id());
    child.SetAttr("key", "value");
    child.SetAttr("n", int64_t{42});
    child.Finish();
    root.Finish();
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Completion order: child finished first.
  EXPECT_EQ(spans[0].name, "child");
  EXPECT_EQ(spans[1].name, "root");
  EXPECT_EQ(spans[0].trace_id, trace_id);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_NE(spans[0].span_id, spans[1].span_id);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[0].first, "key");
  EXPECT_EQ(spans[0].attrs[0].second, "value");
  EXPECT_EQ(spans[0].attrs[1].second, "42");
}

TEST(TraceTest, MoveTransfersOwnershipWithoutDoubleRecord) {
  Tracer tracer;
  {
    Span a = tracer.StartSpan("moved", tracer.NewTraceId());
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): testing it.
    EXPECT_TRUE(b.active());
  }
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(TraceTest, DestructorFinishesUnfinishedSpans) {
  Tracer tracer;
  { Span s = tracer.StartSpan("raii", tracer.NewTraceId()); }
  EXPECT_EQ(tracer.size(), 1u);
  // Finish is idempotent: an explicit Finish before destruction records once.
  {
    Span s = tracer.StartSpan("explicit", tracer.NewTraceId());
    s.Finish();
    s.Finish();
  }
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(TraceTest, ExecContextHelpersThreadTheTracer) {
  Tracer tracer;
  ExecContext ctx;
  // Without a tracer the helper returns inert spans.
  EXPECT_FALSE(StartSpan(ctx, "nothing").active());

  ctx.tracer = &tracer;
  ctx.trace_id = tracer.NewTraceId();
  Span outer = StartSpan(ctx, "outer");
  const ExecContext inner_ctx = WithSpan(ctx, outer);
  EXPECT_EQ(inner_ctx.parent_span, outer.id());
  Span inner = StartSpan(inner_ctx, "inner");
  inner.Finish();
  outer.Finish();
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
}

TEST(TraceTest, ChromeTraceJsonGoldenWithInjectedClock) {
  // A fake clock makes ts/dur deterministic: spans see the clock at open
  // and at Finish, so the sequence below pins start=100, dur=150.
  int64_t now = 100;
  Tracer tracer([&now] {
    const int64_t t = now;
    now += 150;
    return t;
  });
  Span span = tracer.StartSpan("alpha", 0xab);
  span.SetAttr("phase", "one");
  span.Finish();
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("{\"traceEvents\":[{\"name\":\"alpha\",\"cat\":\"gputc\","
                      "\"ph\":\"X\",\"ts\":100,\"dur\":150,\"pid\":1,\"tid\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"trace_id\":\"00000000000000ab\","
                      "\"span_id\":1,\"parent_id\":0,\"phase\":\"one\"}}]}"),
            std::string::npos)
      << json;
}

// -- batch service integration ---------------------------------------------

BatchRequest GenRequest(int index) {
  BatchRequest request;
  request.id = std::to_string(index) + ":gen:er";
  request.source = "gen:er:seed=" + std::to_string(index);
  request.kind = BatchRequest::Kind::kGenerate;
  request.target = "er";
  request.params = {{"nodes", "200"},
                    {"edges", "600"},
                    {"seed", std::to_string(index)}};
  return request;
}

TEST(ObsServiceTest, EveryJournalLineCarriesAUniqueTraceIdWithASpanTree) {
  Tracer tracer;
  BatchServiceOptions options;
  options.jobs = 3;
  options.queue_depth = 8;
  options.tracer = &tracer;
  BatchService service(options);
  const ReportLog journal(service);
  service.Start();
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) service.Submit(GenRequest(i));
  service.Finish();
  const std::vector<RequestReport> reports = journal.reports();
  ASSERT_EQ(reports.size(), static_cast<size_t>(kRequests));

  std::set<uint64_t> ids;
  for (const RequestReport& report : reports) {
    EXPECT_NE(report.trace_id, 0u) << report.id;
    EXPECT_TRUE(ids.insert(report.trace_id).second)
        << "trace id reused by " << report.id;
    // The JSONL line carries the id and the stage-timing block.
    const std::string json = report.ToJson();
    EXPECT_NE(json.find("\"trace_id\":\"" + TraceIdHex(report.trace_id) + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"timings\":{\"queue_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"materialize_ms\":"), std::string::npos);
  }

  // Reconstruct each trace's span tree: one "request" root whose children
  // cover admit -> execute -> journal, with the executor's attempt (and the
  // pipeline stages under it) threaded below "execute".
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  for (const RequestReport& report : reports) {
    std::vector<const SpanRecord*> mine;
    for (const SpanRecord& s : spans) {
      if (s.trace_id == report.trace_id) mine.push_back(&s);
    }
    ASSERT_FALSE(mine.empty()) << report.id;
    const SpanRecord* root = nullptr;
    std::set<std::string> child_names;
    std::map<uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord* s : mine) by_id[s->span_id] = s;
    for (const SpanRecord* s : mine) {
      if (s->name == "request") {
        EXPECT_EQ(s->parent_id, 0u);
        root = s;
      }
    }
    ASSERT_NE(root, nullptr) << report.id;
    for (const SpanRecord* s : mine) {
      if (s->parent_id == root->span_id) child_names.insert(s->name);
    }
    EXPECT_EQ(child_names.count("admit"), 1u) << report.id;
    EXPECT_EQ(child_names.count("execute"), 1u) << report.id;
    EXPECT_EQ(child_names.count("journal"), 1u) << report.id;
    // Every span in the trace reaches the root by walking parents.
    for (const SpanRecord* s : mine) {
      const SpanRecord* cursor = s;
      int hops = 0;
      while (cursor->parent_id != 0 && hops++ < 64) {
        auto it = by_id.find(cursor->parent_id);
        ASSERT_NE(it, by_id.end())
            << report.id << ": span '" << s->name << "' has a dangling parent";
        cursor = it->second;
      }
      EXPECT_EQ(cursor->span_id, root->span_id)
          << report.id << ": span '" << s->name << "' not under the root";
    }
  }
}

}  // namespace
}  // namespace gputc

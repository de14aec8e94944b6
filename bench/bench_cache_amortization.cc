// Preprocessing-cache amortization: the same manifest of graph files — a few
// distinct graphs, each requested several times — pushed through the
// BatchService cold (no cache) and warm (pre-filled in-memory cache), at
// jobs = 1, 4, 8. There is no paper counterpart; the cache is service
// infrastructure around the paper's pipeline. The claim under measurement is
// the one the README makes: when the workload repeats graphs, a warm cache
// amortizes ordering + direction + calibration down to a fingerprint lookup,
// and warm throughput is a multiple of cold. Writes BENCH_cache.json.
//
// The graphs are large sparse ER (cheap binary load, few triangles) so the
// per-request cost is dominated by preprocessing — the regime the cache is
// for. Dense repeat-heavy workloads land closer to 1x because counting,
// which the cache cannot skip, dominates.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/prep_cache.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "service/batch_service.h"
#include "util/stats.h"

namespace gputc {
namespace bench {
namespace {

constexpr int kDistinctGraphs = 4;
constexpr int kRepeats = 6;  // 24 requests over 4 graphs.
constexpr VertexId kNodes = 400000;
constexpr EdgeCount kEdges = 200000;
constexpr int kTrials = 3;  // Best-of, to shed scheduler noise.

struct ConfigResult {
  int jobs = 0;
  double cold_rps = 0.0;
  double warm_rps = 0.0;
  double speedup = 0.0;
  double cold_p50_ms = 0.0;
  double warm_p50_ms = 0.0;
};

/// Writes the distinct graphs as binary files once, up front; returns their
/// paths. Binary load is a checksummed read — milliseconds — so per-request
/// cost is preprocessing, not materialization.
std::vector<std::string> WriteGraphFiles() {
  std::vector<std::string> paths;
  for (int g = 0; g < kDistinctGraphs; ++g) {
    const Graph graph =
        GenerateErdosRenyi(kNodes, kEdges, static_cast<uint64_t>(g + 1));
    const std::string path =
        "BENCH_cache_graph_" + std::to_string(g) + ".bin";
    if (!SaveBinary(graph, path)) {
      std::cerr << "fatal: cannot write " << path << "\n";
      std::exit(1);
    }
    paths.push_back(path);
  }
  return paths;
}

/// Repeated-graph workload: each file requested kRepeats times under a
/// distinct request id. Identical bytes mean repeats share one cache
/// fingerprint.
std::vector<BatchRequest> MakeWorkload(const std::vector<std::string>& paths) {
  std::vector<BatchRequest> requests;
  requests.reserve(kDistinctGraphs * kRepeats);
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (int g = 0; g < kDistinctGraphs; ++g) {
      BatchRequest request;
      request.id = std::to_string(repeat * kDistinctGraphs + g) +
                   ":file:" + paths[static_cast<size_t>(g)];
      request.source = "file:" + paths[static_cast<size_t>(g)];
      request.kind = BatchRequest::Kind::kFile;
      request.target = paths[static_cast<size_t>(g)];
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

struct RunStats {
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
};

RunStats RunOnce(int jobs, PrepCache* cache,
                 const std::vector<std::string>& paths) {
  BatchServiceOptions options;
  options.jobs = jobs;
  options.queue_depth = kDistinctGraphs * kRepeats;
  options.prep_cache = cache;
  BatchService service(options);

  LatencyRecorder latencies;
  service.set_on_report(
      [&](const RequestReport& report) { latencies.Record(report.exec_ms); });

  const auto started = std::chrono::steady_clock::now();
  service.Start();
  for (BatchRequest& request : MakeWorkload(paths)) {
    service.Submit(std::move(request));
  }
  const BatchSummary summary = service.Finish();
  const auto finished = std::chrono::steady_clock::now();

  if (!summary.AllSucceeded()) {
    std::cerr << "warning: " << summary.CountOutcome(RequestOutcome::kFailed)
              << " failed requests perturb this measurement\n";
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(finished - started).count();
  RunStats stats;
  stats.requests_per_sec =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(summary.Total()) / wall_ms
                    : 0.0;
  stats.p50_ms = latencies.PercentileValue(50.0);
  return stats;
}

void Main() {
  PrintHeader("Cache amortization",
              "BatchService req/s on a repeated-graph workload, cold (no "
              "cache) vs warm (pre-filled cache), by worker count");

  const std::vector<std::string> paths = WriteGraphFiles();

  // One shared in-memory cache, warmed by a throwaway run so every measured
  // warm request is a pure hit.
  PrepCache cache(kDefaultPrepCacheBytes, /*store=*/nullptr);
  (void)RunOnce(/*jobs=*/4, &cache, paths);

  std::vector<ConfigResult> results;
  for (int jobs : {1, 4, 8}) {
    ConfigResult r;
    r.jobs = jobs;
    RunStats cold, warm;
    for (int trial = 0; trial < kTrials; ++trial) {
      const RunStats c = RunOnce(jobs, /*cache=*/nullptr, paths);
      const RunStats w = RunOnce(jobs, &cache, paths);
      if (c.requests_per_sec > cold.requests_per_sec) cold = c;
      if (w.requests_per_sec > warm.requests_per_sec) warm = w;
    }
    r.cold_rps = cold.requests_per_sec;
    r.warm_rps = warm.requests_per_sec;
    r.speedup = cold.requests_per_sec > 0.0
                    ? warm.requests_per_sec / cold.requests_per_sec
                    : 0.0;
    r.cold_p50_ms = cold.p50_ms;
    r.warm_p50_ms = warm.p50_ms;
    results.push_back(r);
  }

  TablePrinter table({"jobs", "cold req/s", "warm req/s", "speedup",
                      "cold p50 ms", "warm p50 ms"});
  for (const ConfigResult& r : results) {
    table.AddRow({std::to_string(r.jobs), Fmt(r.cold_rps, 1),
                  Fmt(r.warm_rps, 1), Fmt(r.speedup, 2) + "x",
                  Fmt(r.cold_p50_ms, 2), Fmt(r.warm_p50_ms, 2)});
  }
  table.Print(std::cout);

  const PrepCacheStats stats = cache.stats();
  std::cout << "cache: " << stats.memory_hits << " hits, " << stats.misses
            << " fills, " << stats.resident_bytes << " resident bytes\n";

  std::ofstream json("BENCH_cache.json");
  json << "{\n  \"bench\": \"cache_amortization\",\n  \"requests\": "
       << kDistinctGraphs * kRepeats << ",\n  \"distinct_graphs\": "
       << kDistinctGraphs << ",\n  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    json << "    {\"jobs\": " << r.jobs << ", \"cold_requests_per_sec\": "
         << r.cold_rps << ", \"warm_requests_per_sec\": " << r.warm_rps
         << ", \"speedup\": " << r.speedup << ", \"cold_p50_ms\": "
         << r.cold_p50_ms << ", \"warm_p50_ms\": " << r.warm_p50_ms << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_cache.json\n";
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace gputc

int main() { gputc::bench::Main(); }

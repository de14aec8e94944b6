#ifndef GPUTC_PERFBENCH_PERFBENCH_H_
#define GPUTC_PERFBENCH_PERFBENCH_H_

// The repository benchmark harness: seeded corpora for three workloads, the
// end-to-end drivers that time them through the library's public entry
// points, and the traced run that times each layer from outside by calling
// the layers' public functions one at a time.

#include <cstdint>
#include <string>
#include <vector>

#include "core/executor.h"
#include "sim/device.h"
#include "sim/kernel.h"
#include "tc/registry.h"
#include "util/status.h"

namespace perfbench {

// -- workloads and their generated corpora ----------------------------------

struct WorkloadInfo {
  const char* name;
  const char* why;
  bool service;  // Driven through BatchService (else one client, direct).
};

/// The three workloads, in BENCHMARK.json order.
const std::vector<WorkloadInfo>& Workloads();
/// Null when `name` is not a workload.
const WorkloadInfo* FindWorkload(const std::string& name);

/// One generated graph, written as a v2 .bin file.
struct InputGraph {
  std::string name;
  std::string family;
  std::string path;
  int64_t n = 0;
  int64_t m = 0;
  int64_t max_degree = 0;
  int64_t triangles = 0;  // Independent oracle, computed at generation.
};

/// One entry of a workload's fixed request list: a graph and the counter the
/// request asks for (`<counter>,cpu` is its fallback chain), plus what
/// ExecuteResilient's base attempt produced for it at generation time.
struct RequestSpec {
  int input = 0;
  gputc::TcAlgorithm algorithm = gputc::TcAlgorithm::kHu;
  gputc::KernelStats kernel;
  double cost_eq1 = 0.0;
  double cost_eq3 = 0.0;
  int64_t artifact_bytes = 0;  // Preprocessed CSR + permutation bytes.
};

struct Corpus {
  std::string workload;
  uint64_t seed = 0;
  bool toy = false;
  std::vector<InputGraph> inputs;
  std::vector<RequestSpec> requests;

  int64_t PoolArtifactBytes() const;
};

/// Generates the corpus of `workload` from `seed` into `dir` (graphs plus a
/// `corpus.txt` manifest). Computes every oracle count and reference run.
gputc::Status GenerateCorpus(const std::string& workload, uint64_t seed,
                             bool toy, const std::string& dir);
gputc::StatusOr<Corpus> LoadCorpus(const std::string& dir);

/// The fallback chain a request runs under: its counter, then `cpu`.
std::vector<gputc::FallbackStage> ChainFor(gputc::TcAlgorithm algorithm);

/// Bitwise equality of every KernelStats field.
bool SameKernel(const gputc::KernelStats& a, const gputc::KernelStats& b);

// -- measurement helpers -----------------------------------------------------

double NowMs();          // Steady clock.
double ProcessCpuMs();   // All threads of this process.
double ThreadCpuMs();    // Calling thread only.
double PeakRssMb();      // VmHWM.
double CurrentRssKb();   // VmRSS.
double Percentile(std::vector<double> values, double q);  // Nearest rank.
double Median(std::vector<double> values);

/// What one run reports: request tallies, named metrics, failed checks and
/// free-form record fields (already JSON-encoded values).
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;    // Error status or rejected.
  int64_t wrong = 0;     // Count or KernelStats differ from the reference.
  int64_t degraded = 0;  // Counted by a fallback stage or degraded variant.
  std::vector<std::string> check_failures;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> record;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& check) {
    for (const std::string& seen : check_failures) {
      if (seen == check) return;
    }
    check_failures.push_back(check);
  }
  std::string ToJson(const Corpus& corpus, bool trace) const;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// -- requests and their verdicts ---------------------------------------------

enum class Verdict {
  kOk,
  kFailed,    // Error status, or rejected by the service.
  kWrong,     // Count differs from the oracle, or KernelStats from the
              // reference run.
  kDegraded,  // Counted by a fallback stage or a degraded variant.
};
void Tally(Verdict verdict, Result* result);

/// One request on the one-client path `gputc count` takes: LoadBinary, then
/// ExecuteResilient under the request's chain, judged against the corpus.
struct DirectOutcome {
  Verdict verdict = Verdict::kFailed;
  double wall_ms = 0.0;
  int attempts = 0;
  gputc::RunResult run;
};
DirectOutcome RunDirectRequest(const Corpus& corpus, int request,
                               gputc::PrepCache* cache = nullptr);

// -- drivers -----------------------------------------------------------------

struct RunOptions {
  double seconds = 10.0;
  std::string scratch;  // Writable directory for the WAL and cache tier.
};

/// End-to-end run (tracing off): the count workloads' one-client path or
/// the service-mix BatchService path.
void RunEndToEnd(const Corpus& corpus, const RunOptions& options,
                 Result* result);

/// Traced run: the staged layer-by-layer path (with the staged-path
/// equivalence check) and the service section, emitting per-layer metrics.
void RunTraced(const Corpus& corpus, const RunOptions& options,
               Result* result);

/// Closed-loop BatchService section shared by both runs: `gputc batch --wal
/// --prep-cache` wiring, `in_flight` requests outstanding. Appends the
/// per-layer service.* and core.prep_cache.* metrics when `per_layer`, the
/// end-to-end set otherwise.
struct ServiceSection {
  int in_flight = 4;
  double window_seconds = 10.0;
  int setups = 1;             // Repeated set-ups; the last one is timed.
  double min_warmup_s = 2.0;  // Scheduler warm-up before the window.
  double max_warmup_s = 6.0;
};
void RunServiceSection(const Corpus& corpus, const RunOptions& options,
                       const ServiceSection& section, bool per_layer,
                       Result* result);

}  // namespace perfbench

#endif  // GPUTC_PERFBENCH_PERFBENCH_H_

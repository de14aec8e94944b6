// End-to-end drivers: the count workloads' one-client path and the
// closed-loop BatchService section (also used by the traced run).

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>

#include "graph/io.h"
#include "perfbench.h"
#include "service/batch_service.h"
#include "service/wal.h"
#include "util/version.h"

namespace perfbench {

void Tally(Verdict verdict, Result* result) {
  ++result->attempted;
  switch (verdict) {
    case Verdict::kOk:
      break;
    case Verdict::kFailed:
      ++result->failed;
      break;
    case Verdict::kWrong:
      ++result->wrong;
      break;
    case Verdict::kDegraded:
      ++result->degraded;
      break;
  }
}

DirectOutcome RunDirectRequest(const Corpus& corpus, int request,
                               gputc::PrepCache* cache) {
  const RequestSpec& spec = corpus.requests[static_cast<size_t>(request)];
  const InputGraph& input = corpus.inputs[static_cast<size_t>(spec.input)];
  DirectOutcome out;
  const double start = NowMs();
  gputc::StatusOr<gputc::Graph> g = gputc::LoadBinary(input.path);
  if (!g.ok()) {
    out.wall_ms = NowMs() - start;
    return out;
  }
  gputc::PreprocessOptions options;
  options.prep_cache = cache;
  gputc::ExecutionTrace trace;
  gputc::StatusOr<gputc::ExecutionResult> ran = gputc::ExecuteResilient(
      *g, gputc::DeviceSpec::TitanXpLike(), gputc::ExecutionPolicy{},
      ChainFor(spec.algorithm), options, &trace);
  out.wall_ms = NowMs() - start;
  out.attempts = static_cast<int>(trace.attempts.size());
  if (!ran.ok()) return out;
  out.run = std::move(ran->run);
  if (out.run.triangles != input.triangles ||
      !SameKernel(out.run.kernel, spec.kernel)) {
    out.verdict = Verdict::kWrong;
  } else if (ran->stage != gputc::ToString(spec.algorithm) ||
             ran->variant != "base") {
    out.verdict = Verdict::kDegraded;
  } else {
    out.verdict = Verdict::kOk;
  }
  return out;
}

namespace {

/// The count workloads: one client at a time, each request LoadBinary then
/// ExecuteResilient, cycling the fixed request list.
void RunDirect(const Corpus& corpus, const RunOptions& options,
               Result* result) {
  const int list = static_cast<int>(corpus.requests.size());
  // Set-up: untimed warm-up requests; setup_s is their median.
  std::vector<double> setup_ms;
  for (int k = 0; k < 5; ++k) {
    const DirectOutcome warm = RunDirectRequest(corpus, k % list);
    setup_ms.push_back(warm.wall_ms);
    if (warm.verdict != Verdict::kOk) result->Fail("set-up request failed");
  }

  std::vector<double> latencies;
  std::vector<double> first_pass_kernel_ms(static_cast<size_t>(list), 0.0);
  double edges = 0.0;
  const double cpu0 = ProcessCpuMs();
  const double t0 = NowMs();
  for (int i = 0;; ++i) {
    const int r = i % list;
    const DirectOutcome out = RunDirectRequest(corpus, r);
    Tally(out.verdict, result);
    latencies.push_back(out.wall_ms);
    if (out.verdict == Verdict::kOk) {
      edges += static_cast<double>(
          corpus.inputs[static_cast<size_t>(corpus.requests[r].input)].m);
    }
    if (i < list) first_pass_kernel_ms[r] = out.run.kernel_ms();
    if (i + 1 >= list && NowMs() - t0 >= options.seconds * 1e3) break;
  }
  const double wall_ms = NowMs() - t0;
  const double cpu_ms = ProcessCpuMs() - cpu0;

  double sim_ms = 0.0;
  for (double ms : first_pass_kernel_ms) sim_ms += ms;
  result->Add("edges_per_s", edges / (wall_ms / 1e3), "edges/s");
  result->Add("latency_ms_p50", Median(latencies), "ms");
  result->Add("cpu_ms_per_request", cpu_ms / latencies.size(), "ms");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("sim_kernel_ms", sim_ms, "ms");
  result->Add("setup_s", Median(setup_ms) / 1e3, "s");
  result->record.push_back(
      {"timed_requests", std::to_string(latencies.size())});
}

/// One closed-loop request through the service, as the harness saw it.
struct Sample {
  int request = 0;
  double start_ms = 0.0;
  double intent_ms = 0.0;  // WriteAheadLog::LogIntent.
  double submit_ms = 0.0;  // BatchService::Submit (blocks under kBlock).
  double done_ms = 0.0;    // WriteAheadLog::LogDone in the report hook.
  double latency_ms = 0.0; // Request start to verified result.
  double queue_ms = 0.0;   // The RequestReport's own timings.
  double materialize_ms = 0.0;
  double admit_ms = 0.0;
  double exec_ms = 0.0;
  Verdict verdict = Verdict::kFailed;  // Of the service's report.
  bool wal_ok = true;                  // Both WAL appends succeeded.

  Verdict Final() const { return wal_ok ? verdict : Verdict::kFailed; }
};

/// A BatchService with a WriteAheadLog and a two-tier PrepCache, wired the
/// way `gputc batch --wal DIR --prep-cache DIR --prep-cache-mb N` wires
/// them: intent is durable before Submit, done before the journal line.
class ServiceRig {
 public:
  ServiceRig(const Corpus& corpus, std::string dir)
      : corpus_(corpus), dir_(std::move(dir)) {}
  ~ServiceRig() { Stop(); }
  ServiceRig(const ServiceRig&) = delete;
  ServiceRig& operator=(const ServiceRig&) = delete;

  gputc::Status Start(int64_t cache_mb) {
    std::filesystem::create_directories(dir_);
    GPUTC_ASSIGN_OR_RETURN(gputc::WriteAheadLog wal,
                           gputc::WriteAheadLog::Open(dir_ + "/wal"));
    wal_.emplace(std::move(wal));
    GPUTC_RETURN_IF_ERROR(wal_->LogVersion(gputc::VersionString()));
    gputc::BatchServiceOptions options;
    options.jobs = 4;
    options.shed_policy = gputc::ShedPolicy::kBlock;
    options.prep_cache_mb = cache_mb;
    options.prep_cache_dir = dir_ + "/cache";
    GPUTC_RETURN_IF_ERROR(
        gputc::DiskCacheStore(options.prep_cache_dir).EnsureDir());
    service_ = std::make_unique<gputc::BatchService>(options);
    service_->set_on_report(
        [this](const gputc::RequestReport& report) { OnReport(report); });
    service_->Start();
    return gputc::OkStatus();
  }

  /// Keeps `in_flight` requests outstanding while `more(submitted)` holds,
  /// each on the list entry `next()` picks, then waits for the stragglers.
  /// Returns the samples it produced.
  std::vector<Sample> Drive(int in_flight, const std::function<int()>& next,
                            const std::function<bool(size_t)>& more) {
    size_t begin = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      begin = samples_.size();
    }
    for (size_t submitted = 0;; ++submitted) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return outstanding_ < in_flight; });
      }
      if (!more(submitted)) break;
      const int r = next();
      const RequestSpec& spec = corpus_.requests[static_cast<size_t>(r)];
      const std::string& path =
          corpus_.inputs[static_cast<size_t>(spec.input)].path;
      size_t seq = 0;
      const double start = NowMs();
      {
        std::lock_guard<std::mutex> lock(mu_);
        seq = samples_.size();
        samples_.push_back(Sample{r, start});
        ++outstanding_;
      }
      gputc::BatchRequest request;
      request.id = std::to_string(seq) + ":" + path;
      request.source = path;
      request.kind = gputc::BatchRequest::Kind::kFile;
      request.target = path;
      request.fallback = gputc::ToString(spec.algorithm) + ",cpu";
      const gputc::Status intent = wal_->LogIntent(request.id);
      const double logged = NowMs();
      service_->Submit(std::move(request));
      const double submitted_at = NowMs();
      std::lock_guard<std::mutex> lock(mu_);
      samples_[seq].intent_ms = logged - start;
      samples_[seq].submit_ms = submitted_at - logged;
      if (!intent.ok()) samples_[seq].wal_ok = false;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
    return std::vector<Sample>(samples_.begin() + static_cast<long>(begin),
                               samples_.end());
  }

  gputc::PrepCache* cache() const { return service_->prep_cache(); }

  void Stop() {
    if (service_ != nullptr) {
      service_->Finish();
      service_.reset();
    }
    wal_.reset();
  }

 private:
  void OnReport(const gputc::RequestReport& report) {
    // Runs on a worker thread under the service's journal lock, exactly
    // where `gputc batch` makes the done record durable.
    const double t0 = NowMs();
    const gputc::Status logged = wal_->LogDone(
        report.id, gputc::RequestOutcomeName(report.outcome), report.ToJson());
    const double t1 = NowMs();
    const size_t seq = std::stoull(report.id);
    std::lock_guard<std::mutex> lock(mu_);
    Sample& s = samples_[seq];
    const RequestSpec& spec = corpus_.requests[static_cast<size_t>(s.request)];
    const bool counted = report.outcome == gputc::RequestOutcome::kOk ||
                         report.outcome == gputc::RequestOutcome::kDegraded;
    if (!logged.ok()) s.wal_ok = false;
    if (!counted) {
      s.verdict = Verdict::kFailed;
    } else if (report.triangles !=
               corpus_.inputs[static_cast<size_t>(spec.input)].triangles) {
      s.verdict = Verdict::kWrong;
    } else if (report.stage != gputc::ToString(spec.algorithm) ||
               report.variant != "base") {
      // The service calls every non-default-chain result degraded; what
      // matters here is whether the requested counter ran unmodified.
      s.verdict = Verdict::kDegraded;
    } else {
      s.verdict = Verdict::kOk;
    }
    s.done_ms = t1 - t0;
    s.latency_ms = t1 - s.start_ms;
    s.queue_ms = report.queue_ms;
    s.materialize_ms = report.materialize_ms;
    s.admit_ms = report.admit_ms;
    s.exec_ms = report.exec_ms;
    --outstanding_;
    cv_.notify_all();
  }

  const Corpus& corpus_;
  const std::string dir_;
  std::optional<gputc::WriteAheadLog> wal_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Sample> samples_;  // Indexed by request sequence number.
  int outstanding_ = 0;
  std::unique_ptr<gputc::BatchService> service_;  // Last: stops first.
};

std::vector<double> Field(const std::vector<Sample>& samples,
                          double Sample::*field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.*field);
  return out;
}

}  // namespace

void RunServiceSection(const Corpus& corpus, const RunOptions& options,
                       const ServiceSection& section, bool per_layer,
                       Result* result) {
  const int list = static_cast<int>(corpus.requests.size());
  // Tier 1 holds about half the pool's artifacts; the disk tier the rest.
  const int64_t cache_mb = std::max<int64_t>(
      1, std::llround(static_cast<double>(corpus.PoolArtifactBytes()) / 2.0 /
                      (1 << 20)));
  // Requests walk the list in a fresh seeded shuffle per pass: random order,
  // but every window holds nearly the same mix of graphs and counters.
  std::mt19937_64 rng(corpus.seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<int> order(static_cast<size_t>(list));
  size_t cursor = order.size();
  const auto random_request = [&] {
    if (cursor == order.size()) {
      for (int i = 0; i < list; ++i) order[static_cast<size_t>(i)] = i;
      std::shuffle(order.begin(), order.end(), rng);
      cursor = 0;
    }
    return order[cursor++];
  };

  // Set-up: service + WAL start, the cold cache-fill pass over the request
  // list, then closed-loop warm-up until the host has spread the workers
  // (CPU/wall over consecutive half-second slices stops rising).
  std::vector<double> setup_ms;
  std::unique_ptr<ServiceRig> rig;
  double warm_cpu_per_wall = 0.0;
  for (int k = 0; k < section.setups; ++k) {
    if (rig != nullptr) rig->Stop();
    rig.reset();
    const std::string dir = options.scratch + "/service-" + std::to_string(k);
    std::filesystem::remove_all(dir);
    const double t0 = NowMs();
    rig = std::make_unique<ServiceRig>(corpus, dir);
    const gputc::Status started = rig->Start(cache_mb);
    if (!started.ok()) {
      result->Fail("service start: " + started.ToString());
      return;
    }
    int fill = 0;
    for (const Sample& s :
         rig->Drive(section.in_flight, [&] { return fill++; },
                    [&](size_t n) { return n < static_cast<size_t>(list); })) {
      if (s.Final() != Verdict::kOk) result->Fail("cache-fill request failed");
    }
    double previous = 0.0;
    while (true) {
      const double slice_cpu = ProcessCpuMs();
      const double slice_t0 = NowMs();
      for (const Sample& s :
           rig->Drive(section.in_flight, random_request, [&](size_t) {
             return NowMs() - slice_t0 < 500.0;
           })) {
        if (s.Final() != Verdict::kOk) result->Fail("warm-up request failed");
      }
      warm_cpu_per_wall = (ProcessCpuMs() - slice_cpu) / (NowMs() - slice_t0);
      const double elapsed_s = (NowMs() - t0) / 1e3;
      const bool plateau = warm_cpu_per_wall <= previous * 1.1;
      previous = warm_cpu_per_wall;
      if ((elapsed_s >= section.min_warmup_s && plateau) ||
          elapsed_s >= section.max_warmup_s) {
        break;
      }
    }
    setup_ms.push_back(NowMs() - t0);
  }

  // The timed window.
  const gputc::PrepCacheStats stats0 = rig->cache()->stats();
  const double rss0_kb = CurrentRssKb();
  const double cpu0 = ProcessCpuMs();
  const double t0 = NowMs();
  const std::vector<Sample> samples =
      rig->Drive(section.in_flight, random_request, [&](size_t) {
        return NowMs() - t0 < section.window_seconds * 1e3;
      });
  const double wall_ms = NowMs() - t0;
  const double cpu_ms = ProcessCpuMs() - cpu0;
  const double rss1_kb = CurrentRssKb();
  const gputc::PrepCacheStats stats1 = rig->cache()->stats();

  double edges = 0.0;
  for (const Sample& s : samples) {
    Tally(s.Final(), result);
    if (s.Final() == Verdict::kOk) {
      edges += static_cast<double>(
          corpus.inputs[static_cast<size_t>(corpus.requests[s.request].input)]
              .m);
    }
  }
  const double n = static_cast<double>(std::max<size_t>(1, samples.size()));
  result->record.push_back({"timed_requests", std::to_string(samples.size())});
  result->record.push_back({"warmup_cpu_per_wall",
                            JsonNumber(warm_cpu_per_wall)});
  result->record.push_back({"cache_tier1_mb", std::to_string(cache_mb)});

  if (per_layer) {
    const int64_t memory_hits = stats1.memory_hits - stats0.memory_hits;
    const int64_t disk_hits = stats1.disk_hits - stats0.disk_hits;
    const int64_t misses = stats1.misses - stats0.misses;
    const int64_t lookups = memory_hits + disk_hits + misses;
    result->Add("core.prep_cache.hit_ratio",
                lookups > 0 ? static_cast<double>(memory_hits) / lookups : 0.0,
                "ratio");
    result->Add("core.prep_cache.disk_hits", disk_hits, "count");
    result->Add("core.prep_cache.misses", misses, "count");
    result->Add("core.prep_cache.evictions",
                stats1.evictions - stats0.evictions, "count");
    result->Add("service.latency_ms_p99",
                Percentile(Field(samples, &Sample::latency_ms), 0.99), "ms");
    result->Add("service.submit_wait_ms",
                Median(Field(samples, &Sample::submit_ms)), "ms");
    const std::pair<const char*, double Sample::*> timings[] = {
        {"queue", &Sample::queue_ms},
        {"materialize", &Sample::materialize_ms},
        {"admit", &Sample::admit_ms},
        {"exec", &Sample::exec_ms}};
    for (const auto& [name, field] : timings) {
      const std::vector<double> values = Field(samples, field);
      result->Add(std::string("service.") + name + "_ms_p50", Median(values),
                  "ms");
      result->Add(std::string("service.") + name + "_ms_p99",
                  Percentile(values, 0.99), "ms");
    }
    result->Add("service.wal.intent_ms",
                Median(Field(samples, &Sample::intent_ms)), "ms");
    result->Add("service.wal.done_ms",
                Median(Field(samples, &Sample::done_ms)), "ms");
    result->Add("service.cpu_per_wall", cpu_ms / wall_ms, "ratio");
    result->Add("service.rss_kb_per_1k_requests",
                (rss1_kb - rss0_kb) / n * 1e3, "kB");
    return;
  }

  // Outside every window: the modelled kernel time of the fixed request
  // list, through ExecuteResilient on the service's own cache, which must
  // reproduce the reference KernelStats exactly.
  double sim_ms = 0.0;
  for (int r = 0; r < list; ++r) {
    const DirectOutcome out = RunDirectRequest(corpus, r, rig->cache());
    if (out.verdict != Verdict::kOk) {
      result->Fail("verification pass: request " + std::to_string(r));
    }
    sim_ms += out.run.kernel_ms();
  }
  const std::vector<double> latencies = Field(samples, &Sample::latency_ms);
  result->Add("edges_per_s", edges / (wall_ms / 1e3), "edges/s");
  result->Add("latency_ms_p50", Median(latencies), "ms");
  result->Add("cpu_ms_per_request", cpu_ms / n, "ms");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("sim_kernel_ms", sim_ms, "ms");
  result->Add("setup_s", Median(setup_ms) / 1e3, "s");
  result->record.push_back(
      {"service_cpu_per_wall", JsonNumber(cpu_ms / wall_ms)});
  result->record.push_back(
      {"latency_ms_p99", JsonNumber(Percentile(latencies, 0.99))});
}

void RunEndToEnd(const Corpus& corpus, const RunOptions& options,
                 Result* result) {
  if (!FindWorkload(corpus.workload)->service) {
    RunDirect(corpus, options, result);
    return;
  }
  ServiceSection section;
  section.in_flight = 4;
  section.window_seconds = options.seconds;
  section.setups = 3;
  RunServiceSection(corpus, options, section, /*per_layer=*/false, result);
}

}  // namespace perfbench

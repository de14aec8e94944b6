// gputc — command-line front end for the library.
//
//   gputc datasets                       list bundled dataset stand-ins
//   gputc info --dataset gowalla         structural statistics
//   gputc generate --family rmat --scale 12 --out g.txt
//   gputc convert --in g.txt --out g.bin
//   gputc count --dataset gowalla [--algorithm Hu] [--direction A-direction]
//               [--ordering A-order] [--profile] [--timeout-ms N]
//               [--max-model-ms N] [--mem-budget-mb N] [--fallback Hu,cpu]
//               [--prep-cache DIR] [--prep-cache-mb N]
//               [--trace] [--trace-out t.json] [--metrics-out m.prom]
//   gputc doctor --in g.txt [--repair --out fixed.bin]
//   gputc batch --manifest jobs.txt [--jobs N] [--queue-depth Q]
//               [--mem-budget-mb M] [--shed-policy block|reject|drop-oldest]
//               [--timeout-ms N] [--drain-grace-ms N] [--fallback Hu,cpu]
//               [--isolate[=N]] [--journal FILE|-]
//               [--wal DIR [--resume] [--wal-policy strict|degrade]]
//               [--prep-cache DIR] [--prep-cache-mb N]
//               [--trace-out t.json] [--metrics-out m.prom]
//   gputc serve --listen HOST:PORT|unix:PATH [--health SPEC] [--jobs N]
//               [--queue-depth Q] [--max-connections C] [--isolate[=N]]
//               [--journal FILE|-]
//               [--wal DIR [--resume] [--wal-policy strict|degrade]]
//               [--prep-cache DIR] [--prep-cache-mb N] ...
//               newline-delimited network daemon over the batch service
//   gputc cache stats|purge --prep-cache DIR
//               inspect or empty the durable preprocessing-artifact tier
//   gputc worker --request-fd N --response-fd N   (internal: spawned by
//               `batch --isolate`; speaks the framed worker protocol)
//   gputc version                        semantic version, build type,
//               sanitizer config (also `gputc --version`)
//   gputc metrics-dump [--json]          exporter smoke test
//   gputc calibrate                      print the Section 5.3 calibration
//
// The exit-code contract is Usage() below (`gputc --help`); README.md
// "Error handling & exit codes" mirrors it, checked by crash_recovery_test.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <type_traits>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/executor.h"
#include "core/pipeline.h"
#include "core/prep_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch_service.h"
#include "service/cache_store.h"
#include "service/request_journal.h"
#include "service/server.h"
#include "service/storage_health.h"
#include "service/wal.h"
#include "service/worker_process.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/io.h"
#include "graph/validate.h"
#include "order/calibration.h"
#include "sim/profiler.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/net_io.h"
#include "util/status.h"
#include "util/table.h"
#include "util/version.h"

namespace gputc {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;
constexpr int kExitExhausted = 4;
constexpr int kExitPartial = 5;
/// Storage fail-stop: the strict-policy WAL lost the disk underneath it (or
/// the batch preflight refused the manifest for projected space). Distinct
/// from kExitRuntime so operators can alert on "free disk space and
/// --resume" without parsing stderr.
constexpr int kExitStorage = 6;

int Usage() {
  std::cerr
      << "usage: gputc <command> [flags]\n"
         "commands:\n"
         "  datasets   list bundled dataset stand-ins\n"
         "  info       --dataset NAME | --in FILE [--strict]: structural "
         "statistics\n"
         "  generate   --family rmat|powerlaw|er|ws --out FILE [...]\n"
         "  convert    --in FILE --out FILE [--strict] (.txt <-> .bin by "
         "extension)\n"
         "  count      --dataset NAME | --in FILE [--algorithm A]\n"
         "             [--direction D] [--ordering O] [--strict] [--profile]\n"
         "             [--timeout-ms N] [--max-model-ms N] [--mem-budget-mb N]\n"
         "             [--fallback A1,A2,...,cpu] [--trace]\n"
         "             [--prep-cache DIR] [--prep-cache-mb N]\n"
         "             [--trace-out FILE] [--metrics-out FILE]\n"
         "  doctor     --in FILE [--repair --out FILE]: scan for (and "
         "optionally\n"
         "             repair) self loops, duplicates, and structural damage\n"
         "  batch      --manifest FILE [--jobs N] [--queue-depth Q]\n"
         "             [--mem-budget-mb M] [--shed-policy "
         "block|reject|drop-oldest]\n"
         "             [--timeout-ms N] [--drain-grace-ms N]\n"
         "             [--fallback A1,...,cpu] [--isolate[=N]]\n"
         "             [--journal FILE|-]\n"
         "             [--wal DIR [--resume] [--wal-policy strict|degrade]]\n"
         "             [--prep-cache DIR] [--prep-cache-mb N]\n"
         "             [--trace-out FILE] [--metrics-out FILE]: run every\n"
         "             manifest request through a concurrent batch service.\n"
         "             --journal - streams JSONL to stdout (the default);\n"
         "             --wal DIR records intent/done per request in a "
         "durable\n"
         "             write-ahead log, and --resume replays it after a "
         "crash:\n"
         "             finished requests emit their journal lines verbatim,\n"
         "             unfinished ones re-run — exactly one line per "
         "request;\n"
         "             --wal-policy picks what a WAL disk fault does: "
         "strict\n"
         "             (default) fail-stops with exit 6 and a journal "
         "holding\n"
         "             exactly the durable prefix, degrade keeps serving "
         "and\n"
         "             stamps undurable lines with \"durable\":false;\n"
         "             --isolate[=N] executes requests in N supervised "
         "worker\n"
         "             subprocesses (default N = --jobs): a crash or hang "
         "fails\n"
         "             only that request, and --mem-budget-mb becomes each\n"
         "             worker's address-space rlimit;\n"
         "             --prep-cache DIR / --prep-cache-mb N reuse "
         "preprocessing\n"
         "             across requests with the same graph + options "
         "(content-\n"
         "             addressed: any input or option change misses "
         "cleanly)\n"
         "  serve      --listen HOST:PORT|unix:PATH [--health SPEC]\n"
         "             [--jobs N] [--queue-depth Q] [--mem-budget-mb M]\n"
         "             [--timeout-ms N] [--max-connections C]\n"
         "             [--max-line-bytes B] [--idle-timeout-ms N]\n"
         "             [--io-timeout-ms N] [--drain-grace-ms N]\n"
         "             [--target-p99-ms N] [--max-inflight N]\n"
         "             [--fallback A1,...,cpu] [--isolate[=N]]\n"
         "             [--prep-cache DIR] [--prep-cache-mb N]\n"
         "             [--journal FILE|-] [--wal DIR [--resume]\n"
         "             [--wal-policy strict|degrade]]: daemon\n"
         "             speaking one manifest line in / one JSONL journal "
         "line\n"
         "             out per request, over TCP or a unix socket. Overload\n"
         "             is shed with structured rejections carrying\n"
         "             retry_after_ms (adaptive p99 concurrency limit, "
         "queue\n"
         "             bound, memory gate); SIGTERM/SIGINT drain "
         "gracefully;\n"
         "             --health serves /healthz /readyz /metrics; --wal "
         "gives\n"
         "             accepted requests the same exactly-once crash "
         "contract\n"
         "             as batch (--resume re-admits interrupted ones)\n"
         "  cache      stats|purge --prep-cache DIR: inspect or empty the\n"
         "             durable preprocessing-artifact tier (purge is safe\n"
         "             mid-run: running services recompute and refill)\n"
         "  version    print semantic version, build type, and sanitizer "
         "config\n"
         "  metrics-dump  [--json] print a demo metrics snapshot (exporter "
         "smoke test)\n"
         "  calibrate  print BW(d), p_c(d) and lambda for the device model\n"
         "exit codes (full contract, same table as README.md):\n"
         "  0  success (batch: every request counted, incl. WAL-replayed "
         "ones;\n"
         "     serve: clean drain — per-request outcomes are in the "
         "journal)\n"
         "  1  runtime failure (cannot write output/journal/WAL; cannot "
         "bind\n"
         "     a listener; journal accounting incomplete)\n"
         "  2  usage error (bad command/flag; --resume without --wal; --wal\n"
         "     on a previous run's non-empty log without --resume)\n"
         "  3  invalid input (missing/corrupt/rejected input; unreadable "
         "WAL)\n"
         "  4  resources exhausted (deadline/budget spent after all\n"
         "     fallbacks; batch: nothing counted, fresh or replayed)\n"
         "  5  partial batch failure (some counted, some rejected/failed —\n"
         "     see the journal; replayed outcomes count too)\n"
         "  6  storage fail-stop (strict --wal-policy and the WAL lost the\n"
         "     disk — ENOSPC/EIO/quota — or the batch preflight space "
         "check\n"
         "     refused the manifest; journal = durable prefix, so free "
         "space\n"
         "     and re-run with --resume)\n";
  return kExitUsage;
}

/// Loads the graph named by --dataset or --in. `strict` routes text input
/// through GraphDoctor with the reject policy, so inputs that need repair
/// fail with exit 3 instead of being silently normalized. A .bin input is
/// strict either way: LoadBinary refuses any CSR that is not canonical.
StatusOr<Graph> LoadAny(const FlagParser& flags, bool strict) {
  if (flags.Has("dataset")) {
    return TryLoadDataset(flags.GetString("dataset", ""));
  }
  if (flags.Has("in")) {
    const std::string path = flags.GetString("in", "");
    if (!strict || path.ends_with(".bin")) return LoadGraph(path);
    StatusOr<EdgeList> list = LoadEdgeList(path);
    if (!list.ok()) return list.status();
    StatusOr<Graph> g =
        GraphDoctor().BuildGraph(*std::move(list), RepairPolicy::kReject);
    if (!g.ok()) return g.status().WithContext("--strict on '" + path + "'");
    return g;
  }
  return InvalidArgumentError("need --dataset NAME or --in FILE");
}

/// Reports a load/validation failure and picks the matching exit code.
int ReportInputError(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return kExitBadInput;
}

/// Strict numeric flag parsing: FlagParser::GetInt/GetDouble abort the
/// process on malformed values, but a typo on the command line is a usage
/// error (exit 2). nullopt = malformed, already reported on stderr.
template <typename T>
std::optional<T> ParseNumericFlag(const FlagParser& flags,
                                  const std::string& name, T fallback) {
  if (!flags.Has(name)) return fallback;
  const std::string raw = flags.GetString(name, "");
  char* end = nullptr;
  T value;
  if constexpr (std::is_integral_v<T>) {
    value = static_cast<T>(std::strtoll(raw.c_str(), &end, 10));
  } else {
    value = static_cast<T>(std::strtod(raw.c_str(), &end));
  }
  if (raw.empty() || end == raw.c_str() || *end != '\0') {
    std::cerr << "invalid value for --" << name << ": '" << raw
              << "' (expected "
              << (std::is_integral_v<T> ? "an integer" : "a number") << ")\n";
    return std::nullopt;
  }
  return value;
}

int CmdDatasets() {
  TablePrinter table({"name", "family", "provenance"});
  for (const auto& name : DatasetNames()) {
    const DatasetSpec spec = GetDatasetSpec(name);
    table.AddRow({spec.name, spec.family, spec.provenance});
  }
  table.Print(std::cout);
  return kExitOk;
}

int CmdInfo(const FlagParser& flags) {
  const StatusOr<Graph> g = LoadAny(flags, flags.GetBool("strict", false));
  if (!g.ok()) return ReportInputError(g.status());
  std::cout << FormatGraphStats(ComputeGraphStats(*g));
  return kExitOk;
}

int CmdGenerate(const FlagParser& flags) {
  const std::string family = flags.GetString("family", "rmat");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cerr << "need --out FILE\n";
    return kExitUsage;
  }
  // Only the chosen family's flags are read, as strict numbers.
  const auto flag = [&flags](const char* name, int64_t fallback) {
    return ParseNumericFlag<int64_t>(flags, name, fallback);
  };
  const auto seed = flag("seed", 1);
  if (!seed.has_value()) return kExitUsage;
  StatusOr<Graph> g = InvalidArgumentError("unset");
  if (family == "rmat") {
    const auto scale = flag("scale", 12);
    const auto edge_factor = flag("edge-factor", 8);
    if (!scale || !edge_factor) return kExitUsage;
    g = TryGenerateRmat(static_cast<int>(*scale),
                        static_cast<int>(*edge_factor),
                        static_cast<uint64_t>(*seed));
  } else if (family == "powerlaw") {
    const auto nodes = flag("nodes", 10000);
    const auto gamma = ParseNumericFlag(flags, "gamma", 2.1);
    const auto min_degree = flag("min-degree", 2);
    const auto max_degree = flag("max-degree", 1000);
    if (!nodes || !gamma || !min_degree || !max_degree) return kExitUsage;
    g = TryGeneratePowerLawConfiguration(static_cast<VertexId>(*nodes), *gamma,
                                         *min_degree, *max_degree,
                                         static_cast<uint64_t>(*seed));
  } else if (family == "er") {
    const auto nodes = flag("nodes", 10000);
    const auto edges = flag("edges", 50000);
    if (!nodes || !edges) return kExitUsage;
    g = TryGenerateErdosRenyi(static_cast<VertexId>(*nodes), *edges,
                              static_cast<uint64_t>(*seed));
  } else if (family == "ws") {
    const auto nodes = flag("nodes", 10000);
    const auto k = flag("k", 4);
    const auto beta = ParseNumericFlag(flags, "beta", 0.05);
    if (!nodes || !k || !beta) return kExitUsage;
    g = TryGenerateWattsStrogatz(static_cast<VertexId>(*nodes),
                                 static_cast<int>(*k), *beta,
                                 static_cast<uint64_t>(*seed));
  } else {
    std::cerr << "unknown family '" << family
              << "'; valid choices: rmat powerlaw er ws\n";
    return kExitUsage;
  }
  if (!g.ok()) {
    // Generator parameters are flag values, so rejection is a usage error.
    std::cerr << "error: " << g.status().ToString() << "\n";
    return kExitUsage;
  }
  const Status saved = SaveGraph(*g, out);
  if (!saved.ok()) {
    std::cerr << "error: " << saved.ToString() << "\n";
    return kExitRuntime;
  }
  std::cout << "wrote " << g->num_vertices() << " vertices, "
            << g->num_edges() << " edges to " << out << "\n";
  return kExitOk;
}

int CmdConvert(const FlagParser& flags) {
  const StatusOr<Graph> g = LoadAny(flags, flags.GetBool("strict", false));
  if (!g.ok()) return ReportInputError(g.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cerr << "need --out FILE\n";
    return kExitUsage;
  }
  const Status saved = SaveGraph(*g, out);
  if (!saved.ok()) {
    std::cerr << "error: " << saved.ToString() << "\n";
    return kExitRuntime;
  }
  std::cout << "wrote " << out << "\n";
  return kExitOk;
}

/// Matches a flag value against `choices` by canonical name, ignoring
/// case (`--algorithm hu` and `--algorithm Hu` both work). An unknown value
/// lists the valid choices on stderr and returns nullopt.
template <typename T>
std::optional<T> ParseChoice(const char* what, const std::string& value,
                             const std::vector<T>& choices) {
  const auto lower = [](std::string text) {
    for (char& c : text) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return text;
  };
  for (T choice : choices) {
    if (lower(ToString(choice)) == lower(value)) return choice;
  }
  std::cerr << "unknown " << what << " '" << value << "'; valid choices:";
  for (T choice : choices) std::cerr << " " << ToString(choice);
  std::cerr << "\n";
  return std::nullopt;
}

// -- observability exports --------------------------------------------------

/// Writes `content` to `path` ("-" streams to stdout). File targets go
/// through the atomic temp -> fsync -> rename writer, so a crash mid-export
/// never leaves a torn trace or metrics file. Exports are best-effort
/// observability, not results: a failure warns (and returns false) but must
/// never change the command's exit code — a full disk should cost the trace
/// file, not the run.
bool WriteTextFile(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  const Status saved = WriteFileAtomic(path, content);
  if (!saved.ok()) {
    std::cerr << "warning: export skipped, cannot write '" << path
              << "': " << saved.ToString() << "\n";
    return false;
  }
  return true;
}

/// Dumps the collected spans as Chrome trace-event JSON (open in
/// chrome://tracing or Perfetto). No-op when --trace-out was not given.
bool ExportTrace(const Tracer& tracer, const std::string& path) {
  if (path.empty()) return true;
  return WriteTextFile(path, tracer.ChromeTraceJson());
}

/// Snapshots the global metrics registry. The extension picks the format:
/// .json gets the JSON exporter, everything else Prometheus text.
bool ExportMetrics(const std::string& path) {
  if (path.empty()) return true;
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return WriteTextFile(path, json ? MetricsRegistry::Global().Json()
                                  : MetricsRegistry::Global().PrometheusText());
}

/// Exit code for a failed resilient execution: exhausted budgets/deadlines
/// are the documented exit 4; rejected input stays exit 3.
int ExecutorExitCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
      return kExitExhausted;
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kDataLoss:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return kExitBadInput;
    default:
      return kExitRuntime;
  }
}

// -- shared service flags ---------------------------------------------------

/// Absolute path of the running binary, for re-exec'ing as `gputc worker`.
std::string SelfBinaryPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return "gputc";  // PATH lookup fallback for exotic /proc-less setups.
}

/// The service-flag values that BatchServiceOptions has no field for.
struct ServiceFlags {
  std::string trace_out;
  std::string metrics_out;
  std::string wal_dir;
  bool resume = false;
  StoragePolicy wal_policy = StoragePolicy::kStrict;
  std::string journal = "-";
};

/// The one parser of the flags count, batch and serve share. Fills
/// `options` from --timeout-ms, --mem-budget-mb, --fallback and
/// --prep-cache[-mb], creating the cache directory up front, and `out` from
/// --trace-out and --metrics-out. With `pool` (batch and serve) it also
/// reads --jobs, --queue-depth, --drain-grace-ms (default: the value already
/// in `options`), --isolate, --wal, --resume, --wal-policy and --journal.
/// Returns kExitOk or the exit code of a problem it reported on stderr.
int ParseServiceFlags(const FlagParser& flags, bool pool,
                      BatchServiceOptions* options, ServiceFlags* out) {
  const auto timeout_ms = ParseNumericFlag(flags, "timeout-ms", 0.0);
  const auto mem_budget_mb = ParseNumericFlag(flags, "mem-budget-mb", 0.0);
  const auto prep_cache_mb = ParseNumericFlag(flags, "prep-cache-mb", 0.0);
  if (!timeout_ms || !mem_budget_mb || !prep_cache_mb) return kExitUsage;
  options->request_timeout_ms = *timeout_ms;
  options->mem_budget_bytes =
      static_cast<int64_t>(*mem_budget_mb * 1024.0 * 1024.0);
  if (flags.Has("prep-cache")) {
    options->prep_cache_dir = flags.GetString("prep-cache", "");
    // A bare `--prep-cache` parses as the value "true"; the flag needs a
    // directory (use --prep-cache-mb for a memory-only cache).
    if (options->prep_cache_dir.empty() || options->prep_cache_dir == "true") {
      std::cerr << "--prep-cache needs a DIR value\n";
      return kExitUsage;
    }
  }
  if (*prep_cache_mb < 0.0 || *prep_cache_mb > 1024.0 * 1024.0) {
    std::cerr << "--prep-cache-mb must be in [0, 1048576]\n";
    return kExitUsage;
  }
  options->prep_cache_mb = static_cast<int64_t>(*prep_cache_mb);
  if (flags.Has("fallback")) {
    StatusOr<std::vector<FallbackStage>> parsed =
        ParseFallbackChain(flags.GetString("fallback", ""));
    if (!parsed.ok()) {
      std::cerr << parsed.status().message() << "\n";
      return kExitUsage;
    }
    options->chain = *std::move(parsed);
  }
  out->trace_out = flags.GetString("trace-out", "");
  out->metrics_out = flags.GetString("metrics-out", "");

  if (pool) {
    const auto jobs = ParseNumericFlag(flags, "jobs", 4.0);
    const auto queue_depth = ParseNumericFlag(flags, "queue-depth", 16.0);
    const auto drain_grace_ms =
        ParseNumericFlag(flags, "drain-grace-ms", options->drain_grace_ms);
    if (!jobs || !queue_depth || !drain_grace_ms) return kExitUsage;
    if (*jobs < 1.0 || *jobs > 256.0 || *queue_depth < 1.0) {
      std::cerr << "--jobs must be in [1, 256] and --queue-depth >= 1\n";
      return kExitUsage;
    }
    options->jobs = static_cast<int>(*jobs);
    options->queue_depth = static_cast<size_t>(*queue_depth);
    options->drain_grace_ms = *drain_grace_ms;
    if (flags.Has("isolate")) {
      // Bare --isolate: the pool size follows --jobs.
      const auto isolate = flags.GetString("isolate", "") == "true"
                               ? jobs
                               : ParseNumericFlag(flags, "isolate", 0.0);
      if (!isolate) return kExitUsage;
      if (*isolate < 1.0 || *isolate > 256.0) {
        std::cerr << "--isolate must be in [1, 256]\n";
        return kExitUsage;
      }
      options->isolate = static_cast<int>(*isolate);
      options->worker_binary = SelfBinaryPath();
    }
    out->wal_dir = flags.GetString("wal", "");
    out->resume = flags.GetBool("resume", false);
    out->journal = flags.GetString("journal", "-");
    if (out->resume && out->wal_dir.empty()) {
      std::cerr << "--resume needs --wal DIR (the log to replay)\n";
      return kExitUsage;
    }
    if (flags.Has("wal-policy")) {
      if (out->wal_dir.empty()) {
        std::cerr << "--wal-policy needs --wal DIR (it governs the WAL's "
                     "storage-fault response)\n";
        return kExitUsage;
      }
      const StatusOr<StoragePolicy> parsed =
          ParseStoragePolicy(flags.GetString("wal-policy", "strict"));
      if (!parsed.ok()) {
        std::cerr << parsed.status().message() << "\n";
        return kExitUsage;
      }
      out->wal_policy = *parsed;
    }
  }
  if (!options->prep_cache_dir.empty()) {
    // Fail a bad cache directory up front, not on the first request.
    const Status dir_ok = DiskCacheStore(options->prep_cache_dir).EnsureDir();
    if (!dir_ok.ok()) return ReportInputError(dir_ok);
  }
  return kExitOk;
}

int CmdCount(const FlagParser& flags) {
  // Validate flag values before touching the (possibly slow) input load, so
  // usage errors are reported instantly and unambiguously.
  const auto direction =
      ParseChoice("direction", flags.GetString("direction", "A-direction"),
                  AllDirectionStrategies());
  if (!direction.has_value()) return kExitUsage;
  const auto ordering = ParseChoice(
      "ordering", flags.GetString("ordering", "A-order"),
      std::vector<OrderingStrategy>{
          OrderingStrategy::kOriginal, OrderingStrategy::kDegree,
          OrderingStrategy::kAOrder, OrderingStrategy::kDfs,
          OrderingStrategy::kBfsR, OrderingStrategy::kSlashBurn,
          OrderingStrategy::kGro, OrderingStrategy::kBfs,
          OrderingStrategy::kRcm, OrderingStrategy::kRandom});
  if (!ordering.has_value()) return kExitUsage;
  const auto algorithm = ParseChoice(
      "algorithm", flags.GetString("algorithm", "Hu"),
      std::vector<TcAlgorithm>{
          TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
          TcAlgorithm::kTriCore, TcAlgorithm::kFox, TcAlgorithm::kBisson,
          TcAlgorithm::kHu, TcAlgorithm::kPolak});
  if (!algorithm.has_value()) return kExitUsage;
  const auto max_model_ms = ParseNumericFlag(flags, "max-model-ms", 0.0);
  if (!max_model_ms.has_value()) return kExitUsage;
  // A single count reads only the execution and cache knobs of the service
  // flags; they land in a BatchServiceOptions like batch's and serve's.
  BatchServiceOptions service;
  ServiceFlags exports;
  if (const int rc = ParseServiceFlags(flags, /*pool=*/false, &service,
                                       &exports);
      rc != kExitOk) {
    return rc;
  }
  // The fallback chain defaults to just --algorithm, so runs without
  // --fallback behave exactly as before the executor existed.
  const std::vector<FallbackStage> chain =
      flags.Has("fallback") ? service.chain
                            : std::vector<FallbackStage>{{false, *algorithm}};

  Tracer tracer;
  const bool tracing = !exports.trace_out.empty();
  uint64_t trace_id = 0;
  Span root;
  if (tracing) {
    trace_id = tracer.NewTraceId();
    root = tracer.StartSpan("gputc.count", trace_id);
  }

  ExecutionPolicy policy;
  // --timeout-ms budgets the whole command, the input load included.
  policy.deadline = Deadline::FromTimeoutMs(service.request_timeout_ms);
  policy.max_model_ms = *max_model_ms;
  policy.mem_budget_bytes = service.mem_budget_bytes;
  if (tracing) {
    policy.tracer = &tracer;
    policy.trace_id = trace_id;
    policy.parent_span = root.id();
  }

  Span load_span =
      tracing ? tracer.StartSpan("load", trace_id, root.id()) : Span();
  const StatusOr<Graph> g = LoadAny(flags, flags.GetBool("strict", false));
  if (!g.ok()) {
    load_span.SetStatus(g.status());
    return ReportInputError(g.status());
  }
  load_span.SetAttr("vertices", static_cast<int64_t>(g->num_vertices()));
  load_span.SetAttr("edges", g->num_edges());
  load_span.Finish();

  PreprocessOptions options;
  options.direction = *direction;
  options.ordering = *ordering;
  const DeviceSpec spec = DeviceSpec::TitanXpLike();

  // A single count only profits from the durable tier (the in-process tier
  // dies with the command), but both knobs work so a count can pre-warm the
  // artifact directory a later batch/serve will read.
  const TieredPrepCache prep_cache =
      MakeTieredPrepCache(service.prep_cache_dir, service.prep_cache_mb);
  options.prep_cache = prep_cache.cache.get();

  ExecutionTrace trace;
  const StatusOr<ExecutionResult> executed =
      ExecuteResilient(*g, spec, policy, chain, options, &trace);
  // The exports run on failure too: a trace of what went wrong is exactly
  // when observability pays for itself. Best-effort: a failed export warns
  // and the count's own exit code stands.
  root.Finish();
  (void)ExportTrace(tracer, exports.trace_out);
  (void)ExportMetrics(exports.metrics_out);
  if (flags.GetBool("trace", false) && !trace.attempts.empty()) {
    std::cerr << trace.Summary();
  }
  if (!executed.ok()) {
    std::cerr << "error: " << executed.status().ToString() << "\n";
    return ExecutorExitCode(executed.status());
  }
  const RunResult& r = executed->run;
  // Degraded attempts drop A-order, then A-direction; report what actually
  // ran, not what was asked for.
  PreprocessOptions effective = options;
  if (executed->variant != "base") {
    effective.ordering = OrderingStrategy::kOriginal;
  }
  if (executed->variant == "no-adirection") {
    effective.direction = DirectionStrategy::kDegreeBased;
  }
  std::cout << "algorithm:     " << executed->stage;
  if (executed->variant != "base" || trace.attempts.size() > 1) {
    std::cout << " (variant " << executed->variant << ", attempt "
              << trace.attempts.size() << ")";
  }
  std::cout << "\n"
            << "direction:     " << ToString(effective.direction)
            << " (Eq.1 cost " << Fmt(r.preprocess.direction_cost, 0) << ")\n"
            << "ordering:      " << ToString(effective.ordering)
            << " (Eq.3 cost " << Fmt(r.preprocess.ordering_cost, 0) << ")\n"
            << "triangles:     " << FmtCount(r.triangles) << "\n"
            << "preprocess:    " << Fmt(r.preprocess.total_ms, 2)
            << " ms (host)\n"
            << "kernel:        " << Fmt(r.kernel_ms(), 4)
            << " ms (simulated)\n";
  if (flags.GetBool("profile", false)) {
    std::cout << "\n" << FormatKernelReport(r.kernel);
  }
  return kExitOk;
}

int CmdDoctor(const FlagParser& flags) {
  if (!flags.Has("in")) {
    std::cerr << "need --in FILE\n";
    return kExitUsage;
  }
  const std::string path = flags.GetString("in", "");
  // Findings only the file format shows (a CSR entry with no mirror) come
  // from the loader; the edge-list scan adds the rest.
  ValidationReport report;
  StatusOr<EdgeList> list = LoadEdgeList(path, &report);
  if (!list.ok()) return ReportInputError(list.status());

  const GraphDoctor doctor;
  const ValidationReport scan = doctor.Examine(*list);
  report.findings.insert(report.findings.end(), scan.findings.begin(),
                         scan.findings.end());
  std::cout << "examined '" << path << "': " << list->num_vertices()
            << " vertices, " << list->num_edges() << " raw edges\n";
  if (report.clean()) {
    std::cout << "no defects found\n";
  } else {
    TablePrinter table({"finding", "count", "repairable", "first instance"});
    for (const Finding& f : report.findings) {
      table.AddRow({FindingKindName(f.kind), FmtCount(f.count),
                    FindingIsRepairable(f.kind) ? "yes" : "no", f.detail});
    }
    table.Print(std::cout);
  }

  if (!flags.GetBool("repair", false)) {
    return report.clean() ? kExitOk : kExitBadInput;
  }

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cerr << "--repair needs --out FILE\n";
    return kExitUsage;
  }
  StatusOr<Graph> repaired =
      doctor.BuildGraph(*std::move(list), RepairPolicy::kRepair);
  if (!repaired.ok()) return ReportInputError(repaired.status());
  const Status saved = SaveGraph(*repaired, out);
  if (!saved.ok()) {
    std::cerr << "error: " << saved.ToString() << "\n";
    return kExitRuntime;
  }
  std::cout << "repaired graph written to '" << out << "': "
            << repaired->num_vertices() << " vertices, "
            << repaired->num_edges() << " edges\n";
  return kExitOk;
}

// -- cache ------------------------------------------------------------------

/// `gputc cache stats|purge --prep-cache DIR`: operator tooling for the
/// durable artifact tier. `stats` scans the directory (file count + bytes);
/// `purge` unlinks every artifact. Both are safe against concurrent
/// services: stores are atomic renames, loads verify checksums, and a
/// mid-run purge just turns the next lookups into recomputes.
int CmdCache(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    std::cerr << "need a subcommand: gputc cache stats|purge "
                 "--prep-cache DIR\n";
    return kExitUsage;
  }
  const std::string sub = flags.positional()[1];
  if (sub != "stats" && sub != "purge") {
    std::cerr << "unknown cache subcommand '" << sub
              << "' (expected stats or purge)\n";
    return kExitUsage;
  }
  const std::string dir = flags.GetString("prep-cache", "");
  if (dir.empty() || dir == "true") {
    std::cerr << "need --prep-cache DIR\n";
    return kExitUsage;
  }

  DiskCacheStore store(dir);
  // Probe the directory first so a vanished, non-directory, or unwritable
  // path is one clean diagnostic instead of a per-file error cascade:
  // a flag-shaped mistake (path exists but is not a directory) is a usage
  // error, everything else is an input/IO error.
  const Status dir_ok = store.CheckDir();
  if (!dir_ok.ok()) {
    std::cerr << "error: " << dir_ok.ToString() << "\n";
    return dir_ok.code() == StatusCode::kInvalidArgument ? kExitUsage
                                                         : kExitBadInput;
  }
  if (sub == "stats") {
    const StatusOr<DiskCacheStore::DiskStats> stats = store.ScanStats();
    if (!stats.ok()) return ReportInputError(stats.status());
    std::cout << "directory:  " << dir << "\n"
              << "artifacts:  " << stats->files << "\n"
              << "bytes:      " << stats->bytes << "\n";
    return kExitOk;
  }
  const StatusOr<int64_t> purged = store.PurgeAll();
  if (!purged.ok()) return ReportInputError(purged.status());
  std::cout << "purged " << *purged << " artifact(s) from '" << dir << "'\n";
  return kExitOk;
}

// -- worker (internal) ------------------------------------------------------

/// The `gputc worker` subprocess body: the isolated execution half of
/// `batch --isolate`. Not listed in --help — it is an implementation detail
/// of the supervisor, spawned with its request pipe on --request-fd and its
/// response pipe on --response-fd. The loop reads one framed request at a
/// time, runs it through RunRequest, the runner the in-process path uses,
/// and writes heartbeats (a periodic tick plus one per executor stage) and
/// finally the report as the result frame. A clean EOF on the request pipe
/// is the shutdown signal.
int CmdWorker(const FlagParser& flags) {
  const int request_fd = static_cast<int>(flags.GetInt("request-fd", 3));
  const int response_fd = static_cast<int>(flags.GetInt("response-fd", 4));
  const auto beat_interval_ms =
      ParseNumericFlag(flags, "heartbeat-interval-ms", 25.0);
  if (!beat_interval_ms.has_value()) return kExitUsage;

  // The supervisor may vanish (service killed) while this worker writes; an
  // EPIPE error, then the EOF on the next read, is the graceful exit path —
  // not a SIGPIPE death that would read as a crash.
  std::signal(SIGPIPE, SIG_IGN);

  // Heartbeats (beat thread + per-stage hooks) and the result frame share
  // the response pipe; the mutex keeps their frames from interleaving.
  std::mutex write_mu;
  const auto send_beat = [&](const std::string& label) {
    std::lock_guard<std::mutex> lock(write_mu);
    (void)WriteFrame(response_fd, kFrameHeartbeat, label);
  };

  const char* ambient_env = std::getenv("GPUTC_FAILPOINTS");
  const std::string ambient = ambient_env != nullptr ? ambient_env : "";

  // The preprocessing cache outlives individual requests: tier 1 amortizes
  // repeated graphs across this worker's lifetime, and tier 2 (the
  // supervisor's --prep-cache directory, carried on the wire) is shared with
  // every other worker in the pool. Built lazily from the first request
  // that reaches the runner; the supervisor never changes the knobs mid-run.
  TieredPrepCache worker_cache;

  for (;;) {
    StatusOr<WireFrame> frame = ReadFrame(request_fd);
    if (!frame.ok()) {
      // Clean EOF at a frame boundary = supervisor closed the pipe: done.
      if (frame.status().code() == StatusCode::kFailedPrecondition) {
        return kExitOk;
      }
      std::cerr << "worker: request pipe error: "
                << frame.status().ToString() << "\n";
      return kExitRuntime;
    }
    if (frame->type != kFrameRequest) {
      std::cerr << "worker: unexpected frame type '" << frame->type << "'\n";
      return kExitRuntime;
    }
    StatusOr<WorkerRequest> wire = DecodeWorkerRequest(frame->body);
    if (!wire.ok()) {
      std::cerr << "worker: " << wire.status().ToString() << "\n";
      return kExitRuntime;
    }
    // The clock starts on arrival with what was left of the request's budget
    // at dispatch; 0 means no deadline.
    const Deadline deadline = Deadline::FromTimeoutMs(wire->request.timeout_ms);

    RequestReport report;
    // Everything in the request block runs with fail points evaluable: the
    // per-request schedule is the supervisor's chaos hook, and its blast
    // radius is exactly this process — the point of isolation.
    {
      FailPointScope scope;
      const BatchRequest& request = wire->request;
      Status armed = OkStatus();
      if (!request.failpoints.empty()) {
        armed = FailPointRegistry::Instance().ArmFromString(request.failpoints);
      }
      // Armed "worker.hang" simulates a wedged worker: heartbeats stop and
      // nothing further happens until the supervisor's watchdog SIGKILLs.
      // (Checked before the beat thread starts, so the silence is total.)
      if (armed.ok() && !CheckFailPoint("worker.hang").ok()) {
        for (;;) {
          std::this_thread::sleep_for(std::chrono::seconds(3600));
        }
      }

      std::atomic<bool> busy{true};
      std::thread beater([&] {
        while (busy.load(std::memory_order_acquire)) {
          send_beat("tick");
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              *beat_interval_ms));
        }
      });

      StatusOr<std::vector<FallbackStage>> chain =
          ParseFallbackChain(request.fallback);
      if (!armed.ok()) {
        report.status = armed.WithContext("failpoints override");
      } else if (!chain.ok()) {
        report.status = chain.status().WithContext("fallback override");
      } else {
        if (worker_cache.cache == nullptr) {
          worker_cache =
              MakeTieredPrepCache(wire->prep_cache_dir, wire->prep_cache_mb);
        }
        ExecutionPolicy policy;
        // The worker self-enforces the deadline; the supervisor's SIGKILL
        // (deadline + grace) is only the backstop for a wedged executor.
        policy.deadline = deadline;
        policy.on_stage = send_beat;
        // The supervisor judges ok vs degraded against the service's chain,
        // so no primary stage is needed here.
        RunRequest(request, *std::move(chain), policy,
                   worker_cache.cache.get(), /*primary=*/"", &report);
      }

      busy.store(false, std::memory_order_release);
      beater.join();

      // The result frame passes the "worker.response.torn" site between its
      // two halves (see WriteFrame) — still inside this request's schedule.
      Status written;
      {
        std::lock_guard<std::mutex> lock(write_mu);
        written =
            WriteFrame(response_fd, kFrameResult, EncodeWorkerResult(report));
      }
      if (!written.ok()) {
        std::cerr << "worker: response write failed: " << written.ToString()
                  << "\n";
        return kExitRuntime;
      }
    }
    // Revert to the ambient schedule so one request's fail points (and
    // their hit counters) never leak into the next request on this worker.
    FailPointRegistry::Instance().Reset();
    if (!ambient.empty()) {
      (void)FailPointRegistry::Instance().ArmFromString(ambient);
    }
  }
}

// -- batch and serve --------------------------------------------------------

/// Set by the SIGINT/SIGTERM/SIGHUP handler. Plain signal-safe flag; the
/// drain itself (which takes locks) runs on the watcher thread below.
std::atomic<int> g_drain_signal{0};

void DrainSignalHandler(int sig) {
  g_drain_signal.store(sig, std::memory_order_relaxed);
}

/// The drain watcher batch and serve share. SIGINT, SIGTERM and SIGHUP (HUP
/// because a run driven from a terminal should survive losing it no less
/// gracefully than a ^C), and a strict storage stop in the journal, each
/// become one `drain(reason)` call on this thread: outside every lock, never
/// from inside a report hook. Restores the previous handlers when destroyed.
class DrainWatcher {
 public:
  DrainWatcher(const RequestJournal& journal,
               std::function<void(const std::string&)> drain) {
    g_drain_signal.store(0, std::memory_order_relaxed);
    prev_int_ = std::signal(SIGINT, DrainSignalHandler);
    prev_term_ = std::signal(SIGTERM, DrainSignalHandler);
    prev_hup_ = std::signal(SIGHUP, DrainSignalHandler);
    thread_ = std::thread([this, &journal, drain = std::move(drain)] {
      while (!stop_.load(std::memory_order_acquire)) {
        const int sig = g_drain_signal.load(std::memory_order_relaxed);
        if (sig != 0) {
          drain(sig == SIGINT   ? "SIGINT"
                : sig == SIGHUP ? "SIGHUP"
                                : "SIGTERM");
          return;
        }
        if (journal.stopped()) {
          drain(journal.stop_reason());
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  ~DrainWatcher() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    std::signal(SIGINT, prev_int_);
    std::signal(SIGTERM, prev_term_);
    std::signal(SIGHUP, prev_hup_);
  }
  DrainWatcher(const DrainWatcher&) = delete;
  DrainWatcher& operator=(const DrainWatcher&) = delete;

 private:
  using Handler = void (*)(int);
  Handler prev_int_ = SIG_DFL;
  Handler prev_term_ = SIG_DFL;
  Handler prev_hup_ = SIG_DFL;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Reports a RequestJournal::Open / OpenSink failure with the exit code its
/// status code names (see request_journal.h).
int ReportJournalError(const Status& status) {
  if (status.code() == StatusCode::kDataLoss) return ReportInputError(status);
  std::cerr << "error: " << status.message() << "\n";
  return status.code() == StatusCode::kFailedPrecondition ? kExitUsage
                                                          : kExitRuntime;
}

/// The strict-stop epilogue of batch and serve: the recovery path on
/// stderr, then exit code 6.
int ReportStorageStop(const char* command, RequestJournal& journal,
                      const std::string& next_step) {
  std::cerr << command << ": storage fail-stop ("
            << journal.health().strict_stop_reason()
            << "); the journal holds exactly the durable prefix — free "
               "space, then "
            << next_step << "\n";
  return kExitStorage;
}

// -- batch ------------------------------------------------------------------

int CmdBatch(const FlagParser& flags) {
  if (!flags.Has("manifest")) {
    std::cerr << "need --manifest FILE\n";
    return kExitUsage;
  }
  BatchServiceOptions options;
  ServiceFlags svc;
  if (const int rc = ParseServiceFlags(flags, /*pool=*/true, &options, &svc);
      rc != kExitOk) {
    return rc;
  }
  StatusOr<ShedPolicy> shed =
      ParseShedPolicy(flags.GetString("shed-policy", "block"));
  if (!shed.ok()) {
    std::cerr << shed.status().message() << "\n";
    return kExitUsage;
  }
  options.shed_policy = *shed;

  StatusOr<std::vector<BatchRequest>> manifest =
      LoadManifest(flags.GetString("manifest", ""));
  if (!manifest.ok()) return ReportInputError(manifest.status());
  if (manifest->empty()) {
    std::cout << "manifest is empty; nothing to do\n";
    return kExitOk;
  }

  StatusOr<std::unique_ptr<RequestJournal>> opened =
      RequestJournal::Open(svc.wal_dir, svc.resume, svc.wal_policy);
  if (!opened.ok()) return ReportJournalError(opened.status());
  RequestJournal& journal = **opened;
  if (journal.has_wal()) {
    // Preflight: refuse the manifest up front when the WAL directory's free
    // space cannot plausibly hold its projected WAL + journal bytes —
    // failing at admission beats failing halfway through the batch.
    const Status space = PreflightSpaceCheck(
        svc.wal_dir, EstimateBatchStorageBytes(manifest->size()));
    if (!space.ok()) {
      std::cerr << "error: " << space.ToString() << "\n";
      return kExitStorage;
    }
  }
  if (const Status sink = journal.OpenSink(svc.journal); !sink.ok()) {
    return ReportJournalError(sink);
  }

  // Replayed terminal outcomes are final (including rejections): their
  // stored journal lines are emitted verbatim and those requests are never
  // resubmitted.
  std::set<std::string> replayed_ids;
  int replayed_success = 0;
  int replayed_nonsuccess = 0;
  if (!journal.replay().empty()) {
    std::set<std::string> manifest_ids;
    for (const BatchRequest& request : *manifest) {
      manifest_ids.insert(request.id);
    }
    journal.EmitReplayed([&](const WalDoneRecord& record) {
      if (manifest_ids.count(record.id) == 0) {
        std::cerr << "warning: WAL outcome for '" << record.id
                  << "' is not in this manifest; ignoring it\n";
        return false;
      }
      replayed_ids.insert(record.id);
      // The outcome rides in the WAL record as its own field, so
      // classification never depends on re-parsing the journal JSON.
      if (record.outcome == RequestOutcomeName(RequestOutcome::kOk) ||
          record.outcome == RequestOutcomeName(RequestOutcome::kDegraded)) {
        ++replayed_success;
      } else {
        ++replayed_nonsuccess;
      }
      return true;
    });
    std::cerr << "batch: resumed from WAL '" << svc.wal_dir << "': "
              << replayed_ids.size() << " request(s) replayed verbatim, "
              << journal.replay().pending.size() << " interrupted mid-run, "
              << (manifest->size() - replayed_ids.size()) << " to run\n";
  }

  Tracer tracer;
  if (!svc.trace_out.empty()) options.tracer = &tracer;
  BatchService service(options);
  service.set_on_report(
      [&journal](const RequestReport& report) { journal.Done(report); });

  BatchSummary summary;
  {
    // With --isolate the drain also reaps every live worker subprocess.
    DrainWatcher watcher(journal, [&service](const std::string& reason) {
      service.RequestDrain(reason);
    });
    service.Start();
    for (BatchRequest& request : *manifest) {
      if (replayed_ids.count(request.id) > 0) continue;  // Already journaled.
      // A strict stop closes admission: everything not yet submitted waits
      // for --resume.
      if (journal.stopped() || !journal.Intent(request.id).ok()) break;
      service.Submit(std::move(request));
    }
    summary = service.Finish();
  }

  // Best-effort exports: a disk too sick to take the trace file must not
  // turn a batch whose journal is complete into a failure.
  (void)ExportTrace(tracer, svc.trace_out);
  (void)ExportMetrics(svc.metrics_out);

  // Human-readable recap on stderr so a journal piped from stdout stays pure.
  std::cerr << "batch: " << summary.Total() << " requests — "
            << summary.CountOutcome(RequestOutcome::kOk) << " ok, "
            << summary.CountOutcome(RequestOutcome::kDegraded)
            << " degraded, "
            << summary.CountOutcome(RequestOutcome::kRejected)
            << " rejected, " << summary.CountOutcome(RequestOutcome::kFailed)
            << " failed";
  if (!replayed_ids.empty()) {
    std::cerr << " (+" << replayed_ids.size() << " replayed from WAL)";
  }
  std::cerr << "\n";
  if (summary.drained) {
    std::cerr << "batch: drained early (" << summary.drain_reason << ")\n";
  }
  for (const std::string& backend : service.breakers().BackendNames()) {
    const CircuitBreaker& breaker = service.breakers().ForBackend(backend);
    if (breaker.state() != CircuitBreaker::State::kClosed) {
      std::cerr << "batch: breaker '" << backend << "' is "
                << BreakerStateName(breaker.state()) << "\n";
    }
  }

  if (journal.stopped()) {
    // Un-journaled requests are exactly the ones with no durable outcome, so
    // the accounting check below would (correctly) refuse.
    return ReportStorageStop("batch", journal,
                             "re-run with --wal " + svc.wal_dir +
                                 " --resume to finish the manifest");
  }
  const int64_t journaled =
      static_cast<int64_t>(replayed_ids.size()) + summary.Total();
  if (journaled != static_cast<int64_t>(manifest->size())) {
    // Accounting invariant: every manifest request journals exactly once —
    // either replayed verbatim from the WAL or freshly reported.
    std::cerr << "error: journal incomplete (" << journaled << " of "
              << manifest->size() << " requests)\n";
    return kExitRuntime;
  }
  const int64_t success = replayed_success +
                          summary.CountOutcome(RequestOutcome::kOk) +
                          summary.CountOutcome(RequestOutcome::kDegraded);
  const int64_t nonsuccess = replayed_nonsuccess +
                             summary.CountOutcome(RequestOutcome::kRejected) +
                             summary.CountOutcome(RequestOutcome::kFailed);
  if (nonsuccess == 0) return kExitOk;
  if (success == 0) return kExitExhausted;
  return kExitPartial;
}

// -- serve ------------------------------------------------------------------

int CmdServe(const FlagParser& flags) {
  if (!flags.Has("listen")) {
    std::cerr << "need --listen HOST:PORT or unix:PATH\n";
    return kExitUsage;
  }
  StatusOr<ListenSpec> listen =
      ParseListenSpec(flags.GetString("listen", ""));
  if (!listen.ok()) {
    std::cerr << listen.status().message() << "\n";
    return kExitUsage;
  }
  ServerOptions options;
  options.listen = *listen;
  // serve drains with a longer default grace than batch.
  options.batch.drain_grace_ms = options.drain_grace_ms;
  ServiceFlags svc;
  if (const int rc =
          ParseServiceFlags(flags, /*pool=*/true, &options.batch, &svc);
      rc != kExitOk) {
    return rc;
  }
  options.drain_grace_ms = options.batch.drain_grace_ms;

  const auto max_connections =
      ParseNumericFlag(flags, "max-connections", 64.0);
  const auto max_line_bytes =
      ParseNumericFlag(flags, "max-line-bytes", 65536.0);
  const auto idle_timeout_ms =
      ParseNumericFlag(flags, "idle-timeout-ms", 30000.0);
  const auto io_timeout_ms = ParseNumericFlag(flags, "io-timeout-ms", 10000.0);
  const auto target_p99_ms = ParseNumericFlag(flags, "target-p99-ms", 1000.0);
  const auto max_inflight = ParseNumericFlag(flags, "max-inflight", 0.0);
  if (!max_connections || !max_line_bytes || !idle_timeout_ms ||
      !io_timeout_ms || !target_p99_ms || !max_inflight) {
    return kExitUsage;
  }
  if (*max_connections < 1.0 || *max_line_bytes < 64.0) {
    std::cerr << "--max-connections must be >= 1 and --max-line-bytes >= 64\n";
    return kExitUsage;
  }
  if (flags.Has("health")) {
    StatusOr<ListenSpec> health =
        ParseListenSpec(flags.GetString("health", ""));
    if (!health.ok()) {
      std::cerr << health.status().message() << "\n";
      return kExitUsage;
    }
    options.has_health = true;
    options.health = *health;
  }
  options.max_connections = static_cast<size_t>(*max_connections);
  options.max_line_bytes = static_cast<size_t>(*max_line_bytes);
  options.idle_timeout_ms = *idle_timeout_ms;
  options.io_timeout_ms = *io_timeout_ms;
  // Service-side sheds (memory gate, queue races) carry the static target
  // as their backoff hint; the server's own gates use the live p99.
  options.batch.reject_retry_after_ms = *target_p99_ms;
  options.limiter.target_ms = *target_p99_ms;
  options.limiter.max_limit = *max_inflight >= 1.0
                                  ? static_cast<int>(*max_inflight)
                                  : static_cast<int>(options.batch.queue_depth);
  options.limiter.initial_limit =
      std::min(options.limiter.max_limit, std::max(1, options.batch.jobs));

  // Same WAL contract as batch; intents also store the request line, so a
  // resume can re-admit work whose client is gone.
  StatusOr<std::unique_ptr<RequestJournal>> opened =
      RequestJournal::Open(svc.wal_dir, svc.resume, svc.wal_policy);
  if (!opened.ok()) return ReportJournalError(opened.status());
  RequestJournal& journal = **opened;
  if (const Status sink = journal.OpenSink(svc.journal); !sink.ok()) {
    return ReportJournalError(sink);
  }
  // /readyz flips to 503 "storage-degraded" on a strict-WAL stop and carries
  // an "X-Gputc-Storage: degraded" header while any sink is benched.
  options.storage = &journal.health();
  options.run_epoch = journal.run_epoch();
  options.on_intent = [&journal](const std::string& id,
                                 const std::string& line) {
    return journal.Intent(id, line);
  };
  options.on_report = [&journal](const RequestReport& report) {
    journal.Done(report);
  };
  // The serve journal is a newer surface than batch's, so it self-identifies:
  // its first line names the build.
  journal.Emit("{\"version\":\"" + VersionString() + "\"}");
  journal.EmitReplayed();

  Server server(std::move(options));
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started.ToString() << "\n";
    return kExitRuntime;
  }

  // Interrupted requests from the WAL re-enter through the service; their
  // original clients are gone, so their outcomes land in the journal only.
  // One that cannot be re-admitted still resolves exactly once, as a
  // terminal rejection.
  const WalReplay& replay = journal.replay();
  int recovered = 0;
  for (const std::string& id : replay.pending) {
    if (journal.stopped()) break;
    const auto spec = replay.pending_specs.find(id);
    Status admitted =
        spec == replay.pending_specs.end()
            ? FailedPreconditionError(
                  "WAL intent carries no request spec (written by a "
                  "pre-serve build?); cannot re-admit")
            : server.SubmitRecovered(id, spec->second);
    if (admitted.ok()) {
      ++recovered;
    } else {
      journal.RejectRecovered(id, std::move(admitted));
    }
  }
  if (!replay.empty()) {
    std::cerr << "serve: resumed from WAL '" << svc.wal_dir << "': "
              << replay.done.size() << " outcome(s) replayed verbatim, "
              << recovered << " interrupted request(s) re-admitted\n";
  }

  // Client departures surface as EPIPE statuses (Connection uses
  // MSG_NOSIGNAL), but belt-and-braces: no write anywhere in the daemon may
  // become a SIGPIPE death.
  std::signal(SIGPIPE, SIG_IGN);
  ServerSummary summary;
  {
    DrainWatcher watcher(journal, [&server](const std::string& reason) {
      server.RequestShutdown(reason);
    });
    // Startup banner on stderr (stdout may BE the journal). Tests parse the
    // resolved port out of this line, so --listen 127.0.0.1:0 is usable.
    const std::string display =
        listen->is_unix
            ? listen->ToString()
            : listen->host + ":" + std::to_string(server.listen_port());
    std::cerr << VersionString() << "\n";
    std::cerr << "serve: listening on " << display;
    if (flags.Has("health")) {
      std::cerr << " (health on " << flags.GetString("health", "") << ")";
    }
    std::cerr << "\n";
    summary = server.Run();
  }

  std::cerr << "serve: drained (" << summary.drain_reason << "): "
            << summary.connections_accepted << " connection(s), "
            << summary.requests_received << " request(s), "
            << summary.responses_sent << " response(s) delivered, "
            << summary.overload_rejections << " overload rejection(s), "
            << summary.protocol_errors << " protocol error(s); journal has "
            << summary.batch.Total() << " service outcome(s)\n";
  if (journal.stopped()) {
    return ReportStorageStop("serve", journal,
                             "restart with --wal " + svc.wal_dir + " --resume");
  }
  // A daemon's request outcomes are the journal's business; a clean drain
  // is a successful run.
  return kExitOk;
}

int CmdVersion() {
  std::cout << VersionString() << "\n";
  return kExitOk;
}

/// Smoke path for the exporters: fills a self-contained registry with one
/// metric of each kind and prints the snapshot, so `gputc metrics-dump |
/// promtool check metrics` (or a JSON parser) can validate the formats
/// without running a count.
int CmdMetricsDump(const FlagParser& flags) {
  MetricsRegistry registry;
  Counter& runs = registry.GetCounter("gputc_demo_runs_total",
                                      "Demo counter exercising the exporter",
                                      {{"kind", "smoke"}});
  runs.Increment();
  runs.Increment(41);
  registry
      .GetGauge("gputc_demo_inflight", "Demo gauge exercising the exporter")
      .Set(3.5);
  HistogramMetric& latency = registry.GetHistogram(
      "gputc_demo_latency_ms", "Demo histogram exercising the exporter", 0.0,
      100.0, 10);
  for (int i = 0; i < 10; ++i) latency.Observe(10.5 * i);
  std::cout << (flags.GetBool("json", false) ? registry.Json()
                                             : registry.PrometheusText());
  return kExitOk;
}

int CmdCalibrate() {
  const DeviceSpec spec = DeviceSpec::TitanXpLike();
  const CalibrationResult r = CalibrateResourceModel(spec);
  TablePrinter table({"list length", "BW (B/cycle)", "p_c", "F_c", "F_m"});
  for (const CalibrationSample& s : r.samples) {
    table.AddRow({FmtCount(s.list_length), Fmt(s.bandwidth, 1), Fmt(s.p_c, 1),
                  Fmt(s.compute_intensity, 4), Fmt(s.memory_intensity, 3)});
  }
  table.Print(std::cout);
  std::cout << "lambda = " << Fmt(r.lambda, 3)
            << "   (figure-9 fit: slope " << Fmt(r.fit.slope, 3)
            << ", r^2 " << Fmt(r.fit.r_squared, 3) << ")\n";
  return kExitOk;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("version", false)) return CmdVersion();
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional()[0];
  if (command == "datasets") return CmdDatasets();
  if (command == "info") return CmdInfo(flags);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "count") return CmdCount(flags);
  if (command == "doctor") return CmdDoctor(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "cache") return CmdCache(flags);
  if (command == "worker") return CmdWorker(flags);
  if (command == "version") return CmdVersion();
  if (command == "metrics-dump") return CmdMetricsDump(flags);
  if (command == "calibrate") return CmdCalibrate();
  std::cerr << "unknown command '" << command << "'\n";
  return Usage();
}

}  // namespace
}  // namespace gputc

int main(int argc, char** argv) { return gputc::Main(argc, argv); }

#include "service/manifest.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/trace.h"
#include "sim/device.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace gputc {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits "k1=v1,k2=v2" into a map; InvalidArgument on a malformed pair.
Status ParseParams(std::string_view spec,
                   std::map<std::string, std::string>* out) {
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view pair = Trim(spec.substr(begin, end - begin));
    begin = end + 1;
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq == pair.size() - 1) {
      return InvalidArgumentError("malformed parameter '" + std::string(pair) +
                                  "' (expected key=value)");
    }
    (*out)[std::string(Trim(pair.substr(0, eq)))] =
        std::string(Trim(pair.substr(eq + 1)));
  }
  return OkStatus();
}

/// Reads all of `raw` into `*out` as a number, or as an integer when
/// `integer`; false when `raw` holds anything else.
bool ReadNumber(const std::string& raw, bool integer, double* out) {
  char* end = nullptr;
  *out = integer ? static_cast<double>(std::strtoll(raw.c_str(), &end, 10))
                 : std::strtod(raw.c_str(), &end);
  return end != raw.c_str() && *end == '\0';
}

/// The keys of each generator family; gamma and beta take numbers, every
/// other key an integer.
constexpr std::pair<std::string_view, std::string_view> kGenFamilies[] = {
    {"rmat", "scale edge-factor seed"},
    {"powerlaw", "nodes gamma min-degree max-degree seed"},
    {"er", "nodes edges seed"},
    {"ws", "nodes k beta seed"}};

/// InvalidArgument unless `request` names a generator family and each of its
/// parameters is a key of that family holding a value of the key's type.
Status CheckGenParams(const BatchRequest& request) {
  for (const auto& [family, keys] : kGenFamilies) {
    if (request.target != family) continue;
    for (const auto& [key, value] : request.params) {
      const bool known = (" " + std::string(keys) + " ")
                             .find(" " + key + " ") != std::string::npos;
      const bool integer = key != "gamma" && key != "beta";
      double ignored = 0.0;
      if (!known || !ReadNumber(value, integer, &ignored)) {
        return InvalidArgumentError(
            (known ? "parameter " + key + "=" + value + " is not " +
                         (integer ? "an integer" : "a number")
                   : "unknown parameter '" + key + "'") +
            "; valid " + request.target + " keys: " + std::string(keys));
      }
    }
    return OkStatus();
  }
  return InvalidArgumentError("unknown generator family '" + request.target +
                              "'; valid choices: rmat powerlaw er ws");
}

/// Parses one non-comment manifest line into a request (sans id).
Status ParseLine(std::string_view line, BatchRequest* request) {
  std::istringstream tokens{std::string(line)};
  std::string source;
  tokens >> source;
  request->source = source;

  if (source.rfind("dataset:", 0) == 0) {
    request->kind = BatchRequest::Kind::kDataset;
    request->target = source.substr(8);
  } else if (source.rfind("file:", 0) == 0) {
    request->kind = BatchRequest::Kind::kFile;
    request->target = source.substr(5);
  } else if (source.rfind("gen:", 0) == 0) {
    request->kind = BatchRequest::Kind::kGenerate;
    const std::string rest = source.substr(4);
    const size_t colon = rest.find(':');
    request->target = rest.substr(0, colon);
    if (colon != std::string::npos) {
      GPUTC_RETURN_IF_ERROR(ParseParams(rest.substr(colon + 1),
                                        &request->params));
    }
    GPUTC_RETURN_IF_ERROR(CheckGenParams(*request));
  } else if (source.find('/') != std::string::npos ||
             source.find('.') != std::string::npos) {
    request->kind = BatchRequest::Kind::kFile;
    request->target = source;
  } else {
    request->kind = BatchRequest::Kind::kDataset;
    request->target = source;
  }
  if (request->target.empty()) {
    return InvalidArgumentError("empty source in '" + std::string(line) + "'");
  }

  std::string override_token;
  while (tokens >> override_token) {
    const size_t eq = override_token.find('=');
    if (eq == std::string::npos || eq == 0 || eq == override_token.size() - 1) {
      return InvalidArgumentError("malformed override '" + override_token +
                                  "' (expected key=value)");
    }
    const std::string key = override_token.substr(0, eq);
    const std::string value = override_token.substr(eq + 1);
    if (key == "timeout-ms") {
      if (!ReadNumber(value, /*integer=*/false, &request->timeout_ms)) {
        return InvalidArgumentError("timeout-ms value '" + value +
                                    "' is not a number");
      }
      if (request->timeout_ms < 0.0) {
        return InvalidArgumentError("timeout-ms must be >= 0, got " + value);
      }
    } else if (key == "fallback") {
      request->fallback = value;
    } else if (key == "failpoints") {
      // Only the coarse shape is checked here; ArmFromString validates the
      // full syntax in the process that arms it (the worker under --isolate)
      // and a malformed schedule fails that request, not the whole batch.
      if (value.find('=') == std::string::npos) {
        return InvalidArgumentError(
            "failpoints override '" + value +
            "' is not a 'site=code[@count][%prob][$seed];...' schedule");
      }
      request->failpoints = value;
    } else {
      return InvalidArgumentError(
          "unknown override key '" + key +
          "'; valid keys: timeout-ms fallback failpoints");
    }
  }
  return OkStatus();
}

int64_t GetIntParam(const std::map<std::string, std::string>& params,
                    const std::string& key, int64_t def) {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double GetDoubleParam(const std::map<std::string, std::string>& params,
                      const std::string& key, double def) {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

/// Journal strings are escaped exactly as the trace export escapes them.
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  AppendJsonEscaped(out, s);
  return out;
}

}  // namespace

StatusOr<std::vector<BatchRequest>> ParseManifest(std::istream& in) {
  std::vector<BatchRequest> requests;
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == '%') continue;
    BatchRequest request;
    const Status parsed = ParseLine(line, &request);
    if (!parsed.ok()) {
      return parsed.WithContext("manifest line " + std::to_string(line_number));
    }
    request.id = std::to_string(line_number) + ":" + request.source;
    requests.push_back(std::move(request));
  }
  return requests;
}

StatusOr<std::vector<BatchRequest>> LoadManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open manifest '" + path + "'");
  }
  StatusOr<std::vector<BatchRequest>> requests = ParseManifest(in);
  if (!requests.ok()) {
    return requests.status().WithContext("manifest '" + path + "'");
  }
  return requests;
}

StatusOr<Graph> MaterializeRequest(const BatchRequest& request) {
  switch (request.kind) {
    case BatchRequest::Kind::kDataset:
      return TryLoadDataset(request.target);
    case BatchRequest::Kind::kFile:
      return LoadGraph(request.target);
    case BatchRequest::Kind::kGenerate:
      break;
  }
  // Generated inputs pass the same "io.load" site as file loads, so one
  // chaos schedule covers every manifest source kind.
  GPUTC_INJECT_FAULT("io.load");
  const std::map<std::string, std::string>& p = request.params;
  const uint64_t seed = static_cast<uint64_t>(GetIntParam(p, "seed", 1));
  if (request.target == "rmat") {
    return TryGenerateRmat(static_cast<int>(GetIntParam(p, "scale", 8)),
                           static_cast<int>(GetIntParam(p, "edge-factor", 8)),
                           seed);
  }
  if (request.target == "powerlaw") {
    return TryGeneratePowerLawConfiguration(
        static_cast<VertexId>(GetIntParam(p, "nodes", 1000)),
        GetDoubleParam(p, "gamma", 2.1),
        static_cast<EdgeCount>(GetIntParam(p, "min-degree", 2)),
        static_cast<EdgeCount>(GetIntParam(p, "max-degree", 100)), seed);
  }
  if (request.target == "er") {
    return TryGenerateErdosRenyi(
        static_cast<VertexId>(GetIntParam(p, "nodes", 1000)),
        static_cast<EdgeCount>(GetIntParam(p, "edges", 5000)), seed);
  }
  if (request.target == "ws") {
    return TryGenerateWattsStrogatz(
        static_cast<VertexId>(GetIntParam(p, "nodes", 1000)),
        static_cast<int>(GetIntParam(p, "k", 4)),
        GetDoubleParam(p, "beta", 0.05), seed);
  }
  return InvalidArgumentError("unknown generator family '" + request.target +
                              "'");
}

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kDegraded:
      return "degraded";
    case RequestOutcome::kRejected:
      return "rejected";
    case RequestOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string RequestReport::ToJson() const {
  std::string out = "{";
  out += "\"id\":\"" + JsonEscape(id) + "\"";
  out += ",\"source\":\"" + JsonEscape(source) + "\"";
  out += ",\"outcome\":\"" + std::string(RequestOutcomeName(outcome)) + "\"";
  out += ",\"code\":\"" + std::string(StatusCodeName(status.code())) + "\"";
  out += ",\"message\":\"" + JsonEscape(status.message()) + "\"";
  out += ",\"stage\":\"" + JsonEscape(stage) + "\"";
  out += ",\"variant\":\"" + JsonEscape(variant) + "\"";
  out += ",\"triangles\":" + std::to_string(triangles);
  out += ",\"trace_id\":\"" + TraceIdHex(trace_id) + "\"";
  if (retry_after_ms >= 0) {
    out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  if (!durable) {
    // Emitted only in the degraded state, so journals written with a
    // healthy disk stay byte-identical to earlier releases.
    out += ",\"durable\":false";
  }
  out += ",\"queue_ms\":" + std::to_string(queue_ms);
  out += ",\"exec_ms\":" + std::to_string(exec_ms);
  out += ",\"timings\":{";
  out += "\"queue_ms\":" + std::to_string(queue_ms);
  out += ",\"materialize_ms\":" + std::to_string(materialize_ms);
  out += ",\"admit_ms\":" + std::to_string(admit_ms);
  out += ",\"exec_ms\":" + std::to_string(exec_ms);
  out += "}";
  out += ",\"attempts\":" + std::to_string(attempts);
  out += ",\"trace\":[";
  for (size_t i = 0; i < trace.size(); ++i) {
    out += i > 0 ? ",\"" : "\"";
    AppendJsonEscaped(out, trace[i]);
    out += "\"";
  }
  out += "]}";
  return out;
}

RequestOutcome CountedOutcome(const RequestReport& report,
                              const std::string& primary) {
  if (!report.status.ok()) return RequestOutcome::kFailed;
  return report.variant == "base" && report.stage == primary
             ? RequestOutcome::kOk
             : RequestOutcome::kDegraded;
}

ExecutionTrace RunRequest(const BatchRequest& request,
                          std::vector<FallbackStage> chain,
                          ExecutionPolicy policy, PrepCache* cache,
                          const std::string& primary, RequestReport* report,
                          const BeforeCount& before_count) {
  ExecutionTrace trace;
  report->outcome = RequestOutcome::kFailed;
  const Timer materialize_timer;
  StatusOr<Graph> graph = MaterializeRequest(request);
  report->materialize_ms = materialize_timer.ElapsedMillis();
  if (!graph.ok()) {
    report->status = graph.status().WithContext("materializing '" +
                                                request.source + "'");
    return trace;
  }
  if (before_count) {
    report->status = before_count(*graph, &chain, &report->outcome);
    if (!report->status.ok()) return trace;
  }

  Span exec_span = policy.tracer != nullptr
                       ? policy.tracer->StartSpan("execute", policy.trace_id,
                                                  policy.parent_span)
                       : Span();
  policy.parent_span = exec_span.id();
  PreprocessOptions preprocess;
  preprocess.prep_cache = cache;
  const StatusOr<ExecutionResult> executed = ExecuteResilient(
      *graph, DeviceSpec::TitanXpLike(), policy, chain, preprocess, &trace);
  exec_span.SetAttr("attempts", static_cast<int64_t>(trace.attempts.size()));
  exec_span.SetStatus(executed.status());

  report->attempts = static_cast<int>(trace.attempts.size());
  report->trace.reserve(trace.attempts.size());
  for (const AttemptRecord& attempt : trace.attempts) {
    report->trace.push_back(
        attempt.stage + "/" + attempt.variant + " -> " +
        (attempt.status.ok() ? "OK" : attempt.status.ToString()));
  }
  report->status = executed.status();
  if (executed.ok()) {
    report->stage = executed->stage;
    report->variant = executed->variant;
    report->triangles = executed->run.triangles;
  }
  report->outcome = CountedOutcome(*report, primary);
  return trace;
}

}  // namespace gputc

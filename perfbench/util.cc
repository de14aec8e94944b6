#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> workloads = {
      {"rmat-count",
       "Skewed, triangle-dense RMAT-15 graph, one client: exact counting "
       "dominates and A-direction/A-order shape the modelled kernel.",
       false},
      {"sparse-count",
       "Flat Watts-Strogatz graph, 1M vertices, one client: ingest, "
       "validation and preprocessing dominate; the working set is far "
       "beyond L2.",
       false},
      {"service-mix",
       "BatchService, 4 in flight, WAL and two-tier prep cache over 64 small "
       "graphs and all five counters: per-request service costs dominate.",
       true},
  };
  return workloads;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int64_t Corpus::PoolArtifactBytes() const {
  int64_t total = 0;
  for (const RequestSpec& r : requests) total += r.artifact_bytes;
  return total;
}

std::vector<gputc::FallbackStage> ChainFor(gputc::TcAlgorithm algorithm) {
  return {gputc::FallbackStage{false, algorithm},
          gputc::FallbackStage{true, gputc::TcAlgorithm::kHu}};
}

bool SameKernel(const gputc::KernelStats& a, const gputc::KernelStats& b) {
  // Bitwise per field: "identical" means the same bits, not merely ==.
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same(a.cycles, b.cycles) && same(a.millis, b.millis) &&
         a.num_blocks == b.num_blocks && a.supersteps == b.supersteps &&
         same(a.total_ops, b.total_ops) &&
         same(a.total_transactions, b.total_transactions) &&
         same(a.total_shared_transactions, b.total_shared_transactions) &&
         same(a.compute_cycles, b.compute_cycles) &&
         same(a.memory_cycles, b.memory_cycles) &&
         same(a.shared_cycles, b.shared_cycles) &&
         same(a.sync_cycles, b.sync_cycles) &&
         same(a.sm_utilization, b.sm_utilization);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double ClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// A "Vm...:  <n> kB" field of /proc/self/status, in kB (0 if absent).
double StatusFieldKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }
double PeakRssMb() { return StatusFieldKb("VmHWM") / 1024.0; }
double CurrentRssKb() { return StatusFieldKb("VmRSS"); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Result::ToJson(const Corpus& corpus, bool trace) const {
  const WorkloadInfo* info = FindWorkload(corpus.workload);
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(corpus.workload)
      << ",\"why\":" << JsonString(info != nullptr ? info->why : "")
      << ",\"seed\":" << corpus.seed << ",\"toy\":" << (corpus.toy ? 1 : 0)
      << ",\"trace\":" << (trace ? 1 : 0) << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"wrong\":" << wrong
      << ",\"degraded\":" << degraded << ",\"checks\":[";
  for (size_t i = 0; i < check_failures.size(); ++i) {
    out << (i > 0 ? "," : "") << JsonString(check_failures[i]);
  }
  out << "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? "," : "") << JsonString(metrics[i].name)
        << ":{\"value\":" << JsonNumber(metrics[i].value)
        << ",\"unit\":" << JsonString(metrics[i].unit) << "}";
  }
  out << "},\"inputs\":[";
  for (size_t i = 0; i < corpus.inputs.size(); ++i) {
    const InputGraph& g = corpus.inputs[i];
    out << (i > 0 ? "," : "") << "{\"name\":" << JsonString(g.name)
        << ",\"family\":" << JsonString(g.family) << ",\"n\":" << g.n
        << ",\"m\":" << g.m << ",\"max_degree\":" << g.max_degree
        << ",\"triangles\":" << g.triangles << "}";
  }
  out << "],\"record\":{";
  for (size_t i = 0; i < record.size(); ++i) {
    out << (i > 0 ? "," : "") << JsonString(record[i].first) << ":"
        << record[i].second;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench

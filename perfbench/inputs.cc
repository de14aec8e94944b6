// Seeded corpora: every workload's graphs are generated from the seed, saved
// as v2 .bin files, and described in `corpus.txt` together with an oracle
// triangle count and the reference result of ExecuteResilient's base attempt
// for each entry of the workload's fixed request list.

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "graph/generators.h"
#include "graph/io.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using gputc::Graph;
using gputc::TcAlgorithm;
using gputc::VertexId;

/// The paper's five counters, in the order service-mix requests cycle them.
constexpr TcAlgorithm kServiceCounters[] = {
    TcAlgorithm::kHu, TcAlgorithm::kTriCore,
    TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kFox,
    TcAlgorithm::kBisson};

/// Degree-ordered marking count. Orients each edge towards the higher
/// (degree, id) endpoint, stamps u's out-neighbours, then probes the
/// out-neighbours of each of them. It shares no code with the library's
/// counters or its `cpu` rung, which intersect sorted lists.
int64_t OracleTriangles(const Graph& g) {
  const VertexId n = g.num_vertices();
  const auto before = [&g](VertexId a, VertexId b) {
    return g.degree(a) < g.degree(b) || (g.degree(a) == g.degree(b) && a < b);
  };
  std::vector<int64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    int64_t out = 0;
    for (VertexId v : g.neighbors(u)) out += before(u, v) ? 1 : 0;
    offsets[u + 1] = offsets[u] + out;
  }
  std::vector<VertexId> adj(static_cast<size_t>(offsets[n]));
  for (VertexId u = 0; u < n; ++u) {
    int64_t at = offsets[u];
    for (VertexId v : g.neighbors(u)) {
      if (before(u, v)) adj[static_cast<size_t>(at++)] = v;
    }
  }
  constexpr VertexId kNone = std::numeric_limits<VertexId>::max();
  std::vector<VertexId> stamp(n, kNone);
  int64_t triangles = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (int64_t i = offsets[u]; i < offsets[u + 1]; ++i) stamp[adj[i]] = u;
    for (int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const VertexId v = adj[i];
      for (int64_t j = offsets[v]; j < offsets[v + 1]; ++j) {
        if (stamp[adj[j]] == u) ++triangles;
      }
    }
  }
  return triangles;
}

struct GraphPlan {
  std::string name;
  std::string family;
  Graph graph;
};

/// The graphs of `workload` for `seed`, with the counter each request uses.
std::vector<std::pair<GraphPlan, TcAlgorithm>> PlanCorpus(
    const std::string& workload, uint64_t seed, bool toy) {
  std::vector<std::pair<GraphPlan, TcAlgorithm>> plan;
  if (workload == "rmat-count") {
    const int scale = toy ? 10 : 15;
    plan.push_back({{"rmat-s" + std::to_string(scale) + "-ef16", "rmat",
                     gputc::GenerateRmat(scale, 16, seed)},
                    TcAlgorithm::kHu});
  } else if (workload == "sparse-count") {
    const VertexId n = toy ? 20000 : 1000000;
    plan.push_back({{"ws-n" + std::to_string(n) + "-k8-b0.1", "ws",
                     gputc::GenerateWattsStrogatz(n, 8, 0.1, seed)},
                    TcAlgorithm::kHu});
  } else {
    // A pool of small graphs: four families x three sizes, each request
    // pinned to one of the five counters (family and counter cycle with
    // co-prime periods, so every family meets every counter).
    const int pool = toy ? 8 : 64;
    const VertexId sizes[] = {4096, 8192, 16384};
    const char* families[] = {"rmat", "powerlaw", "ws", "er"};
    for (int i = 0; i < pool; ++i) {
      const std::string family = families[i % 4];
      const VertexId n = sizes[(i / 4) % 3] / (toy ? 8 : 1);
      const uint64_t graph_seed = seed * 1000003 + static_cast<uint64_t>(i);
      Graph g;
      if (family == "rmat") {
        int scale = 0;
        while ((VertexId{1} << scale) < n) ++scale;
        g = gputc::GenerateRmat(scale, 8, graph_seed);
      } else if (family == "powerlaw") {
        g = gputc::GeneratePowerLawConfiguration(n, 2.1, 2, 512, graph_seed);
      } else if (family == "ws") {
        g = gputc::GenerateWattsStrogatz(n, 8, 0.1, graph_seed);
      } else {
        g = gputc::GenerateErdosRenyi(n, 8 * static_cast<int64_t>(n),
                                      graph_seed);
      }
      plan.push_back({{"pool" + std::to_string(i) + "-" + family + "-n" +
                           std::to_string(n),
                       family, std::move(g)},
                      kServiceCounters[i % 5]});
    }
  }
  return plan;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

gputc::StatusOr<TcAlgorithm> ParseAlgorithm(const std::string& name) {
  for (TcAlgorithm a :
       {TcAlgorithm::kGunrockBinarySearch, TcAlgorithm::kGunrockSortMerge,
        TcAlgorithm::kTriCore, TcAlgorithm::kFox, TcAlgorithm::kBisson,
        TcAlgorithm::kHu, TcAlgorithm::kPolak}) {
    if (gputc::ToString(a) == name) return a;
  }
  return gputc::InvalidArgumentError("unknown counter '" + name + "'");
}

}  // namespace

gputc::Status GenerateCorpus(const std::string& workload, uint64_t seed,
                             bool toy, const std::string& dir) {
  if (FindWorkload(workload) == nullptr) {
    return gputc::InvalidArgumentError("unknown workload '" + workload + "'");
  }
  std::ostringstream manifest;
  manifest << "corpus " << workload << " " << seed << " " << (toy ? 1 : 0)
           << "\n";
  const gputc::DeviceSpec spec = gputc::DeviceSpec::TitanXpLike();
  int index = 0;
  for (auto& [graph_plan, algorithm] : PlanCorpus(workload, seed, toy)) {
    const Graph& g = graph_plan.graph;
    const std::string path = dir + "/" + graph_plan.name + ".bin";
    GPUTC_RETURN_IF_ERROR(gputc::SaveBinaryDurable(g, path));
    manifest << "input " << graph_plan.name << " " << graph_plan.family << " "
             << path << " " << g.num_vertices() << " " << g.num_edges() << " "
             << g.MaxDegree() << " " << OracleTriangles(g) << "\n";

    // The reference: ExecuteResilient's answer for this request, which every
    // later request and the staged path must reproduce exactly.
    gputc::ExecutionTrace trace;
    gputc::StatusOr<gputc::ExecutionResult> ran = gputc::ExecuteResilient(
        g, spec, gputc::ExecutionPolicy{}, ChainFor(algorithm),
        gputc::PreprocessOptions{}, &trace);
    if (!ran.ok()) return ran.status();
    if (trace.attempts.size() != 1 || ran->variant != "base") {
      return gputc::InternalError("reference run of " + graph_plan.name +
                                  " degraded:\n" + trace.Summary());
    }
    const gputc::KernelStats& k = ran->run.kernel;
    const gputc::PreprocessResult& prep = ran->run.preprocess;
    const int64_t artifact_bytes = static_cast<int64_t>(
        prep.graph.offsets().size() * sizeof(gputc::EdgeCount) +
        prep.graph.adjacency().size() * sizeof(VertexId) +
        prep.vertex_perm.size() * sizeof(VertexId));
    manifest << "request " << index << " " << gputc::ToString(algorithm) << " "
             << artifact_bytes << " " << Hex(prep.direction_cost) << " "
             << Hex(prep.ordering_cost) << " " << Hex(k.cycles) << " "
             << Hex(k.millis) << " " << k.num_blocks << " " << k.supersteps
             << " " << Hex(k.total_ops) << " " << Hex(k.total_transactions)
             << " " << Hex(k.total_shared_transactions) << " "
             << Hex(k.compute_cycles) << " " << Hex(k.memory_cycles) << " "
             << Hex(k.shared_cycles) << " " << Hex(k.sync_cycles) << " "
             << Hex(k.sm_utilization) << "\n";
    ++index;
  }
  std::ofstream out(dir + "/corpus.txt");
  out << manifest.str();
  out.close();
  if (!out) return gputc::InternalError("cannot write " + dir + "/corpus.txt");
  return gputc::OkStatus();
}

gputc::StatusOr<Corpus> LoadCorpus(const std::string& dir) {
  std::ifstream in(dir + "/corpus.txt");
  if (!in) return gputc::NotFoundError("no corpus in " + dir);
  Corpus corpus;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "corpus") {
      int toy = 0;
      fields >> corpus.workload >> corpus.seed >> toy;
      corpus.toy = toy != 0;
    } else if (kind == "input") {
      InputGraph g;
      fields >> g.name >> g.family >> g.path >> g.n >> g.m >> g.max_degree >>
          g.triangles;
      corpus.inputs.push_back(g);
    } else if (kind == "request") {
      RequestSpec r;
      std::string algorithm;
      std::string hex[12];
      fields >> r.input >> algorithm >> r.artifact_bytes >> hex[0] >> hex[1] >>
          hex[2] >> hex[3] >> r.kernel.num_blocks >> r.kernel.supersteps >>
          hex[4] >> hex[5] >> hex[6] >> hex[7] >> hex[8] >> hex[9] >>
          hex[10] >> hex[11];
      GPUTC_ASSIGN_OR_RETURN(r.algorithm, ParseAlgorithm(algorithm));
      double* targets[] = {&r.cost_eq1,
                           &r.cost_eq3,
                           &r.kernel.cycles,
                           &r.kernel.millis,
                           &r.kernel.total_ops,
                           &r.kernel.total_transactions,
                           &r.kernel.total_shared_transactions,
                           &r.kernel.compute_cycles,
                           &r.kernel.memory_cycles,
                           &r.kernel.shared_cycles,
                           &r.kernel.sync_cycles,
                           &r.kernel.sm_utilization};
      for (int i = 0; i < 12; ++i) {
        *targets[i] = std::strtod(hex[i].c_str(), nullptr);
      }
      corpus.requests.push_back(r);
    }
    if (!fields && kind != "") {
      return gputc::DataLossError("malformed corpus line: " + line);
    }
  }
  if (corpus.inputs.empty() || corpus.requests.empty()) {
    return gputc::DataLossError("empty corpus in " + dir);
  }
  return corpus;
}

}  // namespace perfbench

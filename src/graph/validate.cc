#include "graph/validate.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

namespace gputc {
namespace {

/// Largest vertex count VertexId can index (ids live in [0, n)).
constexpr uint64_t kVertexIdCapacity =
    static_cast<uint64_t>(std::numeric_limits<VertexId>::max()) + 1;

std::string EdgeStr(const Edge& e) {
  std::ostringstream out;
  out << "(" << e.u << ", " << e.v << ")";
  return out.str();
}

void AddFinding(std::vector<Finding>& findings, FindingKind kind,
                int64_t count, std::string detail) {
  if (count <= 0) return;
  findings.push_back(Finding{kind, count, std::move(detail)});
}

}  // namespace

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kSelfLoop:
      return "self-loop";
    case FindingKind::kDuplicateEdge:
      return "duplicate-edge";
    case FindingKind::kUnsortedEdges:
      return "unsorted-edges";
    case FindingKind::kUnmirroredEntry:
      return "unmirrored-entry";
    case FindingKind::kEndpointOutOfRange:
      return "endpoint-out-of-range";
    case FindingKind::kVertexCountOverflow:
      return "vertex-count-overflow";
    case FindingKind::kEdgeCountOverflow:
      return "edge-count-overflow";
    case FindingKind::kTriangleOverflowRisk:
      return "triangle-overflow-risk";
  }
  return "unknown";
}

bool FindingIsRepairable(FindingKind kind) {
  switch (kind) {
    case FindingKind::kSelfLoop:
    case FindingKind::kDuplicateEdge:
    case FindingKind::kUnsortedEdges:
    case FindingKind::kUnmirroredEntry:
      return true;
    default:
      return false;
  }
}

bool ValidationReport::HasStructuralDamage() const {
  for (const Finding& f : findings) {
    if (!FindingIsRepairable(f.kind)) return true;
  }
  return false;
}

std::string ValidationReport::Summary() const {
  if (clean()) return "no defects found";
  std::ostringstream out;
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out << "; ";
    const Finding& f = findings[i];
    out << FindingKindName(f.kind) << " x" << f.count << ": " << f.detail;
  }
  return out.str();
}

Status ValidationReport::ToStatus() const {
  if (clean()) return OkStatus();
  if (HasStructuralDamage()) return DataLossError(Summary());
  return InvalidArgumentError(Summary());
}

Status GraphDoctor::CheckCounts(uint64_t num_vertices,
                                uint64_t num_edges) const {
  if (num_vertices > kVertexIdCapacity) {
    std::ostringstream out;
    out << "vertex count " << num_vertices << " exceeds VertexId capacity "
        << kVertexIdCapacity;
    return ResourceExhaustedError(out.str());
  }
  if (num_vertices > options_.max_vertices) {
    std::ostringstream out;
    out << "vertex count " << num_vertices << " exceeds the configured cap "
        << options_.max_vertices;
    return ResourceExhaustedError(out.str());
  }
  const uint64_t max_edges = static_cast<uint64_t>(options_.max_edges);
  if (num_edges > max_edges) {
    std::ostringstream out;
    out << "edge count " << num_edges << " exceeds the configured cap "
        << max_edges;
    return ResourceExhaustedError(out.str());
  }
  return OkStatus();
}

Status GraphDoctor::CheckCsr(uint64_t num_vertices, uint64_t num_edges,
                             std::span<const EdgeCount> offsets,
                             std::span<const VertexId> adj) {
  if (offsets.size() != num_vertices + 1) {
    std::ostringstream out;
    out << "offsets array has " << offsets.size() << " entries, want "
        << num_vertices + 1;
    return DataLossError(out.str());
  }
  if (!offsets.empty() && offsets[0] != 0) {
    std::ostringstream out;
    out << "offsets[0] = " << offsets[0] << ", want 0";
    return DataLossError(out.str());
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] < offsets[i]) {
      std::ostringstream out;
      out << "offsets not monotonic: offsets[" << i + 1
          << "] = " << offsets[i + 1] << " < offsets[" << i
          << "] = " << offsets[i];
      return DataLossError(out.str());
    }
  }
  const uint64_t expected_entries = 2 * num_edges;
  if (static_cast<uint64_t>(offsets[num_vertices]) != expected_entries) {
    std::ostringstream out;
    out << "offsets[" << num_vertices << "] = " << offsets[num_vertices]
        << " disagrees with the header edge count (want 2*m = "
        << expected_entries << ")";
    return DataLossError(out.str());
  }
  if (adj.size() != expected_entries) {
    std::ostringstream out;
    out << "adjacency array has " << adj.size() << " entries, want "
        << expected_entries;
    return DataLossError(out.str());
  }
  for (size_t i = 0; i < adj.size(); ++i) {
    if (static_cast<uint64_t>(adj[i]) >= num_vertices) {
      std::ostringstream out;
      out << "adjacency[" << i << "] = " << adj[i]
          << " is out of range for " << num_vertices << " vertices";
      return DataLossError(out.str());
    }
  }
  return OkStatus();
}

ValidationReport GraphDoctor::Examine(const EdgeList& list) const {
  ValidationReport report;

  const Status counts =
      CheckCounts(list.num_vertices(), static_cast<uint64_t>(list.num_edges()));
  if (!counts.ok()) {
    const FindingKind kind = list.num_vertices() > options_.max_vertices
                                 ? FindingKind::kVertexCountOverflow
                                 : FindingKind::kEdgeCountOverflow;
    AddFinding(report.findings, kind, 1, counts.message());
  }

  int64_t self_loops = 0, out_of_range = 0, reversed = 0;
  std::string first_loop, first_oob, first_reversed;
  const std::vector<Edge>& edges = list.edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u == e.v) {
      if (self_loops++ == 0) {
        first_loop = "edge " + std::to_string(i) + " is a self loop " +
                     EdgeStr(e);
      }
      continue;
    }
    if (e.u >= list.num_vertices() || e.v >= list.num_vertices()) {
      if (out_of_range++ == 0) {
        first_oob = "edge " + std::to_string(i) + " = " + EdgeStr(e) +
                    " exceeds the declared " +
                    std::to_string(list.num_vertices()) + "-vertex universe";
      }
    }
    if (e.u > e.v && reversed++ == 0) {
      first_reversed =
          "edge " + std::to_string(i) + " = " + EdgeStr(e) + " has u > v";
    }
  }
  AddFinding(report.findings, FindingKind::kSelfLoop, self_loops, first_loop);
  AddFinding(report.findings, FindingKind::kEndpointOutOfRange, out_of_range,
             first_oob);

  // Duplicates: compare canonicalized keys, reporting the first repeat.
  std::vector<std::pair<uint64_t, size_t>> keys;
  keys.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u == e.v) continue;
    const uint64_t lo = std::min(e.u, e.v), hi = std::max(e.u, e.v);
    keys.emplace_back((lo << 32) | hi, i);
  }
  std::sort(keys.begin(), keys.end());
  int64_t duplicates = 0;
  std::string first_dup;
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    if (keys[i].first == keys[i + 1].first) {
      if (duplicates++ == 0) {
        first_dup = "edge " + std::to_string(keys[i + 1].second) +
                    " duplicates edge " + std::to_string(keys[i].second) +
                    " " + EdgeStr(edges[keys[i].second]);
      }
    }
  }
  AddFinding(report.findings, FindingKind::kDuplicateEdge, duplicates,
             first_dup);

  // Canonical-order finding only when it is not implied by the ones above.
  if (reversed > 0) {
    AddFinding(report.findings, FindingKind::kUnsortedEdges, reversed,
               first_reversed);
  } else if (self_loops == 0 && duplicates == 0 && !list.IsNormalized()) {
    AddFinding(report.findings, FindingKind::kUnsortedEdges, 1,
               "edges are not sorted in canonical (u, v) order");
  }
  return report;
}

ValidationReport GraphDoctor::Examine(const Graph& g) const {
  ValidationReport report;
  const uint64_t n = g.num_vertices();
  const uint64_t m = static_cast<uint64_t>(g.num_edges());

  const Status counts = CheckCounts(n, m);
  if (!counts.ok()) {
    const FindingKind kind = n > options_.max_vertices
                                 ? FindingKind::kVertexCountOverflow
                                 : FindingKind::kEdgeCountOverflow;
    AddFinding(report.findings, kind, 1, counts.message());
  }

  // Wedge count bounds the triangle accumulator; warn before an int64 sum
  // could wrap. Accumulate in 128 bits so the check itself cannot overflow.
  unsigned __int128 wedges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const unsigned __int128 d = static_cast<uint64_t>(g.degree(v));
    wedges += d * (d > 0 ? d - 1 : 0) / 2;
  }
  if (wedges > static_cast<unsigned __int128>(
                   std::numeric_limits<int64_t>::max())) {
    AddFinding(report.findings, FindingKind::kTriangleOverflowRisk, 1,
               "wedge count exceeds int64; triangle accumulators could wrap");
  }
  return report;
}

StatusOr<Graph> GraphDoctor::BuildGraph(EdgeList list, RepairPolicy policy,
                                        ValidationReport* report) const {
  ValidationReport scan = Examine(list);
  if (report != nullptr) *report = scan;
  if (scan.HasStructuralDamage()) {
    return DataLossError(scan.Summary()).WithContext("graph rejected");
  }
  if (!scan.clean() && policy == RepairPolicy::kReject) {
    return InvalidArgumentError(scan.Summary())
        .WithContext("graph rejected (policy kReject; rerun with repair)");
  }
  return Graph::FromEdgeList(std::move(list));
}

}  // namespace gputc

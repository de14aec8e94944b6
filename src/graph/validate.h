#ifndef GPUTC_GRAPH_VALIDATE_H_
#define GPUTC_GRAPH_VALIDATE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace gputc {

/// One class of defect GraphDoctor can detect. Kinds marked repairable in
/// FindingIsRepairable() can be normalized away; the rest mean the input is
/// structurally unusable and must be rejected.
enum class FindingKind {
  // Edge-list level (repairable by normalization).
  kSelfLoop,            // Edge (v, v).
  kDuplicateEdge,       // Same undirected edge listed more than once.
  kUnsortedEdges,       // Edges not in canonical (u < v, sorted) order.
  kUnmirroredEntry,     // A CSR row u lists v, but row v does not list u.
  // Structural (never repairable).
  kEndpointOutOfRange,  // Endpoint id >= declared vertex count.
  // Capacity (never repairable; caught before they become allocations).
  kVertexCountOverflow, // Vertex count exceeds what VertexId can index.
  kEdgeCountOverflow,   // Edge count exceeds the configured/physical cap.
  kTriangleOverflowRisk,// Wedge count could overflow the int64 triangle sum.
};

/// Stable identifier, e.g. "self-loop", "endpoint-out-of-range".
const char* FindingKindName(FindingKind kind);

/// True if normalization (drop self loops, dedup, sort, keep every edge
/// either CSR row lists) removes the defect.
bool FindingIsRepairable(FindingKind kind);

/// One detected defect class with an occurrence count and a pinpointed first
/// instance, e.g. {kSelfLoop, 3, "edge 17 is a self loop (5, 5)"}.
struct Finding {
  FindingKind kind;
  int64_t count = 0;
  std::string detail;  // First observed instance, with index/offset.
};

/// Everything GraphDoctor found in one scan.
struct ValidationReport {
  std::vector<Finding> findings;

  bool clean() const { return findings.empty(); }
  /// True if any finding cannot be repaired by normalization.
  bool HasStructuralDamage() const;
  /// One line per finding: "self-loop x3: edge 17 is a self loop (5, 5)".
  std::string Summary() const;
  /// NotFound-free convenience: OkStatus() when clean, otherwise an
  /// InvalidArgument (repairable only) or DataLoss (structural) status whose
  /// message is Summary().
  Status ToStatus() const;
};

/// What to do when a scan finds repairable defects. Structural damage is
/// always rejected regardless of policy.
enum class RepairPolicy {
  kReject,  // Any finding fails the operation.
  kRepair,  // Normalize away repairable findings; fail only on structural.
};

/// Scans edge lists for the defects crafted or corrupt inputs exhibit, and
/// optionally repairs the benign ones. A Graph is canonical by construction
/// (Graph::FromEdgeList normalizes, Graph::FromCsr checks), so a Graph scan
/// looks only at what a canonical graph can still fail. Pure analysis: never
/// aborts, never logs; everything is reported through ValidationReport /
/// Status values.
class GraphDoctor {
 public:
  struct Options {
    /// Caps that turn adversarial headers into errors instead of multi-GB
    /// allocations. Defaults are far above every bundled dataset but well
    /// below physical memory.
    VertexId max_vertices = 100'000'000;
    EdgeCount max_edges = 2'000'000'000;
  };

  GraphDoctor() : GraphDoctor(Options{}) {}
  explicit GraphDoctor(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Scans a staging edge list: self loops, duplicates, canonical order,
  /// endpoints beyond the declared universe, capacity overflows.
  ValidationReport Examine(const EdgeList& list) const;

  /// Scans a Graph in O(n): this doctor's count caps and the risk that the
  /// wedge count overflows the int64 triangle sum. The CSR structure is not
  /// re-checked; the Graph factories established it.
  ValidationReport Examine(const Graph& g) const;

  /// Raw-CSR structure check, run by Graph::FromCsr and the edge-list loader
  /// before any row is indexed: `offsets` has n+1 entries, starts at 0, never
  /// decreases and ends at 2m; `adj` has 2m entries, each below n. Returns
  /// the first defect as DataLoss, or OkStatus().
  static Status CheckCsr(uint64_t num_vertices, uint64_t num_edges,
                         std::span<const EdgeCount> offsets,
                         std::span<const VertexId> adj);

  /// Validates header counts against the caps without touching payload —
  /// call before allocating anything sized by an untrusted header.
  Status CheckCounts(uint64_t num_vertices, uint64_t num_edges) const;

  /// Examines `list` and builds a Graph from it under `policy`.
  /// kReject: any finding is an error (message = report summary).
  /// kRepair: repairable findings are normalized away; structural damage is
  /// still an error. The report of the *pre-repair* scan is written to
  /// `report` when non-null, so callers can show what was fixed.
  StatusOr<Graph> BuildGraph(EdgeList list, RepairPolicy policy,
                             ValidationReport* report = nullptr) const;

 private:
  Options options_;
};

}  // namespace gputc

#endif  // GPUTC_GRAPH_VALIDATE_H_

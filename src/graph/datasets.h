#ifndef GPUTC_GRAPH_DATASETS_H_
#define GPUTC_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace gputc {

/// A named stand-in for one of the paper's evaluation datasets (Table 4).
///
/// The paper uses SNAP / GraphChallenge downloads and billion-edge Kronecker
/// graphs; this environment has neither network access nor the memory/time
/// budget for them, so each dataset is replaced by a seeded synthetic graph
/// from the same degree-distribution family at laptop scale (see DESIGN.md,
/// substitution table). The registry keys are the paper's dataset names so
/// the bench harness prints rows matching the paper's tables.
struct DatasetSpec {
  std::string name;          // Paper's dataset name, e.g. "gowalla".
  std::string family;        // "power-law", "road", "kron", ...
  std::string provenance;    // What the paper used and what we substitute.
};

/// Names of all registered datasets, in the paper's Table 4 order.
std::vector<std::string> DatasetNames();

/// Spec for a registered dataset. Aborts on unknown names (programming
/// error; use DatasetNames() to enumerate).
DatasetSpec GetDatasetSpec(const std::string& name);

/// Materializes the stand-in graph. Deterministic: repeated calls return
/// identical graphs. Aborts on unknown names.
Graph LoadDataset(const std::string& name);

/// Fallible variant for user-supplied names (CLI, manifests): kNotFound with
/// the list of registered names instead of aborting.
StatusOr<Graph> TryLoadDataset(const std::string& name);

/// True if `name` is registered.
bool HasDataset(const std::string& name);

}  // namespace gputc

#endif  // GPUTC_GRAPH_DATASETS_H_

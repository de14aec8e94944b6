#include "graph/datasets.h"

#include <functional>

#include "graph/generators.h"
#include "util/logging.h"

namespace gputc {
namespace {

struct Registration {
  DatasetSpec spec;
  std::function<Graph()> make;
};

/// Registry of paper-dataset stand-ins. Sizes are scaled so that every bench
/// binary completes in seconds on one core while keeping the degree
/// distribution family (and therefore the preprocessing effects) intact.
const std::vector<Registration>& Registry() {
  static const std::vector<Registration>* const kRegistry = new std::vector<
      Registration>{
      {{"email-Eucore", "power-law",
        "SNAP email-Eu-core (1k nodes) -> power-law configuration, same "
        "scale"},
       [] {
         return GeneratePowerLawConfiguration(1000, 1.7, 2, 300, /*seed=*/11);
       }},
      {{"email-Euall", "power-law",
        "SNAP email-EuAll (265k nodes) -> power-law configuration, scaled to "
        "20k nodes"},
       [] {
         return GeneratePowerLawConfiguration(20000, 2.1, 1, 2000,
                                              /*seed=*/12);
       }},
      {{"email-Enron", "power-law",
        "SNAP email-Enron (37k nodes) -> power-law configuration, 8k nodes"},
       [] {
         return GeneratePowerLawConfiguration(8000, 2.0, 1, 1200, /*seed=*/13);
       }},
      {{"gowalla", "power-law",
        "SNAP loc-gowalla (197k nodes, 2M edges) -> power-law configuration, "
        "30k nodes"},
       [] {
         return GeneratePowerLawConfiguration(30000, 2.2, 2, 3000,
                                              /*seed=*/14);
       }},
      {{"road_central", "road",
        "SNAP roadNet-central (14M nodes, near-uniform degree ~2.4) -> "
        "Watts-Strogatz ring lattice, 40k nodes, k=4, beta=0.03"},
       [] { return GenerateWattsStrogatz(40000, 4, 0.03, /*seed=*/15); }},
      {{"soc-pokec", "power-law",
        "SNAP soc-Pokec (1.6M nodes) -> power-law configuration, 40k nodes"},
       [] {
         return GeneratePowerLawConfiguration(40000, 2.1, 3, 4000,
                                              /*seed=*/16);
       }},
      {{"soc-LJ", "power-law",
        "SNAP soc-LiveJournal1 (5M nodes) -> power-law configuration, 50k "
        "nodes, heavier tail"},
       [] {
         return GeneratePowerLawConfiguration(50000, 2.0, 3, 6000,
                                              /*seed=*/17);
       }},
      {{"com-orkut", "power-law",
        "SNAP com-Orkut (3M nodes, 117M edges, dense) -> power-law "
        "configuration, 40k nodes, min degree 8"},
       [] {
         return GeneratePowerLawConfiguration(40000, 1.9, 8, 5000,
                                              /*seed=*/18);
       }},
      {{"com-lj", "power-law",
        "SNAP com-LiveJournal (4M nodes) -> power-law configuration, 45k "
        "nodes"},
       [] {
         return GeneratePowerLawConfiguration(45000, 2.05, 2, 5000,
                                              /*seed=*/19);
       }},
      {{"cit-patents", "power-law",
        "SNAP cit-Patents (6M nodes, thin tail, low triangle density) -> "
        "power-law configuration, 50k nodes, gamma 2.6"},
       [] {
         return GeneratePowerLawConfiguration(50000, 2.6, 1, 800, /*seed=*/20);
       }},
      {{"wiki-topcats", "power-law",
        "SNAP wiki-topcats (2M nodes) -> power-law configuration, 35k nodes"},
       [] {
         return GeneratePowerLawConfiguration(35000, 2.15, 2, 3500,
                                              /*seed=*/21);
       }},
      {{"kron-logn18", "kron",
        "Kronecker scale-18 (graph500) -> R-MAT scale 13, edge factor 8"},
       [] { return GenerateRmat(13, 8, /*seed=*/22); }},
      {{"kron-logn21", "kron",
        "Kronecker scale-21 (graph500) -> R-MAT scale 15, edge factor 8"},
       [] { return GenerateRmat(15, 8, /*seed=*/23); }},
      {{"twitter_rv", "power-law",
        "twitter_rv (62M nodes, 1.5B edges) -> power-law configuration, 60k "
        "nodes, extreme tail"},
       [] {
         return GeneratePowerLawConfiguration(60000, 1.85, 2, 12000,
                                              /*seed=*/24);
       }},
      {{"s24-kron", "kron",
        "GraphChallenge s24.kron (17M nodes) -> R-MAT scale 14, edge factor "
        "16"},
       [] { return GenerateRmat(14, 16, /*seed=*/25); }},
      {{"s26-kron", "kron",
        "GraphChallenge s26.kron (67M nodes) -> R-MAT scale 15, edge factor "
        "16"},
       [] { return GenerateRmat(15, 16, /*seed=*/26); }},
  };
  return *kRegistry;
}

const Registration* Find(const std::string& name) {
  for (const Registration& r : Registry()) {
    if (r.spec.name == name) return &r;
  }
  return nullptr;
}

Status UnknownDatasetError(const std::string& name) {
  std::string msg = "unknown dataset '" + name + "'; registered datasets:";
  for (const Registration& r : Registry()) msg += " " + r.spec.name;
  return NotFoundError(std::move(msg));
}

}  // namespace

std::vector<std::string> DatasetNames() {
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const Registration& r : Registry()) names.push_back(r.spec.name);
  return names;
}

DatasetSpec GetDatasetSpec(const std::string& name) {
  const Registration* r = Find(name);
  GPUTC_CHECK(r != nullptr) << "unknown dataset '" << name << "'";
  return r->spec;
}

Graph LoadDataset(const std::string& name) {
  const Registration* r = Find(name);
  GPUTC_CHECK(r != nullptr) << "unknown dataset '" << name << "'";
  return r->make();
}

StatusOr<Graph> TryLoadDataset(const std::string& name) {
  const Registration* r = Find(name);
  if (r == nullptr) return UnknownDatasetError(name);
  return r->make();
}

bool HasDataset(const std::string& name) { return Find(name) != nullptr; }

}  // namespace gputc

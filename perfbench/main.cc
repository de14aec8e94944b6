// perfbench_tc: the benchmark harness binary that perfbench/run.py drives.
//
//   perfbench_tc gen --workload W --seed N --out DIR [--toy]
//       generates the workload's corpus from the seed into DIR
//   perfbench_tc run --inputs DIR --seconds S --trace 0|1 --scratch DIR
//       measures it and prints one JSON result line on stdout
//
// `gen` and `run` are separate processes so that peak RSS and CPU time of a
// run hold nothing of generation or of any other workload.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include <unistd.h>

#include "perfbench.h"
#include "util/version.h"

namespace {

using perfbench::JsonString;

int Usage() {
  std::cerr << "usage: perfbench_tc gen --workload W --seed N --out DIR "
               "[--toy]\n"
               "       perfbench_tc run --inputs DIR --seconds S --trace 0|1 "
               "--scratch DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    if (arg == "--toy") {
      flags["toy"] = "1";
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      return Usage();
    }
  }
  const auto flag = [&flags](const std::string& name) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };

  if (command == "gen") {
    if (flag("workload").empty() || flag("seed").empty() || flag("out").empty()) {
      return Usage();
    }
    const gputc::Status generated = perfbench::GenerateCorpus(
        flag("workload"), std::strtoull(flag("seed").c_str(), nullptr, 10),
        flag("toy") == "1", flag("out"));
    if (!generated.ok()) {
      std::cerr << "gen: " << generated.ToString() << "\n";
      return 1;
    }
    return 0;
  }

  if (command != "run" || flag("inputs").empty() || flag("seconds").empty() ||
      flag("scratch").empty()) {
    return Usage();
  }
  // Timings from an instrumented build describe the sanitizer, not the code.
  if (std::string(gputc::SanitizerConfig()) != "none") {
    std::cerr << "run: refusing a sanitizer build (sanitizer="
              << gputc::SanitizerConfig() << ")\n";
    return 3;
  }
  gputc::StatusOr<perfbench::Corpus> corpus =
      perfbench::LoadCorpus(flag("inputs"));
  if (!corpus.ok()) {
    std::cerr << "run: " << corpus.status().ToString() << "\n";
    return 1;
  }
  perfbench::RunOptions options;
  options.seconds = std::strtod(flag("seconds").c_str(), nullptr);
  options.scratch = flag("scratch");
  const bool trace = flag("trace") == "1";

  perfbench::Result result;
  result.record.push_back({"build_type", JsonString(gputc::BuildType())});
  result.record.push_back({"sanitizer", JsonString(gputc::SanitizerConfig())});
  result.record.push_back({"compiler", JsonString(__VERSION__)});
  result.record.push_back({"gputc_version", JsonString(gputc::VersionNumber())});
  result.record.push_back(
      {"l2_cache_bytes", std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE))});
  result.record.push_back(
      {"l3_cache_bytes", std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE))});
  if (trace) {
    perfbench::RunTraced(*corpus, options, &result);
  } else {
    perfbench::RunEndToEnd(*corpus, options, &result);
  }
  std::cout << result.ToJson(*corpus, trace) << std::endl;
  return 0;
}

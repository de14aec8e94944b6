// End-to-end crash-injection tests: run the real gputc CLI as a child
// process, kill it at an armed fail-point site (SIGKILL semantics via
// std::_Exit(137) — no destructors, no flushes), then resume and assert the
// crash-safety contract:
//
//   * exactly one journal line per manifest request after resume
//     (no losses, no double-counting),
//   * every artifact the crashed run left behind is either intact or
//     detected — never silently garbage,
//   * the documented exit codes hold across the crash boundary.

#include "crash_harness.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace gputc {
namespace testing {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t begin = json.find(needle);
  if (begin == std::string::npos) return "";
  const size_t value = begin + needle.size();
  const size_t end = json.find('"', value);
  if (end == std::string::npos) return "";
  return json.substr(value, end - value);
}

/// Extracts an unquoted (numeric) JSON field.
std::string JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t begin = json.find(needle);
  if (begin == std::string::npos) return "";
  const size_t value = begin + needle.size();
  const size_t end = json.find_first_of(",}", value);
  if (end == std::string::npos) return "";
  return json.substr(value, end - value);
}

/// id -> outcome|triangles: the journal projection that must be invariant
/// under cache state and storage faults (timings and trace ids legitimately
/// differ between runs).
std::map<std::string, std::string> StableFields(const std::string& journal) {
  std::map<std::string, std::string> stable;
  for (const std::string& line : Lines(Slurp(journal))) {
    stable[JsonField(line, "id")] =
        JsonField(line, "outcome") + "|" + JsonNumber(line, "triangles");
  }
  return stable;
}

/// Per-test scratch directory holding the manifest, WAL, and journal.
class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = ::testing::TempDir() + "/crash_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter++);
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    manifest_ = dir_ + "/jobs.txt";
    journal_ = dir_ + "/journal.jsonl";
    wal_ = dir_ + "/wal";
    std::ofstream out(manifest_);
    for (int seed = 1; seed <= 4; ++seed) {
      out << "gen:rmat:scale=6,seed=" << seed << "\n";
    }
    manifest_size_ = 4;
  }

  std::vector<std::string> BatchArgs(const std::string& shed_policy,
                                     bool resume) const {
    std::vector<std::string> args = {
        "batch",          "--manifest",  manifest_, "--jobs",
        "2",              "--journal",   journal_,  "--wal",
        wal_,             "--shed-policy", shed_policy};
    if (resume) args.push_back("--resume");
    return args;
  }

  /// The core contract: after resume, the journal holds exactly one line
  /// per manifest request, ids unique, all with a terminal outcome.
  void AssertJournalComplete() const {
    const std::vector<std::string> lines = Lines(Slurp(journal_));
    ASSERT_EQ(lines.size(), manifest_size_) << Slurp(journal_);
    std::set<std::string> ids;
    for (const std::string& line : lines) {
      const std::string id = JsonField(line, "id");
      EXPECT_FALSE(id.empty()) << line;
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id: " << id;
      EXPECT_FALSE(JsonField(line, "outcome").empty()) << line;
    }
  }

  std::string dir_, manifest_, journal_, wal_;
  size_t manifest_size_ = 0;
};

// One crashed run + one resume, for every kill site the WAL/journal path
// crosses, under every shed policy. The sites bracket the exactly-once
// invariant from both sides: before the work (intent), after the outcome is
// durable but before it is journaled (done, service.journal), mid-append
// with a deliberately torn record (durable.append.torn), and mid-count
// inside the kernel loop (tc.block).
struct CrashCase {
  const char* site;
  const char* schedule;
};

class CrashMatrixTest
    : public CrashRecoveryTest,
      public ::testing::WithParamInterface<std::tuple<CrashCase, const char*>> {
};

TEST_P(CrashMatrixTest, ResumeRestoresExactlyOnce) {
  const CrashCase crash = std::get<0>(GetParam());
  const std::string shed = std::get<1>(GetParam());

  const ChildResult crashed =
      RunGputc(BatchArgs(shed, /*resume=*/false),
               {std::string("GPUTC_FAILPOINTS=") + crash.schedule});
  ASSERT_EQ(crashed.exit_code, 137)
      << "site " << crash.site << " never fired\nstderr: "
      << crashed.stderr_text;

  const ChildResult resumed = RunGputc(BatchArgs(shed, /*resume=*/true));
  EXPECT_TRUE(resumed.exit_code == 0 || resumed.exit_code == 5)
      << "resume exit " << resumed.exit_code
      << "\nstderr: " << resumed.stderr_text;
  AssertJournalComplete();
}

INSTANTIATE_TEST_SUITE_P(
    KillSitesByShedPolicy, CrashMatrixTest,
    ::testing::Combine(
        ::testing::Values(
            CrashCase{"wal.intent", "wal.intent=crash@1"},
            CrashCase{"wal.done", "wal.done=crash@1"},
            CrashCase{"service.journal", "service.journal=crash@1"},
            CrashCase{"durable.append.torn", "durable.append.torn=crash@1"},
            CrashCase{"tc.block", "tc.block=crash@1"}),
        ::testing::Values("block", "reject", "drop-oldest")),
    [](const ::testing::TestParamInfo<CrashMatrixTest::ParamType>& info) {
      std::string name = std::string(std::get<0>(info.param).site) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (c == '.' || c == '-') c = '_';
      }
      return name;
    });

// A second crash during the resume itself must also be recoverable: the WAL
// keeps accumulating, and a third run finishes the job.
TEST_F(CrashRecoveryTest, DoubleCrashStillConverges) {
  ASSERT_EQ(RunGputc(BatchArgs("block", false),
                     {"GPUTC_FAILPOINTS=wal.done=crash@1"})
                .exit_code,
            137);
  ASSERT_EQ(RunGputc(BatchArgs("block", true),
                     {"GPUTC_FAILPOINTS=service.journal=crash@1"})
                .exit_code,
            137);
  const ChildResult third = RunGputc(BatchArgs("block", true));
  EXPECT_EQ(third.exit_code, 0) << third.stderr_text;
  AssertJournalComplete();
}

// A clean run with a WAL, then a resume, must not re-run anything: the
// journal is rebuilt wholly from replayed lines.
TEST_F(CrashRecoveryTest, ResumeAfterCleanRunReplaysEverything) {
  ASSERT_EQ(RunGputc(BatchArgs("block", false)).exit_code, 0);
  const std::string first_journal = Slurp(journal_);
  const ChildResult resumed = RunGputc(BatchArgs("block", true));
  EXPECT_EQ(resumed.exit_code, 0) << resumed.stderr_text;
  EXPECT_NE(resumed.stderr_text.find("replayed verbatim"), std::string::npos);
  // Verbatim means byte-identical lines (order may differ across runs, but a
  // full replay preserves WAL order, which is the order they were journaled).
  EXPECT_EQ(Slurp(journal_), first_journal);
  AssertJournalComplete();
}

// Crash while SaveBinary is mid-commit: the target must be absent or the
// complete old version — never torn — and the rerun must succeed.
TEST_F(CrashRecoveryTest, SaveBinaryCrashLeavesNoTornFile) {
  const std::string text = dir_ + "/g.txt";
  const std::string bin = dir_ + "/g.bin";
  ASSERT_EQ(RunGputc({"generate", "--family", "er", "--nodes", "400",
                      "--edges", "1600", "--seed", "7", "--out", text})
                .exit_code,
            0);
  const ChildResult crashed =
      RunGputc({"convert", "--in", text, "--out", bin},
               {"GPUTC_FAILPOINTS=durable.commit=crash@1"});
  ASSERT_EQ(crashed.exit_code, 137) << crashed.stderr_text;
  struct stat st;
  EXPECT_NE(::stat(bin.c_str(), &st), 0)
      << "crash before rename must leave no target file";

  ASSERT_EQ(RunGputc({"convert", "--in", text, "--out", bin}).exit_code, 0);
  const ChildResult info = RunGputc({"info", "--in", bin, "--strict"});
  EXPECT_EQ(info.exit_code, 0) << info.stderr_text;
}

// -- the documented exit-code contract, exercised end to end ----------------

TEST_F(CrashRecoveryTest, ExitCodeContract) {
  // 2: --resume without --wal.
  EXPECT_EQ(RunGputc({"batch", "--manifest", manifest_, "--resume"}).exit_code,
            2);
  // 3: missing manifest.
  EXPECT_EQ(
      RunGputc({"batch", "--manifest", dir_ + "/no_such_manifest"}).exit_code,
      3);
  // 2: unknown flag value.
  EXPECT_EQ(RunGputc(BatchArgs("bogus-policy", false)).exit_code, 2);
  // 0: clean run.
  EXPECT_EQ(RunGputc(BatchArgs("block", false)).exit_code, 0);
  // 2: pointing a fresh (non-resume) run at the now-populated WAL.
  const ChildResult stale = RunGputc(BatchArgs("block", false));
  EXPECT_EQ(stale.exit_code, 2);
  EXPECT_NE(stale.stderr_text.find("--resume"), std::string::npos);
  // 0: the resume path accepts it.
  EXPECT_EQ(RunGputc(BatchArgs("block", true)).exit_code, 0);
  // 2: malformed numbers are usage errors, not aborts.
  const std::string out = dir_ + "/g.txt";
  EXPECT_EQ(RunGputc({"generate", "--family", "rmat", "--scale", "abc",
                      "--out", out})
                .exit_code,
            2);
  EXPECT_EQ(RunGputc({"generate", "--family", "er", "--edges", "x", "--out",
                      out})
                .exit_code,
            2);
  // 3: a v1 CSR whose rows are not mirrored (row 2 lists 1; rows 1 and 2
  // lack 2 and 0), strict or not.
  const std::string asym = dir_ + "/asym.bin";
  {
    std::ofstream bin(asym, std::ios::binary);
    const uint64_t header[] = {0x4354555047525048ull, 3, 2};
    const int64_t offsets[] = {0, 2, 3, 4};
    const uint32_t adj[] = {1, 2, 0, 1};
    bin.write(reinterpret_cast<const char*>(header), sizeof(header));
    bin.write(reinterpret_cast<const char*>(offsets), sizeof(offsets));
    bin.write(reinterpret_cast<const char*>(adj), sizeof(adj));
  }
  for (const bool strict : {false, true}) {
    std::vector<std::string> args = {"info", "--in", asym};
    if (strict) args.push_back("--strict");
    const ChildResult info = RunGputc(args);
    EXPECT_EQ(info.exit_code, 3) << info.stderr_text;
    EXPECT_NE(info.stderr_text.find("not canonical"), std::string::npos)
        << info.stderr_text;
  }
  // 3: the doctor reports the same file. 0: --repair keeps every edge either
  // row lists, and info accepts what it wrote.
  const ChildResult doctor = RunGputc({"doctor", "--in", asym});
  EXPECT_EQ(doctor.exit_code, 3) << doctor.stdout_text << doctor.stderr_text;
  EXPECT_NE(doctor.stdout_text.find("unmirrored-entry"), std::string::npos)
      << doctor.stdout_text;
  const std::string fixed = dir_ + "/fixed_asym.bin";
  EXPECT_EQ(
      RunGputc({"doctor", "--in", asym, "--repair", "--out", fixed}).exit_code,
      0);
  const ChildResult fixed_info = RunGputc({"info", "--in", fixed});
  EXPECT_EQ(fixed_info.exit_code, 0) << fixed_info.stderr_text;
  EXPECT_NE(fixed_info.stdout_text.find("edges:           3\n"),
            std::string::npos)
      << fixed_info.stdout_text;
}

/// code -> name pairs of an exit-code table: lines that start with
/// `prefix`, a digit and `separator`, then the name up to " (".
std::map<char, std::string> ExitCodeNames(const std::string& text,
                                          const std::string& prefix,
                                          const std::string& separator) {
  std::map<char, std::string> names;
  for (const std::string& line : Lines(text)) {
    const size_t name_at = prefix.size() + 1 + separator.size();
    const size_t details = line.find(" (");
    if (line.compare(0, prefix.size(), prefix) != 0 ||
        line.size() <= name_at || !std::isdigit(line[prefix.size()]) ||
        line.compare(prefix.size() + 1, separator.size(), separator) != 0 ||
        details == std::string::npos || details < name_at) {
      continue;
    }
    names[line[prefix.size()]] = line.substr(name_at, details - name_at);
  }
  return names;
}

// `gputc --help` is the source of the exit-code contract; README's table
// must name the same codes the same way.
TEST_F(CrashRecoveryTest, ReadmeExitCodeTableMatchesHelp) {
  const ChildResult help = RunGputc({"--help"});
  const size_t table = help.stderr_text.find("exit codes");
  ASSERT_NE(table, std::string::npos) << help.stderr_text;
  const std::map<char, std::string> from_help =
      ExitCodeNames(help.stderr_text.substr(table), "  ", "  ");
  const std::map<char, std::string> from_readme =
      ExitCodeNames(Slurp(GPUTC_README_PATH), "| ", " | ");
  EXPECT_EQ(from_help.size(), 7u) << help.stderr_text;
  EXPECT_EQ(from_readme, from_help);
}

TEST_F(CrashRecoveryTest, PartialFailureIsExitFiveAcrossResume) {
  // Append a request that always fails (unknown dataset) and crash after
  // its outcome is durable. The replayed failure must still drive exit 5.
  {
    std::ofstream out(manifest_, std::ios::app);
    out << "dataset:no-such-dataset\n";
  }
  manifest_size_ = 5;
  ASSERT_EQ(RunGputc(BatchArgs("block", false),
                     {"GPUTC_FAILPOINTS=service.journal=crash@5"})
                .exit_code,
            137);
  const ChildResult resumed = RunGputc(BatchArgs("block", true));
  EXPECT_EQ(resumed.exit_code, 5) << resumed.stderr_text;
  AssertJournalComplete();
}

// -- process isolation (--isolate) ------------------------------------------
//
// The same per-request crash schedule, run both ways, pins down the blast
// radius difference that is the whole point of worker isolation: in-process
// the schedule kills the entire service; isolated it costs exactly one
// request.

class IsolationTest : public CrashRecoveryTest {
 protected:
  void SetUp() override {
    CrashRecoveryTest::SetUp();
    std::ofstream out(manifest_, std::ios::trunc);
    out << "gen:er:nodes=200,edges=600,seed=1\n"
        << "gen:er:nodes=200,edges=600,seed=2 failpoints=tc.block=crash@1\n"
        << "gen:er:nodes=200,edges=600,seed=3\n"
        << "gen:er:nodes=200,edges=600,seed=4\n";
    manifest_size_ = 4;
  }

  std::vector<std::string> IsolateArgs(bool isolate) const {
    std::vector<std::string> args = {"batch",     "--manifest", manifest_,
                                     "--jobs",    "2",          "--journal",
                                     journal_};
    if (isolate) args.push_back("--isolate=2");
    return args;
  }
};

TEST_F(IsolationTest, IsolatedWorkerCrashFailsOnlyThePoisonedRequest) {
  const ChildResult run = RunGputc(IsolateArgs(/*isolate=*/true));
  EXPECT_EQ(run.exit_code, 5) << run.stderr_text;  // Partial, not dead.
  AssertJournalComplete();
  int failed = 0;
  for (const std::string& line : Lines(Slurp(journal_))) {
    const std::string outcome = JsonField(line, "outcome");
    if (JsonField(line, "id").rfind("2:", 0) == 0) {
      EXPECT_EQ(outcome, "failed") << line;
      EXPECT_NE(JsonField(line, "message").find("worker crashed"),
                std::string::npos)
          << line;
    } else {
      EXPECT_EQ(outcome, "ok") << line;
    }
    if (outcome == "failed") ++failed;
  }
  EXPECT_EQ(failed, 1);
}

TEST_F(IsolationTest, SameScheduleWithoutIsolationKillsTheWholeService) {
  const ChildResult run = RunGputc(IsolateArgs(/*isolate=*/false));
  EXPECT_EQ(run.exit_code, 137) << run.stderr_text;
  // The poisoned request took the service down with it mid-run: the journal
  // cannot be complete (the crashing request never journals).
  EXPECT_LT(Lines(Slurp(journal_)).size(), manifest_size_);
}

TEST_F(IsolationTest, IsolatedWorkerHangFailsOnlyTheWedgedRequest) {
  {
    std::ofstream out(manifest_, std::ios::trunc);
    out << "gen:er:nodes=200,edges=600,seed=1\n"
        << "gen:er:nodes=200,edges=600,seed=2 "
           "failpoints=worker.hang=internal@1\n"
        << "gen:er:nodes=200,edges=600,seed=3\n";
    manifest_size_ = 3;
  }
  const ChildResult run = RunGputc(IsolateArgs(/*isolate=*/true));
  EXPECT_EQ(run.exit_code, 5) << run.stderr_text;
  AssertJournalComplete();
  for (const std::string& line : Lines(Slurp(journal_))) {
    if (JsonField(line, "id").rfind("2:", 0) == 0) {
      EXPECT_EQ(JsonField(line, "outcome"), "failed") << line;
      EXPECT_NE(JsonField(line, "message").find("worker hung"),
                std::string::npos)
          << line;
    } else {
      EXPECT_EQ(JsonField(line, "outcome"), "ok") << line;
    }
  }
}

TEST_F(IsolationTest, IsolationComposesWithWalResume) {
  // Crash the *service* (not a worker) after the first outcome is durable;
  // the resumed isolated run must converge to exactly one line per request.
  std::vector<std::string> args = IsolateArgs(/*isolate=*/true);
  args.push_back("--wal");
  args.push_back(wal_);
  ASSERT_EQ(RunGputc(args, {"GPUTC_FAILPOINTS=service.journal=crash@1"})
                .exit_code,
            137);
  args.push_back("--resume");
  const ChildResult resumed = RunGputc(args);
  EXPECT_EQ(resumed.exit_code, 5) << resumed.stderr_text;  // Poisoned req.
  AssertJournalComplete();
}

// -- preprocessing cache (--prep-cache) -------------------------------------
//
// The durable cache tier adds two fallible sites (cache.load, cache.store)
// to the crash surface. The contract: a crash at either site, or a torn or
// corrupt artifact left on disk, may cost recomputes — never a wrong count,
// a lost request, or a failed resume. The stable journal fields (id,
// outcome, triangle count) must be invariant under cache state.

class CacheCrashTest : public CrashRecoveryTest {
 protected:
  void SetUp() override {
    CrashRecoveryTest::SetUp();
    cache_dir_ = dir_ + "/prep-cache";
  }

  std::vector<std::string> CachedBatchArgs(bool resume) const {
    std::vector<std::string> args = BatchArgs("block", resume);
    args.push_back("--prep-cache");
    args.push_back(cache_dir_);
    return args;
  }

  /// A run against the same manifest and cache dir but its own journal and
  /// no WAL, so it executes every request instead of replaying.
  std::vector<std::string> FreshCachedArgs(const std::string& journal) const {
    return {"batch",     "--manifest", manifest_, "--jobs",       "2",
            "--journal", journal,      "--prep-cache", cache_dir_};
  }

  std::vector<std::string> CacheFiles() const {
    std::vector<std::string> files;
    DIR* d = ::opendir(cache_dir_.c_str());
    if (d == nullptr) return files;
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.rfind("prep-", 0) == 0) files.push_back(cache_dir_ + "/" + name);
    }
    ::closedir(d);
    return files;
  }

  static void FlipByte(const std::string& path, long offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(0, std::ios::end);
    const long size = static_cast<long>(f.tellg());
    const long pos = offset >= 0 ? offset : size + offset;
    ASSERT_GE(pos, 0);
    ASSERT_LT(pos, size);
    f.seekg(pos);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(pos);
    f.write(&byte, 1);
  }

  std::string cache_dir_;
};

// Crash at the first tier-2 store. The resumed batch must converge, and a
// later warm run over whatever artifacts survived must report the same
// counts a cold run would.
TEST_F(CacheCrashTest, CacheStoreCrashNeverCorruptsResumedBatch) {
  const ChildResult crashed =
      RunGputc(CachedBatchArgs(/*resume=*/false),
               {"GPUTC_FAILPOINTS=cache.store=crash@1"});
  ASSERT_EQ(crashed.exit_code, 137) << crashed.stderr_text;

  const ChildResult resumed = RunGputc(CachedBatchArgs(/*resume=*/true));
  EXPECT_EQ(resumed.exit_code, 0) << resumed.stderr_text;
  AssertJournalComplete();
  const std::map<std::string, std::string> after_resume =
      StableFields(journal_);

  // Whatever the crash left in the cache dir, a warm run agrees with the
  // resumed one on every stable field.
  const std::string warm_journal = dir_ + "/journal-warm.jsonl";
  const ChildResult warm = RunGputc(FreshCachedArgs(warm_journal));
  EXPECT_EQ(warm.exit_code, 0) << warm.stderr_text;
  EXPECT_EQ(StableFields(warm_journal), after_resume);
}

// Crash at the first tier-2 load of a warm run: the artifacts are valid,
// the reader dies anyway. Resume must finish with the cold run's counts.
TEST_F(CacheCrashTest, CacheLoadCrashOnWarmRunResumesToColdResults) {
  const std::string cold_journal = dir_ + "/journal-cold.jsonl";
  ASSERT_EQ(RunGputc(FreshCachedArgs(cold_journal)).exit_code, 0);
  ASSERT_FALSE(CacheFiles().empty()) << "cold run populated no artifacts";
  const std::map<std::string, std::string> cold = StableFields(cold_journal);

  const ChildResult crashed =
      RunGputc(CachedBatchArgs(/*resume=*/false),
               {"GPUTC_FAILPOINTS=cache.load=crash@1"});
  ASSERT_EQ(crashed.exit_code, 137) << crashed.stderr_text;

  const ChildResult resumed = RunGputc(CachedBatchArgs(/*resume=*/true));
  EXPECT_EQ(resumed.exit_code, 0) << resumed.stderr_text;
  AssertJournalComplete();
  EXPECT_EQ(StableFields(journal_), cold);
}

// Bit-flip every artifact a clean run wrote. The warm rerun must detect the
// corruption (CRC framing), silently recompute, and land on identical
// results — and the recomputation heals the store for the run after it.
TEST_F(CacheCrashTest, TornCacheArtifactsNeverChangeResults) {
  const std::string cold_journal = dir_ + "/journal-cold.jsonl";
  ASSERT_EQ(RunGputc(FreshCachedArgs(cold_journal)).exit_code, 0);
  const std::map<std::string, std::string> cold = StableFields(cold_journal);

  const std::vector<std::string> files = CacheFiles();
  ASSERT_FALSE(files.empty());
  for (size_t i = 0; i < files.size(); ++i) {
    // Alternate corruption sites: header-adjacent and payload tail.
    FlipByte(files[i], i % 2 == 0 ? 24 : -5);
  }

  const std::string warm_journal = dir_ + "/journal-warm.jsonl";
  const ChildResult warm = RunGputc(FreshCachedArgs(warm_journal));
  EXPECT_EQ(warm.exit_code, 0) << warm.stderr_text;
  EXPECT_EQ(StableFields(warm_journal), cold);

  // The recompute rewrote the artifacts; a third run reads them back clean.
  const std::string healed_journal = dir_ + "/journal-healed.jsonl";
  const ChildResult healed = RunGputc(FreshCachedArgs(healed_journal));
  EXPECT_EQ(healed.exit_code, 0) << healed.stderr_text;
  EXPECT_EQ(StableFields(healed_journal), cold);
}

// -- storage faults (ENOSPC/EIO at the fs_io boundary) -----------------------
//
// The failure under test is not a crash but a disk that stops taking bytes:
// fs.fsync=enospc^K lets the first K fsyncs succeed and fails every later
// one — the exact shape of a filesystem filling up mid-batch. The contract
// per --wal-policy:
//
//   strict (default)  exit 6, journal holds exactly a clean prefix (complete
//                     lines only, never torn), and --resume after the space
//                     comes back converges on the fault-free run's results.
//   degrade           exit 0, every request finishes, lines that lost their
//                     durability cover say "durable":false.

class StorageFaultCliTest : public CrashRecoveryTest {
 protected:
  /// Single worker so the run cannot finish before the armed fsync failures
  /// land; the fault-free baseline uses the same shape.
  std::vector<std::string> WalArgs(bool resume,
                                   const std::string& policy = "") const {
    std::vector<std::string> args = {"batch", "--manifest", manifest_,
                                     "--jobs", "1",         "--journal",
                                     journal_, "--wal",     wal_};
    if (!policy.empty()) {
      args.push_back("--wal-policy");
      args.push_back(policy);
    }
    if (resume) args.push_back("--resume");
    return args;
  }
};

TEST_F(StorageFaultCliTest, StrictStopThenResumeConvergesOnBaseline) {
  // Fault-free baseline (no WAL, own journal) for the stable fields.
  const std::string baseline_journal = dir_ + "/journal-baseline.jsonl";
  ASSERT_EQ(RunGputc({"batch", "--manifest", manifest_, "--jobs", "1",
                      "--journal", baseline_journal})
                .exit_code,
            0);
  const std::map<std::string, std::string> baseline =
      StableFields(baseline_journal);

  // Disk fills after the third fsync; strict (the default) must fail-stop.
  const ChildResult stopped = RunGputc(
      WalArgs(/*resume=*/false), {"GPUTC_FAILPOINTS=fs.fsync=enospc^3"});
  EXPECT_EQ(stopped.exit_code, 6) << stopped.stderr_text;
  EXPECT_NE(stopped.stderr_text.find("storage fail-stop"), std::string::npos)
      << stopped.stderr_text;
  EXPECT_NE(stopped.stderr_text.find("--resume"), std::string::npos)
      << "the operator hint must name the recovery path";

  // The journal holds a clean prefix: fewer lines than the manifest, every
  // one a complete JSON object with a terminal outcome.
  const std::vector<std::string> prefix = Lines(Slurp(journal_));
  EXPECT_LT(prefix.size(), manifest_size_);
  for (const std::string& line : prefix) {
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_FALSE(JsonField(line, "outcome").empty()) << line;
  }

  // Space comes back (the harness strips the fail points); --resume must
  // finish the manifest and agree with the baseline on every stable field.
  const ChildResult resumed = RunGputc(WalArgs(/*resume=*/true));
  EXPECT_EQ(resumed.exit_code, 0) << resumed.stderr_text;
  AssertJournalComplete();
  EXPECT_EQ(StableFields(journal_), baseline);
}

// A strict stop while requests are still queued: the slow first request
// keeps twenty more waiting when its done append fails. The stop must turn
// into a drain without the report path calling back into the service (it
// once deadlocked there, on the service's own journal lock).
TEST_F(StorageFaultCliTest, StrictStopWithQueuedRequestsDrainsAndResumes) {
  {
    std::ofstream out(manifest_, std::ios::trunc);
    out << "gen:rmat:scale=14,edge-factor=8,seed=99\n";
    for (int seed = 1; seed <= 20; ++seed) {
      out << "gen:er:nodes=200,edges=800,seed=" << seed << "\n";
    }
    manifest_size_ = 21;
  }
  const ChildResult stopped =
      RunGputc(WalArgs(/*resume=*/false), {"GPUTC_FAILPOINTS=wal.done=eio"});
  ASSERT_EQ(stopped.exit_code, 6) << stopped.stderr_text;
  EXPECT_NE(stopped.stderr_text.find("storage fail-stop"), std::string::npos)
      << stopped.stderr_text;
  EXPECT_TRUE(Lines(Slurp(journal_)).empty()) << Slurp(journal_);

  const ChildResult resumed = RunGputc(WalArgs(/*resume=*/true));
  EXPECT_EQ(resumed.exit_code, 0) << resumed.stderr_text;
  AssertJournalComplete();
}

TEST_F(StorageFaultCliTest, DegradePolicyFinishesEveryRequest) {
  std::vector<std::string> args = {"batch",    "--manifest",   manifest_,
                                   "--jobs",   "1",            "--journal",
                                   "-",        "--wal",        wal_,
                                   "--wal-policy", "degrade"};
  const ChildResult run =
      RunGputc(args, {"GPUTC_FAILPOINTS=fs.fsync=enospc^2"});
  EXPECT_EQ(run.exit_code, 0) << run.stderr_text;

  // Every request finished; the lines that lost their durability cover are
  // stamped, and at least one must be (the WAL degraded mid-run).
  const std::vector<std::string> lines = Lines(run.stdout_text);
  ASSERT_EQ(lines.size(), manifest_size_) << run.stdout_text;
  size_t stamped = 0;
  for (const std::string& line : lines) {
    EXPECT_EQ(JsonField(line, "outcome"), "ok") << line;
    if (line.find("\"durable\":false") != std::string::npos) ++stamped;
  }
  EXPECT_GE(stamped, 1u) << run.stdout_text;
  EXPECT_NE(run.stderr_text.find("degrade"), std::string::npos)
      << "the degradation must be announced on stderr: " << run.stderr_text;
}

TEST_F(StorageFaultCliTest, PreflightRefusesTheManifestUpFront) {
  const ChildResult refused = RunGputc(
      WalArgs(/*resume=*/false), {"GPUTC_FAILPOINTS=storage.preflight=enospc"});
  EXPECT_EQ(refused.exit_code, 6) << refused.stderr_text;
  EXPECT_NE(refused.stderr_text.find("injected ENOSPC"), std::string::npos)
      << refused.stderr_text;
  // Refused up front: nothing was admitted, nothing was journaled.
  EXPECT_TRUE(Lines(Slurp(journal_)).empty()) << Slurp(journal_);
}

TEST_F(StorageFaultCliTest, WalPolicyFlagContract) {
  // 2: unknown policy value.
  EXPECT_EQ(RunGputc(WalArgs(false, "lenient")).exit_code, 2);
  // 2: --wal-policy without --wal is a contradiction, not a no-op.
  EXPECT_EQ(RunGputc({"batch", "--manifest", manifest_, "--journal", "-",
                      "--wal-policy", "strict"})
                .exit_code,
            2);
  // 0: both policies are accepted on a healthy disk.
  EXPECT_EQ(RunGputc(WalArgs(false, "strict")).exit_code, 0);
  EXPECT_EQ(RunGputc(WalArgs(true, "degrade")).exit_code, 0);
}

TEST_F(StorageFaultCliTest, CacheStoreFaultsNeverFailRequests) {
  // A persistently failing cache disk trips the tier-2 breaker; the work
  // itself must stay green — the cache is an accelerator, not a dependency.
  const std::string cache_dir = dir_ + "/prep-cache";
  const ChildResult run =
      RunGputc({"batch", "--manifest", manifest_, "--jobs", "2", "--journal",
                journal_, "--prep-cache", cache_dir},
               {"GPUTC_FAILPOINTS=cache.store=eio"});
  EXPECT_EQ(run.exit_code, 0) << run.stderr_text;
  AssertJournalComplete();
  for (const std::string& line : Lines(Slurp(journal_))) {
    EXPECT_EQ(JsonField(line, "outcome"), "ok") << line;
  }
}

}  // namespace
}  // namespace testing
}  // namespace gputc

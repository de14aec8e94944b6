#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/cache_store.h"
#include "service/circuit_breaker.h"
#include "service/storage_health.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/fs_io.h"
#include "util/status.h"

// Storage-fault tolerance, bottom-up: the fs_io syscall boundary and its
// injection sites, the durable writers' rollback/poisoning discipline
// (fsyncgate: a failed fsync is never retried), the disk-cache circuit
// breaker, and the StorageHealthMonitor the serve loop reports through.

namespace gputc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" + std::to_string(::getpid());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return -1;
  return static_cast<int64_t>(in.tellg());
}

/// Entries in `dir` whose names start with `prefix` (the leaked-temp check:
/// AtomicFileWriter temps are "<name>.tmp.<pid>.<seq>").
std::vector<std::string> EntriesWithPrefix(const std::string& dir,
                                           const std::string& prefix) {
  std::vector<std::string> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return found;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  ::closedir(d);
  return found;
}

/// Every test wipes the fail-point registry so an ambient GPUTC_FAILPOINTS
/// (or a sibling test) cannot perturb its schedule. The fs_io wrappers and
/// the durable layer open their own FailPointScope, so arming alone is
/// enough — no scope management here.
class StorageFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Instance().Reset(); }
  void TearDown() override { FailPointRegistry::Instance().Reset(); }

  void Arm(const std::string& schedule) {
    ASSERT_TRUE(FailPointRegistry::Instance().ArmFromString(schedule).ok())
        << schedule;
  }
};

// ---------------------------------------------------------------------------
// Errno mapping and labels.

TEST_F(StorageFaultTest, ErrnoToStatusMapsTheStorageTaxonomy) {
  EXPECT_EQ(ErrnoToStatus(ENOSPC, "write x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ErrnoToStatus(EDQUOT, "write x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ErrnoToStatus(EIO, "write x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(ErrnoToStatus(ENOENT, "open x").code(), StatusCode::kNotFound);
  EXPECT_EQ(ErrnoToStatus(EACCES, "open x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ErrnoToStatus(EROFS, "write x").code(),
            StatusCode::kFailedPrecondition);

  // The symbolic name is embedded so metrics can label by errno.
  const Status enospc = ErrnoToStatus(ENOSPC, "write '/j'");
  EXPECT_NE(enospc.ToString().find("(ENOSPC)"), std::string::npos)
      << enospc.ToString();
  EXPECT_NE(enospc.ToString().find("write '/j'"), std::string::npos);
}

TEST_F(StorageFaultTest, StorageErrnoLabelsRoundTrip) {
  EXPECT_STREQ(StorageErrnoLabel(ENOSPC), "ENOSPC");
  EXPECT_STREQ(StorageErrnoLabel(EIO), "EIO");
  EXPECT_STREQ(StorageErrnoLabel(EDQUOT), "EDQUOT");
  EXPECT_STREQ(StorageErrnoLabel(EBADMSG), "other");

  EXPECT_STREQ(StorageErrnoLabelFromStatus(ErrnoToStatus(ENOSPC, "w")),
               "ENOSPC");
  EXPECT_STREQ(StorageErrnoLabelFromStatus(ErrnoToStatus(EIO, "w")), "EIO");
  EXPECT_STREQ(StorageErrnoLabelFromStatus(OkStatus()), "other");
  EXPECT_STREQ(StorageErrnoLabelFromStatus(InternalError("no label here")),
               "other");
}

TEST_F(StorageFaultTest, ErrnoAliasInjectionCarriesTheRealLabel) {
  const std::string path = TempPath("alias_fsync");
  StatusOr<int> fd = FsOpen(path, O_WRONLY | O_CREAT | O_TRUNC);
  ASSERT_TRUE(fd.ok());
  Arm("fs.fsync=enospc@1");
  const Status injected = FsFsync(*fd, path);
  EXPECT_EQ(injected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(injected.ToString().find("injected ENOSPC"), std::string::npos)
      << injected.ToString();
  // Same label a real ENOSPC would produce — metrics cannot tell them apart.
  EXPECT_STREQ(StorageErrnoLabelFromStatus(injected), "ENOSPC");
  // @1: the budget is spent, the next fsync goes through.
  EXPECT_TRUE(FsFsync(*fd, path).ok());
  ::close(*fd);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// fs_io wrappers.

TEST_F(StorageFaultTest, FsWriteFullyWritesAndInjectsBeforeAnyByte) {
  const std::string path = TempPath("fswrite");
  StatusOr<int> fd = FsOpen(path, O_WRONLY | O_CREAT | O_TRUNC);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(FsWriteFully(*fd, "hello", 5, path).ok());

  Arm("fs.write=enospc");
  const Status injected = FsWriteFully(*fd, "world", 5, path);
  EXPECT_EQ(injected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(injected.ToString().find("write '" + path + "'"),
            std::string::npos)
      << injected.ToString();
  ::close(*fd);
  // fs.write injects before any byte lands: the file holds only "hello".
  EXPECT_EQ(Slurp(path), "hello");
  ::unlink(path.c_str());
}

TEST_F(StorageFaultTest, FsWriteShortGenuinelyLandsTheFirstHalf) {
  const std::string path = TempPath("fsshort");
  StatusOr<int> fd = FsOpen(path, O_WRONLY | O_CREAT | O_TRUNC);
  ASSERT_TRUE(fd.ok());

  Arm("fs.write.short=enospc");
  const Status torn = FsWriteFully(*fd, "0123456789", 10, path);
  EXPECT_EQ(torn.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(torn.ToString().find("short write"), std::string::npos)
      << torn.ToString();
  ::close(*fd);
  // The first half is really on disk — a genuine torn write the rollback
  // paths above must clean up.
  EXPECT_EQ(Slurp(path), "01234");
  ::unlink(path.c_str());
}

TEST_F(StorageFaultTest, FsStatvfsReportsSpaceAndInjects) {
  StatusOr<FsSpace> space = FsStatvfs(::testing::TempDir());
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_GT(space->total_bytes, 0u);
  EXPECT_GE(space->total_bytes, space->free_bytes);

  Arm("fs.statvfs=eio");
  EXPECT_EQ(FsStatvfs(::testing::TempDir()).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(StorageFaultTest, SkipModelsADiskThatFilledMidRun) {
  // ^2: the first two fsyncs pass, every later one fails — and with no
  // @count the failure is persistent, exactly the shape of a full disk.
  Arm("fs.fsync=enospc^2");
  const std::string path = TempPath("skip_fsync");
  StatusOr<int> fd = FsOpen(path, O_WRONLY | O_CREAT | O_TRUNC);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(FsFsync(*fd, "a").ok());
  EXPECT_TRUE(FsFsync(*fd, "b").ok());
  EXPECT_FALSE(FsFsync(*fd, "c").ok());
  EXPECT_FALSE(FsFsync(*fd, "d").ok());
  EXPECT_FALSE(FsFsync(*fd, "e").ok());
  ::close(*fd);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// AtomicFileWriter: the temp is unlinked on *every* error path and the
// target is never touched (satellite: injected-ENOSPC regression).

TEST_F(StorageFaultTest, AtomicWriterCleansUpWhenAppendHitsEnospc) {
  const std::string path = TempPath("atomic_append");
  StatusOr<AtomicFileWriter> writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  Arm("fs.write=enospc");
  const Status failed = writer->Append("payload");
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  // Temp gone on the spot, target never created, writer dead.
  EXPECT_TRUE(EntriesWithPrefix(::testing::TempDir(),
                                "atomic_append_" + std::to_string(::getpid()) +
                                    ".tmp")
                  .empty());
  EXPECT_EQ(FileSize(path), -1);
  FailPointRegistry::Instance().Reset();
  EXPECT_FALSE(writer->Append("more").ok());
  EXPECT_FALSE(writer->Commit().ok());
}

TEST_F(StorageFaultTest, AtomicWriterCommitFsyncFailureLeavesOldContent) {
  const std::string path = TempPath("atomic_fsync");
  ASSERT_TRUE(WriteFileAtomic(path, "old content").ok());

  StatusOr<AtomicFileWriter> writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("new content").ok());
  Arm("fs.fsync=enospc");
  EXPECT_EQ(writer->Commit().code(), StatusCode::kResourceExhausted);
  FailPointRegistry::Instance().Reset();

  // Readers still see the old file; no temp litter.
  EXPECT_EQ(Slurp(path), "old content");
  EXPECT_TRUE(EntriesWithPrefix(::testing::TempDir(),
                                "atomic_fsync_" + std::to_string(::getpid()) +
                                    ".tmp")
                  .empty());
  ::unlink(path.c_str());
}

TEST_F(StorageFaultTest, AtomicWriterRenameFailureLeavesOldContent) {
  const std::string path = TempPath("atomic_rename");
  ASSERT_TRUE(WriteFileAtomic(path, "old content").ok());

  StatusOr<AtomicFileWriter> writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("new content").ok());
  Arm("fs.rename=eio");
  EXPECT_EQ(writer->Commit().code(), StatusCode::kDataLoss);
  FailPointRegistry::Instance().Reset();

  EXPECT_EQ(Slurp(path), "old content");
  EXPECT_TRUE(EntriesWithPrefix(::testing::TempDir(),
                                "atomic_rename_" + std::to_string(::getpid()) +
                                    ".tmp")
                  .empty());
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// SegmentWriter: torn-write rollback, fsync poisoning.

TEST_F(StorageFaultTest, SegmentWriterRollsBackTornWriteAndKeepsGoing) {
  const std::string path = TempPath("segment_rollback");
  StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append("record-one").ok());
  const int64_t intact = FileSize(path);
  ASSERT_GT(intact, 0);

  // A short write tears the frame mid-record; Append must ftruncate back to
  // the record start — the segment stays clean and usable.
  Arm("fs.write.short=enospc");
  EXPECT_EQ(writer->Append("record-two").code(),
            StatusCode::kResourceExhausted);
  FailPointRegistry::Instance().Reset();
  EXPECT_EQ(FileSize(path), intact) << "torn frame was not rolled back";
  EXPECT_TRUE(writer->poisoned().ok()) << "rollback succeeded, no poison";

  ASSERT_TRUE(writer->Append("record-three").ok());
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0], "record-one");
  EXPECT_EQ(scan->records[1], "record-three");
  EXPECT_EQ(scan->dropped_bytes, 0u);
  ::unlink(path.c_str());
}

TEST_F(StorageFaultTest, SegmentWriterFsyncFailurePoisonsForever) {
  const std::string path = TempPath("segment_poison");
  StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("durable").ok());

  Arm("fs.fsync=enospc@1");
  EXPECT_EQ(writer->Append("lost").code(), StatusCode::kResourceExhausted);
  FailPointRegistry::Instance().Reset();

  // fsyncgate: the kernel may have dropped the dirty pages while clearing
  // the error, so no further fsync on this fd can be trusted. The writer
  // stays poisoned even though the disk is "healthy" again.
  EXPECT_FALSE(writer->poisoned().ok());
  const Status after = writer->Append("retry");
  EXPECT_FALSE(after.ok());
  EXPECT_NE(after.ToString().find("poisoned segment"), std::string::npos)
      << after.ToString();

  // The discipline is reopen-or-fail: a fresh writer on the same path works.
  StatusOr<SegmentWriter> reopened = SegmentWriter::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->poisoned().ok());
  EXPECT_TRUE(reopened->Append("after-reopen").ok());
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// LineLog: a journal line is all-or-nothing (satellite: short-write
// handling — never a torn half-line).

TEST_F(StorageFaultTest, LineLogNeverKeepsATornHalfLine) {
  const std::string path = TempPath("linelog_torn");
  StatusOr<LineLog> log = LineLog::OpenTrunc(path, /*fsync_each=*/false);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE(log->WriteLine("first").ok());

  Arm("fs.write.short=enospc");
  const Status torn = log->WriteLine("half-of-this-line-landed");
  EXPECT_EQ(torn.code(), StatusCode::kResourceExhausted);
  FailPointRegistry::Instance().Reset();

  // The rollback keeps the log clean (not poisoned) and the next line lands
  // directly after the last complete one.
  EXPECT_TRUE(log->poisoned().ok());
  ASSERT_TRUE(log->WriteLine("third").ok());
  EXPECT_EQ(Slurp(path), "first\nthird\n");
  ::unlink(path.c_str());
}

TEST_F(StorageFaultTest, LineLogFsyncFailurePoisons) {
  const std::string path = TempPath("linelog_poison");
  StatusOr<LineLog> log = LineLog::OpenTrunc(path, /*fsync_each=*/true);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log->WriteLine("durable").ok());

  Arm("fs.fsync=enospc@1");
  EXPECT_FALSE(log->WriteLine("lost").ok());
  FailPointRegistry::Instance().Reset();

  EXPECT_FALSE(log->poisoned().ok());
  const Status after = log->WriteLine("retry");
  EXPECT_FALSE(after.ok());
  EXPECT_NE(after.ToString().find("poisoned journal"), std::string::npos)
      << after.ToString();
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// DiskCacheStore breaker: tier 2 is benched after consecutive faults and
// re-admitted by a half-open probe; a failing cache disk never fails work.

TEST_F(StorageFaultTest, CacheBreakerBenchesTier2AndReprobes) {
  const std::string dir = TempPath("cache_breaker");
  // Injectable clock so the cooldown is deterministic.
  double now_ms = 0.0;
  DiskCacheStore store(dir, CircuitBreakerOptions{3, 1000.0, 1},
                       [&now_ms] { return now_ms; });
  ASSERT_TRUE(store.EnsureDir().ok());

  PrepCacheKey key;
  key.canonical = "graph=g;order=degree";
  key.hash = 0xabcdef01u;
  key.id = "00000000abcdef01";

  Arm("cache.store=eio");
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(store.Store(key, "artifact-bytes").ok());
  }
  EXPECT_EQ(store.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(FailPointRegistry::Instance().hits("cache.store"), 3);

  // Benched: no syscalls, loads miss, stores are skipped — the failpoint
  // hit counter proves the disk was never touched.
  const Status skipped = store.Store(key, "artifact-bytes");
  EXPECT_EQ(skipped.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(skipped.ToString().find("store skipped"), std::string::npos);
  const StatusOr<std::string> benched = store.Load(key);
  EXPECT_EQ(benched.status().code(), StatusCode::kNotFound);
  EXPECT_NE(benched.status().ToString().find("disk benched"),
            std::string::npos);
  EXPECT_EQ(FailPointRegistry::Instance().hits("cache.store"), 3);
  EXPECT_EQ(FailPointRegistry::Instance().hits("cache.load"), 0);

  // Disk recovers; past the cooldown a half-open probe goes through and a
  // success closes the breaker.
  FailPointRegistry::Instance().Reset();
  now_ms = 2000.0;
  ASSERT_TRUE(store.Store(key, "artifact-bytes").ok());
  EXPECT_EQ(store.breaker().state(), CircuitBreaker::State::kClosed);
  StatusOr<std::string> loaded = store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, "artifact-bytes");
}

TEST_F(StorageFaultTest, CacheMissesAreBenignAndDoNotTrip) {
  const std::string dir = TempPath("cache_benign");
  double now_ms = 0.0;
  DiskCacheStore store(dir, CircuitBreakerOptions{3, 1000.0, 1},
                       [&now_ms] { return now_ms; });
  ASSERT_TRUE(store.EnsureDir().ok());

  PrepCacheKey key;
  key.canonical = "absent";
  key.hash = 0x22u;
  key.id = "0000000000000022";
  // A miss is the cache working as designed, not a disk fault.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(store.Load(key).status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(store.breaker().state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// StorageHealthMonitor.

TEST_F(StorageFaultTest, ProbeReportsHealthyDiskAndExportsFreeBytes) {
  StorageHealthMonitor::Options options;
  options.probe_dir = ::testing::TempDir();
  // Watermarks of 0/0 so any real free space classifies as ok.
  options.low_free_bytes = 0;
  options.critical_free_bytes = 0;
  StorageHealthMonitor monitor(options);

  ASSERT_TRUE(monitor.ProbeNow().ok());
  EXPECT_EQ(monitor.disk_state(), StorageHealthMonitor::DiskState::kOk);
  EXPECT_GT(monitor.free_bytes(), 0u);
  EXPECT_FALSE(monitor.degraded());
  EXPECT_NE(MetricsRegistry::Global().PrometheusText().find(
                "gputc_disk_free_bytes"),
            std::string::npos);
}

TEST_F(StorageFaultTest, ProbeWriteFailureIsCritical) {
  StorageHealthMonitor::Options options;
  options.probe_dir = TempPath("no_such_dir") + "/missing";
  StorageHealthMonitor monitor(options);

  EXPECT_FALSE(monitor.ProbeNow().ok());
  EXPECT_EQ(monitor.disk_state(), StorageHealthMonitor::DiskState::kCritical);
  EXPECT_TRUE(monitor.degraded());
  EXPECT_GE(monitor.errors_total(), 1);
  EXPECT_NE(monitor.degraded_reason().find("disk critical"),
            std::string::npos)
      << monitor.degraded_reason();
}

TEST_F(StorageFaultTest, LowWatermarkDegradesWithoutStopping) {
  StorageHealthMonitor::Options options;
  options.probe_dir = ::testing::TempDir();
  // Any real filesystem is "low" against an absurd watermark — the serving
  // state the degraded /readyz header reports.
  options.low_free_bytes = UINT64_MAX;
  options.critical_free_bytes = 0;
  StorageHealthMonitor monitor(options);

  ASSERT_TRUE(monitor.ProbeNow().ok());
  EXPECT_EQ(monitor.disk_state(), StorageHealthMonitor::DiskState::kLow);
  EXPECT_TRUE(monitor.degraded());
  EXPECT_FALSE(monitor.strict_stopped());
}

TEST_F(StorageFaultTest, MaybeProbeIsRateLimited) {
  int64_t now = 0;
  StorageHealthMonitor::Options options;
  options.probe_dir = ::testing::TempDir();
  options.probe_interval_ms = 1000.0;
  options.low_free_bytes = 0;
  options.critical_free_bytes = 0;
  options.now_ms = [&now] { return now; };
  StorageHealthMonitor monitor(options);

  monitor.MaybeProbe();  // First call probes.
  EXPECT_EQ(monitor.disk_state(), StorageHealthMonitor::DiskState::kOk);

  // Inside the interval a statvfs fault is invisible: no probe runs.
  Arm("fs.statvfs=eio");
  now = 500;
  monitor.MaybeProbe();
  EXPECT_EQ(monitor.free_bytes(), monitor.free_bytes());
  const uint64_t before = monitor.free_bytes();
  EXPECT_GT(before, 0u);

  // Past the interval the probe runs again; statvfs fails (warn-only) but
  // the probe write still succeeds, so the disk stays serving.
  now = 1500;
  monitor.MaybeProbe();
  EXPECT_FALSE(monitor.strict_stopped());
}

TEST_F(StorageFaultTest, StrictStopAndDegradedReasonsAreFirstWins) {
  StorageHealthMonitor monitor;
  EXPECT_FALSE(monitor.strict_stopped());

  monitor.RecordStrictStop("WAL done append failed");
  monitor.RecordStrictStop("second reason must not clobber");
  EXPECT_TRUE(monitor.strict_stopped());
  EXPECT_EQ(monitor.strict_stop_reason(), "WAL done append failed");

  monitor.NoteDegraded("journal", "mirroring to stderr");
  monitor.NoteDegraded("journal", "later reason loses");
  EXPECT_TRUE(monitor.degraded());
  EXPECT_NE(monitor.degraded_reason().find("journal: mirroring to stderr"),
            std::string::npos)
      << monitor.degraded_reason();
  EXPECT_EQ(monitor.degraded_reason().find("later reason loses"),
            std::string::npos);
}

TEST_F(StorageFaultTest, RecordErrorFeedsTheErrnoLabeledCounter) {
  StorageHealthMonitor monitor;
  monitor.RecordError("wal", ErrnoToStatus(ENOSPC, "append intent"));
  monitor.RecordError("wal", OkStatus());  // OK statuses are ignored.
  EXPECT_EQ(monitor.errors_total(), 1);

  const std::string text = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(text.find("gputc_storage_errors_total"), std::string::npos);
  EXPECT_NE(text.find("errno=\"ENOSPC\""), std::string::npos) << text;
  EXPECT_NE(text.find("sink=\"wal\""), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Policy parsing + batch preflight.

TEST_F(StorageFaultTest, ParseStoragePolicyValues) {
  StatusOr<StoragePolicy> strict = ParseStoragePolicy("strict");
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(*strict, StoragePolicy::kStrict);
  EXPECT_STREQ(StoragePolicyName(*strict), "strict");

  StatusOr<StoragePolicy> degrade = ParseStoragePolicy("degrade");
  ASSERT_TRUE(degrade.ok());
  EXPECT_EQ(*degrade, StoragePolicy::kDegrade);
  EXPECT_STREQ(StoragePolicyName(*degrade), "degrade");

  const Status bad = ParseStoragePolicy("lenient").status();
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.ToString().find("expected strict or degrade"),
            std::string::npos);
}

TEST_F(StorageFaultTest, PreflightRefusesOnlyWhenSpaceIsShort) {
  // A byte of projected footprint always fits.
  EXPECT_TRUE(PreflightSpaceCheck(::testing::TempDir(), 1).ok());

  // No filesystem has half of UINT64_MAX free.
  const Status refused =
      PreflightSpaceCheck(::testing::TempDir(), UINT64_MAX / 2);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.ToString().find("free space or shrink the batch"),
            std::string::npos)
      << refused.ToString();

  // statvfs failure warns and admits: a disk that cannot report free space
  // may still take writes.
  Arm("fs.statvfs=eio");
  EXPECT_TRUE(PreflightSpaceCheck(::testing::TempDir(), UINT64_MAX / 2).ok());
  FailPointRegistry::Instance().Reset();

  // The dedicated site forces a deterministic refusal for the CLI tests.
  Arm("storage.preflight=enospc");
  const Status injected = PreflightSpaceCheck(::testing::TempDir(), 1);
  EXPECT_EQ(injected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(injected.ToString().find("injected ENOSPC"), std::string::npos);
}

TEST_F(StorageFaultTest, EstimateBatchStorageBytesScalesWithTheManifest) {
  const uint64_t empty = EstimateBatchStorageBytes(0);
  const uint64_t one = EstimateBatchStorageBytes(1);
  const uint64_t many = EstimateBatchStorageBytes(1000);
  EXPECT_GT(empty, 0u) << "headroom even for an empty manifest";
  EXPECT_GT(one, empty);
  EXPECT_GT(many, one);
  EXPECT_GE(many - empty, 1000u * 1024u)
      << "per-request footprint should be kilobytes, not bytes";
}

}  // namespace
}  // namespace gputc

// Tests for the crash-safe file primitives: CRC32C against known vectors,
// atomic whole-file replacement, and the append-only segment log including
// torn-tail truncation and mid-file corruption handling.

#include "util/durable_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace gputc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class DurableFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Path(const std::string& name) {
    const std::string p = TempPath(name);
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

// -- CRC32C -----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 appendix / universal CRC32C check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes, another standard vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

// Crc32c picks one of two implementations per CPU; each must agree with the
// standard vectors on its own.
void ExpectKnownVectors(uint32_t (*crc)(const void*, size_t, uint32_t)) {
  EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
  EXPECT_EQ(crc("", 0, 0), 0u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc(ones.data(), ones.size(), 0), 0x62A8AB43u);
}

TEST(Crc32cTest, TablePathMatchesKnownVectors) {
  ExpectKnownVectors(&Crc32cTable);
}

TEST(Crc32cTest, Sse42PathMatchesKnownVectors) {
  if (!Crc32cSse42Available()) GTEST_SKIP() << "CPU lacks SSE4.2";
  ExpectKnownVectors(&Crc32cSse42);
}

TEST(Crc32cTest, Sse42PathMatchesTableOnEveryShape) {
  if (!Crc32cSse42Available()) GTEST_SKIP() << "CPU lacks SSE4.2";
  std::mt19937_64 rng(20240607);
  std::vector<unsigned char> buffer((size_t{1} << 20) + 8);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  // Every length up to a few words at every alignment, so the 8-byte loop
  // and the byte tail meet at each offset.
  for (size_t align = 0; align < 8; ++align) {
    for (size_t length = 0; length <= 64; ++length) {
      const unsigned char* p = buffer.data() + align;
      EXPECT_EQ(Crc32cSse42(p, length, 0), Crc32cTable(p, length, 0))
          << "length " << length << ", alignment " << align;
    }
  }
  const size_t mib = size_t{1} << 20;
  EXPECT_EQ(Crc32cSse42(buffer.data(), mib, 0),
            Crc32cTable(buffer.data(), mib, 0));
  // Chained seeds: each piece seeded with the previous piece's CRC, split at
  // odd offsets, lands on the whole buffer's CRC on both paths.
  uint32_t hardware = 0, table = 0;
  for (size_t at = 0, piece = 1; at < mib; at += piece, piece = piece * 3 + 1) {
    const size_t length = std::min(piece, mib - at);
    hardware = Crc32cSse42(buffer.data() + at, length, hardware);
    table = Crc32cTable(buffer.data() + at, length, table);
    EXPECT_EQ(hardware, table) << "piece at " << at;
  }
  EXPECT_EQ(hardware, Crc32cTable(buffer.data(), mib, 0));
}

TEST(Crc32cTest, SeedChainsPartialComputations) {
  const std::string data = "the quick brown fox";
  const uint32_t whole = Crc32c(data.data(), data.size());
  const uint32_t chained =
      Crc32c(data.data() + 7, data.size() - 7, Crc32c(data.data(), 7));
  EXPECT_EQ(whole, chained);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "payload under test";
  const uint32_t before = Crc32c(data);
  data[5] ^= 0x01;
  EXPECT_NE(before, Crc32c(data));
}

// -- atomic whole-file replacement ------------------------------------------

TEST_F(DurableFileTest, WriteFileAtomicCreatesAndReplaces) {
  const std::string path = Path("atomic.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first\n").ok());
  EXPECT_EQ(Slurp(path), "first\n");
  ASSERT_TRUE(WriteFileAtomic(path, "second\n").ok());
  EXPECT_EQ(Slurp(path), "second\n");
}

TEST_F(DurableFileTest, AbortLeavesTargetUntouched) {
  const std::string path = Path("aborted.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "keep me").ok());
  StatusOr<AtomicFileWriter> writer = AtomicFileWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append("discard me").ok());
  writer->Abort();
  EXPECT_EQ(Slurp(path), "keep me");
}

TEST_F(DurableFileTest, DroppedWriterLeavesTargetUntouched) {
  const std::string path = Path("dropped.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "keep me").ok());
  {
    StatusOr<AtomicFileWriter> writer = AtomicFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("never committed").ok());
    // Destructor without Commit must clean up the temp file.
  }
  EXPECT_EQ(Slurp(path), "keep me");
}

TEST_F(DurableFileTest, CreateInMissingDirectoryFails) {
  StatusOr<AtomicFileWriter> writer =
      AtomicFileWriter::Create(TempPath("no/such/dir/file.txt"));
  ASSERT_FALSE(writer.ok());
  EXPECT_NE(writer.status().message().find("no/such/dir"), std::string::npos);
}

// -- segment log ------------------------------------------------------------

TEST_F(DurableFileTest, SegmentRoundTripsRecords) {
  const std::string path = Path("seg.log");
  const std::vector<std::string> records = {"alpha", "b", "gamma gamma",
                                            std::string(1000, 'x')};
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const std::string& r : records) ASSERT_TRUE(writer->Append(r).ok());
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, records);
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, EmptyRecordIsRejected) {
  // An empty record's frame would be eight zero bytes — the same thing a
  // zero-filled crash tail reads back as — so the writer refuses it rather
  // than produce a record the scanner must treat as end-of-log.
  const std::string path = Path("empty.log");
  StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  const Status appended = writer->Append("");
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(writer->Append("real record").ok());
}

TEST_F(DurableFileTest, ZeroFilledTailIsDroppedNotTrusted) {
  // Post-crash state on ext4/XFS: the file length was extended but the data
  // blocks never hit disk, so the tail reads back as zeros. The scan must
  // stop at the zero header instead of decoding an endless run of "valid"
  // empty records.
  const std::string path = Path("zerotail.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("survivor one").ok());
    ASSERT_TRUE(writer->Append("survivor two").ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::string zeros(128, '\0');
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->dropped_bytes, 128u);
  // Open truncates the zero tail and appends continue from the verified
  // prefix, exactly as with a torn record.
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer->recovered().dropped_bytes, 128u);
    ASSERT_TRUE(writer->Append("after recovery").ok());
  }
  scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[2], "after recovery");
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, ConcurrentAppendsDoNotInterleaveFrames) {
  // A frame is written in more than one write(2); without serialization,
  // appenders on different threads interleave mid-frame and every record
  // after the interleave point is silently dropped by recovery.
  const std::string path = Path("concurrent.log");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string payload =
              "thread " + std::to_string(t) + " record " + std::to_string(i) +
              " " + std::string(static_cast<size_t>(1 + (i * 7) % 40), 'p');
          ASSERT_TRUE(writer->Append(payload).ok());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, MissingSegmentIsNotFound) {
  StatusOr<SegmentScan> scan = ScanSegment(TempPath("no_such_segment.log"));
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kNotFound);
}

TEST_F(DurableFileTest, TornTailIsDroppedNotTrusted) {
  const std::string path = Path("torn.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("intact one").ok());
    ASSERT_TRUE(writer->Append("intact two").ok());
  }
  const std::string full = Slurp(path);
  // Tear the last record mid-payload, as a crash mid-append would.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() - 5));
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], "intact one");
  EXPECT_GT(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, OpenTruncatesTornTailAndAppendsAfterIt) {
  const std::string path = Path("recover.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("survivor").ok());
    ASSERT_TRUE(writer->Append("victim").ok());
  }
  const std::string full = Slurp(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() - 3));
  }
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_EQ(writer->recovered().records.size(), 1u);
    EXPECT_GT(writer->recovered().dropped_bytes, 0u);
    ASSERT_TRUE(writer->Append("appended after recovery").ok());
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0], "survivor");
  EXPECT_EQ(scan->records[1], "appended after recovery");
  EXPECT_EQ(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, CorruptPayloadStopsTheScan) {
  const std::string path = Path("bitrot.log");
  {
    StatusOr<SegmentWriter> writer = SegmentWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("good record").ok());
    ASSERT_TRUE(writer->Append("soon to rot").ok());
    ASSERT_TRUE(writer->Append("unreachable").ok());
  }
  std::string bytes = Slurp(path);
  // Flip one bit inside the second record's payload. Frames are
  // 8 bytes of header + payload each.
  const size_t second_payload = 8 + std::string("good record").size() + 8 + 2;
  ASSERT_LT(second_payload, bytes.size());
  bytes[second_payload] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // Nothing after the first bad frame is trusted — a scan cannot tell
  // bit rot from a tear, and resynchronizing past garbage risks framing
  // on attacker-controlled bytes.
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], "good record");
  EXPECT_GT(scan->dropped_bytes, 0u);
}

TEST_F(DurableFileTest, GarbageLengthFieldDoesNotAllocate) {
  const std::string path = Path("hugelen.log");
  {
    std::ofstream out(path, std::ios::binary);
    const uint32_t huge_len = 0xFFFFFFFFu;
    const uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&huge_len), 4);
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out << "tiny";
  }
  StatusOr<SegmentScan> scan = ScanSegment(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_GT(scan->dropped_bytes, 0u);
}

// -- line log ---------------------------------------------------------------

TEST_F(DurableFileTest, LineLogWritesLinesAndTruncatesOnOpen) {
  const std::string path = Path("lines.jsonl");
  {
    StatusOr<LineLog> log = LineLog::OpenTrunc(path, /*fsync_each=*/true);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->WriteLine("{\"a\":1}").ok());
    ASSERT_TRUE(log->WriteLine("{\"b\":2}").ok());
  }
  EXPECT_EQ(Slurp(path), "{\"a\":1}\n{\"b\":2}\n");
  {
    StatusOr<LineLog> log = LineLog::OpenTrunc(path, /*fsync_each=*/false);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->WriteLine("{\"c\":3}").ok());
  }
  EXPECT_EQ(Slurp(path), "{\"c\":3}\n");
}

}  // namespace
}  // namespace gputc

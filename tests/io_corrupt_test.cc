// Corpus-style tests feeding crafted, corrupt, and adversarial inputs
// through the Status-returning loaders. Every case asserts a precise error
// code and a context-bearing message — and, run under ASan/UBSan, that no
// crafted header can cause an out-of-bounds access or runaway allocation.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/validate.h"
#include "util/durable_file.h"

namespace gputc {
namespace {

constexpr uint64_t kMagic = 0x43545550'47525048ull;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes a crafted binary graph file from raw parts.
void WriteCrafted(const std::string& path, uint64_t magic, uint64_t n,
                  uint64_t m, const std::vector<EdgeCount>& offsets,
                  const std::vector<VertexId>& adj,
                  const std::string& trailing = "") {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out);
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(EdgeCount)));
  out.write(reinterpret_cast<const char*>(adj.data()),
            static_cast<std::streamsize>(adj.size() * sizeof(VertexId)));
  out << trailing;
}

class CorruptFileTest : public ::testing::Test {
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

TEST_F(CorruptFileTest, TruncatedHeader) {
  const std::string path = Path("trunc_header.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "GPUT";  // 4 bytes, header needs 24.
  }
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("truncated header"), std::string::npos);
  EXPECT_NE(g.status().message().find(path), std::string::npos);
}

TEST_F(CorruptFileTest, BadMagic) {
  const std::string path = Path("bad_magic.bin");
  WriteCrafted(path, /*magic=*/0xDEADBEEFull, 2, 1, {0, 1, 2}, {1, 0});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("bad magic"), std::string::npos);
  EXPECT_NE(g.status().message().find("0xdeadbeef"), std::string::npos);
}

TEST_F(CorruptFileTest, HugeVertexCountRejectedBeforeAllocation) {
  // A 24-byte file claiming 2^40 vertices would imply an 8 TiB offsets
  // allocation; the loader must reject on the header alone.
  const std::string path = Path("huge_n.bin");
  WriteCrafted(path, kMagic, /*n=*/1ull << 40, /*m=*/1, {}, {});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(g.status().message().find("vertex count"), std::string::npos);
}

TEST_F(CorruptFileTest, HugeEdgeCountRejectedBeforeAllocation) {
  const std::string path = Path("huge_m.bin");
  WriteCrafted(path, kMagic, /*n=*/2, /*m=*/1ull << 60, {}, {});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(g.status().message().find("edge count"), std::string::npos);
}

TEST_F(CorruptFileTest, PayloadShorterThanHeaderImplies) {
  const std::string path = Path("short_payload.bin");
  // Header says n=4, m=10 but carries a payload for a much smaller graph.
  WriteCrafted(path, kMagic, /*n=*/4, /*m=*/10, {0, 1, 2}, {1, 0});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("but the file is"), std::string::npos);
}

TEST_F(CorruptFileTest, TrailingGarbageRejected) {
  const std::string path = Path("trailing.bin");
  WriteCrafted(path, kMagic, /*n=*/2, /*m=*/1, {0, 1, 2}, {1, 0},
               /*trailing=*/"extra");
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
}

TEST_F(CorruptFileTest, NonMonotonicOffsets) {
  const std::string path = Path("nonmono.bin");
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 3, 2, 4}, {1, 2, 0, 0});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("not monotonic"), std::string::npos);
}

TEST_F(CorruptFileTest, OffsetsTotalDisagreesWithEdgeCount) {
  const std::string path = Path("bad_total.bin");
  // offsets[n] = 3 but the header promises 2*m = 4 adjacency entries. The
  // adjacency array still has 4 entries so the file size matches the header
  // and only the offsets check can catch it.
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 1, 2, 3}, {1, 0, 1, 0});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("2*m"), std::string::npos);
}

TEST_F(CorruptFileTest, NegativeOffsetRejected) {
  const std::string path = Path("neg_offset.bin");
  WriteCrafted(path, kMagic, /*n=*/2, /*m=*/1, {-4, 1, 2}, {1, 0});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("offsets[0]"), std::string::npos);
}

TEST_F(CorruptFileTest, OutOfRangeVertexId) {
  const std::string path = Path("oob_adj.bin");
  // Would have been an out-of-bounds CSR indexing crash in the unhardened
  // loader: vertex id 999 in a 3-vertex graph.
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 2, 3, 4}, {1, 999, 0, 0});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("adjacency[1]"), std::string::npos);
  EXPECT_NE(g.status().message().find("999"), std::string::npos);
}

TEST_F(CorruptFileTest, NonCanonicalCsrRejectedStrictButRepairable) {
  const std::string path = Path("self_loop.bin");
  // Structurally sound CSR containing a doubled self loop: row 0 = [0, 0],
  // row 1 = [2], row 2 = [1]. Strict load refuses; the doctor flow repairs.
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 2, 3, 4}, {0, 0, 2, 1});
  const StatusOr<Graph> strict = LoadBinary(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(strict.status().message().find("not canonical"),
            std::string::npos);

  StatusOr<EdgeList> raw = LoadBinaryEdgeList(path);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const GraphDoctor doctor;
  const ValidationReport report = doctor.Examine(*raw);
  EXPECT_FALSE(report.clean());
  const StatusOr<Graph> repaired =
      doctor.BuildGraph(*std::move(raw), RepairPolicy::kRepair);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(repaired->num_vertices(), 3u);
  EXPECT_EQ(repaired->num_edges(), 1);  // Only (1, 2) survives.
}

TEST_F(CorruptFileTest, AsymmetricCsrRejected) {
  const std::string path = Path("asym.bin");
  // Row 0 = [1, 2], row 1 = [0], row 2 = [1]: row 2 lists 1, but row 1 lacks
  // 2 and row 2 lacks 0. Lifting upper entries alone would read {(0,1),(0,2)}.
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 2, 3, 4}, {1, 2, 0, 1});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("not canonical"), std::string::npos);
  EXPECT_NE(g.status().message().find("edge (0, 2)"), std::string::npos)
      << g.status().ToString();
}

TEST_F(CorruptFileTest, DoctorNamesTheFirstUnmirroredEntry) {
  const std::string path = Path("asym_doctor.bin");
  // The AsymmetricCsrRejected file: (0, 2) in row 0 and (2, 1) in row 2
  // have no mirror.
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 2, 3, 4}, {1, 2, 0, 1});
  ValidationReport report;
  const StatusOr<EdgeList> raw = LoadBinaryEdgeList(path, &report);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_EQ(report.findings.size(), 1u) << report.Summary();
  const Finding& finding = report.findings[0];
  EXPECT_EQ(finding.kind, FindingKind::kUnmirroredEntry);
  EXPECT_EQ(finding.count, 2);
  EXPECT_NE(finding.detail.find("row 0 lists 2 (adjacency[1])"),
            std::string::npos)
      << finding.detail;
  // Every edge either row lists, in canonical order: nothing else to flag.
  EXPECT_EQ(raw->edges(), (std::vector<Edge>{{0, 1}, {0, 2}, {1, 2}}));
  EXPECT_TRUE(GraphDoctor().Examine(*raw).clean());

  // A canonical file has no such finding.
  const std::string valid = Path("valid_doctor.bin");
  ASSERT_TRUE(SaveBinary(GenerateErdosRenyi(60, 150, /*seed=*/7), valid));
  ValidationReport clean;
  const StatusOr<EdgeList> lifted = LoadBinaryEdgeList(valid, &clean);
  ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();
  EXPECT_TRUE(clean.clean()) << clean.Summary();
  EXPECT_EQ(lifted->num_edges(), 150);
}

TEST_F(CorruptFileTest, DoctorRepairKeepsEveryListedEdge) {
  const std::string path = Path("asym_repair.bin");
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 2, 3, 4}, {1, 2, 0, 1});
  StatusOr<EdgeList> raw = LoadBinaryEdgeList(path);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const StatusOr<Graph> repaired =
      GraphDoctor().BuildGraph(*std::move(raw), RepairPolicy::kRepair);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(repaired->num_edges(), 3);  // {1, 2} is listed by row 2 only.
  const std::string fixed = Path("asym_fixed.bin");
  ASSERT_TRUE(SaveBinary(*repaired, fixed));
  const StatusOr<Graph> reloaded = LoadBinary(fixed);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_edges(), 3);
}

TEST_F(CorruptFileTest, UnsortedSymmetricRowsRejected) {
  const std::string path = Path("unsorted.bin");
  // Rows [2, 1], [0], [0]: symmetric, but row 0 is out of order.
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 2, 3, 4}, {2, 1, 0, 0});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("not canonical"), std::string::npos);
  EXPECT_NE(g.status().message().find("row 0"), std::string::npos)
      << g.status().ToString();
}

TEST_F(CorruptFileTest, ValidFileStillRoundTrips) {
  const Graph g = GenerateErdosRenyi(60, 150, /*seed=*/7);
  const std::string path = Path("valid.bin");
  ASSERT_TRUE(SaveBinary(g, path));
  const StatusOr<Graph> h = LoadBinary(path);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->offsets(), g.offsets());
  EXPECT_EQ(h->adjacency(), g.adjacency());
}

TEST_F(CorruptFileTest, MissingBinaryIsNotFound) {
  const StatusOr<Graph> g = LoadBinary("/nonexistent/graph.bin");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
  EXPECT_NE(g.status().message().find("/nonexistent/graph.bin"),
            std::string::npos);
}

TEST(CorruptSnapTest, MalformedLineNamesTheLine) {
  std::istringstream in("# header\n0 1\nnot numbers\n");
  const StatusOr<Graph> g = ReadSnapText(in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(g.status().message().find("not numbers"), std::string::npos);
}

TEST(CorruptSnapTest, MissingSecondEndpoint) {
  std::istringstream in("0 1\n17\n");
  const StatusOr<Graph> g = ReadSnapText(in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST(CorruptSnapTest, OverflowingVertexToken) {
  std::istringstream in("0 1\n99999999999999999999999999 1\n");
  const StatusOr<Graph> g = ReadSnapText(in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST(CorruptSnapTest, MissingFileIsNotFoundWithPath) {
  const StatusOr<Graph> g = LoadSnapText("/nonexistent/path/graph.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
  EXPECT_NE(g.status().message().find("/nonexistent/path/graph.txt"),
            std::string::npos);
}

TEST(CorruptSnapTest, ParseErrorCarriesFileContext) {
  const std::string path = TempPath("bad_line.txt");
  {
    std::ofstream out(path);
    out << "0 1\ngarbage here\n";
  }
  const StatusOr<Graph> g = LoadSnapText(path);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find(path), std::string::npos);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CorruptSnapTest, RawEdgeListPreservesDefectsForDoctor) {
  std::istringstream in("0 0\n1 2\n2 1\n");
  StatusOr<EdgeList> list = ReadSnapEdgeList(in);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->num_edges(), 3);  // Loop and both duplicates kept.
  const ValidationReport report = GraphDoctor().Examine(*list);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.Summary().find("self-loop"), std::string::npos);
  EXPECT_NE(report.Summary().find("duplicate-edge"), std::string::npos);
}

// -- v2 corrupt corpus ------------------------------------------------------
//
// SaveBinary writes the checksummed v2 format; every test here starts from a
// valid v2 file and injects one precise defect, asserting the loader names
// it in the Status instead of crashing or returning a silently-wrong graph.

constexpr size_t kV2HeaderBytes = 48;
constexpr size_t kV2HeaderCrcOffset = 44;

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the header CRC after a deliberate header edit, so the test
/// reaches the check *behind* the CRC (version, finalized flag, counts).
void ResealHeader(std::string* bytes) {
  const uint32_t crc = Crc32c(bytes->data(), kV2HeaderCrcOffset);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[kV2HeaderCrcOffset + i] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

class CorruptV2Test : public CorruptFileTest {
 protected:
  /// Saves a small graph in v2 format and returns its path + bytes.
  std::string SaveValid(const std::string& name, std::string* bytes) {
    const std::string path = Path(name);
    const Graph g = GenerateErdosRenyi(40, 120, /*seed=*/3);
    EXPECT_TRUE(SaveBinaryDurable(g, path).ok());
    *bytes = SlurpFile(path);
    EXPECT_GE(bytes->size(), kV2HeaderBytes);
    return path;
  }

  void ExpectDataLossContaining(const std::string& path,
                                const std::string& fragment) {
    const StatusOr<Graph> g = LoadBinary(path);
    ASSERT_FALSE(g.ok()) << "loader accepted a corrupt file";
    EXPECT_EQ(g.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(g.status().message().find(fragment), std::string::npos)
        << g.status().ToString();
    EXPECT_NE(g.status().message().find(path), std::string::npos)
        << "error must carry the file path: " << g.status().ToString();
  }
};

TEST_F(CorruptV2Test, HeaderBitFlipIsHeaderCrcMismatch) {
  std::string bytes;
  const std::string path = SaveValid("v2_header_flip.bin", &bytes);
  bytes[20] ^= 0x01;  // Inside the n field.
  WriteBytes(path, bytes);
  ExpectDataLossContaining(path, "header CRC mismatch");
}

TEST_F(CorruptV2Test, UnfinalizedFileIsRejectedAsTorn) {
  std::string bytes;
  const std::string path = SaveValid("v2_unfinalized.bin", &bytes);
  bytes[12] = 0;  // Clear the finalized flag...
  ResealHeader(&bytes);  // ...with a valid CRC, as a torn writer would leave.
  WriteBytes(path, bytes);
  ExpectDataLossContaining(path, "never finalized");
}

TEST_F(CorruptV2Test, FutureVersionIsRejectedByName) {
  std::string bytes;
  const std::string path = SaveValid("v2_future_version.bin", &bytes);
  bytes[8] = 3;
  ResealHeader(&bytes);
  WriteBytes(path, bytes);
  ExpectDataLossContaining(path, "unsupported binary format version 3");
}

TEST_F(CorruptV2Test, OffsetsBitFlipIsOffsetsCrcMismatch) {
  std::string bytes;
  const std::string path = SaveValid("v2_offsets_flip.bin", &bytes);
  bytes[kV2HeaderBytes + 9] ^= 0x10;
  WriteBytes(path, bytes);
  ExpectDataLossContaining(path, "CSR offsets CRC mismatch");
}

TEST_F(CorruptV2Test, AdjacencyBitFlipIsAdjacencyCrcMismatch) {
  std::string bytes;
  const std::string path = SaveValid("v2_adj_flip.bin", &bytes);
  // Flip a bit in the adjacency section without changing vertex range
  // validity: the CRC must catch it even when the value still "looks" valid.
  bytes[bytes.size() - 3] ^= 0x02;
  WriteBytes(path, bytes);
  ExpectDataLossContaining(path, "CSR adjacency CRC mismatch");
}

TEST_F(CorruptV2Test, TruncatedPayloadNamesTheSizes) {
  std::string bytes;
  const std::string path = SaveValid("v2_trunc_payload.bin", &bytes);
  WriteBytes(path, bytes.substr(0, bytes.size() - 7));
  ExpectDataLossContaining(path, "but the file is");
}

TEST_F(CorruptV2Test, TruncatedHeaderIsRejected) {
  std::string bytes;
  const std::string path = SaveValid("v2_trunc_header.bin", &bytes);
  WriteBytes(path, bytes.substr(0, kV2HeaderBytes / 2));
  ExpectDataLossContaining(path, "truncated v2 header");
}

TEST_F(CorruptV2Test, UnknownMagicNamesBothFormats) {
  const std::string path = Path("v2_bad_magic.bin");
  std::string bytes(64, '\x5a');
  WriteBytes(path, bytes);
  ExpectDataLossContaining(path, "bad magic");
}

TEST_F(CorruptV2Test, LegacyV1FileStillLoads) {
  // The v1 writer is gone, so craft its format by hand: {magic, n, m},
  // offsets, adjacency — a 3-path 0-1-2.
  const std::string path = Path("legacy_v1.bin");
  WriteCrafted(path, kMagic, /*n=*/3, /*m=*/2, {0, 1, 3, 4}, {1, 0, 2, 1});
  const StatusOr<Graph> g = LoadBinary(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 2);
}

TEST(LoadGraphDispatchTest, ErrorsOnEitherFormatCarryContext) {
  const StatusOr<Graph> bin = LoadGraph("/nonexistent/g.bin");
  ASSERT_FALSE(bin.ok());
  EXPECT_EQ(bin.status().code(), StatusCode::kNotFound);
  const StatusOr<Graph> txt = LoadGraph("/nonexistent/g.txt");
  ASSERT_FALSE(txt.ok());
  EXPECT_EQ(txt.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace gputc

#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/validate.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace gputc {
namespace {

constexpr uint64_t kBinaryMagic = 0x43545550'47525048ull;  // v1, "GPUTCGRPH".
constexpr uint64_t kHeaderBytes = 3 * sizeof(uint64_t);    // v1: magic, n, m.

// v2 header layout (all little-endian):
//   u64 magic      kBinaryMagicV2
//   u32 version    2
//   u32 flags      bit 0 = finalized (writer completed the payload)
//   u64 n, u64 m
//   u32 offsets_crc   CRC32C of the offsets section
//   u32 adj_crc       CRC32C of the adjacency section
//   u32 reserved      0
//   u32 header_crc    CRC32C of the 44 preceding header bytes
constexpr uint64_t kBinaryMagicV2 = 0x32564752'47525048ull;  // "GPUTCGRV2".
constexpr uint32_t kBinaryVersion = 2;
constexpr uint32_t kFlagFinalized = 1u << 0;
constexpr uint64_t kHeaderBytesV2 = 48;
constexpr uint64_t kHeaderCrcCoverage = kHeaderBytesV2 - sizeof(uint32_t);

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendScalar(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(value));
}

template <typename T>
T ReadScalar(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

std::string Truncate(const std::string& s, size_t limit = 60) {
  if (s.size() <= limit) return s;
  return s.substr(0, limit) + "...";
}

std::string HexU64(uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

/// The CSR sections of a binary graph file: `offsets` has n+1 entries and
/// `adj` 2m, as the header declares.
struct CsrSections {
  std::vector<EdgeCount> offsets;
  std::vector<VertexId> adj;
};

/// Reads `count` elements into `out`, reporting how many bytes were missing
/// on short reads. The caller has already verified the physical file size,
/// so a failure here means the file changed underfoot or the stream broke.
template <typename T>
Status ReadArray(std::istream& in, std::vector<T>& out, size_t count,
                 const char* what) {
  out.resize(count);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) {
    std::ostringstream msg;
    msg << "short read in " << what << ": wanted " << count * sizeof(T)
        << " bytes, got " << in.gcount();
    return DataLossError(msg.str());
  }
  return OkStatus();
}

}  // namespace

StatusOr<EdgeList> ReadSnapEdgeList(std::istream& in) {
  EdgeList list;
  std::unordered_map<uint64_t, VertexId> remap;
  auto dense_id = [&remap](uint64_t raw) {
    const auto [it, inserted] =
        remap.emplace(raw, static_cast<VertexId>(remap.size()));
    (void)inserted;
    return it->second;
  };
  const GraphDoctor doctor;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a = 0, b = 0;
    if (!(ls >> a >> b)) {
      std::ostringstream msg;
      msg << "line " << line_number << ": expected 'u v' pair, got \""
          << Truncate(line) << "\"";
      return DataLossError(msg.str());
    }
    // Sequence the two lookups explicitly: argument evaluation order is
    // unspecified, and first-seen-order remapping must be deterministic.
    const VertexId u = dense_id(a);
    const VertexId v = dense_id(b);
    list.Add(u, v);
    if (remap.size() > doctor.options().max_vertices ||
        list.num_edges() > doctor.options().max_edges) {
      std::ostringstream msg;
      msg << "line " << line_number << ": graph exceeds the ingestion caps ("
          << remap.size() << " vertices, " << list.num_edges() << " edges)";
      return ResourceExhaustedError(msg.str());
    }
  }
  if (in.bad()) return DataLossError("stream failed while reading edge list");
  list.set_num_vertices(static_cast<VertexId>(remap.size()));
  return list;
}

StatusOr<Graph> ReadSnapText(std::istream& in) {
  GPUTC_ASSIGN_OR_RETURN(EdgeList list, ReadSnapEdgeList(in));
  return Graph::FromEdgeList(std::move(list));
}

StatusOr<Graph> LoadSnapText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  StatusOr<Graph> g = ReadSnapText(in);
  if (!g.ok()) return g.status().WithContext("LoadSnapText('" + path + "')");
  return g;
}

void WriteSnapText(const Graph& g, std::ostream& out) {
  out << "# gputc graph: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " undirected edges\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) out << u << '\t' << v << '\n';
    }
  }
}

Status SaveSnapTextDurable(const Graph& g, const std::string& path) {
  std::ostringstream out;
  WriteSnapText(g, out);
  const Status saved = WriteFileAtomic(path, out.str());
  if (!saved.ok()) return saved.WithContext("SaveSnapText('" + path + "')");
  return saved;
}

bool SaveSnapText(const Graph& g, const std::string& path) {
  return SaveSnapTextDurable(g, path).ok();
}

Status SaveBinaryDurable(const Graph& g, const std::string& path) {
  const uint64_t n = g.num_vertices();
  const uint64_t m = static_cast<uint64_t>(g.num_edges());
  const char* offsets_bytes =
      reinterpret_cast<const char*>(g.offsets().data());
  const size_t offsets_size = g.offsets().size() * sizeof(EdgeCount);
  const char* adj_bytes = reinterpret_cast<const char*>(g.adjacency().data());
  const size_t adj_size = g.adjacency().size() * sizeof(VertexId);

  std::string header;
  header.reserve(kHeaderBytesV2);
  AppendScalar<uint64_t>(&header, kBinaryMagicV2);
  AppendScalar<uint32_t>(&header, kBinaryVersion);
  AppendScalar<uint32_t>(&header, kFlagFinalized);
  AppendScalar<uint64_t>(&header, n);
  AppendScalar<uint64_t>(&header, m);
  AppendScalar<uint32_t>(&header, Crc32c(offsets_bytes, offsets_size));
  AppendScalar<uint32_t>(&header, Crc32c(adj_bytes, adj_size));
  AppendScalar<uint32_t>(&header, 0);  // Reserved.
  AppendScalar<uint32_t>(&header, Crc32c(header.data(), header.size()));

  const auto save = [&]() -> Status {
    GPUTC_ASSIGN_OR_RETURN(AtomicFileWriter out,
                           AtomicFileWriter::Create(path));
    GPUTC_RETURN_IF_ERROR(out.Append(header));
    GPUTC_RETURN_IF_ERROR(out.Append(offsets_bytes, offsets_size));
    GPUTC_RETURN_IF_ERROR(out.Append(adj_bytes, adj_size));
    return out.Commit();
  };
  const Status saved = save();
  if (!saved.ok()) return saved.WithContext("SaveBinary('" + path + "')");
  return saved;
}

bool SaveBinary(const Graph& g, const std::string& path) {
  return SaveBinaryDurable(g, path).ok();
}

namespace {

/// v1 {magic, n, m} path: no checksums to verify, so only the structural
/// checks stand between a bit flip and a wrong count. Kept loadable for
/// existing corpora; the warning nudges toward a re-save.
Status ReadBinaryV1(std::istream& in, uint64_t file_size,
                    const std::string& path, CsrSections* csr) {
  uint64_t dummy_magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&dummy_magic), sizeof(dummy_magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in) return DataLossError("cannot read header");
  GPUTC_LOG(Warning) << "'" << path
                     << "' is a v1 binary graph (no checksums); re-save with "
                        "'gputc convert' to upgrade to the checksummed v2 "
                        "format";

  // Validate the header counts and the implied payload size against the
  // physical file *before* allocating anything the header controls. The caps
  // bound n and m, so the byte arithmetic below cannot overflow uint64.
  const GraphDoctor doctor;
  GPUTC_RETURN_IF_ERROR(doctor.CheckCounts(n, m).WithContext("header"));
  const uint64_t expected_size = kHeaderBytes + (n + 1) * sizeof(EdgeCount) +
                                 2 * m * sizeof(VertexId);
  if (file_size != expected_size) {
    std::ostringstream msg;
    msg << "header claims n = " << n << ", m = " << m << " implying "
        << expected_size << " bytes, but the file is " << file_size
        << " bytes";
    return DataLossError(msg.str());
  }
  GPUTC_RETURN_IF_ERROR(
      ReadArray(in, csr->offsets, static_cast<size_t>(n) + 1, "CSR offsets"));
  GPUTC_RETURN_IF_ERROR(
      ReadArray(in, csr->adj, static_cast<size_t>(2 * m), "CSR adjacency"));
  return OkStatus();
}

/// v2 path: header CRC, finalized flag, and per-section CRCs are all
/// verified before the structural checks, each failure with its own
/// precise message — a torn save, a bit flip in the payload, and a damaged
/// header are distinguishable in the Status alone.
Status ReadBinaryV2(std::istream& in, uint64_t file_size,
                    CsrSections* csr) {
  if (file_size < kHeaderBytesV2) {
    std::ostringstream msg;
    msg << "truncated v2 header: file is " << file_size << " bytes, need "
        << kHeaderBytesV2;
    return DataLossError(msg.str());
  }
  char header[kHeaderBytesV2];
  in.read(header, static_cast<std::streamsize>(kHeaderBytesV2));
  if (!in) return DataLossError("cannot read v2 header");

  const uint32_t stored_header_crc =
      ReadScalar<uint32_t>(header + kHeaderCrcCoverage);
  const uint32_t computed_header_crc = Crc32c(header, kHeaderCrcCoverage);
  if (stored_header_crc != computed_header_crc) {
    std::ostringstream msg;
    msg << "header CRC mismatch: stored " << HexU64(stored_header_crc)
        << ", computed " << HexU64(computed_header_crc)
        << " (damaged or truncated header)";
    return DataLossError(msg.str());
  }
  const uint32_t version = ReadScalar<uint32_t>(header + 8);
  if (version != kBinaryVersion) {
    return DataLossError("unsupported binary format version " +
                         std::to_string(version) + " (this build reads 1-" +
                         std::to_string(kBinaryVersion) + ")");
  }
  const uint32_t flags = ReadScalar<uint32_t>(header + 12);
  if ((flags & kFlagFinalized) == 0) {
    return DataLossError(
        "file was never finalized: the writer did not complete its payload "
        "(torn or interrupted save)");
  }
  const uint64_t n = ReadScalar<uint64_t>(header + 16);
  const uint64_t m = ReadScalar<uint64_t>(header + 24);
  const uint32_t stored_offsets_crc = ReadScalar<uint32_t>(header + 32);
  const uint32_t stored_adj_crc = ReadScalar<uint32_t>(header + 36);

  const GraphDoctor doctor;
  GPUTC_RETURN_IF_ERROR(doctor.CheckCounts(n, m).WithContext("header"));
  const uint64_t expected_size = kHeaderBytesV2 +
                                 (n + 1) * sizeof(EdgeCount) +
                                 2 * m * sizeof(VertexId);
  if (file_size != expected_size) {
    std::ostringstream msg;
    msg << "header claims n = " << n << ", m = " << m << " implying "
        << expected_size << " bytes, but the file is " << file_size
        << " bytes";
    return DataLossError(msg.str());
  }
  GPUTC_RETURN_IF_ERROR(
      ReadArray(in, csr->offsets, static_cast<size_t>(n) + 1, "CSR offsets"));
  GPUTC_RETURN_IF_ERROR(
      ReadArray(in, csr->adj, static_cast<size_t>(2 * m), "CSR adjacency"));

  const uint32_t offsets_crc =
      Crc32c(csr->offsets.data(), csr->offsets.size() * sizeof(EdgeCount));
  if (offsets_crc != stored_offsets_crc) {
    std::ostringstream msg;
    msg << "CSR offsets CRC mismatch: stored " << HexU64(stored_offsets_crc)
        << ", computed " << HexU64(offsets_crc) << " (bit rot?)";
    return DataLossError(msg.str());
  }
  const uint32_t adj_crc =
      Crc32c(csr->adj.data(), csr->adj.size() * sizeof(VertexId));
  if (adj_crc != stored_adj_crc) {
    std::ostringstream msg;
    msg << "CSR adjacency CRC mismatch: stored " << HexU64(stored_adj_crc)
        << ", computed " << HexU64(adj_crc) << " (bit rot?)";
    return DataLossError(msg.str());
  }
  return OkStatus();
}

/// The one reader behind both binary loaders: opens `path`, dispatches on
/// the magic, and returns the sections once the header, the caps, the size
/// and (v2) the checksums agree. Errors carry the LoadBinary('path') context.
StatusOr<CsrSections> ReadBinaryCsr(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  const std::string ctx = "LoadBinary('" + path + "')";

  in.seekg(0, std::ios::end);
  const auto end_pos = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end_pos < 0) {
    return DataLossError("cannot determine file size").WithContext(ctx);
  }
  const uint64_t file_size = static_cast<uint64_t>(end_pos);
  if (file_size < kHeaderBytes) {
    std::ostringstream msg;
    msg << "truncated header: file is " << file_size << " bytes, need "
        << kHeaderBytes;
    return DataLossError(msg.str()).WithContext(ctx);
  }

  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in) return DataLossError("cannot read header").WithContext(ctx);
  in.seekg(0, std::ios::beg);

  CsrSections csr;
  if (magic == kBinaryMagicV2) {
    GPUTC_RETURN_IF_ERROR(ReadBinaryV2(in, file_size, &csr).WithContext(ctx));
  } else if (magic == kBinaryMagic) {
    GPUTC_RETURN_IF_ERROR(
        ReadBinaryV1(in, file_size, path, &csr).WithContext(ctx));
  } else {
    std::ostringstream msg;
    msg << "bad magic " << HexU64(magic) << ", want " << HexU64(kBinaryMagicV2)
        << " (v2) or " << HexU64(kBinaryMagic) << " (v1)";
    return DataLossError(msg.str()).WithContext(ctx);
  }
  return csr;
}

}  // namespace

StatusOr<EdgeList> LoadBinaryEdgeList(const std::string& path,
                                      ValidationReport* report) {
  GPUTC_ASSIGN_OR_RETURN(const CsrSections csr, ReadBinaryCsr(path));
  const uint64_t n = csr.offsets.size() - 1;
  GPUTC_RETURN_IF_ERROR(
      GraphDoctor::CheckCsr(n, csr.adj.size() / 2, csr.offsets, csr.adj)
          .WithContext("LoadBinary('" + path + "')"));

  // Rows here may be unsorted or list an entry twice, so "row u lists v" is
  // a search over the sorted (row, entry) pairs.
  std::vector<uint64_t> pairs;
  pairs.reserve(csr.adj.size());
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeCount i = csr.offsets[u]; i < csr.offsets[u + 1]; ++i) {
      pairs.push_back(uint64_t{u} << 32 | csr.adj[static_cast<size_t>(i)]);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  auto lists = [&pairs](VertexId row, VertexId v) {
    return std::binary_search(pairs.begin(), pairs.end(),
                              uint64_t{row} << 32 | v);
  };

  // Structurally sound: lift into the staging edge list, preserving self
  // loops and duplicate entries for GraphDoctor to judge. Upper-triangle
  // entries carry the edges; a lower-triangle entry is a mirror, and adds
  // its edge only when the upper entry is missing.
  EdgeList list(static_cast<VertexId>(n));
  std::vector<Edge> mirror_only;
  int64_t unmirrored = 0;
  std::string first_unmirrored;
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeCount i = csr.offsets[u]; i < csr.offsets[u + 1]; ++i) {
      const VertexId v = csr.adj[static_cast<size_t>(i)];
      const bool mirrored = lists(v, u);
      if (!mirrored && unmirrored++ == 0) {
        first_unmirrored = "row " + std::to_string(u) + " lists " +
                           std::to_string(v) + " (adjacency[" +
                           std::to_string(i) + "]), but row " +
                           std::to_string(v) + " does not list " +
                           std::to_string(u);
      }
      if (u <= v) {
        list.Add(u, v);
      } else if (!mirrored) {
        mirror_only.push_back(Edge{v, u});
      }
    }
  }
  if (!mirror_only.empty()) {
    // Merge the recovered edges into place, so a CSR with sorted rows still
    // lifts to a canonically ordered list.
    std::vector<Edge>& edges = list.mutable_edges();
    const bool sorted = std::is_sorted(edges.begin(), edges.end());
    std::sort(mirror_only.begin(), mirror_only.end());
    const auto middle =
        edges.insert(edges.end(), mirror_only.begin(), mirror_only.end());
    if (sorted) std::inplace_merge(edges.begin(), middle, edges.end());
  }
  if (report != nullptr && unmirrored > 0) {
    report->findings.push_back(Finding{FindingKind::kUnmirroredEntry,
                                       unmirrored, first_unmirrored});
  }
  list.set_num_vertices(static_cast<VertexId>(n));
  return list;
}

StatusOr<Graph> LoadBinary(const std::string& path) {
  GPUTC_ASSIGN_OR_RETURN(CsrSections csr, ReadBinaryCsr(path));
  StatusOr<Graph> g =
      Graph::FromCsr(std::move(csr.offsets), std::move(csr.adj));
  if (!g.ok()) return g.status().WithContext("LoadBinary('" + path + "')");
  return g;
}

StatusOr<Graph> LoadGraph(const std::string& path) {
  GPUTC_INJECT_FAULT("io.load");
  return path.ends_with(".bin") ? LoadBinary(path) : LoadSnapText(path);
}

StatusOr<EdgeList> LoadEdgeList(const std::string& path,
                                ValidationReport* report) {
  GPUTC_INJECT_FAULT("io.load");
  if (path.ends_with(".bin")) return LoadBinaryEdgeList(path, report);
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  StatusOr<EdgeList> list = ReadSnapEdgeList(in);
  if (!list.ok()) {
    return list.status().WithContext("LoadEdgeList('" + path + "')");
  }
  return list;
}

Status SaveGraph(const Graph& g, const std::string& path) {
  return path.ends_with(".bin") ? SaveBinaryDurable(g, path)
                                : SaveSnapTextDurable(g, path);
}

}  // namespace gputc

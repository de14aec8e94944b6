#ifndef GPUTC_GRAPH_IO_H_
#define GPUTC_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/edge_list.h"
#include "graph/graph.h"
#include "util/status.h"

namespace gputc {

struct ValidationReport;  // graph/validate.h

// All loaders return StatusOr so every failure carries a code and a
// context-bearing message (file, line or byte offset, expected vs actual).
// StatusOr mirrors std::optional's accessors, so legacy optional-style call
// sites (`has_value()`, `*`, `->`) keep working; new code should branch on
// ok() and report status().message().

// SNAP-style text format: '#'/'%' comment lines, then one "u<ws>v" pair per
// line. Vertex ids are remapped to a dense [0, n) range in first-seen order,
// matching how the paper's datasets are consumed.

/// Parses a SNAP edge-list stream into a normalized Graph. Self loops and
/// duplicate pairs are silently canonicalized away (use ReadSnapEdgeList +
/// GraphDoctor to detect them). Errors name the offending line.
StatusOr<Graph> ReadSnapText(std::istream& in);

/// Loads a SNAP edge-list file. kNotFound if the file cannot be opened;
/// parse errors are annotated with the path.
StatusOr<Graph> LoadSnapText(const std::string& path);

/// Parses a SNAP stream into the raw staging EdgeList, *preserving* self
/// loops and duplicate edges so GraphDoctor can report or repair them.
StatusOr<EdgeList> ReadSnapEdgeList(std::istream& in);

/// Writes a graph in SNAP text format (one undirected edge per line, u < v).
void WriteSnapText(const Graph& g, std::ostream& out);

/// Saves SNAP text atomically (write temp, fsync, rename): a crash mid-save
/// never leaves a torn file under `path`.
Status SaveSnapTextDurable(const Graph& g, const std::string& path);

/// Legacy bool wrapper around SaveSnapTextDurable.
bool SaveSnapText(const Graph& g, const std::string& path);

// Binary format v2 (what SaveBinary writes): a little-endian header
// {magic, version, flags, n, m, offsets CRC32C, adjacency CRC32C, header
// CRC32C} followed by the CSR offsets and adjacency. The finalized flag and
// the three checksums let LoadBinary reject torn or bit-rotted files with a
// precise Status instead of silently loading garbage, and the writer goes
// through the atomic temp -> fsync -> rename protocol, so a crash mid-save
// never leaves a half-written graph under the target path. Legacy v1 files
// ({magic, n, m}, no checksums) still load, with a deprecation warning.

/// Saves in the native binary format (v2, checksummed, written atomically).
Status SaveBinaryDurable(const Graph& g, const std::string& path);

/// Legacy bool wrapper around SaveBinaryDurable.
bool SaveBinary(const Graph& g, const std::string& path);

/// Loads the native binary format and adopts the arrays it reads as the
/// Graph: no edge list is built and nothing is re-sorted. The header is
/// checked against the physical file size and allocation caps *before* any
/// payload-sized buffer is allocated, then (v2) the section CRCs, then
/// Graph::FromCsr's one linear check: offsets monotonic with
/// offsets[n] == 2m, adjacency ids in range, every row strictly increasing,
/// no self loops, every entry mirrored. A CSR that is not canonical is
/// DataLoss naming the row or edge; use LoadBinaryEdgeList + GraphDoctor for
/// repairable inputs.
StatusOr<Graph> LoadBinary(const std::string& path);

/// Binary loader for GraphDoctor: the same reader and structure check as
/// LoadBinary, then every edge either row lists, as a raw edge list (self
/// loops and in-row duplicates preserved). An entry (u, v) with u <= v
/// carries its edge; an entry with u > v is the mirror of (v, u) and adds an
/// edge only when row v does not list u. When `report` is non-null, entries
/// whose row partner does not list them back are added to it as one
/// unmirrored-entry finding that names the first of them.
StatusOr<EdgeList> LoadBinaryEdgeList(const std::string& path,
                                      ValidationReport* report = nullptr);

// Extension-dispatching conveniences used by the CLI: ".bin" selects the
// binary format, anything else SNAP text.

/// Loads a graph from `path` by extension.
StatusOr<Graph> LoadGraph(const std::string& path);

/// Loads the raw edge list from `path` by extension.
StatusOr<EdgeList> LoadEdgeList(const std::string& path,
                                ValidationReport* report = nullptr);

/// Saves `g` to `path` by extension, reporting failures as Status.
Status SaveGraph(const Graph& g, const std::string& path);

}  // namespace gputc

#endif  // GPUTC_GRAPH_IO_H_

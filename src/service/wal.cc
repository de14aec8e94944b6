#include "service/wal.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <set>

#include "util/failpoint.h"
#include "util/logging.h"

namespace gputc {
namespace {

// Record payload layout (the segment frame already carries length + CRC):
//   u8  type          'I' (intent), 'D' (done), or 'V' (version)
//   u32 id_len        little-endian ('I'/'D')
//   id bytes          ('I'/'D')
//   u32 spec_len      (intent records, optional) little-endian
//   spec bytes        (intent records, optional) the request's manifest line
//   u32 outcome_len   (done records only) little-endian
//   outcome bytes     (done records only) outcome name, e.g. "ok"
//   journal JSON      (done records only, to end of payload)
//   version text      (version records, to end of payload)
// The outcome travels as its own field so resume classifies replayed lines
// without parsing the journal JSON (a substring scan of the JSON can match
// inside an escaped message and misread the outcome). The intent spec field
// is optional on decode — logs written before it existed replay unchanged.
constexpr char kIntent = 'I';
constexpr char kDone = 'D';
constexpr char kVersion = 'V';

void PutLengthPrefixed(std::string* payload, const std::string& field) {
  const uint32_t len = static_cast<uint32_t>(field.size());
  for (int i = 0; i < 4; ++i) {
    payload->push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  *payload += field;
}

std::string EncodeIntent(const std::string& id, const std::string& spec) {
  std::string payload;
  payload.reserve(1 + 4 + id.size() + (spec.empty() ? 0 : 4 + spec.size()));
  payload.push_back(kIntent);
  PutLengthPrefixed(&payload, id);
  if (!spec.empty()) PutLengthPrefixed(&payload, spec);
  return payload;
}

std::string EncodeVersion(const std::string& version) {
  std::string payload;
  payload.reserve(1 + version.size());
  payload.push_back(kVersion);
  payload += version;
  return payload;
}

std::string EncodeDone(const std::string& id, const std::string& outcome,
                       const std::string& journal_json) {
  std::string payload;
  payload.reserve(1 + 4 + id.size() + 4 + outcome.size() +
                  journal_json.size());
  payload.push_back(kDone);
  PutLengthPrefixed(&payload, id);
  PutLengthPrefixed(&payload, outcome);
  payload += journal_json;
  return payload;
}

struct DecodedRecord {
  char type = 0;
  std::string id;
  std::string spec;     // Intent records only ("" when absent).
  std::string outcome;  // Done records only.
  std::string line;     // Done journal line, or version text.
};

StatusOr<uint32_t> GetLengthPrefix(const std::string& payload, size_t pos) {
  if (payload.size() - pos < 4) {
    return DataLossError("WAL record of " + std::to_string(payload.size()) +
                         " bytes is shorter than its fixed fields");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(
               static_cast<unsigned char>(payload[pos + i]))
           << (8 * i);
  }
  if (payload.size() - pos - 4 < len) {
    return DataLossError("WAL record field length " + std::to_string(len) +
                         " overruns the " + std::to_string(payload.size()) +
                         "-byte record");
  }
  return len;
}

Status DecodeRecord(const std::string& payload, DecodedRecord* out) {
  if (payload.empty()) {
    return DataLossError("empty WAL record");
  }
  out->type = payload[0];
  if (out->type != kIntent && out->type != kDone && out->type != kVersion) {
    return DataLossError(std::string("unknown WAL record type '") +
                         out->type + "'");
  }
  if (out->type == kVersion) {
    out->line.assign(payload, 1, payload.size() - 1);
    return OkStatus();
  }
  GPUTC_ASSIGN_OR_RETURN(const uint32_t id_len, GetLengthPrefix(payload, 1));
  size_t pos = 1 + 4;
  out->id.assign(payload, pos, id_len);
  pos += id_len;
  if (out->type == kIntent) {
    if (pos < payload.size()) {
      GPUTC_ASSIGN_OR_RETURN(const uint32_t spec_len,
                             GetLengthPrefix(payload, pos));
      out->spec.assign(payload, pos + 4, spec_len);
    }
    return OkStatus();
  }
  GPUTC_ASSIGN_OR_RETURN(const uint32_t outcome_len,
                         GetLengthPrefix(payload, pos));
  pos += 4;
  out->outcome.assign(payload, pos, outcome_len);
  pos += outcome_len;
  out->line.assign(payload, pos, payload.size() - pos);
  return OkStatus();
}

/// Folds verified segment records into a WalReplay. Shared by the
/// read-only ReplayWal and the open-once WriteAheadLog::Replay path.
StatusOr<WalReplay> FoldWalRecords(const SegmentScan& scan,
                                   const std::string& context) {
  WalReplay replay;
  replay.torn_bytes = scan.dropped_bytes;

  std::set<std::string> done_ids;
  std::set<std::string> intent_ids;
  std::vector<std::string> intent_order;  // First intent per id, log order.
  std::map<std::string, std::string> intent_specs;
  for (const std::string& payload : scan.records) {
    DecodedRecord record;
    GPUTC_RETURN_IF_ERROR(
        DecodeRecord(payload, &record).WithContext(context));
    if (record.type == kVersion) {
      replay.versions.push_back(std::move(record.line));
    } else if (record.type == kDone) {
      // First terminal outcome wins: a duplicate done for the same id could
      // only come from a run that raced a crash, and re-emitting one line
      // per id is the exactly-once contract.
      if (done_ids.insert(record.id).second) {
        replay.done.push_back({std::move(record.id),
                               std::move(record.outcome),
                               std::move(record.line)});
      }
    } else {
      if (!record.spec.empty()) {
        intent_specs[record.id] = std::move(record.spec);
      }
      if (intent_ids.insert(record.id).second) {
        intent_order.push_back(std::move(record.id));
      }
    }
  }
  for (std::string& id : intent_order) {
    if (done_ids.count(id) > 0) continue;
    auto spec = intent_specs.find(id);
    if (spec != intent_specs.end()) {
      replay.pending_specs[id] = std::move(spec->second);
    }
    replay.pending.push_back(std::move(id));
  }
  if (replay.torn_bytes > 0) {
    GPUTC_LOG(Warning) << context << ": recovered past a torn tail ("
                       << replay.torn_bytes << " byte(s) dropped); "
                       << replay.done.size() << " done, "
                       << replay.pending.size() << " pending";
  }
  return replay;
}

}  // namespace

const WalDoneRecord* WalReplay::FindDone(const std::string& id) const {
  for (const WalDoneRecord& record : done) {
    if (record.id == id) return &record;
  }
  return nullptr;
}

std::string WalLogPath(const std::string& dir) { return dir + "/wal.log"; }

StatusOr<WriteAheadLog> WriteAheadLog::Open(const std::string& dir) {
  if (dir.empty()) return InvalidArgumentError("empty WAL directory");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status(StatusCode::kInternal,
                  "cannot create WAL directory '" + dir +
                      "': " + std::strerror(errno));
  }
  GPUTC_ASSIGN_OR_RETURN(SegmentWriter writer,
                         SegmentWriter::Open(WalLogPath(dir)));
  return WriteAheadLog(std::move(writer));
}

Status WriteAheadLog::LogIntent(const std::string& id,
                                const std::string& spec) {
  // The WAL is a resilient path by construction — a lost or torn intent
  // only means the request re-runs — so it opts into fault injection.
  FailPointScope scope;
  GPUTC_RETURN_IF_ERROR(
      CheckFailPoint("wal.intent").WithContext("intent('" + id + "')"));
  const Status appended = writer_.Append(EncodeIntent(id, spec));
  if (!appended.ok()) return appended.WithContext("WAL intent('" + id + "')");
  return appended;
}

Status WriteAheadLog::LogVersion(const std::string& version) {
  const Status appended = writer_.Append(EncodeVersion(version));
  if (!appended.ok()) return appended.WithContext("WAL version record");
  return appended;
}

Status WriteAheadLog::LogDone(const std::string& id,
                              const std::string& outcome,
                              const std::string& journal_json) {
  const Status appended =
      writer_.Append(EncodeDone(id, outcome, journal_json));
  if (!appended.ok()) return appended.WithContext("WAL done('" + id + "')");
  // The done record is durable; the journal line has NOT been emitted yet.
  // A crash armed here is the narrowest no-double-count window: resume must
  // re-emit the stored line verbatim rather than re-running the request.
  FailPointScope scope;
  GPUTC_RETURN_IF_ERROR(
      CheckFailPoint("wal.done").WithContext("done('" + id + "')"));
  return OkStatus();
}

StatusOr<WalReplay> WriteAheadLog::Replay() const {
  return FoldWalRecords(writer_.recovered(),
                        "WAL replay('" + writer_.path() + "')");
}

StatusOr<WalReplay> ReplayWal(const std::string& dir) {
  if (dir.empty()) return InvalidArgumentError("empty WAL directory");
  StatusOr<SegmentScan> scan = ScanSegment(WalLogPath(dir));
  if (!scan.ok()) {
    if (scan.status().code() == StatusCode::kNotFound) return WalReplay{};
    return scan.status().WithContext("ReplayWal('" + dir + "')");
  }
  return FoldWalRecords(*scan, "ReplayWal('" + dir + "')");
}

}  // namespace gputc

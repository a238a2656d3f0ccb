#include "db/wal.h"

#include "common/coding.h"
#include "common/string_util.h"

namespace easia::db {

std::string WalRecord::Encode() const {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(type));
  PutU64(&out, txn_id);
  PutLengthPrefixed(&out, table);
  PutU64(&out, row_id);
  EncodeRow(&out, row);
  EncodeRow(&out, old_row);
  PutLengthPrefixed(&out, ddl_sql);
  if (type == WalRecordType::kBulkLoad) {
    PutU32(&out, static_cast<uint32_t>(bulk_rows.size()));
    for (const Row& r : bulk_rows) EncodeRow(&out, r);
  }
  return out;
}

Result<WalRecord> WalRecord::Decode(std::string_view payload) {
  Decoder dec(payload);
  WalRecord rec;
  EASIA_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
  if (type < 1 || type > 9) return Status::Corruption("wal: bad record type");
  rec.type = static_cast<WalRecordType>(type);
  EASIA_ASSIGN_OR_RETURN(rec.txn_id, dec.GetU64());
  EASIA_ASSIGN_OR_RETURN(rec.table, dec.GetLengthPrefixed());
  EASIA_ASSIGN_OR_RETURN(rec.row_id, dec.GetU64());
  EASIA_ASSIGN_OR_RETURN(rec.row, DecodeRow(&dec));
  EASIA_ASSIGN_OR_RETURN(rec.old_row, DecodeRow(&dec));
  EASIA_ASSIGN_OR_RETURN(rec.ddl_sql, dec.GetLengthPrefixed());
  if (rec.type == WalRecordType::kBulkLoad) {
    EASIA_ASSIGN_OR_RETURN(uint32_t n, dec.GetU32());
    rec.bulk_rows.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      EASIA_ASSIGN_OR_RETURN(Row r, DecodeRow(&dec));
      rec.bulk_rows.push_back(std::move(r));
    }
  }
  if (!dec.Done()) return Status::Corruption("wal: trailing bytes in record");
  return rec;
}

Result<WalWriter> WalWriter::Open(const std::string& path) {
  return Open(io::RealEnv(), path);
}

Result<WalWriter> WalWriter::Open(io::Env* env, const std::string& path) {
  EASIA_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> file,
                         env->OpenAppend(path));
  return WalWriter(std::move(file));
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    file_->Close();
    file_.reset();
  }
}

Status WalWriter::Append(const WalRecord& record) {
  if (file_ == nullptr) return Status::Internal("wal: writer closed");
  std::string frame;
  io::AppendFrame(&frame, record.Encode());
  return file_->Append(frame).WithContext("wal");
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::Internal("wal: writer closed");
  return file_->Sync().WithContext("wal");
}

Result<std::vector<WalRecord>> ReadWal(const std::string& path) {
  return ReadWal(io::RealEnv(), path);
}

Status ScanWal(io::Env* env, const std::string& path,
               const std::function<Status(WalRecord&&)>& visit) {
  Result<std::string> contents = env->ReadFileToString(path);
  if (!contents.ok()) {
    if (contents.status().IsNotFound()) return Status::OK();  // no log yet
    return contents.status();
  }
  for (std::string_view payload : io::ScanFrames(*contents)) {
    Result<WalRecord> rec = WalRecord::Decode(payload);
    if (!rec.ok()) break;  // corrupt tail
    EASIA_RETURN_IF_ERROR(visit(std::move(*rec)));
  }
  return Status::OK();
}

Result<std::vector<WalRecord>> ReadWal(io::Env* env,
                                       const std::string& path) {
  std::vector<WalRecord> records;
  EASIA_RETURN_IF_ERROR(ScanWal(env, path, [&records](WalRecord&& rec) {
    records.push_back(std::move(rec));
    return Status::OK();
  }));
  return records;
}

}  // namespace easia::db

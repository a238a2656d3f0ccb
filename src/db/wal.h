#ifndef EASIA_DB_WAL_H_
#define EASIA_DB_WAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "db/table.h"

namespace easia::db {

/// The byte sink the WAL writes through (see common/io.h). Production code
/// gets the stdio+fsync implementation from io::RealEnv(); the
/// fault-injection harness substitutes one that tears writes, drops fsyncs
/// and stops persisting at a crash point.
using WalFile = io::LogFile;

/// Write-ahead-log record types. DDL records carry the statement SQL and
/// are replayed through the parser; DML records carry physical rows.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,
  kUpdate = 5,
  kDelete = 6,
  kCreateTable = 7,
  kDropTable = 8,
  /// One COPY chunk: `bulk_rows` inserted under consecutive RowIds
  /// starting at `row_id`. One record per N-row chunk replaces N kInsert
  /// records on the bulk-ingest path.
  kBulkLoad = 9,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  uint64_t txn_id = 0;
  std::string table;
  RowId row_id = 0;
  Row row;      // insert: new row; update: new row
  Row old_row;  // update/delete: previous row (for audit/backup tooling)
  std::string ddl_sql;
  /// kBulkLoad only: the chunk's rows, RowIds row_id .. row_id+n-1.
  std::vector<Row> bulk_rows;

  std::string Encode() const;
  static Result<WalRecord> Decode(std::string_view payload);
};

/// Appends framed records (`u32 length, u32 crc32, payload`) to a log file.
/// A torn final record (crash mid-write) is tolerated by the reader.
class WalWriter {
 public:
  /// Opens against the host file system (io::RealEnv()).
  static Result<WalWriter> Open(const std::string& path);
  /// Opens through an explicit environment (fault injection, tests).
  static Result<WalWriter> Open(io::Env* env, const std::string& path);

  WalWriter(WalWriter&&) noexcept = default;
  WalWriter& operator=(WalWriter&&) noexcept = default;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter() = default;

  Status Append(const WalRecord& record);
  Status Sync();
  void Close();

 private:
  explicit WalWriter(std::unique_ptr<WalFile> file) : file_(std::move(file)) {}
  std::unique_ptr<WalFile> file_;
};

/// Decodes the intact records of a log file one frame at a time, handing
/// each to `visit` in log order; stops silently at the first torn or
/// corrupt frame (standard redo-log semantics). A missing file has no
/// records. A non-OK status from `visit` ends the scan and is returned.
Status ScanWal(io::Env* env, const std::string& path,
               const std::function<Status(WalRecord&&)>& visit);

/// Reads every intact record from a log file (ScanWal into a vector).
Result<std::vector<WalRecord>> ReadWal(const std::string& path);
Result<std::vector<WalRecord>> ReadWal(io::Env* env, const std::string& path);

}  // namespace easia::db

#endif  // EASIA_DB_WAL_H_

#ifndef EASIA_PERFBENCH_WORKLOAD_H_
#define EASIA_PERFBENCH_WORKLOAD_H_

// Operation generators of the three workloads, their execution through the
// public core::Archive facade, and the checks on every output.

#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "setup.h"
#include "web/qbe.h"

namespace perfbench {

/// One generated operation. Everything the archive receives is in here.
struct Op {
  enum class Kind {
    kGet,            // Archive::Get(session, path, params)
    kArchiveResult,  // CreateSparseFile, then INSERT via Archive::Execute
    kDelete,         // DELETE via Archive::Execute (unlinks the file)
    kDownload,       // Archive::Download of a link on the previous page
    kJobBatch,       // /jobs/submit per job, then JobScheduler::RunPending
  };
  /// Which latency population the operation belongs to.
  enum class Class { kRead, kWrite, kCompute };

  Kind kind = Kind::kGet;
  Class cls = Class::kRead;
  size_t user = 0;  // index into the client's sessions (kUsers, then guest)
  std::string path;
  easia::fs::HttpParams params;
  std::string sql;                   // kArchiveResult, kDelete
  std::string sim_key;               // kArchiveResult, kDelete
  std::string file_name;             // kArchiveResult, kDelete
  std::string host;                  // kArchiveResult
  std::string file_path;             // kArchiveResult
  size_t pick = 0;                   // kDownload: which link of the page
  std::vector<easia::fs::HttpParams> jobs;  // kJobBatch: /jobs/submit params
  // What the ingest model predicts, checked as the response arrives.
  long expect_rows = -1;    // result-table rows
  std::string expect_body;  // a CLOB just stored

  /// Canonical text of the inputs (hashed for the determinism check).
  std::string Describe() const;
  /// Route label for reports ("/browse", "archive", ...).
  std::string Label() const;
};

/// Session index of the built-in guest account.
inline constexpr size_t kGuest = 4;

/// Seeded, endless operation stream of one client.
class Generator {
 public:
  virtual ~Generator() = default;
  virtual Op Next() = 0;
};

std::unique_ptr<Generator> MakeGenerator(Workload workload,
                                         const std::vector<SimInfo>& sims,
                                         uint64_t seed, size_t client);

/// Hash of the first `n` operations a fresh generator yields.
uint64_t InputHash(Workload workload, const std::vector<SimInfo>& sims,
                   uint64_t seed, size_t client, size_t n);

/// The handler's QBE form parsing (value./op./show. parameters).
easia::web::QbeRequest QbeFromParams(const easia::xuis::XuisSpec& spec,
                                     const easia::fs::HttpParams& params);

/// What a response is checked against once the run is over.
struct Observation {
  std::string key;  // the query or invocation, canonical
  uint64_t fact = 0;
};

/// A download to re-derive: the file behind `url` and the simulated
/// transfer it took starting at `start`.
struct DownloadRecord {
  std::string url;
  double start = 0;
  double seconds = 0;
};

/// Result of one operation.
struct Response {
  int status = 0;
  std::string body;
  double sim_start = 0;    // kDownload: simulated clock at start
  double sim_seconds = 0;  // kDownload: simulated transfer time
  std::vector<easia::jobs::JobId> job_ids;  // kJobBatch
  double drain_seconds = 0;                 // kJobBatch: RunPending time
  bool ok() const { return status == 200; }
};

/// One client's view of a site: its sessions and the last page it saw.
class Client {
 public:
  explicit Client(Site* site);
  Site* site() const { return site_; }
  const std::string& session(size_t user) const { return sessions_[user]; }
  /// Tokenised file links of the last /browse page (a download follows
  /// one of them).
  std::vector<std::string> links;

  /// Runs `op` through the public facade.
  Response Execute(const Op& op);
  /// Keeps what the next operation needs from `response`; called after
  /// timing and checks.
  void Remember(const Op& op, const Response& response);

 private:
  Site* site_;
  std::vector<std::string> sessions_;
};

/// Collects checks while a run executes; Verify settles them afterwards
/// against direct Database::Execute / OperationEngine::Invoke calls.
class Checker {
 public:
  explicit Checker(Site* site) : site_(site) {}
  /// Records the facts of one response (and deletes the temp outputs an
  /// operation left on the file servers); returns false when the response
  /// already fails (non-200, or the model's prediction disagrees).
  bool Observe(const Op& op, const Response& response);
  /// Folds another client's observations into this one.
  void Merge(const Checker& other);
  /// Checks every observation; returns the number of failed operations.
  uint64_t Verify();

 private:
  Site* site_;
  std::vector<Observation> observations_;
  std::map<std::string, Op> recipes_;  // key -> an operation that made it
  std::vector<DownloadRecord> downloads_;
};

/// Ingest durability: recovers a fresh Database from the WAL file alone
/// and compares it with what the run acknowledged. Returns a failure
/// description, or "" when every acknowledged write is present and
/// nothing else is.
std::string CheckDurability(Site* site);

}  // namespace perfbench

#endif  // EASIA_PERFBENCH_WORKLOAD_H_

#ifndef EASIA_PERFBENCH_HARNESS_H_
#define EASIA_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: a steady clock, the span
// recorder of the traced run, percentiles, seeded sampling, the counting
// seams handed to the archive (io::Env for the WAL, fs::Vfs under each
// file server) and the result-line writer.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/io.h"
#include "fileserver/vfs.h"

namespace perfbench {

/// Seconds on the monotonic clock.
double Now();

/// easia::Clock over the monotonic clock, for the archive's own tracer
/// when its spans are harvested into the benchmark's trace.
class SteadyClock : public easia::Clock {
 public:
  double Now() const override { return perfbench::Now(); }
};

/// One recorded span: a timed call into a layer's public function.
struct SpanRec {
  uint64_t trace_id = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root of its trace
  std::string name;
  double start = 0;
  double end = 0;
};

/// In-memory span store of the traced run. Single-threaded: the traced
/// run replays one operation at a time on the calling thread.
class Recorder {
 public:
  class Scope {
   public:
    Scope(Recorder* recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Span id, or 0 when nothing is being recorded.
    uint32_t id() const { return recorder_ != nullptr ? index_ + 1 : 0; }
    void set_name(std::string name);

   private:
    Recorder* recorder_;
    uint32_t index_ = 0;
    uint32_t restore_ = 0;
  };

  /// Starts a new trace; spans are recorded only between BeginTrace and
  /// EndTrace (a seam such as the token gate also runs for operations
  /// that are not being traced).
  void BeginTrace() {
    ++trace_id_;
    active_ = true;
  }
  void EndTrace() { active_ = false; }
  /// Adds a finished span under `parent` (a span id, 0 for a root).
  void AddFinished(uint32_t parent, std::string name, double start,
                   double end);
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  uint32_t current_ = 0;
  uint64_t trace_id_ = 0;
  bool active_ = false;
};

/// Self time of every span in `spans` (duration minus the union of its
/// direct children, which never overlap on one thread).
std::vector<double> SelfTimes(const std::vector<SpanRec>& spans);

/// Nearest-rank percentile of `values` (sorted copy); `q` in [0, 1].
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// FNV-1a over a byte string, chainable.
uint64_t Fnv1a(const std::string& bytes,
               uint64_t h = 1469598103934665603ULL);

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

double Uniform(std::mt19937_64& rng);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Replaces every DATALINK access token (the path segment before ';' in
/// a file URL, raw or URL-encoded) with '*', so pages rendered at
/// different times compare equal.
std::string MaskTokens(const std::string& body);

/// The "<p>N rows</p>" count of a rendered result table, or -1.
long RowCountOf(const std::string& body);

/// Text between the first <pre> and </pre> (still HTML-escaped), or "".
std::string PreTextOf(const std::string& body);

/// WAL seam: forwards to the real file system and counts what the
/// database writes and how often it syncs.
class CountingEnv : public easia::io::Env {
 public:
  CountingEnv();
  easia::Result<std::unique_ptr<easia::io::LogFile>> OpenAppend(
      const std::string& path) override;
  easia::Result<std::string> ReadFileToString(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  easia::Status WriteFileAtomic(const std::string& path,
                                std::string_view contents) override;
  easia::Status RemoveFile(const std::string& path) override;
  easia::Status Truncate(const std::string& path) override;

  uint64_t appended_bytes() const { return appended_bytes_.load(); }
  uint64_t syncs() const { return syncs_.load(); }

 private:
  friend class CountingLogFile;
  easia::io::Env* base_;
  std::atomic<uint64_t> appended_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
};

/// Storage seam interposed under a file server: forwards to the server's
/// own VFS and counts stat calls (the renderer's DATALINK size probes).
class CountingVfs : public easia::fs::Vfs {
 public:
  explicit CountingVfs(easia::fs::Vfs* base) : base_(base) {}
  easia::Status WriteFile(const std::string& path, std::string contents,
                          const std::string& owner) override;
  easia::Status CreateSparseFile(const std::string& path, uint64_t size,
                                 const std::string& owner) override;
  easia::Result<std::string> ReadFile(const std::string& path) const override;
  easia::Result<easia::fs::FileStat> Stat(
      const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  easia::Status DeleteFile(const std::string& path) override;
  easia::Status RenameFile(const std::string& from,
                           const std::string& to) override;
  easia::Status Pin(const std::string& path) override;
  easia::Status Unpin(const std::string& path) override;
  bool IsPinned(const std::string& path) const override;
  std::vector<std::string> List(const std::string& prefix) const override;
  uint64_t TotalBytes() const override;
  size_t FileCount() const override;

  uint64_t stats() const { return stats_.load(); }

 private:
  easia::fs::Vfs* base_;
  mutable std::atomic<uint64_t> stats_{0};
};

/// The result line and the human report that precedes it.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Prints "name value unit" lines for every metric added.
  void PrintHuman() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} restricted
  /// to `names` (every one must have been added).
  std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& names) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // EASIA_PERFBENCH_HARNESS_H_

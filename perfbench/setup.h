#ifndef EASIA_PERFBENCH_SETUP_H_
#define EASIA_PERFBENCH_SETUP_H_

// Builds and seeds the archive each workload runs against. The catalogue
// depends only on the workload, never on the seed.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/archive.h"
#include "harness.h"

namespace perfbench {

enum class Workload { kBrowse, kIngest, kPostprocess };

struct SimInfo {
  std::string key;     // SIMULATION_KEY
  std::string author;  // AUTHOR_KEY
  std::vector<std::string> files;  // FILE_NAME per seeded timestep
  std::vector<std::string> urls;   // stored DATALINK value per timestep
};

/// Catalogue shape per workload.
struct Shape {
  size_t simulations = 0;
  size_t timesteps = 0;
  bool sparse = true;
  size_t grid_n = 32;  // materialised datasets only
};
Shape ShapeOf(Workload workload);

inline constexpr const char* kHosts[] = {"cfs.soton.ac.uk", "qmw.ac.uk"};
inline constexpr const char* kClientHost = "client.example.org";
inline constexpr const char* kUsers[] = {"alice", "bob", "carol", "dave"};
inline constexpr const char* kPassword = "pw";

/// What the run has acknowledged: live FILE_NAMEs per simulation (seeded
/// rows included) and the last DESCRIPTION stored per simulation.
struct Ledger {
  std::map<std::string, std::set<std::string>> live;
  std::map<std::string, std::string> description;
};

/// One built archive plus everything the benchmark hangs off it.
struct Site {
  // Declared before the archive: the database keeps a pointer to the env
  // and the file servers to their interposed VFS until destruction.
  std::unique_ptr<CountingEnv> env;
  std::vector<std::unique_ptr<CountingVfs>> vfs;
  std::unique_ptr<easia::core::Archive> archive;
  std::vector<SimInfo> sims;
  std::string wal_path;  // ingest only
  Ledger ledger;

  // Set-up measurements.
  double setup_seconds = 0;
  double xuis_generate_ms = 0;
  std::vector<double> result_insert_us;  // every seeded RESULT_FILE INSERT

  uint64_t vfs_stats() const;
};

/// Builds and seeds a site. `wal_path` is used by the ingest workload
/// (sync_on_commit stays at its default, true).
easia::Result<std::unique_ptr<Site>> BuildSite(Workload workload,
                                               const std::string& wal_path);

/// Mean INSERT time over the last rows seeded divided by the first (1,000
/// each, or a quarter of the rows on a smaller catalogue).
double InsertGrowth(const std::vector<double>& insert_us);

std::string Quoted(const std::string& v);

}  // namespace perfbench

#endif  // EASIA_PERFBENCH_SETUP_H_

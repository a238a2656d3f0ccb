#include "setup.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/turbulence_setup.h"
#include "turbulence/tbf.h"
#include "xuis/generator.h"

namespace perfbench {

using easia::Result;
using easia::Status;
using easia::StrPrintf;
namespace core = easia::core;

Shape ShapeOf(Workload workload) {
  Shape shape;
  if (workload == Workload::kPostprocess) {
    shape.simulations = 8;
    shape.timesteps = 8;
    shape.sparse = false;
  } else {
    shape.simulations = 200;
    shape.timesteps = 50;
  }
  return shape;
}

std::string Quoted(const std::string& v) {
  std::string out = "'";
  out += easia::ReplaceAll(v, "'", "''");
  out += '\'';
  return out;
}

uint64_t Site::vfs_stats() const {
  uint64_t n = 0;
  for (const auto& v : vfs) n += v->stats();
  return n;
}

namespace {

Status Exec(core::Archive* archive, const std::string& sql) {
  return archive->Execute(sql).status();
}

/// Simulations seeded per transaction: few commits, so the ingest WAL's
/// per-commit fsync does not dominate (and add its noise to) set-up.
constexpr size_t kSimsPerTxn = 50;

/// The same rows SeedTurbulenceData writes, batched into transactions,
/// with every RESULT_FILE INSERT timed.
Status Seed(Site* site, const Shape& shape) {
  core::Archive* archive = site->archive.get();
  static const char* kNames[] = {"A. N. Author", "B. Researcher",
                                 "C. Scientist", "D. Modeller"};
  static const char* kOrgs[] = {"University of Southampton",
                                "Queen Mary & Westfield College",
                                "University of Manchester",
                                "Imperial College"};
  for (size_t s = 0; s < shape.simulations; ++s) {
    SimInfo sim;
    sim.author = StrPrintf("A199901%08zu", s + 1);
    sim.key = StrPrintf("S199901%08zu", s + 1);
    if (s % kSimsPerTxn == 0) EASIA_RETURN_IF_ERROR(Exec(archive, "BEGIN"));
    EASIA_RETURN_IF_ERROR(Exec(
        archive,
        StrPrintf("INSERT INTO AUTHOR (AUTHOR_KEY, NAME, ORGANISATION, "
                  "EMAIL) VALUES (%s, %s, %s, %s)",
                  Quoted(sim.author).c_str(), Quoted(kNames[s % 4]).c_str(),
                  Quoted(kOrgs[s % 4]).c_str(),
                  Quoted(StrPrintf("author%zu@example.ac.uk", s)).c_str())));
    EASIA_RETURN_IF_ERROR(Exec(
        archive,
        StrPrintf("INSERT INTO SIMULATION (SIMULATION_KEY, AUTHOR_KEY, "
                  "TITLE, DESCRIPTION, GRID_SIZE, TIMESTEPS, "
                  "REYNOLDS_NUMBER, CREATED) VALUES (%s, %s, %s, %s, %zu, "
                  "%zu, %g, %zu)",
                  Quoted(sim.key).c_str(), Quoted(sim.author).c_str(),
                  Quoted(StrPrintf("Decaying Taylor-Green vortex run %zu",
                                   s + 1))
                      .c_str(),
                  Quoted("Direct numerical simulation of homogeneous "
                         "decaying turbulence archived with EASIA.")
                      .c_str(),
                  shape.grid_n, shape.timesteps, 1600.0,
                  static_cast<size_t>(915465600 + s * 86400))));
    for (size_t t = 0; t < shape.timesteps; ++t) {
      const char* host = kHosts[(s + t) % 2];
      EASIA_ASSIGN_OR_RETURN(easia::fs::FileServer * server,
                             archive->fleet().GetServer(host));
      easia::turb::DatasetSpec spec;
      spec.simulation_key = sim.key;
      spec.timestep = static_cast<uint32_t>(t);
      spec.grid_n = shape.grid_n;
      spec.time = 0.5 * static_cast<double>(t);
      std::string url;
      uint64_t size = 0;
      if (shape.sparse) {
        std::string path = "/archive/" + sim.key + "/" + spec.FileName();
        size = easia::turb::kLargeSimulationBytes;
        EASIA_RETURN_IF_ERROR(server->vfs().CreateSparseFile(path, size));
        url = std::string("http://") + host + path;
      } else {
        spec.materialize = true;
        EASIA_ASSIGN_OR_RETURN(
            url, easia::turb::ArchiveDataset(server, "/archive/" + sim.key,
                                             spec));
        size = spec.SizeBytes();
      }
      std::string sql = StrPrintf(
          "INSERT INTO RESULT_FILE (FILE_NAME, SIMULATION_KEY, TIMESTEP, "
          "MEASUREMENT, FILE_FORMAT, FILE_SIZE, DOWNLOAD_RESULT) VALUES "
          "(%s, %s, %zu, 'u,v,w,p', 'TBF', %llu, %s)",
          Quoted(spec.FileName()).c_str(), Quoted(sim.key).c_str(), t,
          static_cast<unsigned long long>(size), Quoted(url).c_str());
      double start = Now();
      EASIA_RETURN_IF_ERROR(Exec(archive, sql));
      site->result_insert_us.push_back((Now() - start) * 1e6);
      sim.files.push_back(spec.FileName());
      sim.urls.push_back(url);
    }
    if ((s + 1) % kSimsPerTxn == 0 || s + 1 == shape.simulations) {
      EASIA_RETURN_IF_ERROR(Exec(archive, "COMMIT"));
    }
    site->ledger.live[sim.key].insert(sim.files.begin(), sim.files.end());
    site->sims.push_back(std::move(sim));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Site>> BuildSite(Workload workload,
                                        const std::string& wal_path) {
  double start = Now();
  auto site = std::make_unique<Site>();
  core::Archive::Options options;
  if (workload == Workload::kIngest) {
    site->env = std::make_unique<CountingEnv>();
    site->wal_path = wal_path;
    options.db_options.wal_path = wal_path;
    options.db_options.env = site->env.get();
  }
  site->archive = std::make_unique<core::Archive>(options);
  core::Archive* archive = site->archive.get();
  for (const char* host : kHosts) {
    easia::fs::FileServer* server = archive->AddFileServer(host);
    site->vfs.push_back(std::make_unique<CountingVfs>(&server->vfs()));
    server->InterposeVfs(site->vfs.back().get());
  }
  if (workload == Workload::kPostprocess) {
    archive->AddClientHost(kClientHost);
  }
  EASIA_RETURN_IF_ERROR(core::CreateTurbulenceSchema(archive));
  Shape shape = ShapeOf(workload);
  EASIA_RETURN_IF_ERROR(Seed(site.get(), shape));

  double xuis_start = Now();
  EASIA_RETURN_IF_ERROR(archive->InitializeXuis());
  site->xuis_generate_ms = (Now() - xuis_start) * 1e3;
  {
    // The paper's customisation: author keys display the author's name.
    easia::xuis::XuisCustomizer customizer(archive->xuis().MutableDefault());
    EASIA_RETURN_IF_ERROR(
        customizer.SetFkSubstitution("SIMULATION.AUTHOR_KEY", "AUTHOR.NAME"));
  }
  EASIA_RETURN_IF_ERROR(core::AttachNativeOperations(archive));
  if (workload == Workload::kPostprocess) {
    EASIA_RETURN_IF_ERROR(core::AttachGetImageOperation(
        archive, site->sims[0].key, shape.grid_n));
    EASIA_RETURN_IF_ERROR(core::AttachCodeUpload(archive));
  }
  for (const char* user : kUsers) {
    EASIA_RETURN_IF_ERROR(
        archive->AddUser(user, kPassword, easia::web::UserRole::kAuthorised));
  }
  site->setup_seconds = Now() - start;
  return site;
}

double InsertGrowth(const std::vector<double>& insert_us) {
  size_t window = std::min<size_t>(1000, insert_us.size() / 4);
  if (window == 0) return 0;
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < window; ++i) {
    first += insert_us[i];
    last += insert_us[insert_us.size() - 1 - i];
  }
  return first > 0 ? last / first : 0;
}

}  // namespace perfbench

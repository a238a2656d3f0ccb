#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <numeric>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "fileserver/url.h"
#include "turbulence/tbf.h"
#include "web/html.h"

namespace perfbench {

using easia::Result;
using easia::StrPrintf;
namespace fs = easia::fs;
namespace db = easia::db;

namespace {

/// Seed-only permutation of the simulations, so a seed decides which
/// simulations are hot while every client agrees on the ranking.
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

uint64_t ClientSeed(uint64_t seed, size_t client) {
  return seed * 0x100000001b3ULL + 0x51ed270b27ULL * (client + 1);
}

Op Get(std::string path, fs::HttpParams params, size_t user = 0) {
  Op op;
  op.path = std::move(path);
  op.params = std::move(params);
  op.user = user;
  return op;
}

Op BrowseOp(const std::string& table, const std::string& column,
            const std::string& value, size_t user) {
  return Get("/browse", {{"table", table}, {"column", column},
                         {"value", value}},
             user);
}

std::string Escaped(const std::string& text) {
  easia::web::HtmlWriter w;
  w.Text(text);
  return w.str();
}

// --- browse ----------------------------------------------------------------

class BrowseGenerator : public Generator {
 public:
  BrowseGenerator(const std::vector<SimInfo>& sims, uint64_t seed,
                  size_t client)
      : sims_(sims),
        perm_(Permutation(sims.size(), seed)),
        zipf_(sims.size(), 1.0),
        rng_(ClientSeed(seed, client)) {}

  Op Next() override {
    double u = Uniform(rng_);
    const SimInfo& sim = sims_[perm_[zipf_.Sample(rng_)]];
    size_t user = rng_() % 5;
    size_t t = rng_() % sim.files.size();
    bool half = rng_() % 2 == 0;
    if (u < 0.40) {
      return BrowseOp("RESULT_FILE", "SIMULATION_KEY", sim.key, user);
    }
    if (u < 0.55) {
      return half ? BrowseOp("SIMULATION", "SIMULATION_KEY", sim.key, user)
                  : BrowseOp("AUTHOR", "AUTHOR_KEY", sim.author, user);
    }
    if (u < 0.70) {
      return Get("/search", {{"table", "RESULT_FILE"},
                             {"value.SIMULATION_KEY", sim.key},
                             {"value.TIMESTEP", std::to_string(t)}},
                 user);
    }
    if (u < 0.75) {
      return Get("/search", {{"table", "RESULT_FILE"},
                             {"value.FILE_NAME", sim.files[t]}},
                 user);
    }
    if (u < 0.85) {
      size_t extra = rng_() % 3;
      if (half) {
        return Get("/typeahead", {{"table", "SIMULATION"},
                                  {"column", "SIMULATION_KEY"},
                                  {"prefix", sim.key.substr(0, 12 + extra)}},
                   user);
      }
      return Get("/typeahead", {{"table", "RESULT_FILE"},
                                {"column", "FILE_NAME"},
                                {"prefix", sim.files[t].substr(0, 17 + extra)}},
                 user);
    }
    if (u < 0.95) {
      return Get("/object", {{"table", "SIMULATION"},
                             {"column", "DESCRIPTION"},
                             {"pk0.SIMULATION_KEY", sim.key}},
                 user);
    }
    static const char* kTables[] = {"AUTHOR", "SIMULATION", "RESULT_FILE",
                                    "CODE_FILE", "VISUALISATION_FILE"};
    if (half) return Get("/tables", {}, user);
    return Get("/query", {{"table", kTables[rng_() % 5]}}, user);
  }

 private:
  const std::vector<SimInfo>& sims_;
  std::vector<size_t> perm_;
  Zipf zipf_;
  std::mt19937_64 rng_;
};

// --- ingest ----------------------------------------------------------------

class IngestGenerator : public Generator {
 public:
  /// Each window of 8 recent simulations receives 16 new timesteps apiece
  /// (128 cycles), then the next 8 simulations take over, so pages stay
  /// near the seeded 50 rows however long the run.
  static constexpr size_t kWindow = 8;
  static constexpr size_t kCyclesPerWindow = 128;

  IngestGenerator(const std::vector<SimInfo>& sims, uint64_t seed)
      : sims_(sims),
        perm_(Permutation(sims.size(), seed)),
        rng_(ClientSeed(seed, 0)),
        next_t_(sims.size()),
        live_(sims.size()) {
    for (size_t s = 0; s < sims.size(); ++s) {
      next_t_[s] = sims[s].files.size();
      for (size_t t = 0; t < sims[s].files.size(); ++t) live_[s].push_back(t);
    }
  }

  Op Next() override {
    if (pending_.empty()) Cycle();
    Op op = std::move(pending_.front());
    pending_.pop_front();
    return op;
  }

 private:
  size_t WindowSim(size_t slot) const {
    size_t w = cycle_ / kCyclesPerWindow;
    return perm_[(w * kWindow + slot) % sims_.size()];
  }

  /// The two reads after every write: the simulation's file listing and
  /// its own page (after a CLOB update: its page and the CLOB itself).
  void Files(size_t s) {
    Op files = BrowseOp("RESULT_FILE", "SIMULATION_KEY", sims_[s].key, 0);
    files.expect_rows = static_cast<long>(live_[s].size());
    pending_.push_back(std::move(files));
  }
  void Parent(size_t s) {
    Op parent = BrowseOp("SIMULATION", "SIMULATION_KEY", sims_[s].key, 0);
    parent.expect_rows = 1;
    pending_.push_back(std::move(parent));
  }

  void Cycle() {
    size_t s = WindowSim(cycle_ % kWindow);
    const SimInfo& sim = sims_[s];
    size_t t = next_t_[s]++;
    easia::turb::DatasetSpec spec;
    spec.simulation_key = sim.key;
    spec.timestep = static_cast<uint32_t>(t);
    spec.grid_n = ShapeOf(Workload::kIngest).grid_n;
    Op write;
    write.kind = Op::Kind::kArchiveResult;
    write.cls = Op::Class::kWrite;
    write.sim_key = sim.key;
    write.file_name = spec.FileName();
    write.host = kHosts[(s + t) % 2];
    write.file_path = "/archive/" + sim.key + "/" + spec.FileName();
    write.sql = StrPrintf(
        "INSERT INTO RESULT_FILE (FILE_NAME, SIMULATION_KEY, TIMESTEP, "
        "MEASUREMENT, FILE_FORMAT, FILE_SIZE, DOWNLOAD_RESULT) VALUES "
        "(%s, %s, %zu, 'u,v,w,p', 'TBF', %llu, %s)",
        Quoted(spec.FileName()).c_str(), Quoted(sim.key).c_str(), t,
        static_cast<unsigned long long>(easia::turb::kLargeSimulationBytes),
        Quoted("http://" + write.host + write.file_path).c_str());
    pending_.push_back(std::move(write));
    live_[s].push_back(t);
    Files(s);
    Parent(s);

    if (cycle_ % 4 == 3) {
      std::string text = StrPrintf("Revision %zu of %s: ", cycle_,
                                   sim.key.c_str());
      size_t words = 20 + rng_() % 60;
      for (size_t i = 0; i < words; ++i) {
        text += StrPrintf("w%llu ",
                          static_cast<unsigned long long>(rng_() % 1000));
      }
      Op put = Get("/object/put", {{"table", "SIMULATION"},
                                   {"column", "DESCRIPTION"},
                                   {"pk0.SIMULATION_KEY", sim.key},
                                   {"value", text}});
      put.cls = Op::Class::kWrite;
      pending_.push_back(std::move(put));
      Parent(s);
      Op clob = Get("/object", {{"table", "SIMULATION"},
                                {"column", "DESCRIPTION"},
                                {"pk0.SIMULATION_KEY", sim.key}});
      clob.expect_body = text;
      pending_.push_back(std::move(clob));
    }
    if (cycle_ % 8 == 7) {
      size_t d = WindowSim((cycle_ / 8) % kWindow);
      size_t oldest = live_[d].front();
      live_[d].pop_front();
      easia::turb::DatasetSpec old;
      old.simulation_key = sims_[d].key;
      old.timestep = static_cast<uint32_t>(oldest);
      old.grid_n = spec.grid_n;
      Op del;
      del.kind = Op::Kind::kDelete;
      del.cls = Op::Class::kWrite;
      del.sim_key = sims_[d].key;
      del.file_name = old.FileName();
      del.sql = StrPrintf(
          "DELETE FROM RESULT_FILE WHERE FILE_NAME = %s AND "
          "SIMULATION_KEY = %s",
          Quoted(old.FileName()).c_str(), Quoted(sims_[d].key).c_str());
      pending_.push_back(std::move(del));
      Files(d);
      Parent(d);
    }
    ++cycle_;
  }

  const std::vector<SimInfo>& sims_;
  std::vector<size_t> perm_;
  std::mt19937_64 rng_;
  std::vector<size_t> next_t_;
  std::vector<std::deque<size_t>> live_;
  std::deque<Op> pending_;
  size_t cycle_ = 0;
};

// --- postprocess -----------------------------------------------------------

constexpr const char kUploadScript[] =
    "let f = arg(0);\n"
    "let n = tbf_n(f);\n"
    "let s = tbf_stats(f, \"p\");\n"
    "write(\"summary.txt\", \"n=\" + str(n) + \" pmin=\" + str(s[0]));\n"
    "print(\"n=\" + str(n) + \" pmax=\" + str(s[1]));\n";

/// The postprocess mix is dealt from a deck of 40 draws in seeded order,
/// so each pass through the deck, 46 operations (a /browse draw adds its
/// download), holds it exactly: 18 native runs (each native op in turn),
/// 6 GetImage, 4 uploads, 6 job batches and 6 browse + download pairs. The
/// proportions then repeat in every second of a run, not only on average.
class PostprocessGenerator : public Generator {
 public:
  enum class Draw { kNative, kGetImage, kUpload, kJobs, kBrowse };

  PostprocessGenerator(const std::vector<SimInfo>& sims, uint64_t seed)
      : sims_(sims), rng_(ClientSeed(seed, 0)) {
    for (auto [draw, count] : {std::pair{Draw::kNative, 18},
                               std::pair{Draw::kGetImage, 6},
                               std::pair{Draw::kUpload, 4},
                               std::pair{Draw::kJobs, 6},
                               std::pair{Draw::kBrowse, 6}}) {
      deck_.insert(deck_.end(), count, draw);
    }
    next_ = deck_.size();
  }

  Op Next() override {
    if (download_pending_) {
      download_pending_ = false;
      Op op;
      op.kind = Op::Kind::kDownload;
      op.cls = Op::Class::kCompute;
      op.pick = rng_() % 1000;
      return op;
    }
    if (next_ == deck_.size()) {
      std::shuffle(deck_.begin(), deck_.end(), rng_);
      next_ = 0;
    }
    Draw draw = deck_[next_++];
    static const char* kComponents[] = {"u", "v", "w", "p"};
    const SimInfo& sim = sims_[rng_() % sims_.size()];
    size_t t = rng_() % sim.urls.size();
    std::string slice = StrPrintf("x%zu", 4 * (rng_() % 8));
    std::string component = kComponents[rng_() % 4];
    Op op;
    switch (draw) {
      case Draw::kNative: {
        static const char* kNatives[] = {"FieldStats", "KineticEnergy",
                                         "Subsample", "SliceCsv"};
        std::string name = kNatives[natives_++ % 4];
        fs::HttpParams params = {{"op", name}, {"dataset", sim.urls[t]}};
        if (name == "SliceCsv") {
          params["slice"] = slice;
          params["type"] = component;
        } else if (name == "Subsample") {
          params["factor"] = rng_() % 2 == 0 ? "2" : "4";
        }
        op = Get("/runop", std::move(params));
        break;
      }
      case Draw::kGetImage:
        // GetImage is guarded to the first simulation (paper's XUIS).
        op = Get("/runop", {{"op", "GetImage"},
                            {"dataset", sims_[0].urls[t]},
                            {"slice", slice},
                            {"type", component}});
        break;
      case Draw::kUpload:
        op = Get("/upload", {{"table", "RESULT_FILE"},
                             {"column", "DOWNLOAD_RESULT"},
                             {"dataset", sim.urls[t]},
                             {"code", kUploadScript}});
        break;
      case Draw::kJobs: {
        // Half FieldStats, half KineticEnergy, in seeded order.
        op.kind = Op::Kind::kJobBatch;
        std::vector<const char*> names(4, "FieldStats");
        names.insert(names.end(), 4, "KineticEnergy");
        std::shuffle(names.begin(), names.end(), rng_);
        for (const char* name : names) {
          const SimInfo& js = sims_[rng_() % sims_.size()];
          op.jobs.push_back({{"kind", "op"},
                             {"op", name},
                             {"dataset", js.urls[rng_() % js.urls.size()]}});
        }
        break;
      }
      case Draw::kBrowse:
        op = BrowseOp("RESULT_FILE", "SIMULATION_KEY", sim.key, 0);
        download_pending_ = true;
        break;
    }
    op.cls = op.path == "/browse" ? Op::Class::kRead : Op::Class::kCompute;
    return op;
  }

 private:
  const std::vector<SimInfo>& sims_;
  std::mt19937_64 rng_;
  std::vector<Draw> deck_;
  size_t next_ = 0;
  size_t natives_ = 0;
  bool download_pending_ = false;
};

std::string CanonicalParams(const fs::HttpParams& params) {
  std::string out;
  for (const auto& [k, v] : params) out += k + "=" + v + "&";
  return out;
}

/// Links to tokenised DATALINK files on a rendered page.
std::vector<std::string> DatalinkHrefs(const std::string& body) {
  std::vector<std::string> out;
  const std::string marker = "href=\"http://";
  size_t pos = 0;
  while ((pos = body.find(marker, pos)) != std::string::npos) {
    size_t start = pos + 6;
    size_t end = body.find('"', start);
    if (end == std::string::npos) break;
    std::string href = easia::ReplaceAll(body.substr(start, end - start),
                                         "&amp;", "&");
    if (href.find(';') != std::string::npos) out.push_back(std::move(href));
    pos = end;
  }
  return out;
}

void CleanUrlDir(Site* site, const std::string& url) {
  Result<fs::FileUrl> parsed = fs::ParseFileUrl(url);
  if (!parsed.ok()) return;
  Result<fs::FileServer*> server = site->archive->fleet().GetServer(
      parsed->host);
  if (server.ok()) (*server)->CleanTempDir(parsed->Directory());
}

/// Deletes the per-invocation temp directories an operation page lists.
void CleanOutputs(Site* site, const std::string& body) {
  const std::string marker = "href=\"http://";
  size_t pos = 0;
  while ((pos = body.find(marker, pos)) != std::string::npos) {
    size_t start = pos + 6;
    size_t end = body.find('"', start);
    if (end == std::string::npos) break;
    std::string url = body.substr(start, end - start);
    if (url.find("/tmp/") != std::string::npos) CleanUrlDir(site, url);
    pos = end;
  }
}

}  // namespace

std::string Op::Describe() const {
  std::string out = StrPrintf("%d|%d|%zu|", static_cast<int>(kind),
                              static_cast<int>(cls), user);
  out += path + "?" + CanonicalParams(params) + "|" + sql + "|" + host + "|" +
         file_path + "|" + std::to_string(pick);
  for (const fs::HttpParams& job : jobs) {
    out += '|';
    out += CanonicalParams(job);
  }
  return out;
}

std::string Op::Label() const {
  switch (kind) {
    case Kind::kGet: return path;
    case Kind::kArchiveResult: return "archive";
    case Kind::kDelete: return "delete";
    case Kind::kDownload: return "download";
    case Kind::kJobBatch: return "jobs";
  }
  return "?";
}

std::unique_ptr<Generator> MakeGenerator(Workload workload,
                                         const std::vector<SimInfo>& sims,
                                         uint64_t seed, size_t client) {
  switch (workload) {
    case Workload::kBrowse:
      return std::make_unique<BrowseGenerator>(sims, seed, client);
    case Workload::kIngest:
      return std::make_unique<IngestGenerator>(sims, seed);
    case Workload::kPostprocess:
      return std::make_unique<PostprocessGenerator>(sims, seed);
  }
  return nullptr;
}

uint64_t InputHash(Workload workload, const std::vector<SimInfo>& sims,
                   uint64_t seed, size_t client, size_t n) {
  std::unique_ptr<Generator> gen = MakeGenerator(workload, sims, seed, client);
  uint64_t h = Fnv1a("");
  for (size_t i = 0; i < n; ++i) h = Fnv1a(gen->Next().Describe() + "\n", h);
  return h;
}

easia::web::QbeRequest QbeFromParams(const easia::xuis::XuisSpec& spec,
                                     const fs::HttpParams& params) {
  auto param = [&](const std::string& key, const std::string& fallback = "") {
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  };
  easia::web::QbeRequest qbe;
  qbe.table = param("table");
  const easia::xuis::XuisTable* table = spec.FindTable(qbe.table);
  if (table == nullptr) return qbe;
  if (param("all") != "1") {
    for (const easia::xuis::XuisColumn& col : table->columns) {
      if (col.hidden) continue;
      if (!param("show." + col.name).empty()) {
        qbe.selected_columns.push_back(col.name);
      }
      std::string value = param("value." + col.name);
      if (value.empty()) value = param("sample." + col.name);
      if (!value.empty()) {
        qbe.restrictions.push_back(
            {col.name, param("op." + col.name, "="), value});
      }
    }
  }
  qbe.order_by = param("orderby");
  qbe.descending = param("desc") == "1";
  std::string limit = param("limit");
  if (!limit.empty()) {
    Result<int64_t> n = easia::ParseInt64(limit);
    if (n.ok()) qbe.limit = *n;
  }
  return qbe;
}

// --- Client ----------------------------------------------------------------

Client::Client(Site* site) : site_(site) {
  for (const char* user : kUsers) {
    sessions_.push_back(*site->archive->Login(user, kPassword));
  }
  sessions_.push_back(*site->archive->Login("guest", "guest"));
}

Response Client::Execute(const Op& op) {
  easia::core::Archive& archive = *site_->archive;
  Response resp;
  switch (op.kind) {
    case Op::Kind::kGet: {
      easia::web::HttpResponse r =
          archive.Get(sessions_[op.user], op.path, op.params);
      resp.status = r.status;
      resp.body = std::move(r.body);
      break;
    }
    case Op::Kind::kArchiveResult:
    case Op::Kind::kDelete: {
      if (op.kind == Op::Kind::kArchiveResult) {
        Result<fs::FileServer*> server = archive.fleet().GetServer(op.host);
        easia::Status created =
            server.ok() ? (*server)->vfs().CreateSparseFile(
                              op.file_path,
                              easia::turb::kLargeSimulationBytes)
                        : server.status();
        if (!created.ok()) {
          resp.status = 500;
          resp.body = created.ToString();
          break;
        }
      }
      Result<db::QueryResult> r = archive.Execute(op.sql);
      resp.status = r.ok() && r->rows_affected == 1 ? 200 : 500;
      if (!r.ok()) resp.body = r.status().ToString();
      break;
    }
    case Op::Kind::kDownload: {
      if (links.empty()) {
        resp.status = 404;
        break;
      }
      resp.body = links[op.pick % links.size()];
      double start = archive.clock().Now();
      Result<double> seconds = archive.Download(resp.body, kClientHost);
      resp.status = seconds.ok() ? 200 : 500;
      resp.sim_seconds = seconds.ok() ? *seconds : 0;
      resp.sim_start = start;
      break;
    }
    case Op::Kind::kJobBatch: {
      resp.status = 200;
      for (const fs::HttpParams& job : op.jobs) {
        easia::web::HttpResponse r =
            archive.Get(sessions_[op.user], "/jobs/submit", job);
        Result<int64_t> id = easia::ParseInt64(r.body);
        if (!r.ok() || !id.ok()) {
          resp.status = r.ok() ? 500 : r.status;
          break;
        }
        resp.job_ids.push_back(static_cast<easia::jobs::JobId>(*id));
      }
      double start = Now();
      archive.jobs().RunPending();
      resp.drain_seconds = Now() - start;
      break;
    }
  }
  return resp;
}

void Client::Remember(const Op& op, const Response& response) {
  if (op.path == "/browse") links = DatalinkHrefs(response.body);
}

// --- Checker ---------------------------------------------------------------

bool Checker::Observe(const Op& op, const Response& response) {
  if (!response.ok()) return false;
  Ledger& ledger = site_->ledger;
  switch (op.kind) {
    case Op::Kind::kGet: {
      std::string key = op.path + "?" + CanonicalParams(op.params);
      if (op.path == "/browse" || op.path == "/search") {
        long rows = RowCountOf(response.body);
        if (rows < 0) return false;
        if (op.expect_rows >= 0) return rows == op.expect_rows;
        observations_.push_back({key, static_cast<uint64_t>(rows)});
        recipes_.try_emplace(key, op);
      } else if (!op.expect_body.empty()) {
        return response.body == op.expect_body;
      } else if (op.path == "/typeahead" || op.path == "/object" ||
                 op.path == "/runop" || op.path == "/upload") {
        uint64_t fact = op.path == "/runop" || op.path == "/upload"
                            ? Fnv1a(PreTextOf(response.body))
                            : Fnv1a(response.body);
        observations_.push_back({key, fact});
        recipes_.try_emplace(key, op);
        if (op.path == "/runop" || op.path == "/upload") {
          CleanOutputs(site_, response.body);
        }
      } else if (op.path == "/object/put") {
        if (response.body.find("bytes stored") == std::string::npos) {
          return false;
        }
        ledger.description[op.params.at("pk0.SIMULATION_KEY")] =
            op.params.at("value");
        return true;
      } else if (response.body.empty()) {
        return false;
      }
      return true;
    }
    case Op::Kind::kArchiveResult:
      ledger.live[op.sim_key].insert(op.file_name);
      return true;
    case Op::Kind::kDelete:
      ledger.live[op.sim_key].erase(op.file_name);
      return true;
    case Op::Kind::kDownload:
      downloads_.push_back(
          {response.body, response.sim_start, response.sim_seconds});
      return true;
    case Op::Kind::kJobBatch: {
      bool ok = response.job_ids.size() == op.jobs.size();
      for (easia::jobs::JobId id : response.job_ids) {
        Result<easia::jobs::Job> job = site_->archive->jobs().queue().Get(id);
        if (!job.ok() || job->state != easia::jobs::JobState::kSucceeded) {
          ok = false;
          continue;
        }
        for (const std::string& url : job->output_urls) CleanUrlDir(site_, url);
        Op invoke = Get("/runop", {{"op", job->spec.operation},
                                   {"dataset", job->spec.datasets[0]}});
        std::string key = invoke.path + "?" + CanonicalParams(invoke.params);
        observations_.push_back({key, Fnv1a(Escaped(job->output_text))});
        recipes_.try_emplace(key, std::move(invoke));
      }
      return ok;
    }
  }
  return false;
}

void Checker::Merge(const Checker& other) {
  observations_.insert(observations_.end(), other.observations_.begin(),
                       other.observations_.end());
  downloads_.insert(downloads_.end(), other.downloads_.begin(),
                    other.downloads_.end());
  recipes_.insert(other.recipes_.begin(), other.recipes_.end());
}

namespace {

/// The fact a response to `op` must carry, from direct calls below the web
/// layer.
Result<uint64_t> Expected(Site* site, const Op& op) {
  easia::core::Archive& archive = *site->archive;
  const std::string& user = op.user == kGuest ? "guest" : kUsers[op.user];
  const easia::xuis::XuisSpec& spec = archive.xuis().For(user);
  auto param = [&](const std::string& key) {
    auto it = op.params.find(key);
    return it == op.params.end() ? std::string() : it->second;
  };
  db::ExecContext exec;
  exec.user = user;
  if (op.path == "/browse" || op.path == "/search") {
    Result<std::string> sql =
        op.path == "/browse"
            ? easia::web::BrowseSql(spec, param("table"), param("column"),
                                    param("value"))
            : easia::web::TranslateToSql(spec, QbeFromParams(spec, op.params));
    if (!sql.ok()) return sql.status();
    EASIA_ASSIGN_OR_RETURN(db::QueryResult r, archive.database().Execute(
                                                  *sql, exec));
    return static_cast<uint64_t>(r.rows.size());
  }
  if (op.path == "/typeahead") {
    std::string column = param("column");
    std::string sql = "SELECT DISTINCT " + column + " FROM " +
                      param("table") + " WHERE " + column + " LIKE '" +
                      easia::EscapeLikePattern(param("prefix")) +
                      "%' ORDER BY " + column + " LIMIT 10";
    EASIA_ASSIGN_OR_RETURN(db::QueryResult r,
                           archive.database().Execute(sql, exec));
    std::string body;
    for (const db::Row& row : r.rows) {
      if (row[0].is_null()) continue;
      body += row[0].ToDisplayString() + "\n";
    }
    return Fnv1a(body);
  }
  if (op.path == "/object") {
    std::string where;
    for (const auto& [key, value] : op.params) {
      if (!easia::StartsWith(key, "pk")) continue;
      where += (where.empty() ? " WHERE " : " AND ") +
               key.substr(key.find('.') + 1) + " = " + Quoted(value);
    }
    std::string sql =
        "SELECT " + param("column") + " FROM " + param("table") + where;
    EASIA_ASSIGN_OR_RETURN(db::QueryResult r,
                           archive.database().Execute(sql, exec));
    if (r.rows.size() != 1) return easia::Status::NotFound("no object");
    return Fnv1a(r.rows[0][0].AsString());
  }
  easia::ops::InvocationContext ctx;
  ctx.user = user;
  ctx.is_guest = false;
  ctx.session_id = "check";
  fs::HttpParams op_params;
  for (const auto& [key, value] : op.params) {
    if (key != "op" && key != "dataset") op_params[key] = value;
  }
  Result<easia::ops::OperationResult> result =
      easia::Status::InvalidArgument("unchecked route " + op.path);
  if (op.path == "/runop") {
    const easia::xuis::OperationSpec* found = nullptr;
    for (const auto& table : spec.tables) {
      for (const auto& col : table.columns) {
        for (const auto& candidate : col.operations) {
          if (found == nullptr && candidate.name == param("op")) {
            found = &candidate;
          }
        }
      }
    }
    if (found == nullptr) return easia::Status::NotFound("no operation");
    result = archive.engine().Invoke(*found, param("dataset"), op_params, ctx);
  } else if (op.path == "/upload") {
    const easia::xuis::XuisColumn* col =
        spec.FindColumnById(param("table") + "." + param("column"));
    if (col == nullptr || !col->upload.has_value()) {
      return easia::Status::NotFound("no upload column");
    }
    result = archive.engine().RunUploadedCode(
        *col->upload, param("code"), "main.ea", param("dataset"), {}, ctx);
  }
  if (!result.ok()) return result.status();
  for (const std::string& url : result->output_urls) CleanUrlDir(site, url);
  return Fnv1a(Escaped(result->output.text));
}

}  // namespace

uint64_t Checker::Verify() {
  // One direct call per distinct key. Database reads run on a few threads
  // (the shared read lock admits them in parallel); engine calls stay on
  // this one.
  std::vector<std::string> keys;
  for (const auto& [key, op] : recipes_) keys.push_back(key);
  std::vector<std::optional<Result<uint64_t>>> expected(keys.size());
  std::atomic<size_t> next{0};
  auto work = [&](bool engine) {
    for (size_t i = next.fetch_add(1); i < keys.size();
         i = next.fetch_add(1)) {
      const Op& op = recipes_.at(keys[i]);
      bool uses_engine = op.path == "/runop" || op.path == "/upload";
      if (uses_engine == engine) expected[i] = Expected(site_, op);
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) readers.emplace_back(work, false);
  for (std::thread& t : readers) t.join();
  next = 0;
  work(true);
  std::map<std::string, const Result<uint64_t>*> by_key;
  for (size_t i = 0; i < keys.size(); ++i) by_key[keys[i]] = &*expected[i];
  uint64_t failed = 0;
  for (const Observation& obs : observations_) {
    const Result<uint64_t>& want = *by_key.at(obs.key);
    if (!want.ok() || *want != obs.fact) ++failed;
  }
  easia::core::Archive& archive = *site_->archive;
  for (const DownloadRecord& dl : downloads_) {
    Result<fs::FileUrl> parsed = fs::ParseFileUrl(dl.url);
    Result<fs::FileServer*> server =
        parsed.ok() ? archive.fleet().GetServer(parsed->host)
                    : Result<fs::FileServer*>(parsed.status());
    Result<fs::FileStat> stat = server.ok()
                                    ? (*server)->vfs().Stat(parsed->path)
                                    : Result<fs::FileStat>(server.status());
    Result<double> est =
        stat.ok() ? archive.network().EstimateTransfer(
                        parsed->host, kClientHost, stat->size, dl.start)
                  : Result<double>(stat.status());
    if (!est.ok() || std::abs(*est - dl.seconds) > 1e-9 * (1 + *est)) {
      ++failed;
    }
  }
  return failed;
}

std::string CheckDurability(Site* site) {
  // Everything the live database holds must match what the run
  // acknowledged, and so must a database recovered from the log alone.
  db::DatabaseOptions options;
  options.wal_path = site->wal_path;
  db::Database recovered("recovered", options);
  easia::Status status = recovered.Recover();
  if (!status.ok()) return "recover: " + status.ToString();
  for (db::Database* database :
       {&site->archive->database(), &recovered}) {
    std::string who = database == &recovered ? "recovered" : "live";
    Result<db::QueryResult> files = database->Execute(
        "SELECT SIMULATION_KEY, FILE_NAME FROM RESULT_FILE");
    Result<db::QueryResult> sims = database->Execute(
        "SELECT SIMULATION_KEY, DESCRIPTION FROM SIMULATION");
    if (!files.ok() || !sims.ok()) return who + ": query failed";
    std::map<std::string, std::set<std::string>> live;
    for (const db::Row& row : files->rows) {
      live[row[0].AsString()].insert(row[1].AsString());
    }
    for (auto it = live.begin(); it != live.end();) {
      it = it->second.empty() ? live.erase(it) : std::next(it);
    }
    std::map<std::string, std::set<std::string>> want = site->ledger.live;
    for (auto it = want.begin(); it != want.end();) {
      it = it->second.empty() ? want.erase(it) : std::next(it);
    }
    if (live != want) return who + ": RESULT_FILE rows differ from acks";
    for (const db::Row& row : sims->rows) {
      auto it = site->ledger.description.find(row[0].AsString());
      if (it != site->ledger.description.end() &&
          it->second != row[1].AsString()) {
        return who + ": DESCRIPTION of " + row[0].AsString() + " differs";
      }
    }
  }
  return "";
}

}  // namespace perfbench

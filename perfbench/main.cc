// End-to-end archive benchmark: drives one seeded workload through the
// public core::Archive facade, checks every output, and prints the
// workload's metrics; the last line of standard output is one JSON object.
//
//   archbench --workload browse|ingest|postprocess --seed N --seconds S
//             --trace 0|1 --out DIR
//
// --trace 0 is the timed run (tracing off): every end-to-end metric.
// --trace 1 is the traced run: a fixed, seeded operation sequence replayed
// as public layer calls with one span per call, giving every per-layer
// metric. See README.md for the workloads and the metric table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "harness.h"
#include "replay.h"
#include "script/parser.h"
#include "setup.h"
#include "workload.h"

namespace perfbench {
namespace {

using easia::Result;

struct Args {
  Workload workload = Workload::kBrowse;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

const char* const kEndToEnd[] = {
    "setup_s",     "rss_mb",    "ops_per_s", "read_p50_us",
    "read_p99_us", "op_p50_us", "op_p99_us",
};

const char* const kOpNames[] = {"FieldStats", "KineticEnergy", "Subsample",
                                "SliceCsv", "GetImage"};

/// Span name -> per-layer metric reporting its mean self time (us).
const std::pair<const char*, const char*> kSpanMetrics[] = {
    {"web.session", "web.session_us"},  {"web.qbe", "web.qbe_us"},
    {"web.render", "web.render_us"},    {"db.parse", "db.parse_us"},
    {"db.select", "db.select_us"},      {"db.write", "db.write_us"},
    {"med.token", "med.token_us"},      {"med.validate", "med.validate_us"},
    {"fs.stat", "fs.stat_us"},          {"fs.create", "fs.create_us"},
    {"fs.get", "fs.get_us"},            {"ops.upload", "ops.upload_us"},
    {"script.parse", "script.parse_us"}, {"jobs.submit", "jobs.submit_us"},
    {"jobs.exec", "jobs.exec_us"},
};

std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"web.session_us", "us"},
      {"web.qbe_us", "us"},
      {"web.render_us", "us"},
      {"web.page_kb", "KB"},
      {"web.cache_get_us", "us"},
      {"web.cache_hit_ratio", "ratio"},
      {"web.cache_lookups", "count"},
      {"web.cache_evictions_per_kreq", "count"},
      {"web.cache_invalidations_per_kreq", "count"},
      {"web.unattributed_us", "us"},
      {"db.parse_us", "us"},
      {"db.select_us", "us"},
      {"db.write_us", "us"},
      {"db.statements_per_request", "count"},
      {"db.rows_per_select", "count"},
      {"db.seq_scan_share", "ratio"},
      {"db.select_shapes", "count"},
      {"db.wal_bytes_per_row", "bytes"},
      {"db.wal_syncs_per_commit", "count"},
      {"med.token_us", "us"},
      {"med.tokens_per_request", "count"},
      {"med.validate_us", "us"},
      {"fs.stat_us", "us"},
      {"fs.stats_per_request", "count"},
      {"fs.create_us", "us"},
      {"fs.get_us", "us"},
  };
  for (const char* op : kOpNames) {
    names.push_back({std::string("ops.invoke_us.") + op, "us"});
  }
  std::vector<std::pair<std::string, std::string>> rest = {
      {"ops.upload_us", "us"},
      {"script.parse_us", "us"},
      {"script.steps_per_op", "count"},
      {"ops.input_mb_per_op", "MB"},
      {"ops.output_kb_per_op", "KB"},
      {"jobs.submit_us", "us"},
      {"jobs.exec_us", "us"},
      {"jobs.retry_share", "ratio"},
      {"jobs.executed", "count"},
      {"sim.transfer_s_per_download", "s"},
      {"sim.transfer_s_per_op_output", "s"},
      {"xuis.generate_ms", "ms"},
      {"setup.insert_us_growth", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.replay_vs_facade_pct", "%"},
      {"trace.sampled_ops", "count"},
      {"write_p50_us", "us"},
      {"write_p99_us", "us"},
      {"jobs_per_s", "1/s"},
  };
  names.insert(names.end(), rest.begin(), rest.end());
  return names;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload_name = value;
      if (value == "browse") {
        args->workload = Workload::kBrowse;
      } else if (value == "ingest") {
        args->workload = Workload::kIngest;
      } else if (value == "postprocess") {
        args->workload = Workload::kPostprocess;
      } else {
        return false;
      }
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload_name.empty() && args->seconds > 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Latencies of one client. A failed operation misses every latency
/// limit, so it enters its populations as +infinity.
struct Latencies {
  struct Sample {
    double end = 0;  // completion time (monotonic seconds)
    double us = 0;
    Op::Class cls = Op::Class::kRead;
  };
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double jobs = 0;
  double drain_seconds = 0;

  void Add(const Op& op, const Response& resp, bool ok, double us) {
    ++attempted;
    if (!ok) {
      ++failed;
      us = INFINITY;
    }
    samples.push_back({Now(), us, op.cls});
    if (op.kind == Op::Kind::kJobBatch) {
      jobs += static_cast<double>(resp.job_ids.size());
      drain_seconds += resp.drain_seconds;
    }
  }
  void Merge(const Latencies& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
    jobs += o.jobs;
    drain_seconds += o.drain_seconds;
  }
  /// Latencies of one population (all when `cls` is empty), in
  /// completion order.
  std::vector<double> Of(std::optional<Op::Class> cls) const {
    std::vector<Sample> sorted = samples;
    std::sort(sorted.begin(), sorted.end(),
              [](const Sample& x, const Sample& y) { return x.end < y.end; });
    std::vector<double> out;
    for (const Sample& s : sorted) {
      if (!cls.has_value() || s.cls == *cls) out.push_back(s.us);
    }
    return out;
  }
};

/// Percentile `q` of `us` (completion order) as the median over
/// consecutive chunks of at least 1,000 samples each (at most 20 chunks),
/// so the 99th percentile of every chunk has ten samples beyond it and a
/// burst of machine noise moves one chunk, not the figure. Fewer than
/// 2,000 samples form a single chunk.
double ChunkedPercentile(const std::vector<double>& us, double q) {
  size_t chunks = std::clamp<size_t>(us.size() / 1000, 1, 20);
  std::vector<double> per_chunk;
  for (size_t k = 0; k < chunks; ++k) {
    size_t lo = us.size() * k / chunks;
    size_t hi = us.size() * (k + 1) / chunks;
    per_chunk.push_back(Percentile(
        std::vector<double>(us.begin() + lo, us.begin() + hi), q));
  }
  return Percentile(per_chunk, 0.5);
}

/// Completed operations per second: the median over one-second windows
/// of the timed phase.
double WindowedRate(const Latencies& lat, double start, double end) {
  size_t windows = std::max<size_t>(1, static_cast<size_t>(end - start));
  double width = (end - start) / static_cast<double>(windows);
  std::vector<double> counts(windows, 0);
  for (const Latencies::Sample& s : lat.samples) {
    if (!std::isfinite(s.us)) continue;
    size_t w = static_cast<size_t>((s.end - start) / width);
    counts[std::min(w, windows - 1)] += 1;
  }
  for (double& c : counts) c /= width;
  return Percentile(counts, 0.5);
}

std::string WalPath(const Args& args, const std::string& tag) {
  std::string path = args.out + "/" + args.workload_name + "-" + tag + ".wal";
  std::filesystem::remove(path);
  return path;
}

std::unique_ptr<Site> MustBuild(const Args& args, const std::string& tag) {
  Result<std::unique_ptr<Site>> site =
      BuildSite(args.workload, WalPath(args, tag));
  if (!site.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 site.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*site);
}

void ReportLatencies(Report* report, const Latencies& lat) {
  std::vector<double> reads = lat.Of(Op::Class::kRead);
  std::vector<double> writes = lat.Of(Op::Class::kWrite);
  std::vector<double> all = lat.Of(std::nullopt);
  report->Add("read_p50_us", ChunkedPercentile(reads, 0.50), "us");
  report->Add("read_p99_us", ChunkedPercentile(reads, 0.99), "us");
  report->Add("op_p50_us", ChunkedPercentile(all, 0.50), "us");
  report->Add("op_p99_us", ChunkedPercentile(all, 0.99), "us");
  report->Add("write_p50_us", ChunkedPercentile(writes, 0.50), "us");
  report->Add("write_p99_us", ChunkedPercentile(writes, 0.99), "us");
  report->Add("jobs_per_s", Ratio(lat.jobs, lat.drain_seconds), "1/s");
  std::printf("samples: %zu operations, %zu reads, %zu writes\n",
              all.size(), reads.size(), writes.size());
}

// --- timed run -----------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

int TimedRun(const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Site> site;
  for (int i = 0; i < kSetups; ++i) {
    site.reset();  // one archive alive at a time
    site = MustBuild(args, "timed");
    setups.push_back(site->setup_seconds);
  }
  std::printf("setups (s):");
  for (double v : setups) std::printf(" %.4f", v);
  std::printf("\n");
  size_t clients = args.workload == Workload::kBrowse ? 2 : 1;
  std::printf("workload %s seed %llu clients %zu (closed loop)\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), clients);
  for (size_t c = 0; c < clients; ++c) {
    std::printf("input_hash[client %zu] %016llx\n", c,
                static_cast<unsigned long long>(InputHash(
                    args.workload, site->sims, args.seed, c, 4096)));
  }
  if (args.workload == Workload::kIngest) {
    std::printf("flush policy: WAL sync_on_commit=true (fsync per commit)\n");
  }

  struct ClientState {
    std::unique_ptr<Client> client;
    std::unique_ptr<Generator> gen;
    std::unique_ptr<Checker> checker;
    Latencies lat;
    uint64_t warm_failed = 0;
  };
  std::vector<ClientState> states(clients);
  for (size_t c = 0; c < clients; ++c) {
    states[c].client = std::make_unique<Client>(site.get());
    states[c].gen = MakeGenerator(args.workload, site->sims, args.seed, c);
    states[c].checker = std::make_unique<Checker>(site.get());
  }
  // Warm-up: the same stream, unrecorded, so the render cache and lazily
  // built state settle before timing.
  double warm = std::min(1.0, 0.1 * args.seconds);
  double start = 0;
  double end = 0;
  auto loop = [&](ClientState* st) {
    double warm_end = Now() + warm;
    while (Now() < warm_end) {
      Op op = st->gen->Next();
      Response resp = st->client->Execute(op);
      if (!st->checker->Observe(op, resp)) ++st->warm_failed;
      st->client->Remember(op, resp);
    }
  };
  auto timed = [&](ClientState* st, double deadline) {
    while (Now() < deadline) {
      Op op = st->gen->Next();
      double t0 = Now();
      Response resp = st->client->Execute(op);
      double us = (Now() - t0) * 1e6;
      bool ok = st->checker->Observe(op, resp);
      st->lat.Add(op, resp, ok, us);
      st->client->Remember(op, resp);
    }
  };
  {
    std::vector<std::thread> threads;
    for (ClientState& st : states) threads.emplace_back(loop, &st);
    for (std::thread& t : threads) t.join();
  }
  start = Now();
  double deadline = start + args.seconds;
  {
    std::vector<std::thread> threads;
    for (ClientState& st : states) threads.emplace_back(timed, &st, deadline);
    for (std::thread& t : threads) t.join();
  }
  end = Now();

  Latencies lat;
  Checker& checker = *states[0].checker;
  uint64_t warm_failed = 0;
  for (ClientState& st : states) {
    lat.Merge(st.lat);
    warm_failed += st.warm_failed;
    if (&st != &states[0]) checker.Merge(*st.checker);
  }
  double check_start = Now();
  uint64_t verify_failed = checker.Verify();
  std::string durability;
  if (args.workload == Workload::kIngest) {
    durability = CheckDurability(site.get());
    std::printf("durability: %s\n",
                durability.empty() ? "every acknowledged write recovered "
                                     "from the WAL alone, nothing else"
                                   : durability.c_str());
  }
  uint64_t failed = lat.failed + verify_failed + warm_failed;
  bool correct = failed == 0 && durability.empty();
  std::printf("phases: set-up %.1f s, warm-up %.1f s, timed %.1f s, "
              "checks %.1f s\n",
              setups.size() * Percentile(setups, 0.5), warm, end - start,
              Now() - check_start);

  Report report;
  report.Add("setup_s", Percentile(setups, 0.5), "s");
  report.Add("rss_mb", PeakRssMb(), "MB");
  report.Add("ops_per_s", WindowedRate(lat, start, end), "1/s");
  ReportLatencies(&report, lat);
  std::printf("attempted %llu failed %llu (checks after run: %llu failed)\n",
              static_cast<unsigned long long>(lat.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(verify_failed));
  report.PrintHuman();
  std::vector<std::string> names(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::printf("%s\n",
              report.Json(correct, lat.attempted, failed, names).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- traced run ----------------------------------------------------------

/// Operations per traced run (fixed, so counts repeat exactly per seed).
size_t TracedOps(Workload workload) {
  switch (workload) {
    case Workload::kBrowse: return 4000;
    case Workload::kIngest: return 2000;
    case Workload::kPostprocess: return 600;
  }
  return 0;
}

/// Counters compared between the replayed and the reference archive.
struct Counters {
  uint64_t statements = 0, tokens = 0, stats = 0, commits = 0, rows = 0;
  uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
  uint64_t wal_bytes = 0, syncs = 0, executed = 0, retries = 0;

  static Counters Of(const Site& site) {
    Counters c;
    easia::core::Archive& a = *site.archive;
    easia::db::DatabaseStats ds = a.database().stats();
    c.statements = ds.statements;
    c.commits = ds.txn_commits;
    c.rows = ds.rows_inserted + ds.rows_updated + ds.rows_deleted;
    c.tokens = a.med().tokens().issued();
    c.stats = site.vfs_stats();
    easia::web::RenderCacheStats cs = a.render_cache().stats();
    c.hits = cs.hits;
    c.misses = cs.misses;
    c.evictions = cs.evictions;
    c.invalidations = cs.invalidations;
    if (site.env != nullptr) {
      c.wal_bytes = site.env->appended_bytes();
      c.syncs = site.env->syncs();
    }
    c.executed = a.jobs().executed();
    c.retries = a.jobs().retries();
    return c;
  }
  Counters operator-(const Counters& o) const {
    Counters d;
    d.statements = statements - o.statements;
    d.tokens = tokens - o.tokens;
    d.stats = stats - o.stats;
    d.commits = commits - o.commits;
    d.rows = rows - o.rows;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.evictions = evictions - o.evictions;
    d.invalidations = invalidations - o.invalidations;
    d.wal_bytes = wal_bytes - o.wal_bytes;
    d.syncs = syncs - o.syncs;
    d.executed = executed - o.executed;
    d.retries = retries - o.retries;
    return d;
  }
  /// The determinism check: every count repeats exactly.
  bool SameCounts(const Counters& o) const {
    return statements == o.statements && tokens == o.tokens &&
           stats == o.stats && commits == o.commits && rows == o.rows &&
           hits == o.hits && misses == o.misses &&
           evictions == o.evictions && invalidations == o.invalidations &&
           wal_bytes == o.wal_bytes && syncs == o.syncs &&
           executed == o.executed && retries == o.retries;
  }
};

int TracedRun(const Args& args) {
  // Triplet archives from the same seed. A replays the sampled operations
  // span by span; C replays them with recording off (the overhead
  // baseline); B is driven through the facade untraced and is the
  // reference for bodies and counts. Unsampled operations go through the
  // facade on all three, so their states stay identical.
  std::unique_ptr<Site> a = MustBuild(args, "traced");
  std::unique_ptr<Site> b = MustBuild(args, "reference");
  std::unique_ptr<Site> c = MustBuild(args, "untraced");
  Recorder rec;
  Replayer replayer(a.get(), &rec);
  Replayer plain(c.get(), nullptr);
  Client client_a(a.get());
  Client client_b(b.get());
  Client client_c(c.get());
  Checker checker_a(a.get());
  Checker checker_b(b.get());
  Checker checker_c(c.get());
  std::unique_ptr<Generator> gen =
      MakeGenerator(args.workload, b->sims, args.seed, 0);
  std::mt19937_64 sampler(args.seed ^ 0x7472616365ULL);

  uint64_t failed = 0;
  uint64_t mismatched = 0;
  Latencies lat_b;
  std::vector<double> page_bytes;
  std::vector<uint32_t> roots;  // root span id per sampled operation
  double traced_s = 0;
  double untraced_s = 0;
  double facade_s = 0;
  Counters before_a = Counters::Of(*a);
  Counters before_b = Counters::Of(*b);
  Counters before_c = Counters::Of(*c);
  size_t n = TracedOps(args.workload);
  for (size_t i = 0; i < n; ++i) {
    Op op = gen->Next();
    bool sampled = Uniform(sampler) < 0.5;
    double t0 = Now();
    Response resp_b = client_b.Execute(op);
    double dt_b = Now() - t0;
    bool ok_b = checker_b.Observe(op, resp_b);
    lat_b.Add(op, resp_b, ok_b, dt_b * 1e6);
    if (!ok_b) ++failed;
    if (op.path == "/browse" && resp_b.ok()) {
      page_bytes.push_back(static_cast<double>(resp_b.body.size()));
    }
    Response resp_a;
    Response resp_c;
    if (sampled) {
      auto traced = [&] {
        rec.BeginTrace();
        {
          Recorder::Scope span(&rec, "op:" + op.Label());
          roots.push_back(span.id());
          resp_a = replayer.Replay(client_a, op);
        }
        rec.EndTrace();
      };
      auto untraced = [&] {
        double start = Now();
        resp_c = plain.Replay(client_c, op);
        untraced_s += Now() - start;
      };
      // Alternate which replay runs first.
      if (i % 2 == 0) {
        traced();
        untraced();
      } else {
        untraced();
        traced();
      }
      const SpanRec& r = rec.spans()[roots.back() - 1];
      traced_s += r.end - r.start;
      facade_s += dt_b;
      bool download = op.kind == Op::Kind::kDownload;
      for (const Response* replayed : {&resp_a, &resp_c}) {
        if (replayed->status != resp_b.status ||
            (!download &&
             MaskTokens(replayed->body) != MaskTokens(resp_b.body)) ||
            replayed->job_ids != resp_b.job_ids ||
            replayed->sim_seconds != resp_b.sim_seconds) {
          ++mismatched;
          if (mismatched <= 3) {
            std::printf("replay mismatch on %s: status %d vs %d\n",
                        op.Describe().substr(0, 160).c_str(),
                        replayed->status, resp_b.status);
          }
        }
      }
      // script::ParseScript has no boundary inside the engine; time it on
      // the same source, as its own trace outside the operation.
      for (const std::string& source : replayer.facts().script_sources) {
        rec.BeginTrace();
        {
          Recorder::Scope span(&rec, "script.parse");
          (void)easia::script::ParseScript(source);
        }
        rec.EndTrace();
      }
      replayer.facts().script_sources.clear();
    } else {
      resp_a = client_a.Execute(op);
      resp_c = client_c.Execute(op);
    }
    bool ok_a = checker_a.Observe(op, resp_a);
    bool ok_c = checker_c.Observe(op, resp_c);
    if ((!ok_a || !ok_c) && ok_b) ++failed;
    client_a.Remember(op, resp_a);
    client_b.Remember(op, resp_b);
    client_c.Remember(op, resp_c);
  }
  Counters da = Counters::Of(*a) - before_a;
  Counters db = Counters::Of(*b) - before_b;
  Counters dc = Counters::Of(*c) - before_c;
  const ReplayFacts& facts = replayer.facts();

  uint64_t verify_failed = checker_b.Verify();
  std::string durability;
  if (args.workload == Workload::kIngest) {
    durability = CheckDurability(b.get());
    if (durability.empty()) durability = CheckDurability(a.get());
  }

  // Determinism: the input sequence is a function of the seed, and twin
  // archives fed it report identical counts.
  uint64_t hash = InputHash(args.workload, b->sims, args.seed, 0, 4096);
  bool same_inputs =
      hash == InputHash(args.workload, b->sims, args.seed, 0, 4096) &&
      hash != InputHash(args.workload, b->sims, args.seed + 1, 0, 4096);
  bool same_counts = da.SameCounts(db) && dc.SameCounts(db);

  // Self times, and the accounting check: per sampled operation, the
  // self times of its spans (the root's own being web.unattributed_us)
  // add up to the operation's wall time, and every child lies inside
  // its parent.
  const std::vector<SpanRec>& spans = rec.spans();
  std::vector<double> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> by_name;
  std::map<uint64_t, double> trace_self;
  size_t bad_nesting = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    by_name[s.name].push_back(self[i]);
    trace_self[s.trace_id] += self[i];
    if (s.parent != 0) {
      const SpanRec& p = spans[s.parent - 1];
      if (s.start < p.start || s.end > p.end || self[i] < 0) ++bad_nesting;
    }
  }
  std::vector<double> unattributed;
  double worst_gap = 0;
  for (uint32_t root : roots) {
    const SpanRec& r = spans[root - 1];
    unattributed.push_back(self[root - 1] * 1e6);
    worst_gap = std::max(
        worst_gap, std::abs(trace_self[r.trace_id] - (r.end - r.start)));
  }
  bool accounted = bad_nesting == 0 && worst_gap < 1e-9;

  // EXPLAIN every distinct SELECT shape the replays issued.
  size_t seq_scans = 0;
  for (const auto& [shape, sql] : facts.select_shapes) {
    Result<easia::db::QueryResult> plan = b->archive->Execute("EXPLAIN " + sql);
    bool seq = false;
    for (size_t r = 0; plan.ok() && r < plan->rows.size(); ++r) {
      for (const easia::db::Value& v : plan->rows[r]) {
        if (v.ToDisplayString().find("seq scan") != std::string::npos) {
          seq = true;
        }
      }
    }
    if (seq) ++seq_scans;
    std::printf("select shape%s: %s\n", seq ? " [seq scan]" : "",
                shape.c_str());
  }

  Report report;
  for (const auto& [span, metric] : kSpanMetrics) {
    report.Add(metric, Mean(by_name[span]) * 1e6, "us");
  }
  for (const char* op : kOpNames) {
    report.Add(std::string("ops.invoke_us.") + op,
               Mean(by_name[std::string("ops.invoke.") + op]) * 1e6, "us");
  }
  std::vector<double> hit_us;
  for (const SpanRec& s : spans) {
    if (s.name == "web.cache_get.hit") {
      hit_us.push_back((s.end - s.start) * 1e6);
    }
  }
  double reqs = static_cast<double>(n);
  double lookups = static_cast<double>(db.hits + db.misses);
  report.Add("web.cache_get_us", Mean(hit_us), "us");
  report.Add("web.page_kb", Mean(page_bytes) / 1024.0, "KB");
  report.Add("web.cache_hit_ratio", Ratio(db.hits, lookups), "ratio");
  report.Add("web.cache_lookups", lookups, "count");
  report.Add("web.cache_evictions_per_kreq", 1000.0 * db.evictions / reqs,
             "count");
  report.Add("web.cache_invalidations_per_kreq",
             1000.0 * db.invalidations / reqs, "count");
  report.Add("web.unattributed_us", Mean(unattributed), "us");
  report.Add("db.statements_per_request", db.statements / reqs, "count");
  report.Add("db.rows_per_select", Mean(facts.rows_per_select), "count");
  report.Add("db.seq_scan_share",
             Ratio(seq_scans, facts.select_shapes.size()), "ratio");
  report.Add("db.select_shapes", facts.select_shapes.size(), "count");
  report.Add("db.wal_bytes_per_row", Ratio(db.wal_bytes, db.rows), "bytes");
  report.Add("db.wal_syncs_per_commit", Ratio(db.syncs, db.commits), "count");
  report.Add("med.tokens_per_request", db.tokens / reqs, "count");
  report.Add("fs.stats_per_request", db.stats / reqs, "count");
  report.Add("script.steps_per_op", Mean(facts.script_steps), "count");
  report.Add("ops.input_mb_per_op", Mean(facts.input_bytes) / 1e6, "MB");
  report.Add("ops.output_kb_per_op", Mean(facts.output_bytes) / 1e3, "KB");
  report.Add("jobs.retry_share", Ratio(db.retries, db.executed), "ratio");
  report.Add("jobs.executed", db.executed, "count");
  report.Add("sim.transfer_s_per_download", Mean(facts.transfer_s_download),
             "s");
  report.Add("sim.transfer_s_per_op_output", Mean(facts.transfer_s_output),
             "s");
  report.Add("xuis.generate_ms", a->xuis_generate_ms, "ms");
  report.Add("setup.insert_us_growth", InsertGrowth(a->result_insert_us),
             "ratio");
  report.Add("trace.overhead_pct",
             100.0 * Ratio(traced_s - untraced_s, untraced_s), "%");
  report.Add("trace.replay_vs_facade_pct",
             100.0 * Ratio(untraced_s - facade_s, facade_s), "%");
  report.Add("trace.sampled_ops", roots.size(), "count");
  // The workload-specific end-to-end figures, from the untraced twin.
  ReportLatencies(&report, lat_b);

  // Spans out, one JSON object per line.
  std::string trace_path =
      args.out + "/spans-" + args.workload_name + "-" +
      std::to_string(args.seed) + ".jsonl";
  std::ofstream trace_file(trace_path);
  for (const SpanRec& s : spans) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"trace\": %llu, \"id\": %u, \"parent\": %u, "
                  "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}\n",
                  static_cast<unsigned long long>(s.trace_id), s.id, s.parent,
                  s.name.c_str(), s.start, s.end);
    trace_file << line;
  }
  trace_file.close();

  failed += verify_failed + mismatched;
  bool correct = failed == 0 && durability.empty() && same_inputs &&
                 same_counts && accounted;
  std::printf("workload %s seed %llu: %zu operations, %zu replayed with "
              "spans (%zu spans written to %s)\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), n, roots.size(),
              spans.size(), trace_path.c_str());
  std::printf("input_hash %016llx; same seed -> same inputs, next seed -> "
              "different: %s\n",
              static_cast<unsigned long long>(hash),
              same_inputs ? "yes" : "NO");
  std::printf("all three archives report identical counts: %s (statements %llu "
              "vs %llu, tokens %llu vs %llu, stats %llu vs %llu)\n",
              same_counts ? "yes" : "NO",
              static_cast<unsigned long long>(da.statements),
              static_cast<unsigned long long>(db.statements),
              static_cast<unsigned long long>(da.tokens),
              static_cast<unsigned long long>(db.tokens),
              static_cast<unsigned long long>(da.stats),
              static_cast<unsigned long long>(db.stats));
  std::printf("replayed responses match Archive facade (tokens masked): "
              "%s (%llu mismatches)\n",
              mismatched == 0 ? "yes" : "NO",
              static_cast<unsigned long long>(mismatched));
  std::printf("span self times + web.unattributed_us account for each "
              "sampled operation's wall time: %s (worst gap %.3g s, %zu "
              "misnested spans)\n",
              accounted ? "yes" : "NO", worst_gap, bad_nesting);
  if (!durability.empty()) std::printf("durability: %s\n", durability.c_str());
  std::printf("tracing overhead (traced vs untraced replay of the same "
              "operations): %.2f%%; untraced replay vs Archive facade: "
              "%.2f%%\n",
              100.0 * Ratio(traced_s - untraced_s, untraced_s),
              100.0 * Ratio(untraced_s - facade_s, facade_s));
  report.PrintHuman();
  std::vector<std::string> names;
  for (const auto& [name, unit] : PerLayerNames()) names.push_back(name);
  std::printf("%s\n", report.Json(correct, n, failed, names).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: archbench --workload browse|ingest|postprocess "
                 "--seed N --seconds S --trace 0|1 --out DIR\n");
    return 2;
  }
  return args.trace ? perfbench::TracedRun(args) : perfbench::TimedRun(args);
}

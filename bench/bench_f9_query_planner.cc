// F9 — query planner impact: search, FK-browse, and join-with-filter
// latency through the legacy executor (materialised nested loops, whole
// WHERE at the end) versus the planner (predicate pushdown, unique/FK
// index access, hash joins, LIMIT short-circuit) at 10k- and 100k-row
// catalogues. Emits a JSON block so future PRs can track the trajectory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "testing/naive_executor.h"

namespace {

using namespace easia;
using namespace easia::db;

/// AUTHOR -> SIMULATION -> DATASET catalogue with `datasets` DATASET rows
/// and one SIMULATION per 10 datasets.
std::unique_ptr<Database> MakeCatalogue(size_t datasets) {
  auto db = std::make_unique<Database>("BENCH");
  (void)db->Execute(
      "CREATE TABLE AUTHOR (AUTHOR_KEY VARCHAR(30) NOT NULL,"
      " NAME VARCHAR(80), PRIMARY KEY (AUTHOR_KEY))");
  (void)db->Execute(
      "CREATE TABLE SIMULATION (SIMULATION_KEY VARCHAR(30) NOT NULL,"
      " AUTHOR_KEY VARCHAR(30), RE DOUBLE,"
      " PRIMARY KEY (SIMULATION_KEY),"
      " FOREIGN KEY (AUTHOR_KEY) REFERENCES AUTHOR (AUTHOR_KEY))");
  (void)db->Execute(
      "CREATE TABLE DATASET (DATASET_KEY VARCHAR(30) NOT NULL,"
      " SIMULATION_KEY VARCHAR(30), STEP INTEGER, SIZE_MB DOUBLE,"
      " PRIMARY KEY (DATASET_KEY),"
      " FOREIGN KEY (SIMULATION_KEY) REFERENCES SIMULATION"
      " (SIMULATION_KEY))");
  for (int a = 0; a < 20; ++a) {
    (void)db->Execute("INSERT INTO AUTHOR VALUES ('A" + std::to_string(a) +
                      "', 'Author " + std::to_string(a) + "')");
  }
  size_t sims = datasets / 10 == 0 ? 1 : datasets / 10;
  (void)db->Execute("BEGIN");
  for (size_t s = 0; s < sims; ++s) {
    (void)db->Execute("INSERT INTO SIMULATION VALUES ('S" +
                      std::to_string(s) + "', 'A" + std::to_string(s % 20) +
                      "', " + std::to_string(100 * (s % 64)) + ")");
  }
  for (size_t d = 0; d < datasets; ++d) {
    (void)db->Execute("INSERT INTO DATASET VALUES ('D" + std::to_string(d) +
                      "', 'S" + std::to_string(d / 10) + "', " +
                      std::to_string(d % 16) + ", " +
                      std::to_string((d % 100) * 4.0) + ")");
  }
  (void)db->Execute("COMMIT");
  return db;
}

/// Milliseconds for the best of `iters` runs of `select_sql` through
/// ExecuteSelect (`planned`) or the naive reference executor. Negative
/// when skipped.
double TimeSelectMs(Database& db, const std::string& select_sql,
                    bool planned, int iters) {
  Result<Statement> stmt = ParseSql(select_sql);
  if (!stmt.ok() || stmt->kind != Statement::Kind::kSelect) return -1;
  TableLookup lookup = [&db](const std::string& name) {
    return db.GetTable(name);
  };
  double best = -1;
  for (int i = 0; i < iters; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    Result<QueryResult> r =
        planned ? ExecuteSelect(*stmt->select, lookup, nullptr)
                : easia::testing::ExecuteSelectNaive(*stmt->select, lookup);
    auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) return -1;
    benchmark::DoNotOptimize(r->rows.size());
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

struct QuerySpec {
  const char* name;
  std::string sql;
  bool naive_feasible_at_100k;
};

std::vector<QuerySpec> Queries(size_t datasets) {
  std::string mid_sim = "'S" + std::to_string(datasets / 20) + "'";
  std::string mid_ds = "'D" + std::to_string(datasets / 2) + "'";
  return {
      // QBE-style search: pushdown only (both paths scan once).
      {"search_filter",
       "SELECT * FROM DATASET WHERE STEP = 7 AND SIZE_MB > 100", true},
      // FK browse: the /browse page's exact shape; planner uses the new
      // secondary index, legacy path scans the whole table.
      {"fk_browse",
       "SELECT * FROM DATASET WHERE SIMULATION_KEY = " + mid_sim, true},
      // PK point lookup on a non-first FROM table.
      {"point_lookup_join",
       "SELECT * FROM SIMULATION S JOIN DATASET D"
       " ON S.SIMULATION_KEY = D.SIMULATION_KEY"
       " WHERE D.DATASET_KEY = " + mid_ds,
       false},
      // The headline: join with a selective filter. Legacy materialises
      // |SIMULATION| x |DATASET| rows before filtering.
      {"join_with_filter",
       "SELECT S.SIMULATION_KEY, D.DATASET_KEY FROM SIMULATION S, DATASET D"
       " WHERE S.SIMULATION_KEY = D.SIMULATION_KEY AND S.RE > 3000",
       false},
      // LIMIT short-circuit.
      {"limit_scan", "SELECT * FROM DATASET LIMIT 10", true},
  };
}

void PrintReproduction() {
  std::printf("\n=== F9: query planner (pushdown + hash joins) ===\n");
  std::printf("{\"bench\":\"f9_query_planner\",\"scales\":[");
  bool first_scale = true;
  for (size_t datasets : {size_t{10000}, size_t{100000}}) {
    auto db = MakeCatalogue(datasets);
    if (!first_scale) std::printf(",");
    first_scale = false;
    std::printf("\n {\"rows\":%zu,\"queries\":[", datasets);
    bool first_query = true;
    for (const QuerySpec& q : Queries(datasets)) {
      // The legacy executor's cross product is quadratic; at 100k rows a
      // naive join would materialise ~1e9 rows, so it is skipped there
      // (reported as null) rather than silently capped.
      bool run_naive = datasets <= 10000 || q.naive_feasible_at_100k;
      int iters = datasets <= 10000 ? 5 : 3;
      double planned = TimeSelectMs(*db, q.sql, true, iters);
      double naive = run_naive ? TimeSelectMs(*db, q.sql, false,
                                              datasets <= 10000 ? 3 : 2)
                               : -1;
      if (!first_query) std::printf(",");
      first_query = false;
      std::printf("\n  {\"query\":\"%s\",\"planned_ms\":%.3f", q.name,
                  planned);
      if (naive >= 0) {
        std::printf(",\"naive_ms\":%.3f,\"speedup\":%.1f", naive,
                    planned > 0 ? naive / planned : 0.0);
      } else {
        std::printf(",\"naive_ms\":null,\"speedup\":null");
      }
      std::printf("}");
    }
    std::printf("\n ]}");
  }
  std::printf("\n]}\n");
}

void BM_PlannedJoinWithFilter(benchmark::State& state) {
  auto db = MakeCatalogue(static_cast<size_t>(state.range(0)));
  std::string sql =
      "SELECT S.SIMULATION_KEY, D.DATASET_KEY FROM SIMULATION S, DATASET D"
      " WHERE S.SIMULATION_KEY = D.SIMULATION_KEY AND S.RE > 3000";
  Result<Statement> stmt = ParseSql(sql);
  TableLookup lookup = [&db](const std::string& name) {
    return db->GetTable(name);
  };
  for (auto _ : state) {
    auto r = ExecuteSelect(*stmt->select, lookup, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_PlannedJoinWithFilter)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_FkBrowse(benchmark::State& state) {
  auto db = MakeCatalogue(static_cast<size_t>(state.range(0)));
  std::string sql = "SELECT * FROM DATASET WHERE SIMULATION_KEY = 'S7'";
  Result<Statement> stmt = ParseSql(sql);
  TableLookup lookup = [&db](const std::string& name) {
    return db->GetTable(name);
  };
  for (auto _ : state) {
    auto r = ExecuteSelect(*stmt->select, lookup, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_FkBrowse)->Arg(10000)->Arg(100000)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

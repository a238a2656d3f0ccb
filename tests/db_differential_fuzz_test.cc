#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/repl/replica.h"
#include "db/repl/shipper.h"
#include "db/repl/wire.h"
#include "db/shard/coordinator.h"
#include "sim/network.h"
#include "testing/naive_executor.h"

namespace easia::db {
namespace {

int FuzzIters(int default_iters) {
  const char* env = std::getenv("EASIA_FUZZ_ITERS");
  if (env == nullptr) return default_iters;
  int parsed = std::atoi(env);
  return parsed > 0 ? parsed : default_iters;
}

constexpr size_t kFuzzShards = 4;

/// Full-mesh sim network for the sharded differential arm: coordinator
/// "web" plus shard hosts "s0".."s3".
sim::Network MakeShardNet() {
  sim::Network net;
  std::vector<std::string> hosts = {"web"};
  for (size_t i = 0; i < kFuzzShards; ++i) {
    hosts.push_back("s" + std::to_string(i));
  }
  for (const std::string& h : hosts) net.AddHost({h, 50.0, 4});
  for (const std::string& a : hosts) {
    for (const std::string& b : hosts) {
      if (a != b) {
        net.AddLink(a, b, sim::BandwidthSchedule::Constant(100.0), 0.001);
      }
    }
  }
  return net;
}

shard::ShardOptions MakeShardOptions() {
  shard::ShardOptions options;
  options.coordinator_host = "web";
  for (size_t i = 0; i < kFuzzShards; ++i) {
    options.shard_hosts.push_back("s" + std::to_string(i));
  }
  return options;
}

/// Differential fuzzing: seeded random SELECTs executed through both the
/// query planner and the naive reference executor
/// (testing::ExecuteSelectNaive) must produce identical results. The
/// planner (predicate pushdown, index access, hash joins, columnar
/// filter/aggregate kernels, radix prefix scans, LIMIT short-circuit) is
/// the optimised path; the naive executor is the obviously-correct
/// oracle. Every query additionally runs against a columnar twin
/// database (same DDL `STORE COLUMNAR`, same inserts), against a
/// replica fed purely by WAL-shipped commit entries (never by direct
/// DML), and against a 4-shard hash-partitioned coordinator (same DDL
/// plus `PARTITION BY HASH(<pk>) PARTITIONS 4`, scatter/gather
/// planning over sim links), so each check is six-way: {planned,
/// legacy} x {row store, columnar} plus {replica replay} plus
/// {sharded scatter/gather}.
class DifferentialFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("FUZZ");
    columnar_db_ = std::make_unique<Database>("CFUZZ");
    replica_ = std::make_unique<repl::ReplicaNode>("r1");
    db_->set_commit_listener(
        [this](uint64_t epoch, const std::vector<WalRecord>& records) {
          log_.Append(epoch, records);
        });
    ExecBoth(
        "CREATE TABLE AUTHOR ("
        " AUTHOR_KEY INTEGER NOT NULL,"
        " NAME VARCHAR(40),"
        " AGE INTEGER,"
        " PRIMARY KEY (AUTHOR_KEY))");
    ExecBoth(
        "CREATE TABLE SIMULATION ("
        " SIMULATION_KEY INTEGER NOT NULL,"
        " AUTHOR_KEY INTEGER,"
        " RE DOUBLE,"
        " TITLE VARCHAR(60),"
        " PRIMARY KEY (SIMULATION_KEY),"
        " FOREIGN KEY (AUTHOR_KEY) REFERENCES AUTHOR (AUTHOR_KEY))");
    Random rng(0xDA7A);
    for (int i = 1; i <= 25; ++i) {
      std::string age = rng.OneIn(5) ? "NULL" : std::to_string(rng.Uniform(60));
      ExecBoth("INSERT INTO AUTHOR VALUES (" + std::to_string(i) + ", 'name" +
               std::to_string(rng.Uniform(10)) + "', " + age + ")");
    }
    for (int i = 1; i <= 80; ++i) {
      std::string author =
          rng.OneIn(6) ? "NULL" : std::to_string(1 + rng.Uniform(25));
      ExecBoth("INSERT INTO SIMULATION VALUES (" + std::to_string(i) + ", " +
               author + ", " + std::to_string(rng.Uniform(5000)) + ", 'title" +
               std::to_string(rng.Uniform(12)) + "')");
    }
  }

  /// Runs DDL/DML against the row-store database, its columnar twin
  /// (CREATE TABLE gains the STORE COLUMNAR clause) and the 4-shard
  /// coordinator (CREATE TABLE gains a PARTITION BY HASH clause on the
  /// table's primary key, so every row is hash-routed to one shard).
  void ExecBoth(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::string csql = sql;
    if (sql.rfind("CREATE TABLE", 0) == 0) csql += " STORE COLUMNAR";
    Result<QueryResult> cr = columnar_db_->Execute(csql);
    ASSERT_TRUE(cr.ok()) << csql << " -> " << cr.status().ToString();
    std::string ssql = sql;
    if (sql.rfind("CREATE TABLE", 0) == 0) {
      size_t pk = sql.find("PRIMARY KEY (");
      ASSERT_NE(pk, std::string::npos) << sql;
      pk += std::string("PRIMARY KEY (").size();
      size_t end = sql.find(')', pk);
      ASSERT_NE(end, std::string::npos) << sql;
      ssql += " PARTITION BY HASH(" + sql.substr(pk, end - pk) +
              ") PARTITIONS " + std::to_string(kFuzzShards);
    }
    Result<QueryResult> sr = shard_.Execute(ssql);
    ASSERT_TRUE(sr.ok()) << ssql << " -> " << sr.status().ToString();
  }

  /// Rows rendered to comparable strings.
  static std::vector<std::string> Render(const QueryResult& result) {
    std::vector<std::string> out;
    out.reserve(result.rows.size());
    for (const Row& row : result.rows) {
      std::string line;
      for (const Value& v : row) {
        line += v.ToDisplayString();
        line += "|";
      }
      out.push_back(std::move(line));
    }
    return out;
  }

  /// Runs one generated query through planned and legacy executors on the
  /// row-store database AND the columnar twin; all four runs must agree.
  /// `ordered` asserts sequence equality (the query carries a total
  /// ORDER BY); otherwise the row multisets must match.
  void CheckEquivalent(const std::string& sql, bool ordered) {
    SCOPED_TRACE(sql);
    Result<Statement> stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
    // Catch the replica up to the primary's shipping log (no network —
    // the wire encode/decode path is still exercised), then include it
    // as a fifth differential arm: replayed state must answer queries
    // exactly like the state built by direct execution.
    std::vector<repl::CommitEntry> pending =
        log_.EntriesAfter(replica_->last_applied_lsn(), log_.size() + 1);
    if (!pending.empty()) {
      Result<repl::ReplicaNode::ApplyOutcome> applied =
          replica_->ApplyShipment(repl::EncodeShipment(pending));
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      ASSERT_EQ(applied->applied, pending.size());
    }
    struct Run {
      const char* label;
      Result<QueryResult> result;
    };
    std::vector<Run> runs;
    for (Database* database : {db_.get(), columnar_db_.get()}) {
      TableLookup lookup = [database](const std::string& name) {
        return database->GetTable(name);
      };
      bool row_store = database == db_.get();
      runs.push_back({row_store ? "row/planned" : "columnar/planned",
                      ExecuteSelect(*stmt->select, lookup, nullptr)});
      runs.push_back({row_store ? "row/naive" : "columnar/naive",
                      easia::testing::ExecuteSelectNaive(*stmt->select, lookup)});
    }
    {
      Database* database = &replica_->database();
      TableLookup lookup = [database](const std::string& name) {
        return database->GetTable(name);
      };
      runs.push_back({"replica/planned",
                      ExecuteSelect(*stmt->select, lookup, nullptr)});
    }
    // Sixth arm: the shard coordinator plans the same SELECT across four
    // hash partitions (pruning + scatter partial aggregation or
    // coordinator-side gather) and must still agree with the naive
    // single-node oracle.
    runs.push_back({"sharded/planned", shard_.Execute(sql)});
    const Run& oracle = runs[1];  // row-store naive path
    for (const Run& run : runs) {
      ASSERT_EQ(run.result.ok(), oracle.result.ok())
          << run.label << ": " << run.result.status().ToString()
          << "\noracle:  " << oracle.result.status().ToString();
    }
    if (!oracle.result.ok()) return;
    std::vector<std::string> want = Render(*oracle.result);
    if (!ordered) std::sort(want.begin(), want.end());
    for (const Run& run : runs) {
      EXPECT_EQ(run.result->column_names, oracle.result->column_names)
          << run.label;
      std::vector<std::string> got = Render(*run.result);
      if (!ordered) std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << run.label;
    }
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Database> columnar_db_;
  repl::ReplicationLog log_;
  std::unique_ptr<repl::ReplicaNode> replica_;
  sim::Network shard_net_ = MakeShardNet();
  shard::ShardCoordinator shard_{&shard_net_, MakeShardOptions()};
};

/// One random predicate over the available columns.
std::string RandomPredicate(Random& rng, const std::vector<std::string>& cols) {
  const std::string& col = cols[rng.Uniform(cols.size())];
  static const char* kOps[] = {"=", "<>", "<", ">", "<=", ">="};
  switch (rng.Uniform(8)) {
    case 0:
      return col + " IS NULL";
    case 1:
      return col + " IS NOT NULL";
    default:
      return col + " " + kOps[rng.Uniform(6)] + " " +
             std::to_string(rng.Uniform(5000));
  }
}

/// A random LIKE predicate over SIMULATION.TITLE (values title0..title11).
/// Mostly prefix patterns (planner-pushable to the radix index on the
/// columnar twin), with occasional leading-wildcard, mid-pattern-%,
/// single-char-_ and escaped-wildcard shapes that must NOT take (or must
/// survive) the prefix fast path.
std::string RandomLikePredicate(Random& rng) {
  std::string digit = std::to_string(rng.Uniform(12));
  switch (rng.Uniform(8)) {
    case 0:
      return "TITLE LIKE 'title%'";  // matches everything
    case 1:
      return "TITLE LIKE '%" + digit + "'";  // leading wildcard
    case 2:
      return "TITLE LIKE 'title_'";  // single-char wildcard, no prefix tail
    case 3:
      return "TITLE LIKE 't%" + digit + "'";  // short prefix + wildcard tail
    case 4:
      return "TITLE LIKE 'title\\%'";  // escaped %: literal, matches nothing
    case 5:
      return "TITLE NOT LIKE 'title" + digit + "%'";
    case 6:
      return "TITLE LIKE 'xyz%'";  // empty result prefix
    default:
      return "TITLE LIKE 'title" + digit + "%'";
  }
}

std::string RandomWhere(Random& rng, const std::vector<std::string>& cols,
                        const std::string& prefix = " WHERE ") {
  size_t predicates = rng.Uniform(3);
  if (predicates == 0) return "";
  std::string where = prefix;
  for (size_t i = 0; i < predicates; ++i) {
    if (i > 0) where += rng.OneIn(3) ? " OR " : " AND ";
    where += RandomPredicate(rng, cols);
  }
  return where;
}

TEST_F(DifferentialFuzzTest, SingleTableSelects) {
  const int iters = FuzzIters(400);
  Random rng(0x51E7);
  const std::vector<std::string> cols = {"SIMULATION_KEY", "AUTHOR_KEY", "RE"};
  for (int i = 0; i < iters; ++i) {
    std::string sql = "SELECT ";
    if (rng.OneIn(8)) sql += "DISTINCT ";
    switch (rng.Uniform(3)) {
      case 0:
        sql += "*";
        break;
      case 1:
        sql += cols[rng.Uniform(cols.size())];
        break;
      default:
        sql += "SIMULATION_KEY, TITLE, RE";
    }
    sql += " FROM SIMULATION";
    sql += RandomWhere(rng, cols);
    bool ordered = rng.OneIn(2);
    if (ordered) {
      sql += " ORDER BY " + cols[rng.Uniform(cols.size())];
      if (rng.OneIn(2)) sql += " DESC";
      // Unique tiebreaker keeps the total order engine-independent.
      sql += ", SIMULATION_KEY";
      if (rng.OneIn(3)) {
        sql += " LIMIT " + std::to_string(1 + rng.Uniform(10));
        if (rng.OneIn(2)) sql += " OFFSET " + std::to_string(rng.Uniform(5));
      }
    }
    CheckEquivalent(sql, ordered);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST_F(DifferentialFuzzTest, JoinSelects) {
  const int iters = FuzzIters(400);
  Random rng(0x70AD);
  const std::vector<std::string> cols = {"S.SIMULATION_KEY", "S.RE", "A.AGE",
                                         "A.AUTHOR_KEY"};
  for (int i = 0; i < iters; ++i) {
    std::string sql = "SELECT ";
    switch (rng.Uniform(3)) {
      case 0:
        sql += "*";
        break;
      case 1:
        sql += "A.NAME, S.TITLE";
        break;
      default:
        sql += "S.SIMULATION_KEY, A.AUTHOR_KEY, S.RE";
    }
    if (rng.OneIn(2)) {
      sql += " FROM SIMULATION S JOIN AUTHOR A"
             " ON S.AUTHOR_KEY = A.AUTHOR_KEY";
      sql += RandomWhere(rng, cols);
    } else {
      sql += " FROM SIMULATION S, AUTHOR A";
      sql += " WHERE S.AUTHOR_KEY = A.AUTHOR_KEY";
      sql += RandomWhere(rng, cols, " AND ");
    }
    bool ordered = rng.OneIn(2);
    if (ordered) {
      sql += " ORDER BY " + cols[rng.Uniform(cols.size())];
      if (rng.OneIn(2)) sql += " DESC";
      sql += ", S.SIMULATION_KEY";
      if (rng.OneIn(3)) sql += " LIMIT " + std::to_string(1 + rng.Uniform(12));
    }
    CheckEquivalent(sql, ordered);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST_F(DifferentialFuzzTest, AggregateSelects) {
  const int iters = FuzzIters(200);
  Random rng(0xA66E);
  static const char* kAggs[] = {"COUNT(*)", "SUM(RE)", "MIN(RE)", "MAX(RE)",
                                "AVG(RE)", "COUNT(AUTHOR_KEY)"};
  const std::vector<std::string> cols = {"SIMULATION_KEY", "AUTHOR_KEY", "RE"};
  for (int i = 0; i < iters; ++i) {
    std::string sql = "SELECT ";
    bool grouped = rng.OneIn(2);
    if (grouped) sql += "AUTHOR_KEY, ";
    sql += kAggs[rng.Uniform(6)];
    if (rng.OneIn(2)) {
      sql += ", ";
      sql += kAggs[rng.Uniform(6)];
    }
    sql += " FROM SIMULATION";
    // A LIKE conjunct forces the aggregate onto mixed filter shapes: a
    // prefix pattern keeps the columnar fast path via the radix index, a
    // non-pushable one falls back to the row path.
    if (rng.OneIn(3)) {
      sql += " WHERE " + RandomLikePredicate(rng);
      sql += RandomWhere(rng, cols, " AND ");
    } else {
      sql += RandomWhere(rng, cols);
    }
    if (grouped) {
      sql += " GROUP BY AUTHOR_KEY";
      if (rng.OneIn(3)) sql += " HAVING COUNT(*) > 1";
    }
    CheckEquivalent(sql, /*ordered=*/false);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST_F(DifferentialFuzzTest, NearInt64MaxAggregates) {
  // SUM/AVG accumulation near the INT64 boundary: the row executor, the
  // planner fast path and the columnar aggregation kernel must widen (or
  // saturate) identically, so a sum that would wrap in 64 bits renders
  // the same on all four paths. Seeded values cluster at +/-INT64_MAX so
  // two-element partial sums already overflow.
  ExecBoth(
      "CREATE TABLE EXTREME ("
      " ID INTEGER NOT NULL,"
      " G INTEGER,"
      " V INTEGER,"
      " PRIMARY KEY (ID))");
  Random rng(0xB16);
  static const char* kValues[] = {
      "9223372036854775807",   // INT64_MAX
      "9223372036854775806",   // INT64_MAX - 1
      "-9223372036854775807",  // INT64_MIN + 1
      "-9223372036854775806",
      "4611686018427387904",   // 2^62
      "-4611686018427387904",
      "1",
      "-1",
      "0",
      "NULL"};
  for (int i = 1; i <= 40; ++i) {
    ExecBoth("INSERT INTO EXTREME VALUES (" + std::to_string(i) + ", " +
             std::to_string(rng.Uniform(4)) + ", " +
             kValues[rng.Uniform(10)] + ")");
  }
  static const char* kAggs[] = {"SUM(V)", "AVG(V)", "MIN(V)", "MAX(V)",
                                "COUNT(V)"};
  const int iters = FuzzIters(200);
  for (int i = 0; i < iters; ++i) {
    std::string sql = "SELECT ";
    bool grouped = rng.OneIn(2);
    if (grouped) sql += "G, ";
    sql += kAggs[rng.Uniform(5)];
    if (rng.OneIn(2)) {
      sql += ", ";
      sql += kAggs[rng.Uniform(5)];
    }
    sql += " FROM EXTREME";
    switch (rng.Uniform(4)) {
      case 0:
        sql += " WHERE V > 0";
        break;
      case 1:
        sql += " WHERE V < 0";
        break;
      case 2:
        sql += " WHERE V IS NOT NULL";
        break;
      default:
        break;  // unfiltered: the full +/-INT64_MAX mix
    }
    if (grouped) sql += " GROUP BY G";
    CheckEquivalent(sql, /*ordered=*/false);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST_F(DifferentialFuzzTest, PrefixLikeSelects) {
  const int iters = FuzzIters(300);
  Random rng(0x11CE);
  const std::vector<std::string> cols = {"SIMULATION_KEY", "AUTHOR_KEY", "RE"};
  for (int i = 0; i < iters; ++i) {
    std::string sql = "SELECT ";
    switch (rng.Uniform(3)) {
      case 0:
        sql += "*";
        break;
      case 1:
        sql += "TITLE";
        break;
      default:
        sql += "SIMULATION_KEY, TITLE";
    }
    sql += " FROM SIMULATION WHERE " + RandomLikePredicate(rng);
    if (rng.OneIn(3)) sql += " AND " + RandomPredicate(rng, cols);
    if (rng.OneIn(4)) sql += " OR " + RandomLikePredicate(rng);
    bool ordered = rng.OneIn(2);
    if (ordered) {
      sql += " ORDER BY TITLE, SIMULATION_KEY";
      if (rng.OneIn(3)) sql += " LIMIT " + std::to_string(1 + rng.Uniform(10));
    }
    CheckEquivalent(sql, ordered);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

}  // namespace
}  // namespace easia::db

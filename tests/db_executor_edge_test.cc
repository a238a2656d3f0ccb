// Edge cases of the SQL executor: multi-column grouping, star expansion,
// coercions, NULL corner cases, self-referential FKs, the SQL/MED
// rewrite hook observed through a fake coordinator, ORDER BY positions in
// aggregate queries, hand-computed AggState goldens, and the scan filter
// (WHERE on stored rows) across row, columnar, sharded and naive paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "db/aggregate.h"
#include "db/database.h"
#include "db/parser.h"
#include "db/shard/coordinator.h"
#include "sim/network.h"
#include "testing/naive_executor.h"

namespace easia::db {
namespace {

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("EDGE");
    Must("CREATE TABLE T ("
         " K VARCHAR(10) NOT NULL,"
         " GRP VARCHAR(10),"
         " SUB VARCHAR(10),"
         " N INTEGER,"
         " D DOUBLE,"
         " PRIMARY KEY (K))");
    Must("INSERT INTO T VALUES ('a', 'x', 'p', 1, 1.5)");
    Must("INSERT INTO T VALUES ('b', 'x', 'p', 2, 2.5)");
    Must("INSERT INTO T VALUES ('c', 'x', 'q', 3, NULL)");
    Must("INSERT INTO T VALUES ('d', 'y', 'p', 4, 4.5)");
    Must("INSERT INTO T VALUES ('e', 'y', NULL, NULL, 5.5)");
  }

  void Must(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  QueryResult Q(const std::string& sql) {
    Result<QueryResult> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExecutorEdgeTest, MultiColumnGroupBy) {
  QueryResult r = Q(
      "SELECT GRP, SUB, COUNT(*), SUM(N) FROM T GROUP BY GRP, SUB "
      "ORDER BY GRP, SUB");
  // Groups: (x,p) (x,q) (y,NULL) (y,p) — NULL sorts first within y.
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsString(), "x");
  EXPECT_EQ(r.rows[0][1].AsString(), "p");
  EXPECT_EQ(r.rows[0][2].AsInt(), 2);
  EXPECT_EQ(r.rows[0][3].AsInt(), 3);
  EXPECT_TRUE(r.rows[2][1].is_null() || r.rows[3][1].is_null());
}

TEST_F(ExecutorEdgeTest, GroupByNullKeysFormOneGroup) {
  // All-NULL keys coalesce into a single group on both executor paths,
  // and that group aggregates like any other (COUNT(*) counts its rows,
  // COUNT(col)/SUM skip NULL inputs independently of the NULL key).
  Must("INSERT INTO T VALUES ('f', 'y', NULL, 7, NULL)");
  QueryResult r = Q("SELECT SUB, COUNT(*), SUM(N) FROM T GROUP BY SUB");
  ASSERT_EQ(r.rows.size(), 3u);  // p, q, NULL — never one group per NULL
  bool saw_null_group = false;
  for (const Row& row : r.rows) {
    if (row[0].is_null()) {
      saw_null_group = true;
      EXPECT_EQ(row[1].AsInt(), 2);  // rows e and f
      EXPECT_EQ(row[2].AsInt(), 7);  // e's N is NULL, f contributes 7
    }
  }
  EXPECT_TRUE(saw_null_group);
}

TEST_F(ExecutorEdgeTest, LimitBoundsOutputGroupsNotInputRows) {
  // LIMIT on an aggregate applies to the grouped output; the underlying
  // scan must not short-circuit, or group counts would come up short.
  QueryResult r = Q("SELECT GRP, COUNT(*) FROM T GROUP BY GRP LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  std::string grp = r.rows[0][0].AsString();
  QueryResult full =
      Q("SELECT COUNT(*) FROM T WHERE GRP = '" + grp + "'");
  EXPECT_EQ(r.rows[0][1].AsInt(), full.rows[0][0].AsInt());

  EXPECT_EQ(Q("SELECT GRP, COUNT(*) FROM T GROUP BY GRP LIMIT 0")
                .rows.size(),
            0u);
  // Ungrouped aggregates yield one row; LIMIT 1 keeps it intact.
  r = Q("SELECT SUM(N) FROM T LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  // OFFSET past the single aggregate row leaves nothing.
  EXPECT_EQ(Q("SELECT SUM(N) FROM T LIMIT 1 OFFSET 1").rows.size(), 0u);
  // HAVING filters groups before LIMIT counts them.
  r = Q("SELECT GRP, COUNT(*) FROM T GROUP BY GRP"
        " HAVING COUNT(*) > 2 LIMIT 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "x");
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
}

TEST_F(ExecutorEdgeTest, HavingWithoutGroupBy) {
  QueryResult r = Q("SELECT COUNT(*) FROM T HAVING COUNT(*) > 10");
  EXPECT_EQ(r.rows.size(), 0u);
  r = Q("SELECT COUNT(*) FROM T HAVING COUNT(*) > 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

TEST_F(ExecutorEdgeTest, AggregateArithmetic) {
  QueryResult r = Q("SELECT MAX(N) - MIN(N) FROM T");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(ExecutorEdgeTest, StarInAggregateContext) {
  QueryResult r = Q("SELECT GRP, COUNT(*) FROM T GROUP BY GRP ORDER BY GRP");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "x");
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
}

TEST_F(ExecutorEdgeTest, QualifiedStarExpansion) {
  Must("CREATE TABLE U (K VARCHAR(10), M INTEGER)");
  Must("INSERT INTO U VALUES ('a', 10)");
  QueryResult r = Q("SELECT T.K, U.* FROM T JOIN U ON T.K = U.K");
  EXPECT_EQ(r.column_names,
            (std::vector<std::string>{"K", "K", "M"}));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][2].AsInt(), 10);
}

TEST_F(ExecutorEdgeTest, LimitZeroAndOffsetBeyond) {
  EXPECT_EQ(Q("SELECT * FROM T LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(Q("SELECT * FROM T LIMIT 10 OFFSET 99").rows.size(), 0u);
  EXPECT_EQ(Q("SELECT * FROM T LIMIT 2 OFFSET 4").rows.size(), 1u);
}

TEST_F(ExecutorEdgeTest, DistinctWithNulls) {
  QueryResult r = Q("SELECT DISTINCT SUB FROM T");
  EXPECT_EQ(r.rows.size(), 3u);  // p, q, NULL
}

TEST_F(ExecutorEdgeTest, InListWithNullNeedle) {
  // NULL IN (...) is unknown -> filtered out; NOT IN likewise.
  EXPECT_EQ(Q("SELECT * FROM T WHERE SUB IN ('p', 'q')").rows.size(), 4u);
  EXPECT_EQ(Q("SELECT * FROM T WHERE SUB NOT IN ('p')").rows.size(), 1u);
}

TEST_F(ExecutorEdgeTest, CoalesceAndNullArithmetic) {
  QueryResult r = Q("SELECT COALESCE(N, 0) + 1 FROM T WHERE K = 'e'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  // NULL propagates through arithmetic; WHERE drops unknowns.
  EXPECT_EQ(Q("SELECT * FROM T WHERE N + 1 > 0").rows.size(), 4u);
}

TEST_F(ExecutorEdgeTest, NotOperator) {
  EXPECT_EQ(Q("SELECT * FROM T WHERE NOT GRP = 'x'").rows.size(), 2u);
  EXPECT_EQ(Q("SELECT * FROM T WHERE NOT (N > 1 AND N < 4)").rows.size(),
            2u);  // a and d; NULL N row is unknown
}

TEST_F(ExecutorEdgeTest, InsertCoercions) {
  // Integer literal into DOUBLE column, string into INTEGER column.
  Must("INSERT INTO T VALUES ('f', 'z', 'r', '7', 3)");
  QueryResult r = Q("SELECT N, D FROM T WHERE K = 'f'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 7);
  EXPECT_EQ(r.rows[0][1].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 3.0);
  // Lossy coercion rejected.
  EXPECT_FALSE(db_->Execute(
      "INSERT INTO T VALUES ('g', 'z', 'r', 2.5, 1)").ok());
}

TEST_F(ExecutorEdgeTest, SelfReferentialForeignKey) {
  Must("CREATE TABLE TREE ("
       " ID VARCHAR(10) NOT NULL,"
       " PARENT VARCHAR(10),"
       " PRIMARY KEY (ID),"
       " FOREIGN KEY (PARENT) REFERENCES TREE (ID))");
  Must("INSERT INTO TREE VALUES ('root', NULL)");
  Must("INSERT INTO TREE VALUES ('leaf', 'root')");
  EXPECT_FALSE(db_->Execute(
      "INSERT INTO TREE VALUES ('orphan', 'ghost')").ok());
  EXPECT_FALSE(db_->Execute(
      "DELETE FROM TREE WHERE ID = 'root'").ok());
  Must("DELETE FROM TREE WHERE ID = 'leaf'");
  Must("DELETE FROM TREE WHERE ID = 'root'");
}

TEST_F(ExecutorEdgeTest, UniqueConstraintWithNulls) {
  Must("CREATE TABLE UQ (A VARCHAR(5), B INTEGER, UNIQUE (B))");
  Must("INSERT INTO UQ VALUES ('x', 1)");
  EXPECT_FALSE(db_->Execute("INSERT INTO UQ VALUES ('y', 1)").ok());
  // NULLs escape UNIQUE (SQL semantics).
  Must("INSERT INTO UQ VALUES ('y', NULL)");
  Must("INSERT INTO UQ VALUES ('z', NULL)");
}

TEST_F(ExecutorEdgeTest, OrderByMixedDirections) {
  QueryResult r = Q("SELECT K FROM T ORDER BY GRP ASC, N DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsString(), "c");  // x group, N=3 first
  EXPECT_EQ(r.rows[2][0].AsString(), "a");
}

// --- SQL/MED rewrite hook observed through a fake coordinator ---

class FakeCoordinator : public DatalinkCoordinator {
 public:
  Status PrepareLink(uint64_t, const DatalinkOptions&,
                     const std::string&) override {
    ++links;
    return Status::OK();
  }
  Status PrepareUnlink(uint64_t, const DatalinkOptions&,
                       const std::string&) override {
    ++unlinks;
    return Status::OK();
  }
  void CommitTxn(uint64_t) override { ++commits; }
  void AbortTxn(uint64_t) override { ++aborts; }
  Result<std::string> ResolveForRead(const DatalinkOptions&,
                                     const std::string& url,
                                     const std::string& user) override {
    ++resolves;
    last_user = user;
    return url + "#token";
  }

  int links = 0, unlinks = 0, commits = 0, aborts = 0, resolves = 0;
  std::string last_user;
};

TEST(FakeCoordinatorTest, RewriteAppliesOnlyToDatalinkColumns) {
  Database db("FAKE");
  FakeCoordinator coordinator;
  db.set_coordinator(&coordinator);
  ASSERT_TRUE(db.Execute(
      "CREATE TABLE F (K VARCHAR(5) PRIMARY KEY,"
      " D DATALINK LINKTYPE URL FILE LINK CONTROL READ PERMISSION DB,"
      " V VARCHAR(50))").ok());
  ASSERT_TRUE(db.Execute(
      "INSERT INTO F VALUES ('a', 'http://h/f1', 'http://h/not-a-link')")
                  .ok());
  EXPECT_EQ(coordinator.links, 1);
  EXPECT_EQ(coordinator.commits, 1);
  ExecContext ctx;
  ctx.user = "someone";
  Result<QueryResult> r = db.Execute("SELECT D, V FROM F", ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsString(), "http://h/f1#token");
  EXPECT_EQ(r->rows[0][1].AsString(), "http://h/not-a-link");  // untouched
  EXPECT_EQ(coordinator.resolves, 1);
  EXPECT_EQ(coordinator.last_user, "someone");
  // resolve_datalinks=false bypasses the hook.
  ctx.resolve_datalinks = false;
  r = db.Execute("SELECT D FROM F", ctx);
  EXPECT_EQ(r->rows[0][0].AsString(), "http://h/f1");
  EXPECT_EQ(coordinator.resolves, 1);
}

TEST(FakeCoordinatorTest, RewriteSurvivesJoinAndAlias) {
  Database db("FAKE");
  FakeCoordinator coordinator;
  db.set_coordinator(&coordinator);
  ASSERT_TRUE(db.Execute(
      "CREATE TABLE A (K VARCHAR(5) PRIMARY KEY)").ok());
  ASSERT_TRUE(db.Execute(
      "CREATE TABLE B (K VARCHAR(5) PRIMARY KEY,"
      " D DATALINK LINKTYPE URL FILE LINK CONTROL READ PERMISSION DB)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO A VALUES ('a')").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO B VALUES ('a', 'http://h/f')").ok());
  Result<QueryResult> r = db.Execute(
      "SELECT b.D AS link FROM A a JOIN B b ON a.K = b.K");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsString(), "http://h/f#token");
}

TEST(FakeCoordinatorTest, AbortNotifiesCoordinator) {
  Database db("FAKE");
  FakeCoordinator coordinator;
  db.set_coordinator(&coordinator);
  ASSERT_TRUE(db.Execute(
      "CREATE TABLE F (K VARCHAR(5) PRIMARY KEY,"
      " D DATALINK LINKTYPE URL FILE LINK CONTROL)").ok());
  ASSERT_TRUE(db.Execute("BEGIN").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO F VALUES ('a', 'http://h/f')").ok());
  ASSERT_TRUE(db.Execute("ROLLBACK").ok());
  EXPECT_EQ(coordinator.aborts, 1);
  EXPECT_EQ(coordinator.commits, 0);
}

TEST(FakeCoordinatorTest, UpdateKeepingSameUrlSkipsRelink) {
  Database db("FAKE");
  FakeCoordinator coordinator;
  db.set_coordinator(&coordinator);
  ASSERT_TRUE(db.Execute(
      "CREATE TABLE F (K VARCHAR(5) PRIMARY KEY, N INTEGER,"
      " D DATALINK LINKTYPE URL FILE LINK CONTROL)").ok());
  ASSERT_TRUE(db.Execute(
      "INSERT INTO F VALUES ('a', 1, 'http://h/f')").ok());
  EXPECT_EQ(coordinator.links, 1);
  // Updating an unrelated column must not touch the file manager.
  ASSERT_TRUE(db.Execute("UPDATE F SET N = 2").ok());
  EXPECT_EQ(coordinator.links, 1);
  EXPECT_EQ(coordinator.unlinks, 0);
}

}  // namespace
}  // namespace easia::db

namespace easia::db {
namespace {

class PointLookupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("PL");
    ASSERT_TRUE(db_->Execute(
        "CREATE TABLE P (A VARCHAR(10) NOT NULL, B INTEGER NOT NULL,"
        " V VARCHAR(20), PRIMARY KEY (A, B))").ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_->Execute(
          "INSERT INTO P VALUES ('k" + std::to_string(i % 10) + "', " +
          std::to_string(i) + ", 'v" + std::to_string(i) + "')").ok());
    }
  }
  std::unique_ptr<Database> db_;
};

TEST_F(PointLookupTest, FullPkEqualityFindsRow) {
  auto r = db_->Execute("SELECT V FROM P WHERE A = 'k3' AND B = 13");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "v13");
}

TEST_F(PointLookupTest, FullPkEqualityMissReturnsEmpty) {
  auto r = db_->Execute("SELECT V FROM P WHERE A = 'k3' AND B = 999");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
}

TEST_F(PointLookupTest, ExtraConjunctsStillApplied) {
  auto r = db_->Execute(
      "SELECT V FROM P WHERE A = 'k3' AND B = 13 AND V = 'nope'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
  r = db_->Execute(
      "SELECT V FROM P WHERE A = 'k3' AND B = 13 AND V LIKE 'v%'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(PointLookupTest, PartialPkFallsBackToScan) {
  auto r = db_->Execute("SELECT V FROM P WHERE A = 'k3'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);  // 5 rows share each A value
}

TEST_F(PointLookupTest, OrDisablesFastPathSemantics) {
  auto r = db_->Execute(
      "SELECT V FROM P WHERE (A = 'k3' AND B = 13) OR (A = 'k4' AND B = 14)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(PointLookupTest, CoercedLiteralMatchesIndex) {
  // String literal for the INTEGER pk component.
  auto r = db_->Execute("SELECT V FROM P WHERE A = 'k3' AND B = '13'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  // Uncoercible literal: no row, no error.
  r = db_->Execute("SELECT V FROM P WHERE A = 'k3' AND B = 'xx'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 0u);
}

TEST_F(PointLookupTest, AggregatesSeeLookupResult) {
  auto r = db_->Execute(
      "SELECT COUNT(*) FROM P WHERE A = 'k3' AND B = 13");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(PointLookupTest, ReversedOperandOrderWorks) {
  auto r = db_->Execute("SELECT V FROM P WHERE 'k3' = A AND 13 = B");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

}  // namespace
}  // namespace easia::db

namespace easia::db {
namespace {

// ---------------------------------------------------------------------------
// ORDER BY <output position> in aggregate queries
// ---------------------------------------------------------------------------

/// Rows of a result as "v1 v2|v1 v2|...".
std::string Rows(const Result<QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  std::string out;
  for (const Row& row : r->rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += (c > 0 ? " " : "") + row[c].ToDisplayString();
    }
    out += "|";
  }
  return out;
}

/// Groups first seen in the order b, a, c, with SUM(X) = 12, 1, 2.
const char* const kPositionRows[] = {"(1, 'b', 5)", "(2, 'a', 1)",
                                     "(3, 'c', 2)", "(4, 'b', 7)"};

TEST(AggregateOrderByPositionTest, RowAndColumnarTables) {
  for (const char* storage : {"", " STORE COLUMNAR"}) {
    SCOPED_TRACE(storage);
    Database db("POS");
    ASSERT_TRUE(db.Execute(std::string("CREATE TABLE A (ID INTEGER PRIMARY "
                                       "KEY, G VARCHAR(4), X INTEGER)") +
                           storage)
                    .ok());
    for (const char* values : kPositionRows) {
      ASSERT_TRUE(
          db.Execute(std::string("INSERT INTO A VALUES ") + values).ok());
    }
    EXPECT_EQ(Rows(db.Execute("SELECT G, SUM(X) FROM A GROUP BY G ORDER BY 2")),
              "a 1|c 2|b 12|");
    EXPECT_EQ(Rows(db.Execute(
                  "SELECT G, SUM(X) FROM A GROUP BY G ORDER BY 2 DESC")),
              "b 12|c 2|a 1|");
    EXPECT_EQ(Rows(db.Execute(
                  "SELECT G, SUM(X) FROM A GROUP BY G ORDER BY 1 DESC")),
              "c 2|b 12|a 1|");
    // The non-aggregate path already honoured positions; it still does.
    EXPECT_EQ(Rows(db.Execute("SELECT G, X FROM A ORDER BY 2")),
              "a 1|c 2|b 5|b 7|");
  }
}

TEST(AggregateOrderByPositionTest, ShardedScatter) {
  sim::Network net;
  shard::ShardOptions options;
  options.coordinator_host = "web";
  std::vector<std::string> hosts = {"web", "s0", "s1", "s2", "s3"};
  for (const std::string& h : hosts) net.AddHost({h, 50.0, 4});
  for (const std::string& a : hosts) {
    for (const std::string& b : hosts) {
      if (a != b) {
        net.AddLink(a, b, sim::BandwidthSchedule::Constant(100.0), 0.001);
      }
    }
    if (a != "web") options.shard_hosts.push_back(a);
  }
  shard::ShardCoordinator coord(&net, options);
  ASSERT_TRUE(coord
                  .Execute("CREATE TABLE A (ID INTEGER PRIMARY KEY, "
                           "G VARCHAR(4), X INTEGER) "
                           "PARTITION BY HASH(ID) PARTITIONS 4")
                  .ok());
  for (const char* values : kPositionRows) {
    ASSERT_TRUE(
        coord.Execute(std::string("INSERT INTO A VALUES ") + values).ok());
  }
  uint64_t scatters = coord.counters().queries_scatter;
  EXPECT_EQ(Rows(coord.Execute("SELECT G, SUM(X) FROM A GROUP BY G ORDER BY 2")),
            "a 1|c 2|b 12|");
  EXPECT_EQ(Rows(coord.Execute(
                "SELECT G, SUM(X) FROM A GROUP BY G ORDER BY 2 DESC")),
            "b 12|c 2|a 1|");
  EXPECT_EQ(coord.counters().queries_scatter, scatters + 2);
}

// ---------------------------------------------------------------------------
// AggState goldens (hand-computed)
// ---------------------------------------------------------------------------

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
const char* const kFns[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};

AggState StateOf(const std::vector<Value>& values, size_t from, size_t to) {
  AggState state;
  for (size_t i = from; i < to; ++i) state.Update(values[i]);
  return state;
}

/// Type and display form, or the error.
std::string Show(const Result<Value>& v) {
  if (!v.ok()) return "error: " + v.status().ToString();
  if (v->is_null()) return "NULL";
  return std::string(DataTypeName(v->type())) + " " + v->ToDisplayString();
}

TEST(AggStateTest, SumNearInt64MaxWidensToDouble) {
  AggState state = StateOf({Value::Integer(kMax), Value::Integer(1)}, 0, 2);
  Result<Value> sum = state.Finish("SUM");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->type(), DataType::kDouble);
  EXPECT_EQ(sum->AsDouble(), 9223372036854775808.0);  // 2^63
  // Back inside the rails the exact total narrows to INTEGER again.
  state.Update(Value::Integer(-2));
  sum = state.Finish("SUM");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->type(), DataType::kInteger);
  EXPECT_EQ(sum->AsInt(), kMax - 1);
  // AVG divides the exact total: (2^63 - 2) / 3 in double.
  Result<Value> avg = state.Finish("AVG");
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->AsDouble(), 9223372036854775806.0 / 3.0);
}

TEST(AggStateTest, MinMaxOfInt64sPast2To53AreExact) {
  // 2^53 + 1 and 2^53 are equal as doubles; the exact compare tells them
  // apart whichever comes first.
  const int64_t above = (int64_t{1} << 53) + 1;
  const int64_t at = int64_t{1} << 53;
  for (bool above_first : {true, false}) {
    std::vector<Value> values = {Value::Integer(above_first ? above : at),
                                 Value::Integer(above_first ? at : above)};
    AggState state = StateOf(values, 0, 2);
    EXPECT_EQ(state.Finish("MIN")->AsInt(), at);
    EXPECT_EQ(state.Finish("MAX")->AsInt(), above);
    AggState merged = StateOf(values, 0, 1);
    merged.Merge(StateOf(values, 1, 2));
    EXPECT_EQ(merged.Finish("MIN")->AsInt(), at);
    EXPECT_EQ(merged.Finish("MAX")->AsInt(), above);
  }
}

TEST(AggStateTest, MixedIntegerAndDoubleInput) {
  AggState state = StateOf(
      {Value::Integer(1), Value::Double(2.5), Value::Null(), Value::Integer(3)},
      0, 4);
  EXPECT_EQ(Show(state.Finish("COUNT")), "INTEGER 3");
  EXPECT_EQ(Show(state.Finish("SUM")), "DOUBLE 6.5");
  EXPECT_EQ(state.Finish("AVG")->AsDouble(), 6.5 / 3);
  EXPECT_EQ(Show(state.Finish("MIN")), "INTEGER 1");
  EXPECT_EQ(Show(state.Finish("MAX")), "INTEGER 3");
  EXPECT_FALSE(state.MergeExact("SUM"));
  EXPECT_TRUE(state.MergeExact("MAX"));
}

TEST(AggStateTest, AllNullGroup) {
  AggState state = StateOf({Value::Null(), Value::Null()}, 0, 2);
  EXPECT_EQ(Show(state.Finish("COUNT")), "INTEGER 0");
  for (const char* fn : {"SUM", "AVG", "MIN", "MAX"}) {
    EXPECT_EQ(Show(state.Finish(fn)), "NULL") << fn;
  }
}

TEST(AggStateTest, SumOverTextIsInvalidArgument) {
  AggState state = StateOf({Value::Varchar("x"), Value::Varchar("a")}, 0, 2);
  for (const char* fn : {"SUM", "AVG"}) {
    Result<Value> v = state.Finish(fn);
    ASSERT_FALSE(v.ok()) << fn;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(v.status().message(), std::string(fn) + " over non-numeric column");
  }
  EXPECT_EQ(Show(state.Finish("COUNT")), "INTEGER 2");
  EXPECT_EQ(Show(state.Finish("MIN")), "VARCHAR a");
  EXPECT_EQ(Show(state.Finish("MAX")), "VARCHAR x");
  // Through SQL: the row path and a columnar table agree.
  for (const char* storage : {"", " STORE COLUMNAR"}) {
    Database db("TXT");
    ASSERT_TRUE(db.Execute(std::string("CREATE TABLE S (ID INTEGER PRIMARY "
                                       "KEY, V VARCHAR(4))") +
                           storage)
                    .ok());
    ASSERT_TRUE(db.Execute("INSERT INTO S VALUES (1, 'x')").ok());
    Result<QueryResult> r = db.Execute("SELECT SUM(V) FROM S");
    ASSERT_FALSE(r.ok()) << storage;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << storage;
  }
}

TEST(AggStateTest, SplitAndMergeMatchesOnePass) {
  const std::vector<std::vector<Value>> inputs = {
      // Integer-only, across both rails and past 2^53: exact everywhere.
      {Value::Integer(kMax), Value::Integer(5), Value::Null(),
       Value::Integer(kMax), Value::Integer(-3), Value::Integer(kMin),
       Value::Integer((int64_t{1} << 53) + 1), Value::Null()},
      // Mixed kinds with exactly representable doubles.
      {Value::Integer(1), Value::Double(2.5), Value::Null(),
       Value::Integer(-4), Value::Double(0.25), Value::Integer(7)},
      // Text: COUNT/MIN/MAX merge, SUM/AVG stay errors.
      {Value::Varchar("m"), Value::Null(), Value::Varchar("b"),
       Value::Varchar("z")},
      // Nothing but NULLs.
      {Value::Null(), Value::Null()},
  };
  for (const std::vector<Value>& values : inputs) {
    AggState whole = StateOf(values, 0, values.size());
    for (size_t split = 0; split <= values.size(); ++split) {
      AggState merged = StateOf(values, 0, split);
      merged.Merge(StateOf(values, split, values.size()));
      for (const char* fn : kFns) {
        EXPECT_EQ(Show(merged.Finish(fn)), Show(whole.Finish(fn)))
            << fn << " split at " << split;
      }
    }
  }
}

}  // namespace
}  // namespace easia::db

namespace easia::db {
namespace {

// ---------------------------------------------------------------------------
// Scan filter: WHERE evaluated on the stored rows, operands by reference
// ---------------------------------------------------------------------------

/// Rows of a query result, or its error; DML reports its affected count.
std::string Outcome(const Result<QueryResult>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  if (r->column_names.empty()) {
    return "affected " + std::to_string(r->rows_affected);
  }
  return Rows(r);
}

const char* const kScanTable =
    "CREATE TABLE S (ID INTEGER PRIMARY KEY, TIMESTEP INTEGER, X INTEGER,"
    " D DOUBLE, NAME VARCHAR(80),"
    " LINK DATALINK LINKTYPE URL NO FILE LINK CONTROL)";

/// Six rows; every string operand but 'short' is past the inline-string
/// size, and X, D, NAME and LINK each hold a NULL somewhere.
const char* const kScanRows[] = {
    "(1, 0, 1, 1.0, 'simulation-run-0001/timestep-0000.tbf',"
    " 'http://fs0.example.org/archive/run-0001/t0000.tbf')",
    "(2, 1, 2, 2.5, 'simulation-run-0001/timestep-0001.tbf',"
    " 'http://fs1.example.org/archive/run-0001/t0001.tbf')",
    "(3, 2, NULL, 3.0, NULL, NULL)",
    "(4, 3, 4, NULL, 'simulation-run-0002/timestep-0000.tbf',"
    " 'http://fs1.example.org/archive/run-0002/t0000.tbf')",
    "(5, 4, 5, 5.0, 'short',"
    " 'http://fs0.example.org/archive/run-0002/t0001.tbf')",
    "(6, 5, 6, 6.5, 'simulation-run-0002/timestep-0002.tbf', NULL)",
};

/// The same table S behind a row-store database, a columnar one and a
/// 4-shard coordinator; the naive executor reads the row store.
class ScanFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const std::string& h : hosts_) net_.AddHost({h, 50.0, 4});
    shard::ShardOptions options;
    options.coordinator_host = "web";
    for (const std::string& a : hosts_) {
      for (const std::string& b : hosts_) {
        if (a != b) {
          net_.AddLink(a, b, sim::BandwidthSchedule::Constant(100.0), 0.001);
        }
      }
      if (a != "web") options.shard_hosts.push_back(a);
    }
    coord_ = std::make_unique<shard::ShardCoordinator>(&net_, options);
    Create(rows_, std::string(kScanTable));
    Create(columnar_, std::string(kScanTable) + " STORE COLUMNAR");
    Result<QueryResult> r = coord_->Execute(
        std::string(kScanTable) + " PARTITION BY HASH(ID) PARTITIONS 4");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  static void Create(Database& db, const std::string& ddl) {
    Result<QueryResult> r = db.Execute(ddl);
    ASSERT_TRUE(r.ok()) << ddl << " -> " << r.status().ToString();
  }

  void Fill() {
    for (const char* values : kScanRows) Each("INSERT INTO S VALUES " +
                                              std::string(values));
  }

  /// Runs `sql` on all three stores; expects every one to succeed.
  void Each(const std::string& sql) {
    for (const std::string& o : Outcomes(sql)) {
      ASSERT_EQ(o.rfind("error", 0), std::string::npos) << sql << ": " << o;
    }
  }

  /// `sql`'s outcome on the row store, the columnar store and the shards.
  std::vector<std::string> Outcomes(const std::string& sql) {
    return {Outcome(rows_.Execute(sql)), Outcome(columnar_.Execute(sql)),
            Outcome(coord_->Execute(sql))};
  }

  /// The naive executor's outcome for a SELECT over the row store.
  std::string Naive(const std::string& sql) {
    Result<Statement> stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok() && stmt->kind == Statement::Kind::kSelect) << sql;
    if (!stmt.ok()) return "";
    TableLookup lookup = [this](const std::string& name) {
      return rows_.GetTable(name);
    };
    return Outcome(easia::testing::ExecuteSelectNaive(*stmt->select, lookup));
  }

  /// Expects the three stores and the naive executor to agree on `sql`,
  /// and returns that outcome.
  std::string Agreed(const std::string& sql) {
    std::string naive = Naive(sql);
    std::vector<std::string> got = Outcomes(sql);
    EXPECT_EQ(got[0], naive) << "row store: " << sql;
    EXPECT_EQ(got[1], naive) << "columnar: " << sql;
    EXPECT_EQ(got[2], naive) << "sharded: " << sql;
    return naive;
  }

  /// Expects DML `sql` to give `expected` on every store.
  void ExpectDml(const std::string& sql, const std::string& expected) {
    std::vector<std::string> got = Outcomes(sql);
    EXPECT_EQ(got[0], expected) << "row store: " << sql;
    EXPECT_EQ(got[1], expected) << "columnar: " << sql;
    EXPECT_EQ(got[2], expected) << "sharded: " << sql;
  }

  const std::vector<std::string> hosts_ = {"web", "s0", "s1", "s2", "s3"};
  sim::Network net_;
  Database rows_{"ROWS"};
  Database columnar_{"COLS"};
  std::unique_ptr<shard::ShardCoordinator> coord_;
};

TEST_F(ScanFilterTest, ErrorOnOneRowFailsEveryStatementAndChangesNothing) {
  Fill();
  const std::string all = "SELECT ID, X FROM S ORDER BY ID";
  const std::string before = Agreed(all);
  // Only TIMESTEP = 3 (the fourth row) divides by zero.
  const std::string where = " WHERE 10 / (TIMESTEP - 3) > 0";
  const std::string error = "error: invalid argument: division by zero";
  EXPECT_EQ(Agreed("SELECT ID FROM S" + where), error);
  ExpectDml("UPDATE S SET X = 99" + where, error);
  ExpectDml("DELETE FROM S" + where, error);
  EXPECT_EQ(Agreed(all), before);
  // Behind a passing conjunct the predicate still fails.
  EXPECT_EQ(Agreed("SELECT ID FROM S WHERE ID > 0 AND 10 / (TIMESTEP - 3) > 0"),
            error);
  // Behind a failing one, a SELECT scan never evaluates it: the planner
  // splits WHERE at its ANDs and a row stops at its first non-TRUE
  // conjunct. The naive oracle and DML evaluate the whole WHERE as one
  // expression, whose AND evaluates both sides, so they still fail.
  const std::string guarded =
      " WHERE TIMESTEP < 3 AND 10 / (TIMESTEP - 3) < 0";
  EXPECT_EQ(Outcomes("SELECT ID FROM S" + guarded + " ORDER BY ID"),
            std::vector<std::string>(3, "1|2|3|"));
  EXPECT_EQ(Naive("SELECT ID FROM S" + guarded), error);
  ExpectDml("UPDATE S SET X = 99" + guarded, error);
  ExpectDml("DELETE FROM S" + guarded, error);
  EXPECT_EQ(Agreed(all), before);
}

TEST_F(ScanFilterTest, UnknownColumnFailsOnlyOnAnEvaluatedRow) {
  const std::string select = "SELECT ID FROM S WHERE NOPE = 1";
  EXPECT_EQ(Agreed(select), "");
  ExpectDml("UPDATE S SET X = 1 WHERE NOPE = 1", "affected 0");
  ExpectDml("DELETE FROM S WHERE NOPE = 1", "affected 0");
  Fill();
  const std::string error = "error: not found: unknown column: NOPE";
  EXPECT_EQ(Agreed(select), error);
  ExpectDml("UPDATE S SET X = 1 WHERE NOPE = 1", error);
  ExpectDml("DELETE FROM S WHERE NOPE = 1", error);
  EXPECT_EQ(Agreed("SELECT ID FROM S WHERE S.NOPE = 1"),
            "error: not found: unknown column: S.NOPE");
}

TEST_F(ScanFilterTest, UpdateReadingItsOwnColumnTouchesEachRowOnce) {
  Fill();
  ExpectDml("UPDATE S SET X = X + 1 WHERE X > 0", "affected 5");
  EXPECT_EQ(Agreed("SELECT ID, X FROM S ORDER BY ID"),
            "1 2|2 3|3 NULL|4 5|5 6|6 7|");
  ExpectDml("DELETE FROM S WHERE X > 5", "affected 2");
  EXPECT_EQ(Agreed("SELECT ID FROM S ORDER BY ID"), "1|2|3|4|");
}

TEST_F(ScanFilterTest, ExplainAnalyzeCountsSurvivors) {
  Fill();
  // TIMESTEP > 3 runs the columnar filter kernel; the others filter
  // stored rows on both stores.
  const std::pair<const char*, int> cases[] = {
      {"TIMESTEP > 3", 2}, {"X + 1 > 4", 3}, {"NAME LIKE '%0000.tbf'", 2}};
  for (Database* db : {&rows_, &columnar_}) {
    for (const auto& [where, survivors] : cases) {
      Result<QueryResult> r =
          db->Execute(std::string("EXPLAIN ANALYZE SELECT * FROM S WHERE ") +
                      where);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_FALSE(r->rows.empty());
      const std::string scan = r->rows[0][0].AsString();
      EXPECT_NE(scan.find("seq scan"), std::string::npos) << scan;
      EXPECT_NE(scan.find("actual rows=" + std::to_string(survivors) + ","),
                std::string::npos)
          << db->name() << ": " << scan;
    }
  }
  // Sharded: the per-shard scan counts sum to the survivors.
  Result<QueryResult> r =
      coord_->Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM S WHERE "
                      "TIMESTEP > 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t total = 0;
  for (const Row& row : r->rows) {
    const std::string line = row[0].AsString();
    size_t at = line.find("actual rows=");
    if (at != std::string::npos) total += std::stoll(line.substr(at + 12));
  }
  EXPECT_EQ(total, 2);
}

TEST_F(ScanFilterTest, OperandsReadInPlaceMatchTheOracle) {
  Fill();
  const char* const wheres[] = {
      // Long VARCHAR and DATALINK operands, on either side.
      "NAME = 'simulation-run-0002/timestep-0000.tbf'",
      "'simulation-run-0001/timestep-0001.tbf' = NAME",
      "NAME > 'simulation-run-0001/timestep-0001.tbf'",
      "NAME LIKE 'simulation-run-0002%'",
      "NAME NOT LIKE '%0000.tbf'",
      "LINK = 'http://fs1.example.org/archive/run-0002/t0000.tbf'",
      "LINK LIKE 'http://fs0.%'",
      "NAME IN ('short', 'simulation-run-0002/timestep-0002.tbf')",
      "UPPER(NAME) LIKE 'SIMULATION-RUN-0001%'",
      "LENGTH(LINK) > 20",
      // NULL operands.
      "X > NULL",
      "NULL = NULL",
      "D IS NULL",
      "NAME IS NOT NULL",
      "NAME <> 'short'",
      "NOT (X > 2)",
      "X IN (1, NULL, 4)",
      "X NOT IN (1, NULL)",
      "COALESCE(D, X) > 3",
      "X > 1 OR D > 6",
      "X > 1 AND D < 6",
      // Mixed INTEGER / DOUBLE.
      "X = D",
      "X < D",
      "D >= 3",
      "X = 2.0",
      "D = 1",
      "X + D > 5",
      "X * 1.5 = 3",
      "X * 2 > D + 2",
      "-X < -4",
      // Column against column of the same row, and a bare column.
      "TIMESTEP + 1 = X",
      "X",
  };
  for (const char* where : wheres) {
    SCOPED_TRACE(where);
    Agreed(std::string("SELECT ID FROM S WHERE ") + where + " ORDER BY ID");
  }
  EXPECT_EQ(Agreed("SELECT ID FROM S WHERE NAME LIKE 'simulation-run-0002%'"
                   " ORDER BY ID"),
            "4|6|");
  EXPECT_EQ(Agreed("SELECT ID FROM S WHERE X = D ORDER BY ID"), "1|5|");
  EXPECT_EQ(Agreed("SELECT ID FROM S WHERE X IN (1, NULL, 4) ORDER BY ID"),
            "1|4|");
  // An IN list stops at its first match, so rows look up columns in
  // different orders: the first row never reaches TIMESTEP, the third
  // (X is NULL) does, where the first row looked up D.
  EXPECT_EQ(Agreed("SELECT ID FROM S WHERE ID IN (X, TIMESTEP) AND D > 2"
                   " ORDER BY ID"),
            "2|5|6|");
  // DML over the same operand kinds removes what the SELECT matched.
  ExpectDml("DELETE FROM S WHERE LINK LIKE 'http://fs1.%'", "affected 2");
  ExpectDml("UPDATE S SET D = 0 WHERE NAME = 'short' OR D IS NULL",
            "affected 1");
  EXPECT_EQ(Agreed("SELECT ID, D FROM S ORDER BY ID"),
            "1 1|3 3|5 0|6 6.5|");
}

}  // namespace
}  // namespace easia::db

// Statistics-driven planner regressions: hash-join build-side flips at
// catalogue scale, index-loop joins, EXPLAIN ANALYZE annotations, and the
// index advisor (surface + apply + auto-create). The tiny-fixture plan
// shapes stay pinned in db_planner_test.cc; this suite grows tables big
// enough that the cost model has real decisions to make.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/stats/index_advisor.h"
#include "testing/naive_executor.h"

namespace easia::db {
namespace {

class AdaptivePlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>("ADAPT");
    // Build-side pair: join columns deliberately carry NO index, so the
    // only cost-based escape is flipping the hash-join build side.
    Must("CREATE TABLE SMALL ("
         " K INTEGER NOT NULL,"
         " LABEL VARCHAR(20),"
         " PRIMARY KEY (K))");
    Must("CREATE TABLE BIG ("
         " ID INTEGER NOT NULL,"
         " GRP INTEGER,"
         " PAYLOAD DOUBLE,"
         " PRIMARY KEY (ID))");
    for (int i = 0; i < 10; ++i) {
      Must("INSERT INTO SMALL VALUES (" + std::to_string(i) + ", 'label" +
           std::to_string(i) + "')");
    }
    for (int i = 0; i < 3000; ++i) {
      Must("INSERT INTO BIG VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 10) + ", " + std::to_string(i * 0.5) + ")");
    }
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

  std::string Plan(const std::string& select_sql,
                   const std::string& keyword = "EXPLAIN") {
    QueryResult r = Q(keyword + " " + select_sql);
    std::string joined;
    for (const Row& row : r.rows) {
      joined += row[0].AsString();
      joined += "\n";
    }
    return joined;
  }

  /// Planned (cost-based) vs naive executor over the same statement.
  void ExpectEquivalent(const std::string& select_sql) {
    Result<Statement> stmt = ParseSql(select_sql);
    ASSERT_TRUE(stmt.ok()) << select_sql << " -> "
                           << stmt.status().ToString();
    TableLookup lookup = [this](const std::string& name) {
      return db_->GetTable(name);
    };
    Result<QueryResult> planned =
        ExecuteSelect(*stmt->select, lookup, nullptr);
    Result<QueryResult> naive =
        easia::testing::ExecuteSelectNaive(*stmt->select, lookup);
    ASSERT_EQ(planned.ok(), naive.ok())
        << select_sql << "\nplanned: " << planned.status().ToString()
        << "\nnaive:   " << naive.status().ToString();
    if (!planned.ok()) return;
    EXPECT_EQ(planned->column_names, naive->column_names) << select_sql;
    ASSERT_EQ(planned->rows.size(), naive->rows.size()) << select_sql;
    for (size_t r = 0; r < naive->rows.size(); ++r) {
      for (size_t c = 0; c < naive->rows[r].size(); ++c) {
        EXPECT_EQ(planned->rows[r][c].ToDisplayString(),
                  naive->rows[r][c].ToDisplayString())
            << select_sql << " row " << r << " col " << c;
      }
    }
  }

  std::unique_ptr<Database> db_;
};

// --- Hash-join build side ---

TEST_F(AdaptivePlannerTest, BuildSideFlipsToSmallTable) {
  // Written small-first: the static plan would accumulate SMALL and build
  // the hash table over all 3000 BIG rows. The cost model must flip the
  // order so BIG streams and SMALL (10 rows) is the build side.
  std::string plan = Plan(
      "SELECT * FROM SMALL S, BIG B WHERE S.K = B.GRP");
  size_t big_at = plan.find("scan BIG AS B");
  size_t small_at = plan.find("scan SMALL AS S");
  ASSERT_NE(big_at, std::string::npos) << plan;
  ASSERT_NE(small_at, std::string::npos) << plan;
  EXPECT_LT(big_at, small_at) << "BIG must be scanned first (build on "
                                 "SMALL):\n"
                              << plan;
  EXPECT_NE(plan.find("hash join"), std::string::npos) << plan;
}

TEST_F(AdaptivePlannerTest, BuildSideAlreadyOptimalKeepsOrder) {
  // Written big-first, the FROM order is already the cheap one.
  std::string plan = Plan(
      "SELECT * FROM BIG B, SMALL S WHERE B.GRP = S.K");
  size_t big_at = plan.find("scan BIG AS B");
  size_t small_at = plan.find("scan SMALL AS S");
  ASSERT_NE(big_at, std::string::npos) << plan;
  ASSERT_NE(small_at, std::string::npos) << plan;
  EXPECT_LT(big_at, small_at) << plan;
}

TEST_F(AdaptivePlannerTest, StaticPlannerKeepsWrittenOrder) {
  // With cost-based planning off, the written order is law — the
  // regression EXPLAIN flip is visible only when stats drive the plan.
  DatabaseOptions options;
  options.cost_based_planner = false;
  Database fixed("FIXED", options);
  ASSERT_TRUE(fixed.Execute("CREATE TABLE SMALL (K INTEGER PRIMARY KEY)")
                  .ok());
  ASSERT_TRUE(fixed.Execute("CREATE TABLE BIG (ID INTEGER PRIMARY KEY,"
                            " GRP INTEGER)")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fixed.Execute("INSERT INTO SMALL VALUES (" +
                              std::to_string(i) + ")")
                    .ok());
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fixed.Execute("INSERT INTO BIG VALUES (" +
                              std::to_string(i) + ", " +
                              std::to_string(i % 10) + ")")
                    .ok());
  }
  Result<QueryResult> r = fixed.Execute(
      "EXPLAIN SELECT * FROM SMALL S, BIG B WHERE S.K = B.GRP");
  ASSERT_TRUE(r.ok());
  std::string plan;
  for (const Row& row : r->rows) plan += row[0].AsString() + "\n";
  EXPECT_LT(plan.find("scan SMALL AS S"), plan.find("scan BIG AS B"))
      << plan;
}

TEST_F(AdaptivePlannerTest, ReorderedJoinKeepsResultShapeAndOrder) {
  // The flipped execution order must not leak into the result: columns
  // stay in FROM order and rows come back in the naive executor's order.
  ExpectEquivalent("SELECT * FROM SMALL S, BIG B WHERE S.K = B.GRP");
  ExpectEquivalent(
      "SELECT S.LABEL, B.ID FROM SMALL S, BIG B"
      " WHERE S.K = B.GRP AND B.PAYLOAD < 100");
  ExpectEquivalent(
      "SELECT S.K, COUNT(*) FROM SMALL S, BIG B WHERE S.K = B.GRP"
      " GROUP BY S.K");
}

TEST_F(AdaptivePlannerTest, LimitCutoffSuppressesReorder) {
  // LIMIT without ORDER BY short-circuits the pipeline; reordering would
  // change which rows surface, so the written order must win.
  std::string plan = Plan(
      "SELECT * FROM SMALL S, BIG B WHERE S.K = B.GRP LIMIT 3");
  EXPECT_NE(plan.find("limit short-circuit: 3"), std::string::npos) << plan;
  EXPECT_LT(plan.find("scan SMALL AS S"), plan.find("scan BIG AS B"))
      << plan;
  ExpectEquivalent("SELECT * FROM SMALL S, BIG B WHERE S.K = B.GRP LIMIT 3");
}

// --- Index-loop joins ---

class IndexLoopTest : public AdaptivePlannerTest {
 protected:
  void SetUp() override {
    AdaptivePlannerTest::SetUp();
    // FACT carries an FK (and thus a secondary index) on DIM_K: probing
    // that index per DIM row beats hashing 1500 FACT rows.
    Must("CREATE TABLE DIM ("
         " K INTEGER NOT NULL,"
         " NAME VARCHAR(20),"
         " PRIMARY KEY (K))");
    Must("CREATE TABLE FACT ("
         " ID INTEGER NOT NULL,"
         " DIM_K INTEGER,"
         " VAL DOUBLE,"
         " PRIMARY KEY (ID),"
         " FOREIGN KEY (DIM_K) REFERENCES DIM (K))");
    for (int i = 0; i < 10; ++i) {
      Must("INSERT INTO DIM VALUES (" + std::to_string(i) + ", 'dim" +
           std::to_string(i) + "')");
    }
    for (int i = 0; i < 1500; ++i) {
      Must("INSERT INTO FACT VALUES (" + std::to_string(i) + ", " +
           (i % 7 == 0 ? "NULL" : std::to_string(i % 10)) + ", " +
           std::to_string(i * 1.5) + ")");
    }
  }
};

TEST_F(IndexLoopTest, ExplainShowsIndexLoopJoin) {
  std::string plan = Plan(
      "SELECT * FROM DIM D JOIN FACT F ON D.K = F.DIM_K");
  EXPECT_NE(plan.find("index loop join via (DIM_K)"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("hash join"), std::string::npos) << plan;
}

TEST_F(IndexLoopTest, IndexLoopMatchesNaiveExecutor) {
  ExpectEquivalent("SELECT * FROM DIM D JOIN FACT F ON D.K = F.DIM_K");
  // NULL FK rows must not match; pushed filters on the probed side must
  // still be applied per fetched row.
  ExpectEquivalent(
      "SELECT D.NAME, F.ID FROM DIM D JOIN FACT F ON D.K = F.DIM_K"
      " WHERE F.VAL > 750");
  ExpectEquivalent(
      "SELECT D.K, COUNT(*) FROM DIM D JOIN FACT F ON D.K = F.DIM_K"
      " GROUP BY D.K");
}

// --- EXPLAIN ANALYZE ---

TEST_F(AdaptivePlannerTest, ExplainAnalyzeAnnotatesOperators) {
  std::string plan = Plan("SELECT * FROM BIG WHERE GRP = 3",
                          "EXPLAIN ANALYZE");
  EXPECT_NE(plan.find("est rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=300"), std::string::npos) << plan;
  EXPECT_NE(plan.find(" ms)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("total: 300 rows"), std::string::npos) << plan;
}

TEST_F(AdaptivePlannerTest, ExplainAnalyzeAnnotatesJoins) {
  std::string plan = Plan(
      "SELECT * FROM SMALL S, BIG B WHERE S.K = B.GRP",
      "EXPLAIN ANALYZE");
  // Both scans and the join line carry actuals; the join emits one output
  // row per BIG row (every GRP value has a SMALL match).
  EXPECT_NE(plan.find("actual rows=3000"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=10"), std::string::npos) << plan;
  EXPECT_NE(plan.find("total: 3000 rows"), std::string::npos) << plan;
}

TEST_F(AdaptivePlannerTest, ExplainAnalyzeOnAggregateFastPath) {
  std::string plan = Plan("SELECT COUNT(*) FROM BIG", "EXPLAIN ANALYZE");
  EXPECT_NE(plan.find("total: 1 rows"), std::string::npos) << plan;
}

TEST_F(AdaptivePlannerTest, PlainExplainCarriesNoActuals) {
  std::string plan = Plan("SELECT * FROM BIG WHERE GRP = 3");
  EXPECT_EQ(plan.find("actual rows"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("total:"), std::string::npos) << plan;
}

TEST_F(AdaptivePlannerTest, ExplainAnalyzeEstimateTracksStats) {
  // GRP has 10 distinct values over 3000 rows: the equality estimate must
  // land near 300, not at the blind 1/3 default (1000).
  std::string plan = Plan("SELECT * FROM BIG WHERE GRP = 3",
                          "EXPLAIN ANALYZE");
  size_t at = plan.find("est rows=");
  ASSERT_NE(at, std::string::npos) << plan;
  double est = std::strtod(plan.c_str() + at + 9, nullptr);
  EXPECT_GT(est, 100.0) << plan;
  EXPECT_LT(est, 600.0) << plan;
}

// --- Index advisor ---

TEST_F(AdaptivePlannerTest, AdvisorSurfacesHotEqualityPredicate) {
  for (int i = 0; i < 3; ++i) {
    Q("SELECT * FROM BIG WHERE GRP = " + std::to_string(i));
  }
  std::vector<stats::IndexRecommendation> recs =
      db_->index_advisor().Recommendations(1);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].table, "BIG");
  EXPECT_EQ(recs[0].column, "GRP");
  EXPECT_EQ(recs[0].kind, stats::IndexRecommendation::Kind::kEquality);
  EXPECT_GE(recs[0].hits, 3u);
  // Indexed columns are never recommended: ID lookups go via the PK.
  Q("SELECT * FROM BIG WHERE ID = 7");
  for (const auto& rec : db_->index_advisor().Recommendations(1)) {
    EXPECT_NE(rec.column, "ID");
  }
}

TEST_F(AdaptivePlannerTest, ApplyRecommendationsCreatesIndex) {
  for (int i = 0; i < 5; ++i) {
    Q("SELECT * FROM BIG WHERE GRP = " + std::to_string(i));
  }
  std::string before = Plan("SELECT * FROM BIG WHERE GRP = 3");
  EXPECT_NE(before.find("seq scan"), std::string::npos) << before;
  ASSERT_TRUE(db_->ApplyIndexRecommendations(5).ok());
  std::string after = Plan("SELECT * FROM BIG WHERE GRP = 3");
  EXPECT_NE(after.find("index scan via (GRP)"), std::string::npos) << after;
  // The new index must agree with a post-hoc filter.
  QueryResult r = Q("SELECT COUNT(*) FROM BIG WHERE GRP = 3");
  EXPECT_EQ(r.rows[0][0].AsInt(), 300);
}

TEST_F(AdaptivePlannerTest, AutoCreateIndexesOnCommit) {
  DatabaseOptions options;
  options.auto_create_indexes = true;
  options.auto_index_min_hits = 2;
  Database db("AUTO", options);
  ASSERT_TRUE(db.Execute("CREATE TABLE H (ID INTEGER PRIMARY KEY,"
                         " TAG VARCHAR(10))")
                  .ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO H VALUES (" + std::to_string(i) +
                           ", 'tag" + std::to_string(i % 4) + "')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("SELECT * FROM H WHERE TAG = 'tag1'").ok());
  ASSERT_TRUE(db.Execute("SELECT * FROM H WHERE TAG = 'tag2'").ok());
  // The next committed mutation applies the hot recommendation.
  ASSERT_TRUE(db.Execute("INSERT INTO H VALUES (40, 'tag0')").ok());
  Result<QueryResult> r =
      db.Execute("EXPLAIN SELECT * FROM H WHERE TAG = 'tag1'");
  ASSERT_TRUE(r.ok());
  std::string plan;
  for (const Row& row : r->rows) plan += row[0].AsString() + "\n";
  EXPECT_NE(plan.find("index scan via (TAG)"), std::string::npos) << plan;
}

TEST_F(AdaptivePlannerTest, AdvisorObservesPrefixPatterns) {
  Must("CREATE TABLE DOC (ID INTEGER PRIMARY KEY, PATH VARCHAR(60))");
  for (int i = 0; i < 20; ++i) {
    Must("INSERT INTO DOC VALUES (" + std::to_string(i) + ", '/data/f" +
         std::to_string(i) + "')");
  }
  Q("SELECT * FROM DOC WHERE PATH LIKE '/data/f1%'");
  Q("SELECT * FROM DOC WHERE PATH LIKE '/data/%'");
  bool found = false;
  for (const auto& rec : db_->index_advisor().Recommendations(1)) {
    if (rec.table == "DOC" && rec.column == "PATH" &&
        rec.kind == stats::IndexRecommendation::Kind::kPrefix) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace easia::db

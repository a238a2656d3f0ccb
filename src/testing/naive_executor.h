#ifndef EASIA_TESTING_NAIVE_EXECUTOR_H_
#define EASIA_TESTING_NAIVE_EXECUTOR_H_

#include "common/result.h"
#include "db/ast.h"
#include "db/database.h"
#include "db/executor.h"

namespace easia::testing {

/// Reference SELECT execution for differential tests and before/after
/// benchmarks: materialised nested-loop joins left to right, then the
/// whole WHERE as one filter, then the executor's own db::FinishSelect.
/// No planner, no index beyond a full-primary-key point lookup on the
/// first table, no columnar kernel — slow and obviously correct, so the
/// planned executor, the columnar store, replicas and the shard
/// coordinator are all checked against it.
Result<db::QueryResult> ExecuteSelectNaive(const db::SelectStmt& stmt,
                                           const db::TableLookup& lookup);

}  // namespace easia::testing

#endif  // EASIA_TESTING_NAIVE_EXECUTOR_H_

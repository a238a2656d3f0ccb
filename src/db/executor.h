#ifndef EASIA_DB_EXECUTOR_H_
#define EASIA_DB_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "db/aggregate.h"
#include "db/ast.h"
#include "db/table.h"

namespace easia::obs {
class Tracer;
}  // namespace easia::obs

namespace easia::db {

struct QueryResult;  // database.h
struct SelectPlan;   // planner.h

/// One column of an intermediate (joined) row.
struct ColumnBinding {
  std::string table_alias;  // FROM-clause alias
  std::string column;       // column name
  DataType type = DataType::kVarchar;
  const ColumnDef* def = nullptr;  // source column definition (may be null)
};

/// The bindings of `def`'s columns under `alias`, in column order.
std::vector<ColumnBinding> SchemaOf(const TableDef& def,
                                    const std::string& alias);

/// Schema slots of column-reference nodes, memoised for one scan over one
/// schema (see RowFilter).
using ColumnSlots = std::vector<std::pair<const Expr*, size_t>>;

/// Expression evaluation environment: a schema plus (optionally) a current
/// row. INSERT value lists evaluate with `row == nullptr`. Column
/// references resolve through `slots` when set, by name otherwise.
struct EvalEnv {
  const std::vector<ColumnBinding>* schema = nullptr;
  const Row* row = nullptr;
  ColumnSlots* slots = nullptr;
};

/// Evaluates a scalar expression. SQL three-valued logic is approximated:
/// comparisons with NULL yield NULL (represented as a NULL value), and
/// WHERE treats non-TRUE as reject. Supported scalar functions: UPPER,
/// LOWER, LENGTH, ABS, SUBSTR(s, start[, len]), COALESCE.
Result<Value> EvalExpr(const Expr& expr, const EvalEnv& env);

/// Applies binary operator `op` to two evaluated operands.
Result<Value> EvalBinary(Expr::Op op, const Value& lhs, const Value& rhs);

/// Truthiness of a predicate result (NULL and false both reject).
bool IsTruthy(const Value& value);

/// A conjunction evaluated on rows of one schema, in place: column and
/// literal operands are read by reference, and each column reference
/// resolves on first use, once for the filter's lifetime (a failed
/// resolution is not memoised, so it fails again with the same message).
/// Conjuncts run in order and stop at the first non-TRUE one; a null
/// conjunct (an absent WHERE) accepts every row. The filter points at
/// `schema` and `conjuncts`, which must outlive it.
class RowFilter {
 public:
  RowFilter(const std::vector<ColumnBinding>& schema,
            const std::vector<const Expr*>& conjuncts)
      : schema_(&schema), conjuncts_(&conjuncts) {}

  /// True when `row` satisfies every conjunct; else false, or the first
  /// evaluation error.
  Result<bool> Passes(const Row& row);

 private:
  const std::vector<ColumnBinding>* schema_;
  const std::vector<const Expr*>* conjuncts_;
  ColumnSlots slots_;
};

/// The filtered table scan shared by SELECT, UPDATE and DELETE: visits the
/// rows of `table` in RowId order, evaluates `conjuncts` on each stored
/// row (see RowFilter) and calls `fn` on the survivors only. The first
/// evaluation error, or the first error `fn` returns, ends the scan and
/// is returned.
Status ForEachMatchingRow(
    const Table& table, const std::vector<ColumnBinding>& schema,
    const std::vector<const Expr*>& conjuncts,
    const std::function<Status(RowId, const Row&)>& fn);

/// Resolves tables by name for the executor.
using TableLookup =
    std::function<Result<const Table*>(const std::string& name)>;

/// Per-operator execution profile, filled when ExecuteOptions::profile is
/// set. Operators are indexed like SelectPlan::Describe() lines: `scans`
/// and `joins` follow the plan's execution order. EXPLAIN ANALYZE renders
/// estimated vs. actual rows and per-operator wall time from this.
struct PlanProfile {
  struct Op {
    double est_rows = -1;     // planner estimate (-1: not estimated)
    int64_t actual_rows = -1;  // rows the operator produced (-1: unknown)
    double seconds = 0;        // wall time attributed to the operator
  };
  std::vector<Op> scans;
  std::vector<Op> joins;
  int64_t result_rows = -1;
  double total_seconds = 0;
};

/// Execution knobs.
struct ExecuteOptions {
  /// Forwarded to PlannerOptions::cost_based: statistics-driven join
  /// order / strategy / build-side choices. False pins the static
  /// FROM-order plan shape.
  bool cost_based = true;
  /// When set, filled with per-operator estimates, actual row counts and
  /// timings (EXPLAIN ANALYZE).
  PlanProfile* profile = nullptr;
  /// When set, row production opens per-operator spans under the caller's
  /// current span.
  obs::Tracer* tracer = nullptr;
  /// Called with the final plan before execution (index advisor hook).
  std::function<void(const SelectPlan&)> plan_observer;
};

/// Executes a SELECT: planned scans and joins (predicate pushdown, index
/// access, hash joins, LIMIT short-circuit — see db/planner.h), then WHERE
/// residual, GROUP BY / aggregates (COUNT/SUM/AVG/MIN/MAX), HAVING,
/// ORDER BY, DISTINCT, LIMIT/OFFSET and projection. `rewriter`, when set,
/// is applied to projected DATALINK columns (SQL/MED READ PERMISSION DB
/// token insertion).
Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                  const TableLookup& lookup,
                                  const DatalinkRewriter& rewriter,
                                  const ExecuteOptions& options = {});

/// Everything downstream of row production over WHERE-filtered `rows`:
/// grouping and aggregates, then FinishGroups (db/aggregate.h).
Result<QueryResult> FinishSelect(const SelectStmt& stmt,
                                 const std::vector<ColumnBinding>& schema,
                                 std::vector<Row> rows,
                                 const DatalinkRewriter& rewriter);

}  // namespace easia::db

#endif  // EASIA_DB_EXECUTOR_H_

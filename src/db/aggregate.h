#ifndef EASIA_DB_AGGREGATE_H_
#define EASIA_DB_AGGREGATE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "db/ast.h"
#include "db/schema.h"
#include "db/value.h"

namespace easia::db {

struct ColumnBinding;  // executor.h
struct EvalEnv;        // executor.h
struct QueryResult;    // database.h

/// Rewrites a DATALINK value for presentation (token form); nullable.
using DatalinkRewriter = std::function<Result<std::string>(
    const ColumnDef& def, const std::string& url)>;

/// Running state of one aggregate call (COUNT/SUM/AVG/MIN/MAX) over the
/// non-NULL values of its argument. The row executor, the columnar
/// AggregateScan kernel and the shard scatter all accumulate through this
/// one class. States built over disjoint inputs Merge into the state of
/// their union.
///
/// SUM/AVG keep two totals: an exact 128-bit integer sum of the
/// integer-kind inputs and a double sum of all numeric inputs. While every
/// input was integer-kind the exact total is authoritative: SUM narrows it
/// back to INTEGER when it fits int64 and widens to DOUBLE past the rails.
/// Any DOUBLE input makes the double total the result. MIN/MAX compare
/// with Value::Compare, and the first value seen wins a tie.
class AggState {
 public:
  /// Folds in one argument value. NULL is skipped.
  void Update(const Value& v);

  /// Typed adds for kernels that read raw column arrays, one non-NULL
  /// value each: an integer-kind or DOUBLE value for SUM/AVG, or any
  /// value for COUNT. They do not track MIN/MAX; a kernel tracks its
  /// extreme itself and Updates a fresh state with the winner once.
  void AddInt(int64_t v) {
    ++count_;
    isum_ += v;
    dsum_ += static_cast<double>(v);
  }
  void AddDouble(double v) {
    ++count_;
    all_int_ = false;
    dsum_ += v;
  }
  void AddCount() { ++count_; }

  /// Records an error from evaluating the argument. Finish reports it, so
  /// the error only surfaces when the aggregate's value is needed (never
  /// for a group that HAVING drops). Values after the error are ignored.
  void Fail(Status status);

  /// Adds `other`'s input to this state. Of two errors, this state's wins.
  void Merge(const AggState& other);

  /// Final value of aggregate `fn` ("COUNT", "SUM", "AVG", "MIN" or
  /// "MAX"). COUNT is 0 and the others NULL over no input. SUM and AVG
  /// over a non-numeric value are InvalidArgument.
  Result<Value> Finish(std::string_view fn) const;

  /// True when Finish(fn) is independent of how the input was split and
  /// merged: no error, and no DOUBLE summed by SUM/AVG (floating-point
  /// addition depends on order).
  bool MergeExact(std::string_view fn) const;

 private:
  int64_t count_ = 0;
  __int128 isum_ = 0;
  double dsum_ = 0;
  bool all_int_ = true;
  bool non_numeric_ = false;
  Value min_;
  Value max_;
  Status error_;
};

/// One output group of an aggregate query.
struct AggGroup {
  /// The group's first row (non-aggregate expressions evaluate on it).
  /// Empty for the zero-row group of an aggregate without GROUP BY.
  Row first_row;
  int64_t rows = 0;            // COUNT(*)
  std::vector<AggState> aggs;  // one per aggregate node
};

/// The aggregate calls whose values FinishGroups reads from group state,
/// in walk order: select items, HAVING, ORDER BY. The walk recurses
/// through binary operators only; any other node is evaluated on the
/// group's first row.
std::vector<const Expr*> CollectAggregateNodes(const SelectStmt& stmt);

/// Folds `env.row` into `group`: counts the row and updates each node's
/// state with its argument. COUNT(*) and calls of the wrong arity have no
/// state; an argument that fails to evaluate fails the node's state.
void AccumulateRow(const std::vector<const Expr*>& nodes, const EvalEnv& env,
                   AggGroup* group);

/// True for a SELECT that groups: GROUP BY, HAVING or an aggregate item.
bool IsAggregateQuery(const SelectStmt& stmt);

/// Everything after grouping. `nodes` is CollectAggregateNodes(stmt) and
/// `groups` are in output order. A non-aggregate query passes each row as
/// its own group with no states. Adds the zero-row group of an aggregate
/// without GROUP BY, then applies HAVING, projection, ORDER BY (output
/// alias, 1-based output position or expression), DISTINCT, OFFSET/LIMIT
/// and the DATALINK rewrite. Within a group an aggregate node reads its
/// state, a binary node recurses, and any other node evaluates on the
/// first row (NULL when there is none).
Result<QueryResult> FinishGroups(const SelectStmt& stmt,
                                 const std::vector<ColumnBinding>& schema,
                                 const std::vector<const Expr*>& nodes,
                                 std::vector<AggGroup> groups,
                                 const DatalinkRewriter& rewriter);

}  // namespace easia::db

#endif  // EASIA_DB_AGGREGATE_H_

#include "db/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>

#include "common/string_util.h"
#include "db/database.h"
#include "db/planner.h"
#include "db/store/column_page.h"
#include "obs/trace.h"

namespace easia::db {

namespace {

/// Resolves a column reference against a schema; reports ambiguity.
Result<size_t> ResolveColumn(const std::vector<ColumnBinding>& schema,
                             const std::string& table,
                             const std::string& column) {
  size_t found = schema.size();
  for (size_t i = 0; i < schema.size(); ++i) {
    const ColumnBinding& b = schema[i];
    if (!table.empty() && !EqualsIgnoreCase(b.table_alias, table)) continue;
    if (!EqualsIgnoreCase(b.column, column)) continue;
    if (found != schema.size()) {
      return Status::InvalidArgument("ambiguous column reference: " + column);
    }
    found = i;
  }
  if (found == schema.size()) {
    return Status::NotFound(
        "unknown column: " + (table.empty() ? column : table + "." + column));
  }
  return found;
}

}  // namespace

Result<Value> EvalBinary(Expr::Op op, const Value& lhs, const Value& rhs) {
  // Logical connectives use SQL-ish semantics with NULL as unknown.
  if (op == Expr::Op::kAnd) {
    if (!lhs.is_null() && !IsTruthy(lhs)) return Value::Integer(0);
    if (!rhs.is_null() && !IsTruthy(rhs)) return Value::Integer(0);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Integer(1);
  }
  if (op == Expr::Op::kOr) {
    if (!lhs.is_null() && IsTruthy(lhs)) return Value::Integer(1);
    if (!rhs.is_null() && IsTruthy(rhs)) return Value::Integer(1);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Integer(0);
  }
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  switch (op) {
    case Expr::Op::kEq:
      return Value::Integer(lhs.Compare(rhs) == 0 ? 1 : 0);
    case Expr::Op::kNe:
      return Value::Integer(lhs.Compare(rhs) != 0 ? 1 : 0);
    case Expr::Op::kLt:
      return Value::Integer(lhs.Compare(rhs) < 0 ? 1 : 0);
    case Expr::Op::kLe:
      return Value::Integer(lhs.Compare(rhs) <= 0 ? 1 : 0);
    case Expr::Op::kGt:
      return Value::Integer(lhs.Compare(rhs) > 0 ? 1 : 0);
    case Expr::Op::kGe:
      return Value::Integer(lhs.Compare(rhs) >= 0 ? 1 : 0);
    case Expr::Op::kLike:
    case Expr::Op::kNotLike: {
      if (!lhs.IsStringKind() || !rhs.IsStringKind()) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      bool m = LikeMatch(lhs.AsString(), rhs.AsString());
      if (op == Expr::Op::kNotLike) m = !m;
      return Value::Integer(m ? 1 : 0);
    }
    case Expr::Op::kAdd:
    case Expr::Op::kSub:
    case Expr::Op::kMul:
    case Expr::Op::kDiv: {
      if (!lhs.IsNumericKind() || !rhs.IsNumericKind()) {
        return Status::InvalidArgument("arithmetic requires numeric operands");
      }
      bool integral = lhs.type() != DataType::kDouble &&
                      rhs.type() != DataType::kDouble;
      double a = lhs.AsDouble();
      double b = rhs.AsDouble();
      double r = 0;
      switch (op) {
        case Expr::Op::kAdd: r = a + b; break;
        case Expr::Op::kSub: r = a - b; break;
        case Expr::Op::kMul: r = a * b; break;
        case Expr::Op::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          if (integral) {
            return Value::Integer(lhs.AsInt() / rhs.AsInt());
          }
          r = a / b;
          break;
        default:
          break;
      }
      if (integral && op != Expr::Op::kDiv) {
        return Value::Integer(static_cast<int64_t>(r));
      }
      return Value::Double(r);
    }
    default:
      return Status::Internal("bad binary operator");
  }
}

namespace {

Result<Value> EvalCall(const Expr& expr, const EvalEnv& env) {
  if (IsAggregateFunction(expr.func)) {
    return Status::InvalidArgument("aggregate function " + expr.func +
                                   " not allowed here");
  }
  std::vector<Value> args;
  for (const auto& a : expr.args) {
    EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*a, env));
    args.push_back(std::move(v));
  }
  auto need = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument(expr.func + ": wrong argument count");
    }
    return Status::OK();
  };
  if (expr.func == "UPPER" || expr.func == "LOWER") {
    EASIA_RETURN_IF_ERROR(need(1, 1));
    if (args[0].is_null()) return Value::Null();
    std::string s = args[0].AsString();
    return Value::Varchar(expr.func == "UPPER" ? ToUpper(s) : ToLower(s));
  }
  if (expr.func == "LENGTH") {
    EASIA_RETURN_IF_ERROR(need(1, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].IsStringKind()) {
      return Value::Integer(static_cast<int64_t>(args[0].AsString().size()));
    }
    return Value::Integer(
        static_cast<int64_t>(args[0].ToDisplayString().size()));
  }
  if (expr.func == "ABS") {
    EASIA_RETURN_IF_ERROR(need(1, 1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kDouble) {
      return Value::Double(std::fabs(args[0].AsDouble()));
    }
    return Value::Integer(std::llabs(args[0].AsInt()));
  }
  if (expr.func == "SUBSTR" || expr.func == "SUBSTRING") {
    EASIA_RETURN_IF_ERROR(need(2, 3));
    if (args[0].is_null()) return Value::Null();
    const std::string& s = args[0].AsString();
    int64_t start = args[1].AsInt();  // 1-based per SQL
    if (start < 1) start = 1;
    size_t from = static_cast<size_t>(start - 1);
    if (from >= s.size()) return Value::Varchar("");
    size_t len = s.size() - from;
    if (args.size() == 3 && !args[2].is_null()) {
      int64_t l = args[2].AsInt();
      if (l < 0) l = 0;
      len = std::min<size_t>(len, static_cast<size_t>(l));
    }
    return Value::Varchar(s.substr(from, len));
  }
  if (expr.func == "COALESCE") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  return Status::Unimplemented("unknown function " + expr.func);
}

}  // namespace

bool IsTruthy(const Value& value) {
  if (value.is_null()) return false;
  if (value.IsNumericKind()) return value.AsDouble() != 0;
  return !value.AsString().empty();
}

std::vector<ColumnBinding> SchemaOf(const TableDef& def,
                                    const std::string& alias) {
  std::vector<ColumnBinding> schema;
  for (const ColumnDef& col : def.columns) {
    schema.push_back({alias, col.name, col.type, &col});
  }
  return schema;
}

namespace {

/// The current row's value of column reference `expr`, in place.
Result<const Value*> ColumnRef(const Expr& expr, const EvalEnv& env) {
  if (env.schema == nullptr || env.row == nullptr) {
    return Status::InvalidArgument("column reference '" + expr.column +
                                   "' outside row context");
  }
  if (env.slots != nullptr) {
    for (const auto& [node, slot] : *env.slots) {
      if (node == &expr) return &(*env.row)[slot];
    }
  }
  EASIA_ASSIGN_OR_RETURN(
      size_t idx, ResolveColumn(*env.schema, expr.table, expr.column));
  if (env.slots != nullptr) env.slots->emplace_back(&expr, idx);
  return &(*env.row)[idx];
}

/// Evaluates `expr` without copying a column or literal operand: the
/// result points into the current row or the AST. Other kinds are
/// evaluated into `*scratch`, which the result then points at.
Result<const Value*> EvalRef(const Expr& expr, const EvalEnv& env,
                             Value* scratch) {
  if (expr.kind == Expr::Kind::kLiteral) return &expr.literal;
  if (expr.kind == Expr::Kind::kColumn) return ColumnRef(expr, env);
  EASIA_ASSIGN_OR_RETURN(*scratch, EvalExpr(expr, env));
  return scratch;
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const EvalEnv& env) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumn: {
      EASIA_ASSIGN_OR_RETURN(const Value* v, ColumnRef(expr, env));
      return *v;
    }
    case Expr::Kind::kUnary: {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.left, env));
      if (expr.op == Expr::Op::kNot) {
        if (v.is_null()) return Value::Null();
        return Value::Integer(IsTruthy(v) ? 0 : 1);
      }
      if (expr.op == Expr::Op::kNeg) {
        if (v.is_null()) return Value::Null();
        if (v.type() == DataType::kDouble) return Value::Double(-v.AsDouble());
        if (v.IsNumericKind()) return Value::Integer(-v.AsInt());
        return Status::InvalidArgument("unary minus on non-numeric value");
      }
      return Status::Internal("bad unary operator");
    }
    case Expr::Kind::kBinary: {
      Value lhs_scratch;
      Value rhs_scratch;
      EASIA_ASSIGN_OR_RETURN(const Value* lhs,
                             EvalRef(*expr.left, env, &lhs_scratch));
      EASIA_ASSIGN_OR_RETURN(const Value* rhs,
                             EvalRef(*expr.right, env, &rhs_scratch));
      return EvalBinary(expr.op, *lhs, *rhs);
    }
    case Expr::Kind::kIsNull: {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.left, env));
      bool null = v.is_null();
      return Value::Integer((expr.negated ? !null : null) ? 1 : 0);
    }
    case Expr::Kind::kInList: {
      EASIA_ASSIGN_OR_RETURN(Value needle, EvalExpr(*expr.left, env));
      if (needle.is_null()) return Value::Null();
      for (const auto& item : expr.args) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*item, env));
        if (!v.is_null() && needle.Compare(v) == 0) {
          return Value::Integer(expr.negated ? 0 : 1);
        }
      }
      return Value::Integer(expr.negated ? 1 : 0);
    }
    case Expr::Kind::kCall:
      return EvalCall(expr, env);
  }
  return Status::Internal("bad expression kind");
}

Result<bool> RowFilter::Passes(const Row& row) {
  EvalEnv env{schema_, &row, &slots_};
  Value scratch;
  for (const Expr* e : *conjuncts_) {
    if (e == nullptr) continue;
    EASIA_ASSIGN_OR_RETURN(const Value* v, EvalRef(*e, env, &scratch));
    if (!IsTruthy(*v)) return false;
  }
  return true;
}

Status ForEachMatchingRow(
    const Table& table, const std::vector<ColumnBinding>& schema,
    const std::vector<const Expr*>& conjuncts,
    const std::function<Status(RowId, const Row&)>& fn) {
  RowFilter filter(schema, conjuncts);
  Status status;
  table.ForEachRow([&](RowId id, const Row& row) {
    if (!status.ok()) return;
    Result<bool> pass = filter.Passes(row);
    if (!pass.ok()) {
      status = std::move(pass).status();
    } else if (*pass) {
      status = fn(id, row);
    }
  });
  return status;
}

namespace {

/// Accumulates wall time into `*slot` for the guard's lifetime (null slot:
/// inert). Used for per-operator profile timings.
struct TimeGuard {
  explicit TimeGuard(double* s) : slot(s) {
    if (slot != nullptr) t0 = std::chrono::steady_clock::now();
  }
  ~TimeGuard() {
    if (slot != nullptr) {
      *slot += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    }
  }
  double* slot;
  std::chrono::steady_clock::time_point t0;
};

/// Planned row production: per-scan access paths with pushed predicates,
/// hash, index-loop or nested-loop joins, residual WHERE, and optional
/// early cutoff once LIMIT(+OFFSET) rows survive every filter.
///
/// Output order matches the naive nested-loop reference executor
/// (testing::ExecuteSelectNaive) exactly. For FROM-order plans the
/// production is naturally left-major, RowId-minor: index fetches return
/// RowIds ascending, and hash buckets preserve insertion order for equal
/// keys. When the cost-based planner reordered the joins, each produced
/// row is remapped back to the original FROM column order and the result
/// sorted by its tuple of per-table RowIds (FROM order, lexicographic) —
/// which is precisely the order the nested loops over RowId-ascending
/// streams would have produced.
Status BuildRowsPlanned(const SelectPlan& plan,
                        std::vector<ColumnBinding>* schema_out,
                        std::vector<Row>* rows_out, PlanProfile* profile,
                        obs::Tracer* tracer) {
  const size_t n = plan.scans.size();
  // cum_schemas[d] covers scans[0..d-1]; cum_schemas[n] is the full schema.
  std::vector<std::vector<ColumnBinding>> scan_schemas(n);
  std::vector<std::vector<ColumnBinding>> cum_schemas(n + 1);
  for (size_t i = 0; i < n; ++i) {
    scan_schemas[i] = SchemaOf(plan.scans[i].table->def(), plan.scans[i].alias);
    cum_schemas[i + 1] = cum_schemas[i];
    cum_schemas[i + 1].insert(cum_schemas[i + 1].end(),
                              scan_schemas[i].begin(), scan_schemas[i].end());
  }

  // Scans attached by an index-loop join are never materialised up front:
  // their rows are fetched per accumulated left row inside the join.
  std::vector<bool> via_index_loop(n, false);
  for (size_t j = 0; j + 1 < n; ++j) {
    if (plan.joins[j].strategy == JoinPlan::Strategy::kIndexLoop) {
      via_index_loop[j + 1] = true;
    }
  }

  // Materialise each remaining scan through its access path, keeping the
  // source RowId of every surviving row (order restoration needs them).
  // A sequential scan filters each stored row in place and copies only
  // survivors. The other paths fetch candidates first; pushed predicates
  // are re-evaluated on every fetched row — including index hits — so the
  // index key coercion can never change which rows qualify.
  std::vector<RowFilter> scan_filters;
  for (size_t i = 0; i < n; ++i) {
    scan_filters.emplace_back(scan_schemas[i], plan.scans[i].pushed);
  }
  std::vector<std::vector<Row>> base(n);
  std::vector<std::vector<RowId>> base_ids(n);
  for (size_t i = 0; i < n; ++i) {
    if (via_index_loop[i]) continue;
    const ScanPlan& scan = plan.scans[i];
    obs::Tracer::Scope span(tracer, "exec:scan:" + scan.alias);
    TimeGuard tg(profile != nullptr ? &profile->scans[i].seconds : nullptr);
    if (scan.access == ScanPlan::Access::kSeqScan && !scan.kernel_filter) {
      EASIA_RETURN_IF_ERROR(ForEachMatchingRow(
          *scan.table, scan_schemas[i], scan.pushed,
          [&](RowId id, const Row& row) {
            base[i].push_back(row);
            base_ids[i].push_back(id);
            return Status::OK();
          }));
    } else {
      std::vector<RowId> ids;
      if (scan.access == ScanPlan::Access::kSeqScan) {
        // Columnar filter kernel: matching RowIds over the raw arrays; it
        // can only narrow the candidate set, never change which rows
        // qualify.
        ids = scan.table->column_store()->FilterScan(scan.kernel_predicates);
      } else if (scan.access == ScanPlan::Access::kPrefixScan) {
        // Radix candidates are a superset of the LIKE matches (the
        // pattern's wildcard tail still applies); the pushed LIKE conjunct
        // does the exact filtering.
        ids = scan.table->RadixPrefixRowIds(scan.index_columns[0],
                                            scan.prefix);
      } else {
        EASIA_ASSIGN_OR_RETURN(
            ids, scan.table->FindByIndex(scan.index_columns, scan.key_values));
      }
      std::vector<Row> fetched;
      fetched.reserve(ids.size());
      for (RowId id : ids) {
        EASIA_ASSIGN_OR_RETURN(Row row, scan.table->Get(id));
        fetched.push_back(std::move(row));
      }
      for (size_t r = 0; r < fetched.size(); ++r) {
        EASIA_ASSIGN_OR_RETURN(bool keep, scan_filters[i].Passes(fetched[r]));
        if (keep) {
          base[i].push_back(std::move(fetched[r]));
          base_ids[i].push_back(ids[r]);
        }
      }
    }
    if (profile != nullptr) {
      profile->scans[i].actual_rows = static_cast<int64_t>(base[i].size());
    }
  }

  // Hash tables for hash joins: right-side base row indexes keyed by their
  // join keys. Rows with a NULL key can never match and are left out.
  std::vector<std::multimap<std::string, size_t>> hashes(n);
  for (size_t j = 0; j + 1 < n; ++j) {
    const JoinPlan& join = plan.joins[j];
    if (join.strategy != JoinPlan::Strategy::kHashJoin) continue;
    TimeGuard tg(profile != nullptr ? &profile->joins[j].seconds : nullptr);
    for (size_t r = 0; r < base[j + 1].size(); ++r) {
      EvalEnv env{&scan_schemas[j + 1], &base[j + 1][r]};
      std::string key;
      bool null_key = false;
      for (const Expr* e : join.right_keys) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (v.is_null()) {
          null_key = true;
          break;
        }
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      if (!null_key) hashes[j + 1].emplace(std::move(key), r);
    }
  }

  // Order-restoration bookkeeping for reordered plans: per-exec-position
  // column offsets, exec position of each FROM entry, and the RowId chosen
  // at each depth of the current DFS path.
  const bool restore = plan.reordered;
  std::vector<size_t> offset(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    offset[i + 1] = offset[i] + scan_schemas[i].size();
  }
  std::vector<size_t> pos_of_from(n, 0);
  for (size_t p = 0; p < n; ++p) pos_of_from[plan.scans[p].from_index] = p;
  std::vector<RowId> rid_stack(n, 0);
  struct KeyedRow {
    std::vector<RowId> key;  // RowIds in FROM order
    Row row;                 // columns in FROM order
  };
  std::vector<KeyedRow> keyed;

  // Depth-first pipelined production; `extend` returns true to stop early
  // once the LIMIT cutoff is satisfied (the planner never reorders a
  // cutoff plan, so restoration and early exit never mix).
  std::vector<Row> out;
  int64_t produced = 0;
  std::vector<double> incl(n + 2, 0.0);  // inclusive DFS time per depth
  std::vector<int64_t> join_out(n, 0);   // rows surviving joins[depth-1]
  std::vector<int64_t> loop_scan_rows(n, 0);  // index-loop fetched+filtered
  const int64_t cutoff = plan.row_cutoff;
  RowFilter residual(cum_schemas[n], plan.residual_where);
  std::vector<RowFilter> join_filters;  // joins[j] runs on cum_schemas[j + 2]
  for (size_t j = 0; j + 1 < n; ++j) {
    join_filters.emplace_back(cum_schemas[j + 2], plan.joins[j].residual);
  }
  std::function<Result<bool>(Row&, size_t)> extend =
      [&](Row& so_far, size_t depth) -> Result<bool> {
    TimeGuard tg(profile != nullptr ? &incl[depth] : nullptr);
    if (depth == n) {
      EASIA_ASSIGN_OR_RETURN(bool keep, residual.Passes(so_far));
      if (!keep) return false;
      if (restore) {
        KeyedRow kr;
        kr.key.reserve(n);
        kr.row.reserve(so_far.size());
        for (size_t f = 0; f < n; ++f) {
          size_t p = pos_of_from[f];
          kr.key.push_back(rid_stack[p]);
          for (size_t c = offset[p]; c < offset[p + 1]; ++c) {
            kr.row.push_back(so_far[c]);
          }
        }
        keyed.push_back(std::move(kr));
      } else {
        out.push_back(so_far);
      }
      ++produced;
      return cutoff >= 0 && produced >= cutoff;
    }
    const JoinPlan& join = plan.joins[depth - 1];
    auto try_right = [&](const Row& right, RowId rid) -> Result<bool> {
      size_t old_size = so_far.size();
      so_far.insert(so_far.end(), right.begin(), right.end());
      rid_stack[depth] = rid;
      EASIA_ASSIGN_OR_RETURN(bool keep, join_filters[depth - 1].Passes(so_far));
      bool stop = false;
      if (keep) {
        ++join_out[depth - 1];
        EASIA_ASSIGN_OR_RETURN(stop, extend(so_far, depth + 1));
      }
      so_far.resize(old_size);
      return stop;
    };
    if (join.strategy == JoinPlan::Strategy::kHashJoin) {
      EvalEnv env{&cum_schemas[depth], &so_far};
      std::string key;
      for (const Expr* e : join.left_keys) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (v.is_null()) return false;  // NULL never equi-joins
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      auto range = hashes[depth].equal_range(key);
      for (auto it = range.first; it != range.second; ++it) {
        EASIA_ASSIGN_OR_RETURN(
            bool stop,
            try_right(base[depth][it->second], base_ids[depth][it->second]));
        if (stop) return true;
      }
      return false;
    }
    if (join.strategy == JoinPlan::Strategy::kIndexLoop) {
      // Per left row: evaluate the key, fetch matching right rows through
      // the index (RowIds ascending, so per-key order matches the hash
      // path), apply the scan's pushed predicates per fetched row.
      const ScanPlan& scan = plan.scans[depth];
      EvalEnv env{&cum_schemas[depth], &so_far};
      std::vector<Value> key_values;
      for (const Expr* e : join.left_keys) {
        EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env));
        if (v.is_null()) return false;  // NULL never equi-joins
        key_values.push_back(std::move(v));
      }
      EASIA_ASSIGN_OR_RETURN(
          std::vector<RowId> ids,
          scan.table->FindByIndex(join.index_columns, key_values));
      for (RowId id : ids) {
        EASIA_ASSIGN_OR_RETURN(Row row, scan.table->Get(id));
        EASIA_ASSIGN_OR_RETURN(bool keep, scan_filters[depth].Passes(row));
        if (!keep) continue;
        ++loop_scan_rows[depth];
        EASIA_ASSIGN_OR_RETURN(bool stop, try_right(row, id));
        if (stop) return true;
      }
      return false;
    }
    for (size_t r = 0; r < base[depth].size(); ++r) {
      EASIA_ASSIGN_OR_RETURN(bool stop,
                             try_right(base[depth][r], base_ids[depth][r]));
      if (stop) return true;
    }
    return false;
  };
  {
    obs::Tracer::Scope span(tracer, n > 1 ? "exec:join-pipeline"
                                          : "exec:scan-output");
    for (size_t r = 0; r < base[0].size(); ++r) {
      Row so_far = base[0][r];
      rid_stack[0] = base_ids[0][r];
      EASIA_ASSIGN_OR_RETURN(bool stop, extend(so_far, 1));
      if (stop) break;
    }
  }
  if (restore) {
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedRow& a, const KeyedRow& b) {
                return a.key < b.key;
              });
    out.reserve(keyed.size());
    for (KeyedRow& kr : keyed) out.push_back(std::move(kr.row));
    std::vector<ColumnBinding> schema;
    for (size_t f = 0; f < n; ++f) {
      const std::vector<ColumnBinding>& s = scan_schemas[pos_of_from[f]];
      schema.insert(schema.end(), s.begin(), s.end());
    }
    *schema_out = std::move(schema);
  } else {
    *schema_out = std::move(cum_schemas[n]);
  }
  *rows_out = std::move(out);
  if (profile != nullptr) {
    for (size_t j = 0; j + 1 < n; ++j) {
      profile->joins[j].actual_rows = join_out[j];
      // Exclusive DFS time at the depth this join runs (join j executes in
      // extend() calls at depth j + 1; deeper time belongs to later ops).
      profile->joins[j].seconds +=
          std::max(0.0, incl[j + 1] - incl[j + 2]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (via_index_loop[i]) {
        profile->scans[i].actual_rows = loop_scan_rows[i];
      }
    }
  }
  return Status::OK();
}

/// Whole-query columnar aggregation: one AggregateScan kernel call replaces
/// row materialisation and grouping. Only reached when the planner proved
/// the query maps exactly onto the kernel (plan.aggregate.fast_path): the
/// kernel's AggSpecs are then the statement's aggregate nodes in walk
/// order, so FinishGroups reads them like row-path states.
Result<QueryResult> ExecuteAggregateFast(const SelectStmt& stmt,
                                         const SelectPlan& plan,
                                         const DatalinkRewriter& rewriter) {
  const ScanPlan& scan = plan.scans[0];
  EASIA_ASSIGN_OR_RETURN(
      std::vector<AggGroup> groups,
      scan.table->column_store()->AggregateScan(scan.kernel_predicates,
                                                plan.aggregate.group_by_cols,
                                                plan.aggregate.aggs));
  return FinishGroups(stmt, SchemaOf(scan.table->def(), scan.alias),
                      CollectAggregateNodes(stmt), std::move(groups),
                      rewriter);
}

}  // namespace

Result<QueryResult> FinishSelect(const SelectStmt& stmt,
                                 const std::vector<ColumnBinding>& schema,
                                 std::vector<Row> rows,
                                 const DatalinkRewriter& rewriter) {
  std::vector<AggGroup> groups;
  if (!IsAggregateQuery(stmt)) {
    // Each row is its own group, with no aggregate state.
    groups.reserve(rows.size());
    for (Row& row : rows) groups.push_back({std::move(row), 1, {}});
    return FinishGroups(stmt, schema, {}, std::move(groups), rewriter);
  }
  // Group by GROUP BY key (one group when absent), in first-seen order.
  std::vector<const Expr*> nodes = CollectAggregateNodes(stmt);
  std::map<std::string, size_t> group_of;
  for (Row& row : rows) {
    EvalEnv env{&schema, &row};
    std::string key;
    for (const auto& g : stmt.group_by) {
      EASIA_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, env));
      PutLengthPrefixed(&key, v.ToKeyString());
    }
    auto [it, inserted] = group_of.try_emplace(std::move(key), groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().aggs.resize(nodes.size());
    }
    AggGroup& group = groups[it->second];
    AccumulateRow(nodes, env, &group);
    if (inserted) group.first_row = std::move(row);
  }
  return FinishGroups(stmt, schema, nodes, std::move(groups), rewriter);
}

Result<QueryResult> ExecuteSelect(const SelectStmt& stmt,
                                  const TableLookup& lookup,
                                  const DatalinkRewriter& rewriter,
                                  const ExecuteOptions& options) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  PlanProfile* profile = options.profile;
  const auto t0 = std::chrono::steady_clock::now();
  auto run = [&]() -> Result<QueryResult> {
    PlannerOptions planner_options;
    planner_options.cost_based = options.cost_based;
    EASIA_ASSIGN_OR_RETURN(SelectPlan plan,
                           PlanSelect(stmt, lookup, planner_options));
    if (options.plan_observer != nullptr) options.plan_observer(plan);
    if (profile != nullptr) {
      profile->scans.assign(plan.scans.size(), PlanProfile::Op{});
      profile->joins.assign(plan.joins.size(), PlanProfile::Op{});
      for (size_t i = 0; i < plan.scans.size(); ++i) {
        profile->scans[i].est_rows = plan.scans[i].est_rows;
      }
      for (size_t j = 0; j < plan.joins.size(); ++j) {
        profile->joins[j].est_rows = plan.joins[j].est_rows;
      }
    }
    if (plan.aggregate.fast_path) {
      obs::Tracer::Scope span(options.tracer, "exec:aggregate-kernel");
      TimeGuard tg(profile != nullptr && !profile->scans.empty()
                       ? &profile->scans[0].seconds
                       : nullptr);
      return ExecuteAggregateFast(stmt, plan, rewriter);
    }
    std::vector<ColumnBinding> schema;
    std::vector<Row> rows;
    EASIA_RETURN_IF_ERROR(
        BuildRowsPlanned(plan, &schema, &rows, profile, options.tracer));
    obs::Tracer::Scope span(options.tracer, "exec:finish");
    return FinishSelect(stmt, schema, std::move(rows), rewriter);
  };
  Result<QueryResult> result = run();
  if (profile != nullptr) {
    profile->total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (result.ok()) {
      profile->result_rows = static_cast<int64_t>(result->rows.size());
    }
  }
  return result;
}

}  // namespace easia::db

#include "db/aggregate.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "db/database.h"
#include "db/executor.h"

namespace easia::db {

void AggState::Update(const Value& v) {
  if (!error_.ok() || v.is_null()) return;
  if (v.type() == DataType::kDouble) {
    AddDouble(v.AsDouble());
  } else if (v.IsNumericKind()) {
    AddInt(v.AsInt());
  } else {
    ++count_;
    non_numeric_ = true;
  }
  if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
  if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
}

void AggState::Fail(Status status) {
  if (error_.ok()) error_ = std::move(status);
}

void AggState::Merge(const AggState& other) {
  if (error_.ok()) error_ = other.error_;
  count_ += other.count_;
  isum_ += other.isum_;
  dsum_ += other.dsum_;
  all_int_ = all_int_ && other.all_int_;
  non_numeric_ = non_numeric_ || other.non_numeric_;
  if (!other.min_.is_null() &&
      (min_.is_null() || other.min_.Compare(min_) < 0)) {
    min_ = other.min_;
  }
  if (!other.max_.is_null() &&
      (max_.is_null() || other.max_.Compare(max_) > 0)) {
    max_ = other.max_;
  }
}

Result<Value> AggState::Finish(std::string_view fn) const {
  const bool sum_like = fn == "SUM" || fn == "AVG";
  // A non-numeric value reached SUM/AVG before any error (Update ignores
  // values after one), so it is the failure a row-by-row pass meets first.
  if (sum_like && non_numeric_) {
    return Status::InvalidArgument(std::string(fn) +
                                   " over non-numeric column");
  }
  if (!error_.ok()) return error_;
  if (fn == "COUNT") return Value::Integer(count_);
  if (count_ == 0) return Value::Null();
  if (fn == "MIN") return min_;
  if (fn == "MAX") return max_;
  if (!all_int_) {
    if (fn == "SUM") return Value::Double(dsum_);
    return Value::Double(dsum_ / static_cast<double>(count_));
  }
  if (fn == "AVG") {
    return Value::Double(static_cast<double>(isum_) /
                         static_cast<double>(count_));
  }
  constexpr __int128 kInt64Min = std::numeric_limits<int64_t>::min();
  constexpr __int128 kInt64Max = std::numeric_limits<int64_t>::max();
  if (isum_ >= kInt64Min && isum_ <= kInt64Max) {
    return Value::Integer(static_cast<int64_t>(isum_));
  }
  return Value::Double(static_cast<double>(isum_));
}

bool AggState::MergeExact(std::string_view fn) const {
  if (!error_.ok()) return false;
  if (fn == "SUM" || fn == "AVG") return all_int_ && !non_numeric_;
  return true;
}

namespace {

/// COUNT(*) and wrong-arity calls read no argument, so they keep no state.
bool HasArgumentState(const Expr& call) {
  return call.args.size() == 1 && !(call.star && call.func == "COUNT");
}

void CollectFrom(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kCall && IsAggregateFunction(e->func)) {
    out->push_back(e);
  } else if (e->kind == Expr::Kind::kBinary) {
    CollectFrom(e->left.get(), out);
    CollectFrom(e->right.get(), out);
  }
}

/// Output column name, type and source column of a SELECT item.
std::string DefaultItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind == Expr::Kind::kColumn) {
    return item.expr->column;
  }
  if (item.expr != nullptr) return item.expr->ToString();
  return StrPrintf("col%zu", index + 1);
}

DataType GuessItemType(const Expr& expr,
                       const std::vector<ColumnBinding>& schema) {
  if (expr.kind == Expr::Kind::kColumn) {
    for (const ColumnBinding& b : schema) {
      if ((expr.table.empty() || EqualsIgnoreCase(b.table_alias, expr.table)) &&
          EqualsIgnoreCase(b.column, expr.column)) {
        return b.type;
      }
    }
  }
  if (expr.kind == Expr::Kind::kLiteral) return expr.literal.type();
  if (expr.kind == Expr::Kind::kCall) {
    if (expr.func == "COUNT" || expr.func == "LENGTH") {
      return DataType::kInteger;
    }
    if (expr.func == "AVG") return DataType::kDouble;
  }
  return DataType::kVarchar;
}

const ColumnDef* SourceColumnDef(const Expr& expr,
                                 const std::vector<ColumnBinding>& schema) {
  if (expr.kind != Expr::Kind::kColumn) return nullptr;
  for (const ColumnBinding& b : schema) {
    if ((expr.table.empty() || EqualsIgnoreCase(b.table_alias, expr.table)) &&
        EqualsIgnoreCase(b.column, expr.column)) {
      return b.def;
    }
  }
  return nullptr;
}

/// Evaluates `e` for one group (see FinishGroups).
Result<Value> EvalInGroup(const Expr& e,
                          const std::vector<ColumnBinding>& schema,
                          const std::vector<const Expr*>& nodes,
                          const AggGroup& group) {
  if (e.kind == Expr::Kind::kCall) {
    auto it = std::find(nodes.begin(), nodes.end(), &e);
    if (it != nodes.end()) {
      if (e.func == "COUNT" && e.star) return Value::Integer(group.rows);
      if (e.args.size() != 1) {
        return Status::InvalidArgument(e.func + " takes one argument");
      }
      return group.aggs[static_cast<size_t>(it - nodes.begin())].Finish(
          e.func);
    }
  }
  if (e.kind == Expr::Kind::kBinary) {
    EASIA_ASSIGN_OR_RETURN(Value lhs,
                           EvalInGroup(*e.left, schema, nodes, group));
    EASIA_ASSIGN_OR_RETURN(Value rhs,
                           EvalInGroup(*e.right, schema, nodes, group));
    return EvalBinary(e.op, lhs, rhs);
  }
  if (group.rows == 0) return Value::Null();
  EvalEnv env{&schema, &group.first_row};
  return EvalExpr(e, env);
}

}  // namespace

std::vector<const Expr*> CollectAggregateNodes(const SelectStmt& stmt) {
  std::vector<const Expr*> nodes;
  for (const SelectItem& item : stmt.items) CollectFrom(item.expr.get(), &nodes);
  CollectFrom(stmt.having.get(), &nodes);
  for (const OrderItem& item : stmt.order_by) {
    CollectFrom(item.expr.get(), &nodes);
  }
  return nodes;
}

void AccumulateRow(const std::vector<const Expr*>& nodes, const EvalEnv& env,
                   AggGroup* group) {
  ++group->rows;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!HasArgumentState(*nodes[i])) continue;
    Result<Value> v = EvalExpr(*nodes[i]->args[0], env);
    if (v.ok()) {
      group->aggs[i].Update(*v);
    } else {
      group->aggs[i].Fail(v.status());
    }
  }
}

bool IsAggregateQuery(const SelectStmt& stmt) {
  if (!stmt.group_by.empty() || stmt.having != nullptr) return true;
  for (const SelectItem& item : stmt.items) {
    if (item.expr != nullptr && item.expr->ContainsAggregate()) return true;
  }
  return false;
}

Result<QueryResult> FinishGroups(const SelectStmt& stmt,
                                 const std::vector<ColumnBinding>& schema,
                                 const std::vector<const Expr*>& nodes,
                                 std::vector<AggGroup> groups,
                                 const DatalinkRewriter& rewriter) {
  // --- Expand projection items ---
  struct OutputItem {
    std::string name;
    DataType type;
    const ColumnDef* source_def;
    const Expr* expr;     // null only for expanded stars
    size_t direct_index;  // first-row column when expr == nullptr
  };
  std::vector<OutputItem> outputs;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      for (size_t c = 0; c < schema.size(); ++c) {
        if (!item.star_table.empty() &&
            !EqualsIgnoreCase(schema[c].table_alias, item.star_table)) {
          continue;
        }
        outputs.push_back({schema[c].column, schema[c].type, schema[c].def,
                           nullptr, c});
      }
      if (!item.star_table.empty() && outputs.empty()) {
        return Status::NotFound("unknown table in select list: " +
                                item.star_table);
      }
      continue;
    }
    outputs.push_back({DefaultItemName(item, i),
                       GuessItemType(*item.expr, schema),
                       SourceColumnDef(*item.expr, schema), item.expr.get(),
                       0});
  }
  if (outputs.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  QueryResult result;
  result.is_query = true;
  for (const OutputItem& o : outputs) {
    result.column_names.push_back(o.name);
    result.column_types.push_back(o.type);
  }

  // An aggregate without GROUP BY over no rows still yields one group.
  if (groups.empty() && stmt.group_by.empty() && IsAggregateQuery(stmt)) {
    groups.emplace_back();
    groups.back().aggs.resize(nodes.size());
  }

  // Pair each output row with its ORDER BY keys.
  struct ProjectedRow {
    Row values;
    Row sort_keys;
  };
  std::vector<ProjectedRow> projected;
  projected.reserve(groups.size());
  for (const AggGroup& group : groups) {
    if (stmt.having != nullptr) {
      EASIA_ASSIGN_OR_RETURN(Value h,
                             EvalInGroup(*stmt.having, schema, nodes, group));
      if (!IsTruthy(h)) continue;
    }
    ProjectedRow out;
    out.values.reserve(outputs.size());
    for (const OutputItem& o : outputs) {
      if (o.expr == nullptr) {
        out.values.push_back(group.rows == 0 ? Value::Null()
                                             : group.first_row[o.direct_index]);
        continue;
      }
      EASIA_ASSIGN_OR_RETURN(Value v, EvalInGroup(*o.expr, schema, nodes, group));
      out.values.push_back(std::move(v));
    }
    for (const OrderItem& item : stmt.order_by) {
      // ORDER BY may name an output alias or a 1-based output position.
      const Value* output = nullptr;
      const Expr& e = *item.expr;
      if (e.kind == Expr::Kind::kColumn && e.table.empty()) {
        for (size_t i = 0; i < outputs.size() && output == nullptr; ++i) {
          if (EqualsIgnoreCase(outputs[i].name, e.column)) {
            output = &out.values[i];
          }
        }
      } else if (e.kind == Expr::Kind::kLiteral &&
                 e.literal.type() == DataType::kInteger &&
                 e.literal.AsInt() >= 1 &&
                 static_cast<size_t>(e.literal.AsInt()) <= outputs.size()) {
        output = &out.values[static_cast<size_t>(e.literal.AsInt()) - 1];
      }
      if (output != nullptr) {
        out.sort_keys.push_back(*output);
        continue;
      }
      EASIA_ASSIGN_OR_RETURN(Value v, EvalInGroup(e, schema, nodes, group));
      out.sort_keys.push_back(std::move(v));
    }
    projected.push_back(std::move(out));
  }

  // --- DISTINCT ---
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<ProjectedRow> unique_rows;
    for (ProjectedRow& pr : projected) {
      std::string key;
      for (const Value& v : pr.values) {
        PutLengthPrefixed(&key, v.ToKeyString());
      }
      if (seen.insert(key).second) unique_rows.push_back(std::move(pr));
    }
    projected = std::move(unique_rows);
  }

  // --- ORDER BY (stable) ---
  if (!stmt.order_by.empty()) {
    std::stable_sort(projected.begin(), projected.end(),
                     [&](const ProjectedRow& a, const ProjectedRow& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         int c = a.sort_keys[i].Compare(b.sort_keys[i]);
                         if (c != 0) {
                           return stmt.order_by[i].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
  }

  // --- OFFSET / LIMIT ---
  size_t begin = std::min<size_t>(static_cast<size_t>(std::max<int64_t>(
                                      stmt.offset, 0)),
                                  projected.size());
  size_t end = projected.size();
  if (stmt.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(stmt.limit));
  }

  // --- DATALINK presentation rewrite ---
  for (size_t r = begin; r < end; ++r) {
    Row& values = projected[r].values;
    if (rewriter != nullptr) {
      for (size_t c = 0; c < outputs.size(); ++c) {
        const ColumnDef* def = outputs[c].source_def;
        if (def != nullptr && def->type == DataType::kDatalink &&
            !values[c].is_null()) {
          EASIA_ASSIGN_OR_RETURN(std::string rewritten,
                                 rewriter(*def, values[c].AsString()));
          values[c] = Value::Datalink(std::move(rewritten));
        }
      }
    }
    result.rows.push_back(std::move(values));
  }
  return result;
}

}  // namespace easia::db

#include "testing/naive_executor.h"

#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace easia::testing {

using db::ColumnBinding;
using db::EvalEnv;
using db::Expr;
using db::Row;
using db::SelectStmt;
using db::Table;
using db::TableDef;
using db::TableRef;
using db::Value;

namespace {

/// Collects top-level AND-ed `column = literal` conjuncts of `expr` into
/// `out` (column name -> literal). Other conjuncts are ignored (they are
/// still applied by the generic WHERE filter).
void CollectEqualityConjuncts(const Expr& expr, const std::string& alias,
                              std::map<std::string, Value>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == Expr::Op::kAnd) {
    CollectEqualityConjuncts(*expr.left, alias, out);
    CollectEqualityConjuncts(*expr.right, alias, out);
    return;
  }
  if (expr.kind != Expr::Kind::kBinary || expr.op != Expr::Op::kEq) return;
  const Expr* column = nullptr;
  const Expr* literal = nullptr;
  for (const Expr* side : {expr.left.get(), expr.right.get()}) {
    if (side->kind == Expr::Kind::kColumn) column = side;
    if (side->kind == Expr::Kind::kLiteral) literal = side;
  }
  if (column == nullptr || literal == nullptr) return;
  if (!column->table.empty() && !EqualsIgnoreCase(column->table, alias)) {
    return;
  }
  out->emplace(ToUpper(column->column), literal->literal);
}

/// Point-lookup fast path: for a single-table query whose WHERE pins every
/// primary-key column with `=` literals, fetch the row through the unique
/// index instead of scanning. Returns true when it applied.
bool TryUniqueLookup(const SelectStmt& stmt, const Table& table,
                     std::vector<Row>* rows) {
  if (stmt.from.size() != 1 || stmt.where == nullptr) return false;
  const TableDef& def = table.def();
  if (def.primary_key.empty()) return false;
  std::map<std::string, Value> equalities;
  CollectEqualityConjuncts(*stmt.where, stmt.from[0].alias, &equalities);
  std::vector<Value> key_values;
  for (const std::string& pk : def.primary_key) {
    auto it = equalities.find(ToUpper(pk));
    if (it == equalities.end() || it->second.is_null()) return false;
    // Coerce the literal to the column type so index keys agree.
    const db::ColumnDef* col = def.FindColumn(pk);
    Result<Value> coerced = it->second.CoerceTo(col->type);
    if (!coerced.ok()) return false;
    key_values.push_back(std::move(*coerced));
  }
  Result<db::RowId> id = table.FindUnique(def.primary_key, key_values);
  if (id.ok()) {
    Result<Row> row = table.Get(*id);
    if (row.ok()) rows->push_back(std::move(*row));
  }
  return true;  // applied (possibly zero rows)
}

/// Naive row production: materialised nested-loop joins left to right,
/// then the whole WHERE as one filter.
Status BuildRowsNaive(const SelectStmt& stmt, const db::TableLookup& lookup,
                      std::vector<ColumnBinding>* schema_out,
                      std::vector<Row>* rows_out) {
  std::vector<ColumnBinding> schema;
  std::vector<Row> rows;
  bool first = true;
  for (const TableRef& ref : stmt.from) {
    EASIA_ASSIGN_OR_RETURN(const Table* table, lookup(ref.table));
    std::vector<ColumnBinding> add;
    for (const db::ColumnDef& col : table->def().columns) {
      add.push_back({ref.alias, col.name, col.type, &col});
    }
    std::vector<ColumnBinding> new_schema = schema;
    new_schema.insert(new_schema.end(), add.begin(), add.end());
    std::vector<Row> new_rows;
    if (first) {
      if (!TryUniqueLookup(stmt, *table, &new_rows)) {
        table->ForEachRow(
            [&new_rows](db::RowId, const Row& row) { new_rows.push_back(row); });
      }
    } else {
      std::vector<Row> right_rows;
      table->ForEachRow([&right_rows](db::RowId, const Row& row) {
        right_rows.push_back(row);
      });
      for (const Row& left : rows) {
        for (const Row& right : right_rows) {
          Row combined = left;
          combined.insert(combined.end(), right.begin(), right.end());
          if (ref.join_condition != nullptr) {
            EvalEnv env{&new_schema, &combined};
            EASIA_ASSIGN_OR_RETURN(Value cond,
                                   db::EvalExpr(*ref.join_condition, env));
            if (!db::IsTruthy(cond)) continue;
          }
          new_rows.push_back(std::move(combined));
        }
      }
    }
    schema = std::move(new_schema);
    rows = std::move(new_rows);
    first = false;
  }
  if (stmt.where != nullptr) {
    std::vector<Row> filtered;
    for (Row& row : rows) {
      EvalEnv env{&schema, &row};
      EASIA_ASSIGN_OR_RETURN(Value cond, db::EvalExpr(*stmt.where, env));
      if (db::IsTruthy(cond)) filtered.push_back(std::move(row));
    }
    rows = std::move(filtered);
  }
  *schema_out = std::move(schema);
  *rows_out = std::move(rows);
  return Status::OK();
}

}  // namespace

Result<db::QueryResult> ExecuteSelectNaive(const SelectStmt& stmt,
                                           const db::TableLookup& lookup) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  std::vector<ColumnBinding> schema;
  std::vector<Row> rows;
  EASIA_RETURN_IF_ERROR(BuildRowsNaive(stmt, lookup, &schema, &rows));
  return db::FinishSelect(stmt, schema, std::move(rows), nullptr);
}

}  // namespace easia::testing

#include "db/schema.h"

#include "common/string_util.h"

namespace easia::db {

std::string DatalinkOptions::ToSql() const {
  std::string out = "DATALINK LINKTYPE URL";
  out += file_link_control ? " FILE LINK CONTROL" : " NO FILE LINK CONTROL";
  if (file_link_control) {
    switch (integrity) {
      case Integrity::kNone:
        break;
      case Integrity::kSelective:
        out += " INTEGRITY SELECTIVE";
        break;
      case Integrity::kAll:
        out += " INTEGRITY ALL";
        break;
    }
    out += read_permission == ReadPermission::kDb ? " READ PERMISSION DB"
                                                  : " READ PERMISSION FS";
    out += write_permission == WritePermission::kBlocked
               ? " WRITE PERMISSION BLOCKED"
               : " WRITE PERMISSION FS";
    out += recovery == Recovery::kYes ? " RECOVERY YES" : " RECOVERY NO";
    switch (on_unlink) {
      case OnUnlink::kNone:
        break;
      case OnUnlink::kRestore:
        out += " ON UNLINK RESTORE";
        break;
      case OnUnlink::kDelete:
        out += " ON UNLINK DELETE";
        break;
    }
  }
  return out;
}

std::string ColumnDef::ToSql() const {
  std::string out = name + " ";
  if (type == DataType::kDatalink && datalink.has_value()) {
    out += datalink->ToSql();
  } else {
    out += DataTypeName(type);
    if (type == DataType::kVarchar && size > 0) {
      out += StrPrintf("(%zu)", size);
    }
  }
  if (not_null) out += " NOT NULL";
  return out;
}

Result<size_t> TableDef::ColumnIndex(std::string_view column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, column_name)) return i;
  }
  return Status::NotFound("no column '" + std::string(column_name) +
                          "' in table " + name);
}

const ColumnDef* TableDef::FindColumn(std::string_view column_name) const {
  for (const ColumnDef& c : columns) {
    if (EqualsIgnoreCase(c.name, column_name)) return &c;
  }
  return nullptr;
}

bool TableDef::IsPrimaryKeyColumn(std::string_view column_name) const {
  for (const std::string& pk : primary_key) {
    if (EqualsIgnoreCase(pk, column_name)) return true;
  }
  return false;
}

std::string TableDef::ToSql() const {
  std::string out = "CREATE TABLE " + name + " (\n";
  for (size_t i = 0; i < columns.size(); ++i) {
    out += "  " + columns[i].ToSql();
    if (i + 1 < columns.size() || !primary_key.empty() ||
        !foreign_keys.empty() || !unique_constraints.empty()) {
      out += ",";
    }
    out += "\n";
  }
  if (!primary_key.empty()) {
    out += "  PRIMARY KEY (" + Join(primary_key, ", ") + ")";
    out += (!foreign_keys.empty() || !unique_constraints.empty()) ? ",\n"
                                                                  : "\n";
  }
  for (size_t i = 0; i < foreign_keys.size(); ++i) {
    const ForeignKeyDef& fk = foreign_keys[i];
    out += "  FOREIGN KEY (" + Join(fk.columns, ", ") + ") REFERENCES " +
           fk.ref_table + " (" + Join(fk.ref_columns, ", ") + ")";
    out += (i + 1 < foreign_keys.size() || !unique_constraints.empty())
               ? ",\n"
               : "\n";
  }
  for (size_t i = 0; i < unique_constraints.size(); ++i) {
    out += "  UNIQUE (" + Join(unique_constraints[i], ", ") + ")";
    out += i + 1 < unique_constraints.size() ? ",\n" : "\n";
  }
  out += ")";
  if (columnar) out += " STORE COLUMNAR";
  if (partitions > 0) {
    out += " PARTITION BY HASH(" + partition_by + ") PARTITIONS " +
           std::to_string(partitions);
  }
  return out;
}

Status Catalog::AddTable(TableDef def) {
  std::string key = ToUpper(def.name);
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table " + def.name + " already exists");
  }
  // Validate FK targets.
  for (const ForeignKeyDef& fk : def.foreign_keys) {
    if (fk.columns.size() != fk.ref_columns.size()) {
      return Status::InvalidArgument(
          "foreign key column count mismatch in table " + def.name);
    }
    // Self-references are allowed; otherwise the target must exist already.
    if (!EqualsIgnoreCase(fk.ref_table, def.name)) {
      auto it = tables_.find(ToUpper(fk.ref_table));
      if (it == tables_.end()) {
        return Status::NotFound("foreign key in " + def.name +
                                " references unknown table " + fk.ref_table);
      }
      for (const std::string& rc : fk.ref_columns) {
        if (it->second.FindColumn(rc) == nullptr) {
          return Status::NotFound("foreign key references unknown column " +
                                  fk.ref_table + "." + rc);
        }
      }
    }
    for (const std::string& c : fk.columns) {
      if (def.FindColumn(c) == nullptr) {
        return Status::NotFound("foreign key uses unknown column " +
                                def.name + "." + c);
      }
    }
  }
  for (const std::string& pk : def.primary_key) {
    if (def.FindColumn(pk) == nullptr) {
      return Status::NotFound("primary key uses unknown column " + def.name +
                              "." + pk);
    }
  }
  if (def.partitions > 0) {
    // Hash partitioning routes every row by one value that UPDATE cannot
    // silently reroute past the unique check and that FindUnique can
    // locate — exactly the single-column primary key.
    if (def.primary_key.size() != 1 ||
        !EqualsIgnoreCase(def.primary_key[0], def.partition_by)) {
      return Status::InvalidArgument(
          "PARTITION BY HASH column " + def.partition_by + " in table " +
          def.name + " must be the table's single primary-key column");
    }
  }
  tables_.emplace(std::move(key), std::move(def));
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = ToUpper(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  // Refuse to drop a table other tables reference.
  for (const auto& [other_key, other] : tables_) {
    if (other_key == key) continue;
    for (const ForeignKeyDef& fk : other.foreign_keys) {
      if (EqualsIgnoreCase(fk.ref_table, name)) {
        return Status::FailedPrecondition("table " + name +
                                          " is referenced by " + other.name);
      }
    }
  }
  tables_.erase(it);
  return Status::OK();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(ToUpper(name)) != 0;
}

Result<const TableDef*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, def] : tables_) out.push_back(def.name);
  return out;
}

std::vector<InboundReference> Catalog::ReferencesTo(
    const std::string& table, const std::string& column) const {
  std::vector<InboundReference> out;
  for (const auto& [key, def] : tables_) {
    for (const ForeignKeyDef& fk : def.foreign_keys) {
      if (!EqualsIgnoreCase(fk.ref_table, table)) continue;
      for (size_t i = 0; i < fk.ref_columns.size(); ++i) {
        if (EqualsIgnoreCase(fk.ref_columns[i], column)) {
          out.push_back({def.name, fk.columns[i]});
        }
      }
    }
  }
  return out;
}

const ForeignKeyDef* Catalog::ForeignKeyOn(const std::string& table,
                                           const std::string& column) const {
  auto it = tables_.find(ToUpper(table));
  if (it == tables_.end()) return nullptr;
  for (const ForeignKeyDef& fk : it->second.foreign_keys) {
    if (!fk.columns.empty() && EqualsIgnoreCase(fk.columns[0], column)) {
      return &fk;
    }
  }
  return nullptr;
}

Result<Row> CoerceRow(const TableDef& def, Row row) {
  for (size_t i = 0; i < def.columns.size(); ++i) {
    const ColumnDef& col = def.columns[i];
    if (row[i].is_null()) {
      if (col.not_null || def.IsPrimaryKeyColumn(col.name)) {
        return Status::ConstraintViolation("column " + def.name + "." +
                                           col.name + " may not be NULL");
      }
      continue;
    }
    EASIA_ASSIGN_OR_RETURN(row[i], row[i].CoerceTo(col.type));
    if (col.type == DataType::kVarchar && col.size > 0 &&
        row[i].AsString().size() > col.size) {
      return Status::ConstraintViolation(
          StrPrintf("value too long for %s.%s (max %zu)", def.name.c_str(),
                    col.name.c_str(), col.size));
    }
  }
  return row;
}

Status CheckForeignKeys(const TableDef& def, const Row& row,
                        const ParentProbe& parent_exists) {
  for (const ForeignKeyDef& fk : def.foreign_keys) {
    std::vector<Value> key;
    bool any_null = false;
    for (const std::string& col : fk.columns) {
      EASIA_ASSIGN_OR_RETURN(size_t idx, def.ColumnIndex(col));
      if (row[idx].is_null()) {
        any_null = true;
        break;
      }
      key.push_back(row[idx]);
    }
    if (any_null) continue;
    EASIA_ASSIGN_OR_RETURN(bool found, parent_exists(fk, key));
    if (!found) {
      return Status::ConstraintViolation(
          "foreign key violation: no row in " + fk.ref_table + " for " +
          def.name + "(" + Join(fk.columns, ",") + ")");
    }
  }
  return Status::OK();
}

Status CheckNoChildren(const Catalog& catalog, const TableDef& def,
                       const Row& old_row, const Row* new_row,
                       const ChildProbe& has_child) {
  for (size_t idx = 0; idx < def.columns.size(); ++idx) {
    std::vector<InboundReference> refs =
        catalog.ReferencesTo(def.name, def.columns[idx].name);
    if (refs.empty()) continue;
    const Value& old_value = old_row[idx];
    if (old_value.is_null()) continue;
    if (new_row != nullptr && (*new_row)[idx].Equals(old_value)) {
      continue;  // value unchanged; children unaffected
    }
    for (const InboundReference& ref : refs) {
      EASIA_ASSIGN_OR_RETURN(const TableDef* child,
                             catalog.GetTable(ref.from_table));
      EASIA_ASSIGN_OR_RETURN(size_t child_idx,
                             child->ColumnIndex(ref.from_column));
      EASIA_ASSIGN_OR_RETURN(bool referenced,
                             has_child(ref, *child, child_idx, old_value));
      if (referenced) {
        return Status::ConstraintViolation(
            "row is referenced by " + ref.from_table + "." + ref.from_column +
            " (RESTRICT)");
      }
    }
  }
  return Status::OK();
}

}  // namespace easia::db

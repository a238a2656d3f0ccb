#include "db/store/column_page.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>

#include "common/string_util.h"

namespace easia::db::store {
namespace {

/// Appends a group-key fragment for one cell. The encoding only needs to
/// partition rows exactly like Value::ToKeyString: a class tag plus the
/// raw double bits (numeric) or length-prefixed bytes (text). Double bits
/// are equal exactly when the %.17g rendering is, -0.0 included.
void AppendKeyFragment(bool is_null, bool numeric, double num,
                       std::string_view text, std::string* key) {
  if (is_null) {
    key->push_back('\x00');
    return;
  }
  if (numeric) {
    key->push_back('\x01');
    char bits[sizeof(double)];
    std::memcpy(bits, &num, sizeof(double));
    key->append(bits, sizeof(double));
    return;
  }
  key->push_back('\x02');
  uint32_t len = static_cast<uint32_t>(text.size());
  key->append(reinterpret_cast<const char*>(&len), sizeof(len));
  key->append(text.data(), text.size());
}

}  // namespace

ColumnStore::ColumnStore(const TableDef& def) {
  columns_.reserve(def.columns.size());
  for (const ColumnDef& col : def.columns) {
    Column c;
    c.type = col.type;
    columns_.push_back(std::move(c));
  }
}

bool ColumnStore::GetBit(const std::vector<uint64_t>& words, size_t i) {
  size_t word = i / 64;
  if (word >= words.size()) return false;
  return (words[word] >> (i % 64)) & 1;
}

void ColumnStore::SetBit(std::vector<uint64_t>* words, size_t i, bool value) {
  size_t word = i / 64;
  if (word >= words->size()) words->resize(word + 1, 0);
  if (value) {
    (*words)[word] |= (uint64_t{1} << (i % 64));
  } else {
    (*words)[word] &= ~(uint64_t{1} << (i % 64));
  }
}

Status ColumnStore::WriteCell(Column* c, size_t slot, const Value& v,
                              bool append) {
  if (v.is_null()) {
    if (append) {
      if (IsFixedInt(c->type)) {
        c->ints.push_back(0);
      } else if (c->type == DataType::kDouble) {
        c->doubles.push_back(0);
      } else {
        c->text_off.push_back(0);
        c->text_len.push_back(0);
      }
    }
    SetBit(&c->null_bits, slot, true);
    return Status::OK();
  }
  if (IsFixedInt(c->type)) {
    if (!v.IsNumericKind()) {
      return Status::Internal("columnar store: non-numeric value in " +
                              std::string(DataTypeName(c->type)) + " column");
    }
    if (append) {
      c->ints.push_back(v.AsInt());
    } else {
      c->ints[slot] = v.AsInt();
    }
  } else if (c->type == DataType::kDouble) {
    if (!v.IsNumericKind()) {
      return Status::Internal(
          "columnar store: non-numeric value in DOUBLE column");
    }
    if (append) {
      c->doubles.push_back(v.AsDouble());
    } else {
      c->doubles[slot] = v.AsDouble();
    }
  } else {
    if (!v.IsStringKind()) {
      return Status::Internal(
          "columnar store: non-string value in text column");
    }
    // Text updates append fresh bytes; the old span becomes arena garbage
    // (no compaction — ingest-mostly workload).
    uint32_t off = static_cast<uint32_t>(c->arena.size());
    c->arena += v.AsString();
    uint32_t len = static_cast<uint32_t>(v.AsString().size());
    if (append) {
      c->text_off.push_back(off);
      c->text_len.push_back(len);
    } else {
      c->text_off[slot] = off;
      c->text_len[slot] = len;
    }
  }
  SetBit(&c->null_bits, slot, false);
  return Status::OK();
}

Status ColumnStore::Append(RowId id, const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::Internal("columnar store: row width mismatch");
  }
  size_t slot = slot_ids_.size();
  // One hash probe doubles as the duplicate check and the insert.
  auto [it, inserted] = slot_of_.try_emplace(id, static_cast<uint32_t>(slot));
  if (!inserted) {
    return Status::Internal("columnar store: duplicate row id");
  }
  if (!slot_ids_.empty() && id < slot_ids_.back()) slots_monotonic_ = false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    Status written = WriteCell(&columns_[i], slot, row[i], /*append=*/true);
    if (!written.ok()) {
      slot_of_.erase(it);
      return written;
    }
  }
  slot_ids_.push_back(id);
  SetBit(&live_bits_, slot, true);
  return Status::OK();
}

Status ColumnStore::Update(RowId id, const Row& row) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("columnar store: row not found");
  }
  if (row.size() != columns_.size()) {
    return Status::Internal("columnar store: row width mismatch");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    EASIA_RETURN_IF_ERROR(WriteCell(&columns_[i], it->second, row[i],
                                    /*append=*/false));
  }
  return Status::OK();
}

Status ColumnStore::Delete(RowId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("columnar store: row not found");
  }
  SetBit(&live_bits_, it->second, false);
  slot_of_.erase(it);
  return Status::OK();
}

Value ColumnStore::MaterialiseCell(const Column& c, size_t slot) const {
  if (GetBit(c.null_bits, slot)) return Value::Null();
  switch (c.type) {
    case DataType::kInteger:
      return Value::Integer(c.ints[slot]);
    case DataType::kTimestamp:
      return Value::Timestamp(c.ints[slot]);
    case DataType::kDouble:
      return Value::Double(c.doubles[slot]);
    case DataType::kVarchar:
      return Value::Varchar(std::string(TextAt(c, slot)));
    case DataType::kBlob:
      return Value::Blob(std::string(TextAt(c, slot)));
    case DataType::kClob:
      return Value::Clob(std::string(TextAt(c, slot)));
    case DataType::kDatalink:
      return Value::Datalink(std::string(TextAt(c, slot)));
  }
  return Value::Null();
}

void ColumnStore::MaterialiseRow(size_t slot, Row* row) const {
  row->clear();
  row->reserve(columns_.size());
  for (const Column& c : columns_) {
    row->push_back(MaterialiseCell(c, slot));
  }
}

Result<Row> ColumnStore::Get(RowId id) const {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("columnar store: row not found");
  }
  Row row;
  MaterialiseRow(it->second, &row);
  return row;
}

template <typename Fn>
void ColumnStore::ForEachLiveSlot(Fn&& fn) const {
  if (slots_monotonic_) {
    for (size_t slot = 0; slot < slot_ids_.size(); ++slot) {
      if (SlotLive(slot)) fn(slot_ids_[slot], slot);
    }
  } else {
    // The hash map has no iteration order; rebuild the ascending-RowId
    // order the scan contract promises. Only reached after out-of-order
    // appends (WAL replay of interleaved transactions), never on the bulk
    // ingest path.
    std::vector<std::pair<RowId, uint32_t>> ordered(slot_of_.begin(),
                                                    slot_of_.end());
    std::sort(ordered.begin(), ordered.end());
    for (const auto& [id, slot] : ordered) fn(id, slot);
  }
}

void ColumnStore::ForEachRow(
    const std::function<void(RowId, const Row&)>& fn) const {
  Row scratch;
  ForEachLiveSlot([&](RowId id, size_t slot) {
    MaterialiseRow(slot, &scratch);
    fn(id, scratch);
  });
}

bool ColumnStore::EvalPredicate(const ColPredicate& p, size_t slot) const {
  const Column& c = columns_[p.column];
  bool is_null = GetBit(c.null_bits, slot);
  switch (p.op) {
    case ColPredicate::Op::kIsNull:
      return is_null;
    case ColPredicate::Op::kIsNotNull:
      return !is_null;
    default:
      break;
  }
  // Any comparison against NULL is NULL, which the executor rejects.
  if (is_null || p.literal.is_null()) return false;
  if (p.op == ColPredicate::Op::kLike || p.op == ColPredicate::Op::kNotLike) {
    bool match = LikeMatch(TextAt(c, slot), p.literal.AsString());
    return p.op == ColPredicate::Op::kLike ? match : !match;
  }
  int cmp;
  if (IsText(c.type)) {
    cmp = std::string_view(TextAt(c, slot)).compare(p.literal.AsString());
  } else {
    // Value::Compare collapses the numeric family onto double.
    double lhs = IsFixedInt(c.type) ? static_cast<double>(c.ints[slot])
                                    : c.doubles[slot];
    double rhs = p.literal.AsDouble();
    cmp = lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
  }
  switch (p.op) {
    case ColPredicate::Op::kEq:
      return cmp == 0;
    case ColPredicate::Op::kNe:
      return cmp != 0;
    case ColPredicate::Op::kLt:
      return cmp < 0;
    case ColPredicate::Op::kLe:
      return cmp <= 0;
    case ColPredicate::Op::kGt:
      return cmp > 0;
    case ColPredicate::Op::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

bool ColumnStore::PassesAll(const std::vector<ColPredicate>& preds,
                            size_t slot) const {
  for (const ColPredicate& p : preds) {
    if (!EvalPredicate(p, slot)) return false;
  }
  return true;
}

std::vector<RowId> ColumnStore::FilterScan(
    const std::vector<ColPredicate>& predicates) const {
  std::vector<RowId> out;
  ForEachLiveSlot([&](RowId id, size_t slot) {
    if (PassesAll(predicates, slot)) out.push_back(id);
  });
  return out;
}

Result<std::vector<AggGroup>> ColumnStore::AggregateScan(
    const std::vector<ColPredicate>& predicates,
    const std::vector<size_t>& group_by,
    const std::vector<AggSpec>& aggs) const {
  for (const AggSpec& a : aggs) {
    if (a.fn == AggSpec::Fn::kCountStar) continue;
    if (a.column >= columns_.size()) {
      return Status::Internal("columnar aggregate: bad column index");
    }
    if ((a.fn == AggSpec::Fn::kSum || a.fn == AggSpec::Fn::kAvg) &&
        IsText(columns_[a.column].type)) {
      return Status::InvalidArgument("SUM/AVG over non-numeric column");
    }
  }

  // Per group: its first slot, and per MIN/MAX spec the current extreme:
  // its slot (kNoSlot before any non-NULL value) and typed value. Values
  // are only materialised from the slots once the scan is done.
  constexpr size_t kNoSlot = SIZE_MAX;
  struct Extreme {
    size_t slot = kNoSlot;
    int64_t num_int = 0;
    double num = 0;
    std::string_view text;
  };
  std::map<std::string, size_t> group_index;
  std::vector<AggGroup> groups;
  std::vector<size_t> first_slots;
  std::vector<Extreme> extremes;  // [group * aggs.size() + spec]
  std::string key;
  ForEachLiveSlot([&](RowId /*id*/, size_t slot) {
    if (!PassesAll(predicates, slot)) return;
    key.clear();
    for (size_t col : group_by) {
      const Column& c = columns_[col];
      bool cell_null = GetBit(c.null_bits, slot);
      if (IsText(c.type)) {
        AppendKeyFragment(cell_null, /*numeric=*/false, 0,
                          cell_null ? std::string_view() : TextAt(c, slot),
                          &key);
      } else {
        double num = cell_null ? 0
                     : IsFixedInt(c.type)
                         ? static_cast<double>(c.ints[slot])
                         : c.doubles[slot];
        AppendKeyFragment(cell_null, /*numeric=*/true, num, {}, &key);
      }
    }
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().aggs.resize(aggs.size());
      first_slots.push_back(slot);
      extremes.resize(extremes.size() + aggs.size());
    }
    AggGroup& g = groups[it->second];
    ++g.rows;
    for (size_t i = 0; i < aggs.size(); ++i) {
      const AggSpec& a = aggs[i];
      if (a.fn == AggSpec::Fn::kCountStar) continue;
      const Column& c = columns_[a.column];
      if (GetBit(c.null_bits, slot)) continue;  // aggregates skip NULLs
      switch (a.fn) {
        case AggSpec::Fn::kCount:
          g.aggs[i].AddCount();
          break;
        case AggSpec::Fn::kSum:
        case AggSpec::Fn::kAvg:
          if (c.type == DataType::kDouble) {
            g.aggs[i].AddDouble(c.doubles[slot]);
          } else {
            g.aggs[i].AddInt(c.ints[slot]);
          }
          break;
        default: {  // kMin / kMax
          Extreme& e = extremes[it->second * aggs.size() + i];
          const bool want_min = a.fn == AggSpec::Fn::kMin;
          bool better = e.slot == kNoSlot;
          if (IsFixedInt(c.type)) {
            // Exact: a double track would tie distinct integers past 2^53.
            int64_t v = c.ints[slot];
            better = better || (want_min ? v < e.num_int : v > e.num_int);
            if (better) e.num_int = v;
          } else if (c.type == DataType::kDouble) {
            double v = c.doubles[slot];
            better = better || (want_min ? v < e.num : v > e.num);
            if (better) e.num = v;
          } else {
            std::string_view v = TextAt(c, slot);
            better = better || (want_min ? v < e.text : v > e.text);
            if (better) e.text = v;
          }
          if (better) e.slot = slot;
          break;
        }
      }
    }
  });

  for (size_t g = 0; g < groups.size(); ++g) {
    MaterialiseRow(first_slots[g], &groups[g].first_row);
    for (size_t i = 0; i < aggs.size(); ++i) {
      size_t best = extremes[g * aggs.size() + i].slot;
      if (best != kNoSlot) {
        groups[g].aggs[i].Update(
            MaterialiseCell(columns_[aggs[i].column], best));
      }
    }
  }
  return groups;
}

size_t ColumnStore::ApproxBytes() const {
  size_t bytes = 0;
  for (const Column& c : columns_) {
    bytes += c.ints.capacity() * sizeof(int64_t) +
             c.doubles.capacity() * sizeof(double) +
             c.text_off.capacity() * sizeof(uint32_t) +
             c.text_len.capacity() * sizeof(uint32_t) + c.arena.capacity() +
             c.null_bits.capacity() * sizeof(uint64_t);
  }
  bytes += slot_ids_.capacity() * sizeof(RowId) +
           live_bits_.capacity() * sizeof(uint64_t) +
           slot_of_.size() * (sizeof(RowId) + sizeof(uint32_t) + 48);
  return bytes;
}

}  // namespace easia::db::store

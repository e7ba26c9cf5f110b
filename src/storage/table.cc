#include "storage/table.h"

#include "common/string_util.h"

namespace declsched::storage {

Status Table::ValidateRow(const Row& row) const {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("table %s: row has %zu values, schema has %d columns",
                  name_.c_str(), row.size(), schema_.num_columns()));
  }
  for (int i = 0; i < schema_.num_columns(); ++i) {
    if (row[i].is_null()) continue;
    const ValueType expect = schema_.column(i).type;
    const ValueType got = row[i].type();
    const bool numeric_ok =
        (expect == ValueType::kInt64 || expect == ValueType::kDouble) &&
        row[i].is_numeric();
    if (got != expect && !numeric_ok) {
      return Status::TypeError(StrFormat(
          "table %s column %s: expected %s, got %s", name_.c_str(),
          schema_.column(i).name.c_str(), ValueTypeToString(expect),
          ValueTypeToString(got)));
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(Row row) {
  DS_RETURN_NOT_OK(ValidateRow(row));
  const RowId id = static_cast<RowId>(slots_.size());
  slots_.emplace_back(std::move(row));
  ++live_rows_;
  ++version_;
  return id;
}

Status Table::Delete(RowId id) {
  if (id < 0 || id >= static_cast<RowId>(slots_.size()) || !slots_[id].has_value()) {
    return Status::NotFound(StrFormat("table %s: row %lld not found", name_.c_str(),
                                      static_cast<long long>(id)));
  }
  DeleteInternal(id);
  return Status::OK();
}

void Table::DeleteInternal(RowId id) {
  slots_[id].reset();
  --live_rows_;
  ++version_;
}

Status Table::Update(RowId id, Row row) {
  if (id < 0 || id >= static_cast<RowId>(slots_.size()) || !slots_[id].has_value()) {
    return Status::NotFound(StrFormat("table %s: row %lld not found", name_.c_str(),
                                      static_cast<long long>(id)));
  }
  DS_RETURN_NOT_OK(ValidateRow(row));
  slots_[id] = std::move(row);
  ++version_;
  return Status::OK();
}

const Row* Table::Get(RowId id) const {
  if (id < 0 || id >= static_cast<RowId>(slots_.size()) || !slots_[id].has_value()) {
    return nullptr;
  }
  return &*slots_[id];
}

std::vector<Row> Table::Scan() const {
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(live_rows_));
  ForEach([&out](RowId, const Row& row) { out.push_back(row); });
  return out;
}

void Table::Clear() {
  slots_.clear();
  live_rows_ = 0;
  ++version_;
}

bool Table::MaybeVacuum() {
  if (auto_vacuum_ratio_ <= 0.0) return false;
  if (slot_count() < auto_vacuum_min_slots_) return false;
  if (static_cast<double>(live_rows_) >=
      auto_vacuum_ratio_ * static_cast<double>(slot_count())) {
    return false;
  }
  Vacuum();
  return true;
}

void Table::SetAutoVacuum(double live_ratio, int64_t min_slots) {
  auto_vacuum_ratio_ = live_ratio;
  auto_vacuum_min_slots_ = min_slots;
}

void Table::Vacuum() {
  if (live_rows_ == slot_count()) return;  // nothing tombstoned
  std::vector<std::optional<Row>> compacted;
  compacted.reserve(static_cast<size_t>(live_rows_));
  for (auto& slot : slots_) {
    if (slot.has_value()) compacted.emplace_back(std::move(slot));
  }
  slots_ = std::move(compacted);
}

}  // namespace declsched::storage

// Heap table: the storage engine's row container.

#ifndef DECLSCHED_STORAGE_TABLE_H_
#define DECLSCHED_STORAGE_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace declsched::storage {

/// An in-memory heap of rows with a fixed schema. Deleted slots are tomb-
/// stoned (RowIds stay stable until the next vacuum) and reclaimed by
/// Vacuum(). To keep long-lived tables from decaying into tombstone scans,
/// an auto-vacuum policy compacts the heap once dead slots dominate; it
/// runs only at bulk-delete boundaries (end of DeleteWhere(), or an
/// explicit MaybeVacuum()), never inside Delete(), so callers that resolve
/// RowIds one at a time stay safe.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  /// Live (non-deleted) row count.
  int64_t size() const { return live_rows_; }
  /// Total slots, live plus tombstoned — what every scan iterates.
  int64_t slot_count() const { return static_cast<int64_t>(slots_.size()); }
  /// Bumped on every content mutation (insert/delete/update/clear, however
  /// invoked — API or ad-hoc SQL DML), but not by Vacuum(), which only
  /// relocates rows. The precise staleness signal for caches derived from
  /// this table's contents.
  uint64_t version() const { return version_; }

  /// Validates arity and types (Null allowed in any column), then appends.
  Result<RowId> Insert(Row row);

  /// Tombstones the row. Fails with NotFound if absent or already deleted.
  Status Delete(RowId id);

  /// Replaces the row in place (same validation as Insert).
  Status Update(RowId id, Row row);

  /// nullptr if the id is out of range or deleted.
  const Row* Get(RowId id) const;

  /// Calls fn(id, row) for every live row, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (RowId id = 0; id < static_cast<RowId>(slots_.size()); ++id) {
      if (slots_[id].has_value()) fn(id, *slots_[id]);
    }
  }

  /// Snapshot of all live rows (copy), in insertion order.
  std::vector<Row> Scan() const;

  /// Deletes every live row matching `pred`; returns how many were removed.
  /// Runs the auto-vacuum check afterwards (RowIds may be invalidated).
  template <typename Pred>
  int64_t DeleteWhere(Pred&& pred) {
    int64_t removed = 0;
    for (RowId id = 0; id < static_cast<RowId>(slots_.size()); ++id) {
      if (slots_[id].has_value() && pred(*slots_[id])) {
        DeleteInternal(id);
        ++removed;
      }
    }
    if (removed > 0) MaybeVacuum();
    return removed;
  }

  /// Removes all rows (keeps the schema and auto-vacuum policy).
  void Clear();

  /// Compacts tombstones. Invalidates all previously returned RowIds.
  void Vacuum();

  /// Vacuums if the auto-vacuum policy says the heap decayed: at least
  /// `min_slots` slots and live rows under `live_ratio` of them. Call after
  /// a burst of single-row Delete()s, once no saved RowIds remain live.
  /// Returns true if it vacuumed (all previous RowIds invalidated).
  bool MaybeVacuum();

  /// Overrides the auto-vacuum policy (defaults: ratio 0.5, 256 slots).
  /// `live_ratio` <= 0 disables auto-vacuum entirely.
  void SetAutoVacuum(double live_ratio, int64_t min_slots);

 private:
  Status ValidateRow(const Row& row) const;
  void DeleteInternal(RowId id);

  std::string name_;
  Schema schema_;
  std::vector<std::optional<Row>> slots_;
  int64_t live_rows_ = 0;
  uint64_t version_ = 0;
  double auto_vacuum_ratio_ = 0.5;
  int64_t auto_vacuum_min_slots_ = 256;
};

}  // namespace declsched::storage

#endif  // DECLSCHED_STORAGE_TABLE_H_

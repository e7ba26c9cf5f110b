// ColumnarMirror: incrementally maintained SoA mirrors of the pending and
// tenants relations — LockTableState's epoch/content-version staleness
// contract, applied to columns.
//
// Sync contract (pending): each RequestStore pending mutation bumps the
// store's pending epoch exactly once, the scheduler narrates it through
// exactly one hook immediately after making it, and pending's content
// version moves on every edit however invoked. OnAdmitted / OnScheduled
// accept a delta iff the store is exactly one narrated epoch ahead AND the
// version moved by exactly the narrated row count; anything else (missed
// mutation, out-of-band DML, a fresh instance after SwitchProtocol) drops
// to unsynced and the next RefreshPending() rebuilds from the store's typed
// pending relation. Rows are identified by value (id), never by position.
//
// Dispatch tombstones rows instead of erasing (erasure from column middles
// is O(pending) per row); RefreshPending compacts when tombstones outnumber
// live rows, so maintenance stays O(delta) amortized.
//
// Tenants have no narrated delta hook (the TenantAccountant upserts rows
// between hooks), so that mirror is purely version-keyed: RefreshTenants()
// rebuilds whenever the tenants relation's content version moved. Tenant
// counts are orders of magnitude below request counts, so the rebuild is
// cheap; the counter is exposed for tests anyway.
//
// Thread ownership: owned by a protocol instance; hooks and refreshes run
// on the one cycle thread of the scheduler that owns the store.

#ifndef DECLSCHED_SCHEDULER_IR_VEC_COLUMN_MIRROR_H_
#define DECLSCHED_SCHEDULER_IR_VEC_COLUMN_MIRROR_H_

#include <cstdint>

#include "scheduler/ir/vec/column_batch.h"
#include "scheduler/request_store.h"

namespace declsched::scheduler::ir::vec {

class ColumnarMirror {
 public:
  /// The pending columns answering for the store's current pending
  /// relation. O(1) when the hooks kept the mirror synced (plus amortized
  /// tombstone compaction); full rebuild from the typed mirror when not.
  const PendingColumns& RefreshPending(const RequestStore& store);

  /// The tenant columns answering for the store's current tenants relation
  /// (rebuilt iff the relation's content version moved since the last call).
  const TenantColumns& RefreshTenants(const RequestStore& store);

  /// Delta: `batch` was just admitted into pending (ids ascending, above
  /// every id this mirror has seen).
  void OnAdmitted(const RequestBatch& batch, const RequestStore& store);

  /// Delta: `batch` just entered history. Dispatched requests tombstone
  /// their own row; an injected finisher marker (id never in pending)
  /// tombstones every live row of its transaction — the narration shape of
  /// DropPendingOfTransaction + InsertHistory, whose pending-epoch bump is
  /// folded into this one hook.
  void OnScheduled(const RequestBatch& batch, const RequestStore& store);

  /// True if the next RefreshPending() can answer without a rebuild.
  bool pending_synced_with(const RequestStore& store) const {
    return synced_epoch_ != kUnsynced &&
           synced_epoch_ == store.pending_epoch() &&
           synced_version_ == store.pending_version();
  }

  int64_t full_rebuilds() const { return full_rebuilds_; }
  int64_t deltas_applied() const { return deltas_applied_; }
  int64_t tenant_rebuilds() const { return tenant_rebuilds_; }
  int64_t compactions() const { return compactions_; }

 private:
  /// Sentinel: below any real store epoch (stores start at 1).
  static constexpr uint64_t kUnsynced = 0;

  void RebuildPending(const RequestStore& store);
  void MaybeCompact();

  PendingColumns pending_;
  TenantColumns tenants_;
  uint64_t synced_epoch_ = kUnsynced;
  /// Pending's content version at the last sync point.
  uint64_t synced_version_ = 0;
  /// Sentinel-initialized: versions start at 0 and the first refresh
  /// must materialize the (possibly empty) relation.
  uint64_t tenants_version_ = ~uint64_t{0};
  int64_t full_rebuilds_ = 0;
  int64_t deltas_applied_ = 0;
  int64_t tenant_rebuilds_ = 0;
  int64_t compactions_ = 0;
};

}  // namespace declsched::scheduler::ir::vec

#endif  // DECLSCHED_SCHEDULER_IR_VEC_COLUMN_MIRROR_H_

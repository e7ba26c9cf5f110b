#include "scheduler/ir/vec/column_mirror.h"

namespace declsched::scheduler::ir::vec {

const PendingColumns& ColumnarMirror::RefreshPending(const RequestStore& store) {
  // The store's epoch and version accessors absorb out-of-band table edits
  // first (bumping the pending epoch when they do), so the staleness check
  // cannot miss them.
  if (pending_synced_with(store)) {
    MaybeCompact();
    return pending_;
  }
  RebuildPending(store);
  return pending_;
}

void ColumnarMirror::RebuildPending(const RequestStore& store) {
  pending_.Clear();
  const auto& by_id = store.pending_by_id();
  for (const auto& [id, request] : by_id) pending_.PushBack(request);
  synced_epoch_ = store.pending_epoch();
  synced_version_ = store.pending_version();
  ++full_rebuilds_;
}

void ColumnarMirror::MaybeCompact() {
  // Compact when tombstones outnumber live rows: every live row has been
  // copied at most once per doubling of deletions, so maintenance stays
  // O(delta) amortized. Runs only at refresh time (cycle start), before
  // any selection vector references row indices.
  if (pending_.dead_count * 2 <= static_cast<int64_t>(pending_.size())) return;
  size_t out = 0;
  const size_t n = pending_.size();
  for (size_t i = 0; i < n; ++i) {
    if (pending_.dead[i]) continue;
    if (out != i) {
      pending_.id[out] = pending_.id[i];
      pending_.ta[out] = pending_.ta[i];
      pending_.intrata[out] = pending_.intrata[i];
      pending_.object[out] = pending_.object[i];
      pending_.priority[out] = pending_.priority[i];
      pending_.deadline[out] = pending_.deadline[i];
      pending_.arrival[out] = pending_.arrival[i];
      pending_.client[out] = pending_.client[i];
      pending_.tenant[out] = pending_.tenant[i];
      pending_.op[out] = pending_.op[i];
    }
    pending_.dead[out] = 0;
    ++out;
  }
  pending_.id.resize(out);
  pending_.ta.resize(out);
  pending_.intrata.resize(out);
  pending_.object.resize(out);
  pending_.priority.resize(out);
  pending_.deadline.resize(out);
  pending_.arrival.resize(out);
  pending_.client.resize(out);
  pending_.tenant.resize(out);
  pending_.op.resize(out);
  pending_.dead.resize(out);
  pending_.dead_count = 0;
  ++compactions_;
}

void ColumnarMirror::OnAdmitted(const RequestBatch& batch,
                                const RequestStore& store) {
  if (synced_epoch_ == kUnsynced) return;
  // InsertPending no-ops (no epoch bump) on an empty batch.
  if (batch.empty()) return;
  // The narrated mutation appended exactly batch.size() rows; any other
  // epoch or version movement means something else also wrote the table.
  if (store.pending_epoch() != synced_epoch_ + 1 ||
      store.pending_version() != synced_version_ + batch.size()) {
    synced_epoch_ = kUnsynced;
    return;
  }
  // Admission ids are monotone (the scheduler assigns them consecutively);
  // anything else would break the sorted-id invariant, so resync instead.
  int64_t max_id = pending_.id.empty() ? INT64_MIN : pending_.id.back();
  for (const Request& r : batch) {
    if (r.id <= max_id) {
      synced_epoch_ = kUnsynced;
      return;
    }
    max_id = r.id;
  }
  for (const Request& r : batch) pending_.PushBack(r);
  synced_epoch_ = store.pending_epoch();
  synced_version_ = store.pending_version();
  ++deltas_applied_;
}

void ColumnarMirror::OnScheduled(const RequestBatch& batch,
                                 const RequestStore& store) {
  if (synced_epoch_ == kUnsynced) return;
  const uint64_t epoch = store.pending_epoch();
  if (epoch == synced_epoch_) {
    // A finisher marker that dropped nothing from pending (the victim had
    // no pending rows): no pending mutation happened, but verify that via
    // the content version before staying synced.
    if (store.pending_version() != synced_version_) synced_epoch_ = kUnsynced;
    return;
  }
  if (epoch != synced_epoch_ + 1) {
    synced_epoch_ = kUnsynced;
    return;
  }
  // Exactly one pending mutation: MarkScheduled of this batch, or the
  // DropPendingOfTransaction preceding an injected marker. Tombstone what
  // it removed, then check the removal count against the version delta —
  // the arithmetic catches a mixed-in out-of-band edit.
  int64_t removed = 0;
  for (const Request& r : batch) {
    const int64_t row = pending_.FindLive(r.id);
    if (row >= 0) {
      // A dispatched request (termination markers included when they flowed
      // through pending) tombstones its own row only.
      pending_.dead[static_cast<size_t>(row)] = 1;
      ++pending_.dead_count;
      ++removed;
      continue;
    }
    // An injected finisher marker: its id never entered pending, and the
    // narrated drop removed every pending row of its transaction.
    const size_t n = pending_.size();
    for (size_t i = 0; i < n; ++i) {
      if (!pending_.dead[i] && pending_.ta[i] == r.ta) {
        pending_.dead[i] = 1;
        ++pending_.dead_count;
        ++removed;
      }
    }
  }
  if (store.pending_version() != synced_version_ + removed) {
    synced_epoch_ = kUnsynced;
    return;
  }
  synced_epoch_ = epoch;
  synced_version_ = store.pending_version();
  ++deltas_applied_;
}

const TenantColumns& ColumnarMirror::RefreshTenants(const RequestStore& store) {
  if (tenants_version_ == store.tenants_version()) return tenants_;
  tenants_.Clear();
  for (const auto& [tenant, acct] : store.tenants_by_id()) {
    tenants_.PushBack(acct.tenant, acct.vtime, acct.round, acct.Throttled());
  }
  tenants_version_ = store.tenants_version();
  ++tenant_rebuilds_;
  return tenants_;
}

}  // namespace declsched::scheduler::ir::vec

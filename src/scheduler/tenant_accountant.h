// TenantAccountant: O(delta) per-tenant QoS accounting for multi-tenant
// fairness policies (wfq, drr, tenant-cap).
//
// The accountant is the bookkeeping half of the tenant subsystem: the
// scheduler narrates every store mutation it makes (admissions, dispatches,
// injected finisher markers, GC retirements) and the accountant folds each
// delta into per-tenant counters — pending and in-flight request counts,
// cumulative dispatched service micros, weighted-fair virtual time, deficit
// rounds, and token buckets. Once per cycle (BeginCycle, before the
// protocol runs) it refills tokens and flushes every changed tenant into
// the store's `tenants` relation, which is where the policies read the
// state: natively off the typed relation, declaratively as the `tenants` SQL
// table / `tenantacct` Datalog relation. Policy evaluation therefore never
// depends on this class — a bare store with hand-written tenants rows
// answers identically — the accountant only keeps those rows current at
// O(delta) per cycle.
//
// Staleness contract (same shape as LockTableState): each hook accepts a
// delta only when the store's pending/history epochs advanced exactly as
// that mutation implies; anything else (a store seeded behind the
// scheduler's back, ad-hoc DML, SwitchProtocol does not affect this class)
// marks the accountant unsynced and the next BeginCycle() rebuilds counts
// from the tables — pending/inflight exactly, cumulative counters restart
// from zero and vtime/round/tokens are re-adopted from the `tenants`
// relation (the durable accounting state). Degraded cost, never wrong
// policy inputs.
//
// Thread ownership: cycle thread only, like the protocol it rides along
// with. The one cross-thread surface is PublishedSnapshot(), a
// mutex-guarded copy of the last cycle-boundary state stamped with the
// store epochs it reflects — what ShardedScheduler::TenantSnapshot()
// merges into an epoch-consistent global view.

#ifndef DECLSCHED_SCHEDULER_TENANT_ACCOUNTANT_H_
#define DECLSCHED_SCHEDULER_TENANT_ACCOUNTANT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "scheduler/request.h"
#include "scheduler/request_store.h"

namespace declsched::scheduler {

/// Per-tenant QoS configuration (the declarative knobs; everything else in
/// TenantAcct is accounting). Applied when the tenant's row is first
/// created; afterwards the `tenants` relation is authoritative.
struct TenantQosSpec {
  int64_t weight = 1;  ///< fair-share weight (>= 1)
  int64_t rate = 0;    ///< tokens per simulated second (0 = unlimited)
  int64_t burst = 0;   ///< token bucket capacity
  int64_t cap = 0;     ///< max in-flight requests (0 = unlimited)
};

struct TenantQosConfig {
  /// Explicit per-tenant specs; unlisted tenants get defaults.
  std::map<int64_t, TenantQosSpec> tenants;
  /// Service cost charged per dispatched request, mirroring the server
  /// cost model's calibration (CostModel::statement_service / commit).
  int64_t read_service_us = 352;
  int64_t write_service_us = 352;
  int64_t finisher_service_us = 180;
  /// One drr round = this much service at weight 1 (10 statements).
  int64_t drr_quantum_us = 3520;
  /// Copy the cycle-boundary state into the cross-thread snapshot every
  /// cycle (the sharded scheduler's merge support; off = zero cost).
  bool publish_snapshots = false;
};

class TenantAccountant {
 public:
  /// Virtual-time scale: vtime advances by service_us * kWfqScale / weight
  /// per dispatched request, so integer division keeps sub-weight
  /// resolution.
  static constexpr int64_t kWfqScale = 1024;

  /// Everything known about one tenant. `pending`/`inflight` mirror the
  /// store exactly; `admitted`/`dispatched`/`finished_rows`/`service_us`
  /// are cumulative since construction (or the last staleness rebuild).
  struct TenantTotals {
    int64_t tenant = 0;
    int64_t weight = 1;
    int64_t pending = 0;
    int64_t inflight = 0;
    int64_t admitted = 0;
    int64_t dispatched = 0;
    int64_t finished_rows = 0;
    int64_t service_us = 0;
    int64_t vtime = 0;
    int64_t round = 0;
    int64_t tokens = 0;
  };

  /// Cross-thread view: the state as of this accountant's last completed
  /// cycle, stamped with the store epochs it reflects.
  struct Snapshot {
    uint64_t version = 0;  ///< bumps per publish; 0 = never published
    uint64_t pending_epoch = 0;
    uint64_t history_epoch = 0;
    std::vector<TenantTotals> tenants;  ///< ascending tenant id
  };

  /// Binds to the one store whose mutations will be narrated to it.
  explicit TenantAccountant(TenantQosConfig config, RequestStore* store);

  /// Materializes every configured tenant into the store's `tenants`
  /// relation (weights visible to protocols before any request arrives).
  /// Once, right after construction. For configured tenants the
  /// TenantQosSpec is authoritative: its weight/rate/burst/cap overlay
  /// whatever the relation says, here and after every rebuild.
  Status SeedConfig();

  // --- cycle narration (cycle thread only) ------------------------------

  /// Refills token buckets, absorbs any missed narration (staleness
  /// rebuild), and flushes changed tenants into the store's `tenants`
  /// relation. Once per cycle, after admissions, before the protocol runs.
  Status BeginCycle(SimTime now);

  /// Flushes post-dispatch/GC accounting into the `tenants` relation and,
  /// if configured, publishes the cross-thread snapshot. End of cycle.
  Status EndCycle();

  /// `batch` was drained into pending (after RequestStore::InsertPending).
  void OnAdmitted(const RequestBatch& batch);

  /// `batch` moved from pending to history (after MarkScheduled).
  void OnScheduled(const RequestBatch& batch);

  /// A finisher marker was injected straight into history (deadlock victim
  /// abort or cross-shard escrow mirror), dropping `dropped_by_tenant`
  /// pending requests first. Injected markers charge no service — they are
  /// not client work — but their history row still counts in-flight so GC
  /// retirement balances.
  void OnMarkerInjected(const Request& marker,
                        const std::map<int64_t, int64_t>& dropped_by_tenant);

  /// GC retired `gc.rows_by_tenant` history rows (after
  /// GarbageCollectFinished).
  void OnFinished(const RequestStore::GcResult& gc);

  // --- views (cycle thread) ---------------------------------------------

  std::vector<TenantTotals> Totals() const;
  TenantTotals TotalsFor(int64_t tenant) const;

  /// Starvation guard: how long the tenant's oldest pending request has
  /// waited (simulated micros), or -1 with nothing pending.
  int64_t OldestPendingWaitUs(int64_t tenant, SimTime now) const;

  /// Tenants whose oldest pending request has waited >= `wait_us`.
  std::vector<int64_t> StarvedTenants(SimTime now, int64_t wait_us) const;

  bool synced_with(const RequestStore& store) const;
  int64_t full_rebuilds() const { return full_rebuilds_; }

  // --- cross-thread -----------------------------------------------------

  /// The last published cycle-boundary state (empty version-0 snapshot
  /// before the first publish). Thread-safe; requires
  /// config.publish_snapshots.
  Snapshot PublishedSnapshot() const;

 private:
  struct State {
    TenantAcct acct;  ///< the row flushed to the `tenants` relation
    int64_t pending = 0;
    int64_t admitted = 0;
    int64_t dispatched = 0;
    int64_t finished_rows = 0;
    int64_t service_us = 0;
    /// Service accumulated toward the next drr round.
    int64_t round_progress_us = 0;
    /// Token bucket in micro-tokens (so sub-token refills accumulate).
    int64_t micro_tokens = 0;
    /// Pending requests in admission order: (id, arrival micros). Entries
    /// whose request already left pending are popped lazily on query, so
    /// upkeep is O(1) per admission. Mutable: lazy pops happen from const
    /// starvation queries.
    mutable std::deque<std::pair<int64_t, int64_t>> oldest;
    bool dirty = false;
  };

  static constexpr int64_t kMicro = 1000000;

  /// The state of `tenant`, created on first sight: adopted from an
  /// existing `tenants` row if one exists (config spec fields overlaid),
  /// else defaults from the TenantQosConfig spec.
  State& TenantState(int64_t tenant);
  int64_t ServiceCost(txn::OpType op) const;
  void ChargeDispatch(State& state, const Request& request);
  /// WFQ idle catch-up: a tenant going idle->busy resumes at the minimum
  /// virtual time of the currently busy tenants, never at stale credit.
  void CatchUpVtime(State& state);
  void MarkDirty(int64_t tenant, State& state);
  Status Flush();
  void Rebuild();
  /// True if the store's epochs advanced exactly (`dp`, `dh`) narrated
  /// steps since the last sync; records the new sync point when so.
  bool AcceptDelta(uint64_t dp, uint64_t dh);
  TenantTotals MakeTotals(const State& state) const;

  TenantQosConfig config_;
  RequestStore* store_;
  std::map<int64_t, State> states_;
  std::vector<int64_t> dirty_;
  /// Number of states with a token rate configured (skip refill if 0).
  int64_t rate_limited_ = 0;
  SimTime last_refill_;

  /// Sync point: the store epochs/versions the counters reflect. 0 epochs
  /// = unsynced (stores start at 1).
  uint64_t synced_pending_epoch_ = 0;
  uint64_t synced_history_epoch_ = 0;
  uint64_t synced_history_version_ = 0;
  int64_t full_rebuilds_ = 0;

  mutable std::mutex snapshot_mu_;
  Snapshot published_;
};

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_TENANT_ACCOUNTANT_H_

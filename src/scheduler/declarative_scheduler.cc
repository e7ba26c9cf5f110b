#include "scheduler/declarative_scheduler.h"

#include <chrono>

#include "common/logging.h"
#include "storage/wal.h"

namespace declsched::scheduler {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DeclarativeScheduler::DeclarativeScheduler(Options options,
                                           server::DatabaseServer* server)
    : options_(std::move(options)),
      server_(server),
      trigger_(options_.trigger),
      next_request_id_(options_.first_request_id) {}

const ProtocolFactory& DeclarativeScheduler::factory() const {
  return options_.factory != nullptr ? *options_.factory
                                     : ProtocolFactory::Global();
}

Status DeclarativeScheduler::Init() {
  DS_ASSIGN_OR_RETURN(protocol_, factory().Compile(options_.protocol, &store_));
  if (options_.tenant_accounting) {
    accountant_ =
        std::make_unique<TenantAccountant>(options_.tenant_qos, &store_);
    DS_RETURN_NOT_OK(accountant_->SeedConfig());
  }
  if (options_.deadlock_detection) {
    DS_ASSIGN_OR_RETURN(DeadlockResolver resolver, DeadlockResolver::Create());
    resolver_.emplace(std::move(resolver));
  }
  return Status::OK();
}

int64_t DeclarativeScheduler::Submit(Request request, SimTime now) {
  request.id = next_request_id_++;
  request.arrival = now;
  queue_.Push(std::move(request));
  ++totals_.admitted;
  return next_request_id_ - 1;
}

bool DeclarativeScheduler::ShouldFire(SimTime now) const {
  // Fire on queued work; also fire on stalled pending work (blocked requests
  // can only make progress through another cycle).
  if (trigger_.ShouldFire(now, queue_.size())) return true;
  return queue_.size() == 0 && store_.pending_count() > 0;
}

Status DeclarativeScheduler::SwitchProtocol(const ProtocolSpec& spec) {
  DS_ASSIGN_OR_RETURN(std::unique_ptr<Protocol> compiled,
                      factory().Compile(spec, &store_));
  protocol_ = std::move(compiled);
  options_.protocol = spec;
  return Status::OK();
}

const ProtocolSpec& DeclarativeScheduler::protocol() const {
  return options_.protocol;
}

Status DeclarativeScheduler::AbortTransaction(txn::TxnId ta, SimTime now) {
  // Drop the victim's pending requests, then record an abort marker so the
  // protocol sees its locks released (and GC retires its history rows).
  Request marker;
  marker.id = next_request_id_++;
  marker.ta = ta;
  marker.intrata = 1 << 30;  // after any real intra-transaction number
  marker.op = txn::OpType::kAbort;
  marker.object = Request::kNoObject;
  marker.arrival = now;
  marker.client = -1;
  return InjectFinisherMarker(marker);
}

Status DeclarativeScheduler::ApplyEscrowedFinisher(const Request& marker) {
  DS_CHECK(protocol_ != nullptr);  // Init() was called
  return InjectFinisherMarker(marker);
}

Status DeclarativeScheduler::InjectFinisherMarker(const Request& original) {
  // Each store mutation is narrated to the protocol (and the tenant
  // accountant) right away, so incremental backends stay in lockstep.
  Request marker = original;
  std::map<int64_t, int64_t> dropped_by_tenant;
  if (marker.op == txn::OpType::kAbort) {
    store_.DropPendingOfTransaction(marker.ta, &dropped_by_tenant);
    if (marker.tenant == 0 && !dropped_by_tenant.empty()) {
      // Internally constructed abort markers (deadlock victims, cross-shard
      // victim mirrors) carry no tenant; attribute the marker to the tenant
      // whose pending requests it killed so the QoS charge lands right.
      // Transactions are single-tenant by construction, so take the
      // heaviest key when an adversarial trace mixed tenants within one ta.
      auto best = dropped_by_tenant.begin();
      for (auto it = dropped_by_tenant.begin(); it != dropped_by_tenant.end();
           ++it) {
        if (it->second > best->second) best = it;
      }
      marker.tenant = static_cast<int>(best->first);
    }
  }
  DS_RETURN_NOT_OK(store_.InsertHistory(marker));
  if (accountant_ != nullptr) {
    accountant_->OnMarkerInjected(marker, dropped_by_tenant);
  }
  protocol_->OnScheduled(RequestBatch{marker});
  return Status::OK();
}

Result<CycleStats> DeclarativeScheduler::RunCycle(SimTime now) {
  DS_CHECK(protocol_ != nullptr);  // Init() was called
  CycleStats stats;
  const int64_t cycle_start = NowMicros();

  stats.pending_before = store_.pending_count();
  stats.history_before = store_.history_count();

  // 1. Empty the incoming queue into the pending-request database.
  RequestBatch drained = queue_.DrainAll();
  stats.drained = static_cast<int64_t>(drained.size());
  DS_RETURN_NOT_OK(store_.InsertPending(drained));
  if (!drained.empty()) {
    if (accountant_ != nullptr) accountant_->OnAdmitted(drained);
    protocol_->OnAdmitted(drained);
  }
  // The accountant refills token buckets, absorbs any out-of-band store
  // edit (staleness rebuild), and flushes the changed per-tenant rows into
  // the `tenants` relation — which is what tenant-aware protocols read, so
  // it must be current before Schedule().
  if (accountant_ != nullptr) DS_RETURN_NOT_OK(accountant_->BeginCycle(now));
  stats.insert_us = NowMicros() - cycle_start;

  // 2. Run the declarative protocol.
  const int64_t query_start = NowMicros();
  ScheduleContext context;
  context.store = &store_;
  context.now = now;
  context.shard = options_.shard;
  context.num_shards = options_.num_shards;
  context.escrowed = escrowed_;
  context.tenants = accountant_.get();
  DS_ASSIGN_OR_RETURN(RequestBatch qualified, protocol_->Schedule(context));
  stats.query_us = NowMicros() - query_start;
  if (options_.max_dispatch_per_cycle > 0 &&
      static_cast<int64_t>(qualified.size()) > options_.max_dispatch_per_cycle) {
    qualified.resize(static_cast<size_t>(options_.max_dispatch_per_cycle));
  }
  stats.qualified = static_cast<int64_t>(qualified.size());

  // 3. Qualified requests leave pending and enter history; finished
  //    transactions retire from history. Both mutations are narrated to the
  //    protocol so incremental backends apply the delta instead of
  //    rescanning next cycle.
  const int64_t move_start = NowMicros();
  DS_RETURN_NOT_OK(store_.MarkScheduled(qualified));
  if (!qualified.empty()) {
    if (accountant_ != nullptr) accountant_->OnScheduled(qualified);
    protocol_->OnScheduled(qualified);
  }
  if (options_.history_gc) {
    DS_ASSIGN_OR_RETURN(RequestStore::GcResult gc, store_.GarbageCollectFinished());
    stats.gc_removed = gc.rows_retired;
    if (!gc.txns.empty()) {
      if (accountant_ != nullptr) accountant_->OnFinished(gc);
      protocol_->OnFinished(gc.txns);
    }
  }
  stats.move_us = NowMicros() - move_start;

  // 4. Deadlock resolution: only worth checking when the cycle stalled
  //    (nothing qualified while work is pending).
  last_victims_.clear();
  if (resolver_.has_value() && qualified.empty() && store_.pending_count() > 0) {
    DS_ASSIGN_OR_RETURN(last_victims_, resolver_->FindVictims(store_));
    for (txn::TxnId victim : last_victims_) {
      DS_RETURN_NOT_OK(AbortTransaction(victim, now));
    }
    stats.victims = static_cast<int64_t>(last_victims_.size());
    totals_.victims += stats.victims;
  }

  // 5. Dispatch the batch to the server.
  if (options_.sync_dispatch_wal && store_.wal() != nullptr) {
    DS_RETURN_NOT_OK(store_.wal()->Sync(store_.last_wal_lsn()));
  }
  if (server_ != nullptr && !qualified.empty()) {
    server::StatementBatch batch;
    batch.reserve(qualified.size());
    for (const Request& request : qualified) batch.push_back(request.ToStatement());
    DS_ASSIGN_OR_RETURN(server::DatabaseServer::BatchStats server_stats,
                        server_->ExecuteBatch(batch, options_.shard));
    stats.server_busy = server_stats.busy;
  }
  stats.dispatched = static_cast<int64_t>(qualified.size());
  last_dispatched_ = std::move(qualified);

  // Post-dispatch/GC accounting lands in the tenants relation now, so the
  // relation always holds the cycle-boundary state (and the cross-thread
  // snapshot, when published, is cut at the same boundary).
  if (accountant_ != nullptr) DS_RETURN_NOT_OK(accountant_->EndCycle());

  stats.total_us = NowMicros() - cycle_start;
  trigger_.NotifyFired(now);

  ++totals_.cycles;
  totals_.dispatched += stats.dispatched;
  totals_.total_query_us += stats.query_us;
  totals_.total_cycle_us += stats.total_us;
  totals_.cycle_us.Record(stats.total_us);
  totals_.qualified_per_cycle.Record(stats.qualified);
  return stats;
}

}  // namespace declsched::scheduler

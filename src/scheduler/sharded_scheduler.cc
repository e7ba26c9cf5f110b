#include "scheduler/sharded_scheduler.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "common/crashpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/durability.h"

namespace declsched::scheduler {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// For busy/coordination accounting: CPU consumed by the calling thread.
// Unlike wall time, this does not charge a shard for the WAL flusher (or a
// neighboring shard, on a machine with fewer cores than threads) preempting
// it mid-cycle — those cycles belong to the preempting thread. Keeps the
// speedup/cost projections meaningful on small CI machines.
int64_t ThreadCpuMicros() {
  timespec ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return ts.tv_sec * 1000000 + ts.tv_nsec / 1000;
}

bool IsFinisher(txn::OpType op) {
  return op == txn::OpType::kCommit || op == txn::OpType::kAbort;
}

}  // namespace

ShardedScheduler::ShardedScheduler(Options options,
                                   server::DatabaseServer* server)
    : options_(std::move(options)),
      server_(server),
      router_(options_.num_shards) {
  DS_CHECK(options_.num_shards >= 1 &&
           options_.num_shards <= ShardRouter::kMaxShards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.metrics != nullptr) {
    auto* m = options_.metrics;
    m_submitted_ =
        m->GetCounter("sched_submitted_total", "Requests admitted (routed)");
    m_dispatched_ =
        m->GetCounter("sched_dispatched_total", "Requests dispatched");
    m_cycles_ = m->GetCounter("sched_cycles_total", "Scheduler cycles run");
    m_escrows_ = m->GetCounter("sched_escrows_total",
                               "Cross-shard finishers through escrow");
    m_mirrors_ = m->GetCounter("sched_mirrors_applied_total",
                               "Escrow mirror markers applied");
    m_victims_ =
        m->GetCounter("sched_victims_total", "Deadlock victims aborted");
    m_gc_removed_ = m->GetCounter("sched_gc_removed_total",
                                  "History rows retired by GC");
    m_cycle_us_.reserve(static_cast<size_t>(options_.num_shards));
    for (int i = 0; i < options_.num_shards; ++i) {
      m_cycle_us_.push_back(
          m->GetHistogram("sched_cycle_us", "Cycle wall time per shard",
                          {{"shard", std::to_string(i)}}));
    }
    if (options_.durability.enabled) {
      m_snapshot_lsn_ = m->GetGauge("snapshot_last_lsn",
                                    "LSN covered by the last snapshot");
      m_recovery_replayed_ =
          m->GetGauge("recovery_replayed_records",
                      "WAL records replayed by the last recovery");
    }
    if (options_.adaptive.has_value()) {
      m_adaptive_switches_ = m->GetCounter(
          "adaptive_switches_total",
          "Protocol switches made by per-shard adaptive controllers");
      m_adaptive_relaxed_.reserve(static_cast<size_t>(options_.num_shards));
      m_adaptive_load_.reserve(static_cast<size_t>(options_.num_shards));
      for (int i = 0; i < options_.num_shards; ++i) {
        m_adaptive_relaxed_.push_back(
            m->GetGauge("adaptive_relaxed",
                        "1 while the shard runs its relaxed protocol",
                        {{"shard", std::to_string(i)}}));
        m_adaptive_load_.push_back(
            m->GetGauge("adaptive_load_score",
                        "Last adaptive load score observed by the shard",
                        {{"shard", std::to_string(i)}}));
      }
    }
  }
}

ShardedScheduler::~ShardedScheduler() { Stop(); }

Status ShardedScheduler::Init() {
  DS_CHECK(!initialized_);
  for (int i = 0; i < options_.num_shards; ++i) {
    DeclarativeScheduler::Options opt = options_.shard;
    opt.shard = i;
    opt.num_shards = options_.num_shards;
    // Shard accountants publish cycle-boundary snapshots so
    // TenantSnapshot() can merge them from any thread.
    opt.tenant_qos.publish_snapshots = true;
    // A disjoint high range per shard: internally assigned ids (deadlock
    // abort markers) can never collide with this class's global ids.
    opt.first_request_id =
        (int64_t{1} << 40) + (static_cast<int64_t>(i) << 32);
    shards_[i]->sched =
        std::make_unique<DeclarativeScheduler>(std::move(opt), server_);
    DS_RETURN_NOT_OK(shards_[i]->sched->Init());
    shards_[i]->sched->queue()->set_notify([this, i] { MarkDirty(i); });
    if (options_.adaptive.has_value()) {
      shards_[i]->adaptive = std::make_unique<AdaptiveConsistencyController>(
          *options_.adaptive, shards_[i]->sched.get());
      DS_RETURN_NOT_OK(shards_[i]->adaptive->Validate());
      // The controller assumes it knows which protocol is active; pin the
      // shard to the strict spec so state and reality start aligned.
      DS_RETURN_NOT_OK(shards_[i]->sched->SwitchProtocol(
          shards_[i]->adaptive->options().strict));
    }
  }
  if (options_.durability.enabled) DS_RETURN_NOT_OK(RecoverAndAttach());
  initialized_ = true;
  return Status::OK();
}

Status ShardedScheduler::RecoverAndAttach() {
  const DurabilityOptions& d = options_.durability;
  if (d.dir.empty()) return Status::InvalidArgument("durability.dir must be set");
  if (::mkdir(d.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(
        StrFormat("mkdir %s: %s", d.dir.c_str(), std::strerror(errno)));
  }
  std::vector<EscrowFanout> fanouts;
  DS_ASSIGN_OR_RETURN(
      recovery_result_,
      storage::RunRecovery(
          d.dir, options_.num_shards,
          [this](int s, const std::vector<storage::TableSnapshot>& tables) {
            return RestoreShardStore(shards_[s]->sched->store(), tables);
          },
          [this, &fanouts](const storage::WalRecord& rec) -> Status {
            if (static_cast<WalRecordType>(rec.type) ==
                WalRecordType::kEscrowFanout) {
              DS_ASSIGN_OR_RETURN(EscrowFanout fanout,
                                  DecodeEscrowFanout(rec.payload));
              fanouts.push_back(std::move(fanout));
              return Status::OK();
            }
            return ApplyWalRecord(shards_[rec.shard]->sched->store(), rec);
          }));
  DS_RETURN_NOT_OK(ReestablishCrossShardState(fanouts));

  storage::Wal::Options wal_opt;
  wal_opt.path = storage::WalPath(d.dir);
  wal_opt.fsync = d.fsync;
  wal_opt.metrics = options_.metrics;
  DS_ASSIGN_OR_RETURN(wal_,
                      storage::Wal::Open(wal_opt, recovery_result_.next_lsn));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_[s]->sched->store()->AttachWal(wal_.get(),
                                          static_cast<uint16_t>(s));
  }
  ckpt_bytes_mark_.store(wal_->appended_bytes(), std::memory_order_relaxed);

  if (recovery_result_.records_replayed > 0 || recovery_result_.tail_truncated) {
    // Fold the replayed tail (and any republished mirrors) into a fresh
    // snapshot: the next recovery starts from it, and a truncated torn
    // tail can never resurface.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    DS_RETURN_NOT_OK(WriteCheckpointNow());
  } else if (m_snapshot_lsn_ != nullptr) {
    m_snapshot_lsn_->Set(static_cast<int64_t>(recovery_result_.snapshot_lsn));
  }
  if (m_recovery_replayed_ != nullptr) {
    m_recovery_replayed_->Set(recovery_result_.records_replayed);
  }
  DS_LOG(Info) << "recovery: replayed " << recovery_result_.records_replayed
               << " wal records (" << recovery_result_.records_skipped
               << " pre-snapshot skipped) on top of snapshot lsn "
               << recovery_result_.snapshot_lsn
               << (recovery_result_.tail_truncated
                       ? " — torn tail truncated (" +
                             recovery_result_.tail_reason + ")"
                       : "")
               << " in " << recovery_result_.duration_us << " us";
  return Status::OK();
}

Status ShardedScheduler::ReestablishCrossShardState(
    const std::vector<EscrowFanout>& fanouts) {
  struct TxnState {
    uint32_t rows_mask = 0;    ///< shards with non-marker rows of the txn
    uint32_t marker_mask = 0;  ///< shards with a termination marker in history
    int pending_finisher_shard = -1;
    Request pending_finisher;
  };
  std::unordered_map<txn::TxnId, TxnState> txns;
  // Id counters died with the process; the restored rows carry the high
  // water marks. Ids at or above 1<<40 are the shards' internal ranges
  // (victim markers) and must not drag the global counter into them.
  int64_t max_id = 0;
  txn::TxnId max_ta = 0;
  const auto observe_ids = [&](const Request& r) {
    if (r.id < (int64_t{1} << 40)) max_id = std::max(max_id, r.id);
    max_ta = std::max(max_ta, r.ta);
  };
  for (int s = 0; s < options_.num_shards; ++s) {
    RequestStore* store = shards_[s]->sched->store();
    for (const auto& [id, r] : store->pending_by_id()) {
      observe_ids(r);
      TxnState& t = txns[r.ta];
      if (IsFinisher(r.op)) {
        t.pending_finisher_shard = s;
        t.pending_finisher = r;
      } else {
        t.rows_mask |= 1u << s;
      }
    }
    store->ForEachHistory([&](const Request& r) {
      observe_ids(r);
      TxnState& t = txns[r.ta];
      if (IsFinisher(r.op)) {
        t.marker_mask |= 1u << s;
      } else {
        t.rows_mask |= 1u << s;
      }
    });
  }
  next_id_.store(max_id + 1, std::memory_order_relaxed);
  recovered_max_ta_ = max_ta;

  for (auto& [ta, t] : txns) {
    if (t.marker_mask != 0) continue;  // finished; mirrors below handle stragglers
    // Unfinished: the router's footprint died with the process, but the
    // restored rows say exactly which shards hold this transaction's
    // locks — without this, a resubmitted finisher would hash-fall-back
    // to one arbitrary shard and leak locks everywhere else.
    uint32_t mask = t.rows_mask;
    for (int s = 0; mask != 0; ++s, mask >>= 1) {
      if (mask & 1u) router_.RecordFootprint(ta, s);
    }
    if (t.pending_finisher_shard < 0) continue;
    // A restored-but-undispatched finisher: if its transaction spans
    // shards, re-register the escrow entries its original Submit created,
    // or its dispatch would never fan the lock releases out.
    const int home = t.pending_finisher_shard;
    const uint32_t full = t.rows_mask | (1u << home);
    std::vector<int> involved;
    for (int s = 0; s < options_.num_shards; ++s) {
      if (full >> s & 1u) involved.push_back(s);
    }
    if (involved.size() <= 1) continue;
    for (int s : involved) {
      Shard& sh = *shards_[s];
      EscrowEntry entry;
      entry.marker = t.pending_finisher;
      entry.mirror_mask = s == home ? full : 0;
      std::lock_guard<std::mutex> lock(sh.escrow_mu);
      if (sh.escrow_entries.emplace(ta, std::move(entry)).second) {
        sh.escrow_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Re-publish mirrors whose application never reached the receiving
  // shard's log: the fanout record proves the finisher dispatched; a shard
  // still holding non-marker rows with no marker of its own never applied
  // (or never re-logged) the release.
  for (const EscrowFanout& fanout : fanouts) {
    auto it = txns.find(fanout.marker.ta);
    if (it == txns.end()) continue;  // fully retired everywhere
    const TxnState& t = it->second;
    uint32_t mask = fanout.mask;
    for (int s = 0; mask != 0; ++s, mask >>= 1) {
      if (!(mask & 1u)) continue;
      if ((t.rows_mask >> s & 1u) && !(t.marker_mask >> s & 1u)) {
        PublishMirror(s, fanout.marker);
      }
    }
  }
  return Status::OK();
}

void ShardedScheduler::MarkDirty(int s) {
  Shard& sh = *shards_[s];
  {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    sh.dirty = true;
  }
  sh.wake_cv.notify_all();
}

int64_t ShardedScheduler::Submit(Request request, SimTime now) {
  return SubmitBatch(&request, 1, now);
}

int64_t ShardedScheduler::SubmitBatch(Request* requests, size_t count,
                                      SimTime now) {
  DS_CHECK(initialized_);
  if (count == 0) return 0;
  const int64_t t0 = ThreadCpuMicros();
  const int64_t first_id = next_id_.fetch_add(static_cast<int64_t>(count),
                                              std::memory_order_relaxed);
  // Advance the shared cycle clock (max, monotone).
  int64_t observed = now_us_.load(std::memory_order_relaxed);
  while (now.micros() > observed &&
         !now_us_.compare_exchange_weak(observed, now.micros(),
                                        std::memory_order_relaxed)) {
  }

  // Each shard's share of the batch, pushed with one queue lock and one
  // wake. The buckets are emptied before returning but keep their
  // capacity, so steady-state admission allocates nothing.
  thread_local std::vector<RequestBatch> buckets;
  if (buckets.size() < shards_.size()) buckets.resize(shards_.size());
  const auto push = [&](uint32_t mask) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      RequestBatch& bucket = buckets[s];
      if (bucket.empty() || !(mask >> s & 1u)) continue;
      shards_[s]->sched->queue()->PushBatch(bucket.data(), bucket.size());
      bucket.clear();
    }
  };
  for (size_t i = 0; i < count; ++i) {
    Request& request = requests[i];
    request.id = first_id + static_cast<int64_t>(i);
    request.arrival = now;
    const ShardRouter::Route route = router_.RouteRequest(request);
    if (!route.cross_shard()) {
      buckets[static_cast<size_t>(route.shard)].push_back(request);
      continue;
    }
    // Everything this batch holds for the finisher's shards goes first:
    // the home shard's queue must see the finisher after the lower ids.
    push(route.involved);
    SubmitEscrowed(request, route.involved);
  }
  push(~0u);

  submitted_.fetch_add(static_cast<int64_t>(count), std::memory_order_relaxed);
  if (m_submitted_ != nullptr) {
    m_submitted_->Increment(static_cast<int64_t>(count));
  }
  coordination_us_.fetch_add(ThreadCpuMicros() - t0, std::memory_order_relaxed);
  return first_id;
}

void ShardedScheduler::SubmitEscrowed(const Request& finisher,
                                      uint32_t involved) {
  // Tickets in canonical (ascending) shard order.
  const int n = options_.num_shards;
  for (int s = 0; s < n; ++s) {
    if (involved >> s & 1u) shards_[s]->ticket_mu.lock();
  }
  const int home = __builtin_ctz(involved);
  for (int s = 0; s < n; ++s) {
    if (!(involved >> s & 1u)) continue;
    Shard& sh = *shards_[s];
    EscrowEntry entry;
    entry.marker = finisher;
    entry.mirror_mask = s == home ? involved : 0;
    std::lock_guard<std::mutex> lock(sh.escrow_mu);
    if (sh.escrow_entries.emplace(finisher.ta, std::move(entry)).second) {
      sh.escrow_count.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Every involved shard has granted (ticket held, escrow registered):
  // publish the finisher for dispatch by the home shard's protocol.
  shards_[home]->sched->queue()->Push(finisher);
  for (int s = n - 1; s >= 0; --s) {
    if (involved >> s & 1u) shards_[s]->ticket_mu.unlock();
  }
  escrows_.fetch_add(1, std::memory_order_relaxed);
  if (m_escrows_ != nullptr) m_escrows_->Increment();
}

Status ShardedScheduler::AbortTransaction(txn::TxnId ta, SimTime now) {
  DS_CHECK(initialized_);
  const std::vector<int> footprint = router_.Footprint(ta);
  if (footprint.empty()) {
    return Status::NotFound(
        StrFormat("no footprint recorded for transaction %lld",
                  static_cast<long long>(ta)));
  }
  router_.Forget(ta);
  for (int s : footprint) {
    Request marker;
    marker.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    marker.ta = ta;
    marker.intrata = 1 << 30;
    marker.op = txn::OpType::kAbort;
    marker.object = Request::kNoObject;
    marker.arrival = now;
    marker.client = -1;
    PublishMirror(s, marker);
  }
  external_aborts_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ShardedScheduler::PublishMirror(int to_shard, const Request& marker) {
  Shard& sh = *shards_[to_shard];
  {
    std::lock_guard<std::mutex> lock(sh.mirror_mu);
    sh.mirror_inbox.push_back(marker);
  }
  MarkDirty(to_shard);
}

int ShardedScheduler::ApplyMirrors(int s) {
  Shard& sh = *shards_[s];
  std::vector<Request> inbox;
  {
    std::lock_guard<std::mutex> lock(sh.mirror_mu);
    inbox.swap(sh.mirror_inbox);
  }
  for (const Request& marker : inbox) {
    DS_CHECK_OK(sh.sched->ApplyEscrowedFinisher(marker));
    {
      std::lock_guard<std::mutex> lock(sh.escrow_mu);
      if (sh.escrow_entries.erase(marker.ta) > 0) {
        sh.escrow_count.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    mirrors_applied_.fetch_add(1, std::memory_order_relaxed);
    if (m_mirrors_ != nullptr) m_mirrors_->Increment();
  }
  return static_cast<int>(inbox.size());
}

Status ShardedScheduler::ProcessDispatched(int s, const RequestBatch& batch) {
  if (batch.empty()) return Status::OK();
  Shard& sh = *shards_[s];
  // Escrow fan-out: a dispatched cross-shard finisher publishes its mirror
  // markers to the other involved shards — locks release there only now,
  // never before the dispatch.
  for (const Request& r : batch) {
    if (!IsFinisher(r.op)) continue;
    uint32_t mask = 0;
    {
      std::lock_guard<std::mutex> lock(sh.escrow_mu);
      auto it = sh.escrow_entries.find(r.ta);
      if (it != sh.escrow_entries.end()) {
        mask = it->second.mirror_mask;
        sh.escrow_entries.erase(it);
        sh.escrow_count.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    // Make the fan-out durable before publishing: the inboxes are memory,
    // and the home shard's own GC retires the marker in this same cycle —
    // without this record a crash here would leak the other shards' locks
    // forever (recovery re-publishes from it; see
    // ReestablishCrossShardState).
    if (mask != 0 && wal_ != nullptr) {
      wal_->Append(static_cast<uint8_t>(WalRecordType::kEscrowFanout),
                   static_cast<uint16_t>(s), EncodeEscrowFanout(mask, r));
    }
    for (int t = 0; mask != 0; ++t, mask >>= 1) {
      if ((mask & 1u) && t != s) PublishMirror(t, r);
    }
  }
  dispatched_.fetch_add(static_cast<int64_t>(batch.size()),
                        std::memory_order_relaxed);
  if (m_dispatched_ != nullptr) {
    m_dispatched_->Increment(static_cast<int64_t>(batch.size()));
  }
  if (options_.keep_dispatch_log) {
    std::lock_guard<std::mutex> lock(dispatch_log_mu_);
    dispatch_log_.insert(dispatch_log_.end(), batch.begin(), batch.end());
  }
  if (options_.on_dispatch) options_.on_dispatch(s, batch);
  return Status::OK();
}

Result<bool> ShardedScheduler::RunShardOnce(int s, SimTime now) {
  Shard& sh = *shards_[s];
  const int64_t t0 = ThreadCpuMicros();

  // Order matters: consume the wake flag BEFORE draining the mirror inbox.
  // A mirror published after the consume leaves the flag set for the next
  // pass; a mirror published before it is drained below and forces a cycle
  // via `applied`. Draining first would allow a mirror to slip in between
  // drain and consume — the cycle would then run without the marker in the
  // store, dispatch nothing, and eat the only wakeup (a permanent stall).
  bool runnable;
  {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    runnable = sh.dirty;
    sh.dirty = false;
  }
  const int applied = ApplyMirrors(s);
  runnable = runnable || applied > 0;

  // Refresh the advisory escrow view for this shard's protocol. In the
  // common zero-escrow case skip the lock entirely; the view is advisory,
  // so a registration racing this relaxed read is simply visible one
  // cycle later.
  if (sh.escrow_count.load(std::memory_order_relaxed) == 0) {
    sh.escrow_view.txns.clear();
    sh.sched->set_escrowed_locks(nullptr);
  } else {
    std::lock_guard<std::mutex> lock(sh.escrow_mu);
    sh.escrow_view.txns.clear();
    for (const auto& [ta, entry] : sh.escrow_entries) {
      sh.escrow_view.txns.push_back(ta);
    }
    sh.sched->set_escrowed_locks(sh.escrow_view.txns.empty() ? nullptr
                                                             : &sh.escrow_view);
  }

  if (!runnable ||
      (sh.sched->queue_size() == 0 && sh.sched->store()->pending_count() == 0)) {
    sh.busy_us.fetch_add(ThreadCpuMicros() - t0, std::memory_order_relaxed);
    return false;
  }

  DS_ASSIGN_OR_RETURN(const CycleStats stats, sh.sched->RunCycle(now));
  cycles_.fetch_add(1, std::memory_order_relaxed);
  if (m_cycles_ != nullptr) {
    m_cycles_->Increment();
    m_cycle_us_[static_cast<size_t>(s)]->Record(stats.total_us);
    if (stats.gc_removed > 0) m_gc_removed_->Increment(stats.gc_removed);
  }
  DS_RETURN_NOT_OK(ProcessDispatched(s, sh.sched->last_dispatched()));

  // Cross-shard victim mirroring: the resolver aborted these transactions
  // here; release their locks (and drop their pending) on every other shard
  // in their footprint.
  for (txn::TxnId victim : sh.sched->last_victims()) {
    victims_.fetch_add(1, std::memory_order_relaxed);
    if (m_victims_ != nullptr) m_victims_->Increment();
    const std::vector<int> footprint = router_.Footprint(victim);
    router_.Forget(victim);
    for (int t : footprint) {
      if (t == s) continue;
      Request marker;
      marker.id = next_id_.fetch_add(1, std::memory_order_relaxed);
      marker.ta = victim;
      marker.intrata = 1 << 30;
      marker.op = txn::OpType::kAbort;
      marker.object = Request::kNoObject;
      marker.arrival = now;
      marker.client = -1;
      PublishMirror(t, marker);
    }
  }

  // Per-shard adaptive consistency: fold this cycle's live signals into
  // the controller. Sampled after dispatch/victim processing so queue and
  // pending depths describe what the *next* cycle will face.
  if (sh.adaptive != nullptr) {
    // Starvation window for the accountant scan: a tenant whose oldest
    // pending request has waited this long (simulated) counts as starved —
    // load the hysteresis cannot ignore.
    constexpr int64_t kStarvationWaitUs = 100000;
    AdaptiveSignals sig;
    sig.queue_depth = sh.sched->queue_size();
    sig.wait_depth = sh.sched->store()->pending_count();
    sig.conflict_depth =
        stats.pending_before + stats.drained - stats.qualified;
    if (TenantAccountant* acct = sh.sched->tenant_accountant()) {
      for (const TenantAccountant::TenantTotals& t : acct->Totals()) {
        sig.inflight += t.inflight;
      }
      sig.starved_tenants = static_cast<int64_t>(
          acct->StarvedTenants(now, kStarvationWaitUs).size());
    }
    DS_ASSIGN_OR_RETURN(const bool switched, sh.adaptive->OnCycle(sig));
    if (switched) {
      adaptive_switches_.fetch_add(1, std::memory_order_relaxed);
      if (m_adaptive_switches_ != nullptr) m_adaptive_switches_->Increment();
    }
    if (m_adaptive_switches_ != nullptr) {
      m_adaptive_relaxed_[static_cast<size_t>(s)]->Set(
          sh.adaptive->relaxed_active() ? 1 : 0);
      m_adaptive_load_[static_cast<size_t>(s)]->Set(sig.LoadScore());
    }
  }

  // Dispatches and aborts change lock state — pending requests that were
  // blocked may now qualify, so look again. A cycle that moved nothing
  // leaves the shard quiescent until new input arrives.
  if (stats.dispatched > 0 || stats.victims > 0) MarkDirty(s);

  sh.busy_us.fetch_add(ThreadCpuMicros() - t0, std::memory_order_relaxed);
  return true;
}

void ShardedScheduler::WorkerLoop(int s) {
  Shard& sh = *shards_[s];
  while (!stop_.load(std::memory_order_acquire)) {
    const Result<bool> ran = RunShardOnce(s, Now());
    if (!ran.ok()) {
      DS_LOG(Error) << "shard " << s
                    << " cycle failed: " << ran.status().ToString();
      break;
    }
    std::unique_lock<std::mutex> lock(sh.wake_mu);
    if (sh.dirty || stop_.load(std::memory_order_acquire)) continue;
    sh.parked = true;
    idle_cv_.notify_all();
    sh.wake_cv.wait(lock, [&] {
      return sh.dirty || stop_.load(std::memory_order_acquire);
    });
    sh.parked = false;
  }
  {
    std::lock_guard<std::mutex> lock(sh.wake_mu);
    sh.parked = true;
  }
  idle_cv_.notify_all();
}

Status ShardedScheduler::StartLocked() {
  DS_CHECK(initialized_);
  if (started_) return Status::OK();
  stop_.store(false, std::memory_order_release);
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_[i]->parked = false;
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
  started_ = true;
  return Status::OK();
}

void ShardedScheduler::StopLocked() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->wake_mu);
    sh->wake_cv.notify_all();
  }
  for (auto& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
  started_ = false;
}

Status ShardedScheduler::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    DS_RETURN_NOT_OK(StartLocked());
  }
  if (wal_ != nullptr && options_.durability.checkpoint_interval_ms > 0 &&
      !ckpt_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ckpt_mu_);
      ckpt_stop_ = false;
    }
    ckpt_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

void ShardedScheduler::Stop() {
  // Join the checkpoint thread before taking lifecycle_mu_: it calls
  // Checkpoint(), which takes that mutex.
  StopCheckpointThread();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  StopLocked();
}

Status ShardedScheduler::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("checkpoint without durability enabled");
  }
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  const bool was_started = started_;
  if (was_started) StopLocked();
  const Status st = WriteCheckpointNow();
  if (was_started) DS_RETURN_NOT_OK(StartLocked());
  return st;
}

Status ShardedScheduler::WriteCheckpointNow() {
  // Workers are parked/joined; drain every mirror inbox before snapshotting.
  // Rotate() below truncates the kEscrowFanout records, so any fan-out still
  // sitting in memory must land in the snapshotted relations first.
  for (int s = 0; s < options_.num_shards; ++s) {
    (void)ApplyMirrors(s);
  }
  DS_RETURN_NOT_OK(wal_->Flush());
  storage::SnapshotData data;
  data.last_lsn = wal_->head_lsn();
  data.shards.reserve(shards_.size());
  for (auto& sh : shards_) {
    data.shards.push_back(SnapshotShardStore(*sh->sched->store()));
  }
  DS_RETURN_NOT_OK(storage::WriteSnapshot(options_.durability.dir, data));
  CrashPoint("snapshot:post-rename-pre-truncate");
  DS_RETURN_NOT_OK(wal_->Rotate());
  ckpt_bytes_mark_.store(wal_->appended_bytes(), std::memory_order_relaxed);
  if (m_snapshot_lsn_ != nullptr) {
    m_snapshot_lsn_->Set(static_cast<int64_t>(data.last_lsn));
  }
  return Status::OK();
}

void ShardedScheduler::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.durability.checkpoint_interval_ms);
  std::unique_lock<std::mutex> lock(ckpt_mu_);
  while (!ckpt_stop_) {
    ckpt_cv_.wait_for(lock, interval, [this] { return ckpt_stop_; });
    if (ckpt_stop_) return;
    lock.unlock();
    const int64_t every = options_.durability.checkpoint_every_bytes;
    const bool due =
        every <= 0 ||
        wal_->appended_bytes() -
                ckpt_bytes_mark_.load(std::memory_order_relaxed) >=
            every;
    if (due) {
      const Status st = Checkpoint();
      if (!st.ok()) {
        DS_LOG(Error) << "periodic checkpoint failed: " << st.ToString();
      }
    }
    lock.lock();
  }
}

void ShardedScheduler::StopCheckpointThread() {
  if (!ckpt_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.notify_all();
  ckpt_thread_.join();
}

bool ShardedScheduler::WaitIdle(int64_t timeout_us) {
  const int64_t deadline = NowMicros() + timeout_us;
  std::unique_lock<std::mutex> idle_lock(idle_mu_);
  while (true) {
    bool idle = true;
    for (auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->wake_mu);
      if (!sh->parked || sh->dirty) {
        idle = false;
        break;
      }
    }
    if (idle) {
      for (auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mirror_mu);
        if (!sh->mirror_inbox.empty()) idle = false;
      }
      for (auto& sh : shards_) {
        if (sh->sched->queue_size() != 0) idle = false;
      }
    }
    if (idle) return true;
    if (NowMicros() >= deadline) return false;
    idle_cv_.wait_for(idle_lock, std::chrono::milliseconds(1));
  }
}

Result<int> ShardedScheduler::StepOnce(SimTime now) {
  DS_CHECK(initialized_ && !started_);
  int ran = 0;
  for (int s = 0; s < options_.num_shards; ++s) {
    DS_ASSIGN_OR_RETURN(const bool cycled, RunShardOnce(s, now));
    ran += cycled ? 1 : 0;
  }
  return ran;
}

Status ShardedScheduler::RunUntilIdle(SimTime now, int max_steps) {
  for (int step = 0; step < max_steps; ++step) {
    const int64_t mirrors_before =
        mirrors_applied_.load(std::memory_order_relaxed);
    DS_ASSIGN_OR_RETURN(const int ran, StepOnce(now));
    if (ran == 0 &&
        mirrors_applied_.load(std::memory_order_relaxed) == mirrors_before) {
      return Status::OK();
    }
  }
  return Status::Internal("sharded scheduler not quiescent after max_steps");
}

ShardedScheduler::Totals ShardedScheduler::totals() const {
  Totals t;
  t.submitted = submitted_.load(std::memory_order_relaxed);
  t.dispatched = dispatched_.load(std::memory_order_relaxed);
  t.cycles = cycles_.load(std::memory_order_relaxed);
  t.escrows = escrows_.load(std::memory_order_relaxed);
  t.mirrors_applied = mirrors_applied_.load(std::memory_order_relaxed);
  t.victims = victims_.load(std::memory_order_relaxed);
  t.adaptive_switches = adaptive_switches_.load(std::memory_order_relaxed);
  t.external_aborts = external_aborts_.load(std::memory_order_relaxed);
  return t;
}

ShardedScheduler::GlobalTenantSnapshot ShardedScheduler::TenantSnapshot() const {
  GlobalTenantSnapshot global;
  global.shards.reserve(shards_.size());
  std::map<int64_t, TenantAccountant::TenantTotals> merged;
  for (const auto& sh : shards_) {
    TenantAccountant* acct = sh->sched->tenant_accountant();
    GlobalTenantSnapshot::ShardStamp stamp;
    if (acct != nullptr) {
      const TenantAccountant::Snapshot snap = acct->PublishedSnapshot();
      stamp.version = snap.version;
      stamp.pending_epoch = snap.pending_epoch;
      stamp.history_epoch = snap.history_epoch;
      for (const TenantAccountant::TenantTotals& t : snap.tenants) {
        TenantAccountant::TenantTotals& m = merged[t.tenant];
        m.tenant = t.tenant;
        m.weight = t.weight;
        m.pending += t.pending;
        m.inflight += t.inflight;
        m.admitted += t.admitted;
        m.dispatched += t.dispatched;
        m.finished_rows += t.finished_rows;
        m.service_us += t.service_us;
        // vtime/round/tokens are per-shard-relative; left 0 in the merge.
      }
    }
    global.shards.push_back(stamp);
  }
  global.tenants.reserve(merged.size());
  for (auto& [tenant, totals] : merged) global.tenants.push_back(totals);
  return global;
}

RequestBatch ShardedScheduler::TakeDispatched() {
  std::lock_guard<std::mutex> lock(dispatch_log_mu_);
  RequestBatch out;
  out.swap(dispatch_log_);
  return out;
}

int64_t ShardedScheduler::shard_busy_us(int i) const {
  return shards_[i]->busy_us.load(std::memory_order_relaxed);
}

}  // namespace declsched::scheduler

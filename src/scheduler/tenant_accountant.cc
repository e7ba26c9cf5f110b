#include "scheduler/tenant_accountant.h"

#include <algorithm>

#include "common/logging.h"

namespace declsched::scheduler {

TenantAccountant::TenantAccountant(TenantQosConfig config, RequestStore* store)
    : config_(std::move(config)), store_(store) {
  DS_CHECK(store_ != nullptr);
  // A non-positive quantum would divide the drr round update by zero.
  config_.drr_quantum_us = std::max<int64_t>(1, config_.drr_quantum_us);
  if (store_->pending_count() == 0 && store_->history_count() == 0) {
    // Zero counters describe an empty store exactly: adopt the sync point
    // now so the very first narrated delta is accepted (no rebuild). A
    // store that already has rows stays unsynced until the first
    // BeginCycle() rebuild.
    synced_pending_epoch_ = store_->pending_epoch();
    synced_history_epoch_ = store_->history_epoch();
    synced_history_version_ = store_->history_version();
  }
}

int64_t TenantAccountant::ServiceCost(txn::OpType op) const {
  switch (op) {
    case txn::OpType::kRead:
      return config_.read_service_us;
    case txn::OpType::kWrite:
      return config_.write_service_us;
    default:
      return config_.finisher_service_us;
  }
}

TenantAccountant::State& TenantAccountant::TenantState(int64_t tenant) {
  auto it = states_.find(tenant);
  if (it != states_.end()) return it->second;
  State state;
  const auto& mirror = store_->tenants_by_id();
  auto row = mirror.find(tenant);
  const bool fresh = row == mirror.end();
  if (fresh) {
    state.acct.tenant = tenant;
  } else {
    // The relation already has this tenant (test-seeded, auto-created by
    // InsertPending, or surviving a rebuild): adopt its accounting. A
    // hand-written weight below 1 would divide the vtime update by zero.
    state.acct = row->second;
    state.acct.weight = std::max<int64_t>(1, state.acct.weight);
  }
  auto spec = config_.tenants.find(tenant);
  if (spec != config_.tenants.end()) {
    // The configured knobs are authoritative for configured tenants. A
    // rate with no burst would cap every refill at zero — permanent
    // throttling — so a rate implies a bucket of at least one token.
    state.acct.weight = std::max<int64_t>(1, spec->second.weight);
    state.acct.rate = spec->second.rate;
    state.acct.burst = spec->second.rate > 0
                           ? std::max<int64_t>(1, spec->second.burst)
                           : spec->second.burst;
    state.acct.cap = spec->second.cap;
    if (fresh) state.acct.tokens = state.acct.burst;  // bucket starts full
  }
  state.micro_tokens = state.acct.tokens * kMicro;
  if (state.acct.rate > 0) ++rate_limited_;
  auto [inserted, unused] = states_.emplace(tenant, std::move(state));
  (void)unused;
  MarkDirty(tenant, inserted->second);
  return inserted->second;
}

Status TenantAccountant::SeedConfig() {
  for (const auto& [tenant, spec] : config_.tenants) TenantState(tenant);
  return Flush();
}

void TenantAccountant::MarkDirty(int64_t tenant, State& state) {
  if (!state.dirty) {
    state.dirty = true;
    dirty_.push_back(tenant);
  }
}

void TenantAccountant::CatchUpVtime(State& state) {
  int64_t min_busy = -1;
  for (const auto& [tenant, other] : states_) {
    if (&other == &state || other.pending + other.acct.inflight == 0) continue;
    if (min_busy < 0 || other.acct.vtime < min_busy) min_busy = other.acct.vtime;
  }
  if (min_busy > state.acct.vtime) state.acct.vtime = min_busy;
}

bool TenantAccountant::AcceptDelta(uint64_t dp, uint64_t dh) {
  // A hook that did not touch history must also see the content version
  // unmoved — adopting it blindly would launder an out-of-band history
  // edit (ad-hoc DML bumps the version but not the epoch) into the sync
  // point and skip the rebuild the staleness contract promises.
  if (synced_pending_epoch_ == 0 ||
      store_->pending_epoch() != synced_pending_epoch_ + dp ||
      store_->history_epoch() != synced_history_epoch_ + dh ||
      (dh == 0 && store_->history_version() != synced_history_version_)) {
    synced_pending_epoch_ = 0;
    return false;
  }
  synced_pending_epoch_ += dp;
  synced_history_epoch_ += dh;
  synced_history_version_ = store_->history_version();
  return true;
}

void TenantAccountant::OnAdmitted(const RequestBatch& batch) {
  if (batch.empty()) return;
  if (!AcceptDelta(/*dp=*/1, /*dh=*/0)) return;
  State* state = nullptr;
  int64_t last = -1;
  for (const Request& r : batch) {
    if (state == nullptr || r.tenant != last) {
      state = &TenantState(r.tenant);
      last = r.tenant;
    }
    if (state->pending == 0 && state->acct.inflight == 0) {
      CatchUpVtime(*state);
      MarkDirty(r.tenant, *state);
    }
    ++state->pending;
    ++state->admitted;
    state->oldest.emplace_back(r.id, r.arrival.micros());
  }
}

void TenantAccountant::ChargeDispatch(State& state, const Request& request) {
  --state.pending;
  ++state.acct.inflight;
  ++state.dispatched;
  // Keep the starvation FIFO from accumulating stale entries when nobody
  // queries the guard: once it outgrows twice the live pending count, pop
  // the dispatched/dropped fronts. Each entry is appended and popped at
  // most once, so the prune is amortized O(1) per admission.
  if (state.oldest.size() > 16 &&
      static_cast<int64_t>(state.oldest.size()) > 2 * state.pending) {
    const auto& mirror = store_->pending_by_id();
    while (!state.oldest.empty() &&
           mirror.find(state.oldest.front().first) == mirror.end()) {
      state.oldest.pop_front();
    }
  }
  const int64_t cost = ServiceCost(request.op);
  state.service_us += cost;
  state.acct.vtime += cost * kWfqScale / state.acct.weight;
  state.round_progress_us += cost;
  const int64_t per_round = config_.drr_quantum_us * state.acct.weight;
  if (state.round_progress_us >= per_round) {
    state.acct.round += state.round_progress_us / per_round;
    state.round_progress_us %= per_round;
  }
  if (state.acct.rate > 0) {
    // Consume one token; at most one token of debt so a rate-limited
    // tenant that a non-token policy kept dispatching is not buried.
    state.micro_tokens = std::max(state.micro_tokens - kMicro, -kMicro);
    state.acct.tokens = state.micro_tokens / kMicro;
  }
}

void TenantAccountant::OnScheduled(const RequestBatch& batch) {
  if (batch.empty()) return;
  if (!AcceptDelta(/*dp=*/1, /*dh=*/1)) return;
  State* state = nullptr;
  int64_t last = -1;
  for (const Request& r : batch) {
    if (state == nullptr || r.tenant != last) {
      state = &TenantState(r.tenant);
      last = r.tenant;
      MarkDirty(r.tenant, *state);
    }
    ChargeDispatch(*state, r);
  }
}

void TenantAccountant::OnMarkerInjected(
    const Request& marker, const std::map<int64_t, int64_t>& dropped_by_tenant) {
  if (!AcceptDelta(/*dp=*/dropped_by_tenant.empty() ? 0u : 1u, /*dh=*/1)) {
    return;
  }
  for (const auto& [tenant, dropped] : dropped_by_tenant) {
    State& state = TenantState(tenant);
    state.pending -= dropped;
    DS_CHECK(state.pending >= 0);
  }
  // The marker's history row counts in flight (GC will retire it by its
  // row tenant), but charges no service: it is not client work.
  State& state = TenantState(marker.tenant);
  ++state.acct.inflight;
  MarkDirty(marker.tenant, state);
}

void TenantAccountant::OnFinished(const RequestStore::GcResult& gc) {
  if (gc.rows_by_tenant.empty()) return;
  if (!AcceptDelta(/*dp=*/0, /*dh=*/1)) return;
  for (const auto& [tenant, rows] : gc.rows_by_tenant) {
    State& state = TenantState(tenant);
    state.acct.inflight -= rows;
    state.finished_rows += rows;
    DS_CHECK(state.acct.inflight >= 0);
    MarkDirty(tenant, state);
  }
}

Status TenantAccountant::BeginCycle(SimTime now) {
  if (synced_pending_epoch_ == 0 ||
      synced_pending_epoch_ != store_->pending_epoch() ||
      synced_history_epoch_ != store_->history_epoch() ||
      synced_history_version_ != store_->history_version()) {
    Rebuild();
  }
  if (rate_limited_ > 0 && now > last_refill_) {
    // Clamp the refill window so rate * dt stays comfortably in 64 bits
    // even across huge simulated gaps.
    const int64_t dt =
        std::min<int64_t>(now.micros() - last_refill_.micros(), kMicro * 1000);
    for (auto& [tenant, state] : states_) {
      if (state.acct.rate <= 0) continue;
      const int64_t ceiling = state.acct.burst * kMicro;
      state.micro_tokens =
          std::min(ceiling, state.micro_tokens + state.acct.rate * dt);
      const int64_t tokens = state.micro_tokens / kMicro;
      if (tokens != state.acct.tokens) {
        state.acct.tokens = tokens;
        MarkDirty(tenant, state);
      }
    }
  }
  if (now > last_refill_) last_refill_ = now;
  return Flush();
}

Status TenantAccountant::EndCycle() {
  DS_RETURN_NOT_OK(Flush());
  if (config_.publish_snapshots) {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    ++published_.version;
    published_.pending_epoch = store_->pending_epoch();
    published_.history_epoch = store_->history_epoch();
    published_.tenants.clear();
    published_.tenants.reserve(states_.size());
    for (const auto& [tenant, state] : states_) {
      published_.tenants.push_back(MakeTotals(state));
    }
  }
  return Status::OK();
}

Status TenantAccountant::Flush() {
  for (int64_t tenant : dirty_) {
    State& state = states_.at(tenant);
    state.dirty = false;
    DS_RETURN_NOT_OK(store_->UpsertTenant(state.acct));
  }
  dirty_.clear();
  return Status::OK();
}

void TenantAccountant::Rebuild() {
  ++full_rebuilds_;
  states_.clear();
  dirty_.clear();
  rate_limited_ = 0;
  // Adopt the `tenants` relation as durable truth for the monotone
  // accounting columns (vtime/round/tokens, configured knobs overlaid),
  // then recount pending/inflight exactly from the request relations.
  // Cumulative counters restart from zero (documented).
  for (const auto& [tenant, acct] : store_->tenants_by_id()) {
    TenantState(tenant);
  }
  for (const auto& [tenant, spec] : config_.tenants) TenantState(tenant);
  for (auto& [tenant, state] : states_) state.acct.inflight = 0;
  for (const auto& [id, r] : store_->pending_by_id()) {
    State& state = TenantState(r.tenant);
    ++state.pending;
    state.oldest.emplace_back(r.id, r.arrival.micros());
  }
  store_->ForEachHistory(
      [&](const Request& r) { ++TenantState(r.tenant).acct.inflight; });
  for (auto& [tenant, state] : states_) MarkDirty(tenant, state);
  synced_pending_epoch_ = store_->pending_epoch();
  synced_history_epoch_ = store_->history_epoch();
  synced_history_version_ = store_->history_version();
}

bool TenantAccountant::synced_with(const RequestStore& store) const {
  return synced_pending_epoch_ != 0 &&
         synced_pending_epoch_ == store.pending_epoch() &&
         synced_history_epoch_ == store.history_epoch() &&
         synced_history_version_ == store.history_version();
}

TenantAccountant::TenantTotals TenantAccountant::MakeTotals(
    const State& state) const {
  TenantTotals t;
  t.tenant = state.acct.tenant;
  t.weight = state.acct.weight;
  t.pending = state.pending;
  t.inflight = state.acct.inflight;
  t.admitted = state.admitted;
  t.dispatched = state.dispatched;
  t.finished_rows = state.finished_rows;
  t.service_us = state.service_us;
  t.vtime = state.acct.vtime;
  t.round = state.acct.round;
  t.tokens = state.acct.tokens;
  return t;
}

std::vector<TenantAccountant::TenantTotals> TenantAccountant::Totals() const {
  std::vector<TenantTotals> out;
  out.reserve(states_.size());
  for (const auto& [tenant, state] : states_) out.push_back(MakeTotals(state));
  return out;
}

TenantAccountant::TenantTotals TenantAccountant::TotalsFor(
    int64_t tenant) const {
  auto it = states_.find(tenant);
  if (it != states_.end()) return MakeTotals(it->second);
  TenantTotals t;
  t.tenant = tenant;
  return t;
}

int64_t TenantAccountant::OldestPendingWaitUs(int64_t tenant,
                                              SimTime now) const {
  auto it = states_.find(tenant);
  if (it == states_.end()) return -1;
  const auto& mirror = store_->pending_by_id();
  auto& oldest = it->second.oldest;
  while (!oldest.empty() && mirror.find(oldest.front().first) == mirror.end()) {
    oldest.pop_front();
  }
  if (oldest.empty()) return -1;
  return now.micros() - oldest.front().second;
}

std::vector<int64_t> TenantAccountant::StarvedTenants(SimTime now,
                                                      int64_t wait_us) const {
  std::vector<int64_t> starved;
  for (const auto& [tenant, state] : states_) {
    if (state.pending <= 0) continue;
    const int64_t wait = OldestPendingWaitUs(tenant, now);
    if (wait >= wait_us) starved.push_back(tenant);
  }
  return starved;
}

TenantAccountant::Snapshot TenantAccountant::PublishedSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return published_;
}

}  // namespace declsched::scheduler

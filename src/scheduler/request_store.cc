#include "scheduler/request_store.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/durability.h"
#include "storage/wal.h"

namespace declsched::scheduler {

using storage::Row;
using storage::RowId;
using storage::Value;
using storage::ValueType;

namespace {

storage::Schema RequestSchema() {
  return storage::Schema({
      {"id", ValueType::kInt64},
      {"ta", ValueType::kInt64},
      {"intrata", ValueType::kInt64},
      {"operation", ValueType::kString},
      {"object", ValueType::kInt64},
      {"priority", ValueType::kInt64},
      {"deadline", ValueType::kInt64},
      {"arrival", ValueType::kInt64},
      {"client", ValueType::kInt64},
      {"tenant", ValueType::kInt64},
  });
}

storage::Schema TenantSchema() {
  return storage::Schema({
      {"tenant", ValueType::kInt64},
      {"weight", ValueType::kInt64},
      {"vtime", ValueType::kInt64},
      {"round", ValueType::kInt64},
      {"tokens", ValueType::kInt64},
      {"rate", ValueType::kInt64},
      {"burst", ValueType::kInt64},
      {"cap", ValueType::kInt64},
      {"inflight", ValueType::kInt64},
  });
}

bool IsTerminationMarker(txn::OpType op) {
  return op == txn::OpType::kCommit || op == txn::OpType::kAbort;
}

/// Rows the store encodes itself always match the schema.
void InsertViewRow(storage::Table* table, Row row) {
  DS_CHECK_OK(table->Insert(std::move(row)).status());
}

}  // namespace

void RequestStore::AttachWal(storage::Wal* wal, uint16_t shard) {
  wal_ = wal;
  wal_shard_ = shard;
  last_wal_lsn_ = 0;
}

void RequestStore::DetachWal() {
  wal_ = nullptr;
  last_wal_lsn_ = 0;
}

void RequestStore::LogWal(uint8_t type, std::string_view payload) {
  if (wal_ == nullptr) return;
  last_wal_lsn_ = wal_->Append(type, wal_shard_, payload);
}

txn::OpType RequestStore::ParseOperation(const std::string& op) {
  if (op == "r") return txn::OpType::kRead;
  if (op == "w") return txn::OpType::kWrite;
  if (op == "a") return txn::OpType::kAbort;
  return txn::OpType::kCommit;
}

RequestStore::RequestStore() : engine_(&catalog_) {
  requests_.table = catalog_.CreateTable("requests", RequestSchema()).ValueOrDie();
  history_.table = catalog_.CreateTable("history", RequestSchema()).ValueOrDie();
  tenants_.table = catalog_.CreateTable("tenants", TenantSchema()).ValueOrDie();
}

storage::Row RequestStore::ToRow(const Request& request) {
  return Row{
      Value::Int64(request.id),
      Value::Int64(request.ta),
      Value::Int64(request.intrata),
      Value::String(std::string(1, txn::OpTypeToChar(request.op))),
      Value::Int64(request.object),
      Value::Int64(request.priority),
      Value::Int64(request.deadline.micros()),
      Value::Int64(request.arrival.micros()),
      Value::Int64(request.client),
      Value::Int64(request.tenant),
  };
}

Request RequestStore::RowToRequestFull(const storage::Row& row) {
  Request r;
  r.id = row[kColId].AsInt64();
  r.ta = row[kColTa].AsInt64();
  r.intrata = row[kColIntrata].AsInt64();
  r.op = ParseOperation(row[kColOperation].AsString());
  r.object = row[kColObject].AsInt64();
  r.priority = static_cast<int>(row[kColPriority].AsInt64());
  r.deadline = SimTime::FromMicros(row[kColDeadline].AsInt64());
  r.arrival = SimTime::FromMicros(row[kColArrival].AsInt64());
  r.client = static_cast<int>(row[kColClient].AsInt64());
  r.tenant = static_cast<int>(row[kColTenant].AsInt64());
  return r;
}

storage::Row RequestStore::TenantToRow(const TenantAcct& acct) {
  return Row{
      Value::Int64(acct.tenant),  Value::Int64(acct.weight),
      Value::Int64(acct.vtime),   Value::Int64(acct.round),
      Value::Int64(acct.tokens),  Value::Int64(acct.rate),
      Value::Int64(acct.burst),   Value::Int64(acct.cap),
      Value::Int64(acct.inflight),
  };
}

TenantAcct RequestStore::RowToTenant(const storage::Row& row) {
  TenantAcct a;
  a.tenant = row[0].AsInt64();
  a.weight = row[1].AsInt64();
  a.vtime = row[2].AsInt64();
  a.round = row[3].AsInt64();
  a.tokens = row[4].AsInt64();
  a.rate = row[5].AsInt64();
  a.burst = row[6].AsInt64();
  a.cap = row[7].AsInt64();
  a.inflight = row[8].AsInt64();
  return a;
}

void RequestStore::AbsorbPending() const {
  // Version equality is exact: every content mutation of the table bumps
  // it, so any out-of-band edit — count-preserving UPDATEs included — lands
  // here. Duplicate ids keep their first row, as a keyed relation must.
  const uint64_t now = requests_.table->version();
  if (now == requests_.written) return;
  pending_by_id_.clear();
  requests_.table->ForEach([&](RowId, const Row& row) {
    Request r = RowToRequestFull(row);
    pending_by_id_.emplace(r.id, std::move(r));
  });
  pending_version_ += now - requests_.written;
  ++pending_epoch_;
  requests_.Absorbed();
}

void RequestStore::AbsorbHistory() const {
  const uint64_t now = history_.table->version();
  if (now == history_.written) return;
  history_rows_.clear();
  history_tail_of_ta_.clear();
  history_live_ = 0;
  // Markers only ever leave history through GC, which clears the set, so a
  // rescan here is exact — including markers deleted out of band.
  unretired_finished_.clear();
  history_.table->ForEach(
      [&](RowId, const Row& row) { AppendHistory(RowToRequestFull(row)); });
  history_version_ += now - history_.written;
  history_.Absorbed();
}

void RequestStore::AbsorbTenants() const {
  const uint64_t now = tenants_.table->version();
  if (now == tenants_.written) return;
  tenants_by_id_.clear();
  tenants_.table->ForEach([&](RowId, const Row& row) {
    TenantAcct a = RowToTenant(row);
    tenants_by_id_.emplace(a.tenant, a);
  });
  tenants_version_ += now - tenants_.written;
  tenants_.Absorbed();
}

void RequestStore::SyncCatalog() const {
  AbsorbPending();
  AbsorbHistory();
  AbsorbTenants();
  // Rewrites in place — Clear plus inserts — so Table pointers (and the
  // prepared queries bound to them) stay valid.
  if (requests_.shows != pending_version_) {
    requests_.table->Clear();
    for (const auto& [id, r] : pending_by_id_) {
      InsertViewRow(requests_.table, ToRow(r));
    }
    requests_.Wrote(pending_version_);
  }
  if (history_.shows != history_version_) {
    history_.table->Clear();
    // Not ForEachHistory: it would take the Clear for an out-of-band edit.
    for (const HistoryRow& row : history_rows_) {
      if (!row.dead) InsertViewRow(history_.table, ToRow(row.request));
    }
    history_.Wrote(history_version_);
  }
  if (tenants_.shows != tenants_version_) {
    tenants_.table->Clear();
    for (const auto& [tenant, acct] : tenants_by_id_) {
      InsertViewRow(tenants_.table, TenantToRow(acct));
    }
    tenants_.Wrote(tenants_version_);
  }
}

Status RequestStore::InsertPending(const RequestBatch& batch) {
  if (batch.empty()) return Status::OK();
  AbsorbPending();
  AbsorbTenants();
  // Auto-create a default tenants row for tenants first seen on a pending
  // request, so fairness protocols can always inner-join requests with
  // tenants. `last` short-circuits the common one-tenant batch (a flag,
  // not a sentinel value: every int is a legal tenant id).
  bool have_last = false;
  int64_t last = 0;
  for (const Request& request : batch) {
    // Admission ids ascend, so the end hint makes each insert O(1).
    pending_by_id_.insert_or_assign(pending_by_id_.end(), request.id, request);
    if ((!have_last || request.tenant != last) &&
        tenants_by_id_.find(request.tenant) == tenants_by_id_.end()) {
      TenantAcct acct;
      acct.tenant = request.tenant;
      tenants_by_id_.emplace(acct.tenant, acct);
      ++tenants_version_;
    }
    have_last = true;
    last = request.tenant;
  }
  pending_version_ += batch.size();
  ++pending_epoch_;
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeRequestsTo(&wal_scratch_, batch);
    LogWal(static_cast<uint8_t>(WalRecordType::kInsertPending), wal_scratch_);
  }
  return Status::OK();
}

Status RequestStore::UpsertTenant(const TenantAcct& acct) {
  AbsorbTenants();
  tenants_by_id_[acct.tenant] = acct;
  ++tenants_version_;
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeTenantTo(&wal_scratch_, acct);
    LogWal(static_cast<uint8_t>(WalRecordType::kUpsertTenant), wal_scratch_);
  }
  return Status::OK();
}

const std::map<int64_t, TenantAcct>& RequestStore::tenants_by_id() const {
  AbsorbTenants();
  return tenants_by_id_;
}

TenantAcct RequestStore::TenantOrDefault(int64_t tenant) const {
  AbsorbTenants();
  auto it = tenants_by_id_.find(tenant);
  if (it != tenants_by_id_.end()) return it->second;
  TenantAcct acct;
  acct.tenant = tenant;
  return acct;
}

int64_t RequestStore::tenant_count() const {
  AbsorbTenants();
  return static_cast<int64_t>(tenants_by_id_.size());
}

void RequestStore::AppendHistory(const Request& request) const {
  const uint32_t row = static_cast<uint32_t>(history_rows_.size());
  auto [tail, first] = history_tail_of_ta_.try_emplace(request.ta, row);
  uint32_t prev = kNoRow;
  if (!first) {
    prev = tail->second;
    tail->second = row;
  }
  history_rows_.push_back(HistoryRow{request, prev, false});
  ++history_live_;
  if (IsTerminationMarker(request.op)) unretired_finished_.insert(request.ta);
}

void RequestStore::MaybeCompactHistory() {
  // Compact when tombstones outnumber live rows: each live row moves at
  // most once per doubling of retirements, so GC stays O(rows retired)
  // amortized. Retirement kills whole chains, so live chains only link
  // live rows and a remap keeps them intact.
  constexpr size_t kMinRows = 64;
  const size_t total = history_rows_.size();
  const size_t live = static_cast<size_t>(history_live_);
  if (total < kMinRows || total - live <= live) return;
  std::vector<uint32_t> remap(total, kNoRow);
  uint32_t out = 0;
  for (size_t i = 0; i < total; ++i) {
    if (history_rows_[i].dead) continue;
    HistoryRow& row = history_rows_[i];
    if (row.prev_of_ta != kNoRow) row.prev_of_ta = remap[row.prev_of_ta];
    remap[i] = out;
    if (out != i) history_rows_[out] = std::move(row);
    ++out;
  }
  history_rows_.resize(out);
  for (auto& [ta, tail] : history_tail_of_ta_) tail = remap[tail];
}

Status RequestStore::MarkScheduled(const RequestBatch& batch) {
  if (batch.empty()) return Status::OK();
  AbsorbPending();
  AbsorbHistory();
  // Bump before moving rows: a failure partway through is still a mutation,
  // and epoch-keyed consumers must resync rather than serve stale state.
  ++pending_epoch_;
  ++history_epoch_;
  for (const Request& request : batch) {
    auto it = pending_by_id_.find(request.id);
    if (it == pending_by_id_.end()) {
      return Status::Internal(StrFormat("request #%lld is not pending",
                                        static_cast<long long>(request.id)));
    }
    // Move the full stored request (the scheduled batch may carry only the
    // protocol's projection of it).
    AppendHistory(it->second);
    pending_by_id_.erase(it);
    ++pending_version_;
    ++history_version_;
  }
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeRequestIdsTo(&wal_scratch_, batch);
    LogWal(static_cast<uint8_t>(WalRecordType::kMarkScheduled), wal_scratch_);
  }
  return Status::OK();
}

Status RequestStore::InsertHistory(const Request& request) {
  AbsorbHistory();
  AppendHistory(request);
  ++history_version_;
  ++history_epoch_;
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeRequestsTo(&wal_scratch_, {request});
    LogWal(static_cast<uint8_t>(WalRecordType::kInsertHistory), wal_scratch_);
  }
  return Status::OK();
}

int64_t RequestStore::DropPendingOfTransaction(
    txn::TxnId ta, std::map<int64_t, int64_t>* dropped_by_tenant) {
  AbsorbPending();
  int64_t removed = 0;
  for (auto it = pending_by_id_.begin(); it != pending_by_id_.end();) {
    if (it->second.ta == ta) {
      if (dropped_by_tenant != nullptr) {
        ++(*dropped_by_tenant)[it->second.tenant];
      }
      it = pending_by_id_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (removed > 0) {
    pending_version_ += static_cast<uint64_t>(removed);
    ++pending_epoch_;
    // Zero-row drops are not logged: they mutate nothing, and replay would
    // observe the same zero rows anyway.
    if (wal_ != nullptr) {
      wal_scratch_.clear();
      EncodeTxnIdTo(&wal_scratch_, ta);
      LogWal(static_cast<uint8_t>(WalRecordType::kDropPending), wal_scratch_);
    }
  }
  return removed;
}

Result<RequestStore::GcResult> RequestStore::GarbageCollectFinished() {
  GcResult gc;
  // An out-of-band history edit is absorbed first, which recounts markers.
  AbsorbHistory();
  // Fast path: markers were counted as they entered history, so "nothing to
  // retire" costs no scan at all.
  if (unretired_finished_.empty()) return gc;
  gc.txns.assign(unretired_finished_.begin(), unretired_finished_.end());
  std::sort(gc.txns.begin(), gc.txns.end());
  unretired_finished_.clear();
  ++history_epoch_;
  // Retire each finished transaction's rows (markers included) by walking
  // its chain: O(rows retired), independent of resident history size.
  for (txn::TxnId ta : gc.txns) {
    auto tail = history_tail_of_ta_.find(ta);
    if (tail == history_tail_of_ta_.end()) continue;
    for (uint32_t i = tail->second; i != kNoRow;) {
      HistoryRow& row = history_rows_[i];
      row.dead = true;
      ++gc.rows_by_tenant[row.request.tenant];
      ++gc.rows_retired;
      i = row.prev_of_ta;
    }
    history_tail_of_ta_.erase(tail);
  }
  history_live_ -= gc.rows_retired;
  history_version_ += static_cast<uint64_t>(gc.rows_retired);
  MaybeCompactHistory();
  // The record carries no payload: GC is a deterministic function of the
  // history relation, which replay has already reproduced at this point.
  LogWal(static_cast<uint8_t>(WalRecordType::kGc), {});
  return gc;
}

Result<RequestBatch> RequestStore::AllPending() const {
  AbsorbPending();
  RequestBatch out;
  out.reserve(pending_by_id_.size());
  for (const auto& [id, request] : pending_by_id_) out.push_back(request);
  return out;
}

const std::map<int64_t, Request>& RequestStore::pending_by_id() const {
  AbsorbPending();
  return pending_by_id_;
}

int64_t RequestStore::pending_count() const {
  AbsorbPending();
  return static_cast<int64_t>(pending_by_id_.size());
}

int64_t RequestStore::history_count() const {
  AbsorbHistory();
  return history_live_;
}

uint64_t RequestStore::history_version() const {
  AbsorbHistory();
  return history_version_;
}

uint64_t RequestStore::pending_version() const {
  AbsorbPending();
  return pending_version_;
}

uint64_t RequestStore::tenants_version() const {
  AbsorbTenants();
  return tenants_version_;
}

const datalog::Database& RequestStore::BuildDatalogEdb() const {
  AbsorbPending();
  AbsorbHistory();
  AbsorbTenants();
  if (edb_pending_epoch_ != pending_epoch_) {
    datalog::Relation& req = edb_cache_["req"];
    datalog::Relation& reqmeta = edb_cache_["reqmeta"];
    datalog::Relation& reqtenant = edb_cache_["reqtenant"];
    req.clear();
    reqmeta.clear();
    reqtenant.clear();
    req.reserve(pending_by_id_.size());
    reqmeta.reserve(pending_by_id_.size());
    reqtenant.reserve(pending_by_id_.size());
    for (const auto& [id, r] : pending_by_id_) {
      req.push_back({Value::Int64(r.id), Value::Int64(r.ta),
                     Value::Int64(r.intrata),
                     Value::String(std::string(1, txn::OpTypeToChar(r.op))),
                     Value::Int64(r.object)});
      reqmeta.push_back({Value::Int64(r.id), Value::Int64(r.priority),
                         Value::Int64(r.deadline.micros()),
                         Value::Int64(r.arrival.micros())});
      reqtenant.push_back({Value::Int64(r.id), Value::Int64(r.tenant)});
    }
    edb_pending_epoch_ = pending_epoch_;
  }
  if (edb_tenant_version_ != tenants_version_) {
    datalog::Relation& acct = edb_cache_["tenantacct"];
    acct.clear();
    acct.reserve(tenants_by_id_.size());
    for (const auto& [tenant, a] : tenants_by_id_) {
      acct.push_back({Value::Int64(a.tenant), Value::Int64(a.weight),
                      Value::Int64(a.vtime), Value::Int64(a.round),
                      Value::Int64(a.tokens), Value::Int64(a.rate),
                      Value::Int64(a.cap), Value::Int64(a.inflight)});
    }
    edb_tenant_version_ = tenants_version_;
  }
  if (edb_history_epoch_ != history_epoch_ ||
      edb_history_version_ != history_version_) {
    datalog::Relation& hist = edb_cache_["hist"];
    hist.clear();
    hist.reserve(static_cast<size_t>(history_live_));
    ForEachHistory([&](const Request& r) {
      hist.push_back({Value::Int64(r.id), Value::Int64(r.ta),
                      Value::Int64(r.intrata),
                      Value::String(std::string(1, txn::OpTypeToChar(r.op))),
                      Value::Int64(r.object)});
    });
    edb_history_epoch_ = history_epoch_;
    edb_history_version_ = history_version_;
  }
  return edb_cache_;
}

Result<RequestBatch> RequestStore::RowsToRequests(
    const std::vector<storage::Row>& rows, const std::vector<int>& cols) const {
  if (cols.size() != 5) {
    return Status::InvalidArgument(
        "RowsToRequests needs the five Table 2 column positions");
  }
  AbsorbPending();
  RequestBatch batch;
  batch.reserve(rows.size());
  for (const storage::Row& row : rows) {
    for (int col : cols) {
      if (col < 0 || static_cast<size_t>(col) >= row.size()) {
        return Status::InvalidArgument(
            "protocol result row lacks the Table 2 columns");
      }
    }
    Request request;
    request.id = row[static_cast<size_t>(cols[0])].AsInt64();
    request.ta = row[static_cast<size_t>(cols[1])].AsInt64();
    request.intrata = row[static_cast<size_t>(cols[2])].AsInt64();
    request.op = ParseOperation(row[static_cast<size_t>(cols[3])].AsString());
    request.object = row[static_cast<size_t>(cols[4])].AsInt64();
    // Rejoin the metadata columns from the pending relation (protocols only
    // guarantee the Table 2 columns in their result); rows carrying the
    // full canonical layout fall back to their own columns.
    auto it = pending_by_id_.find(request.id);
    if (it != pending_by_id_.end()) {
      request.priority = it->second.priority;
      request.deadline = it->second.deadline;
      request.arrival = it->second.arrival;
      request.client = it->second.client;
      request.tenant = it->second.tenant;
    } else if (row.size() >= 10 && cols[0] == kColId && cols[1] == kColTa &&
               cols[2] == kColIntrata && cols[3] == kColOperation &&
               cols[4] == kColObject) {
      // Only a fully canonical layout guarantees columns 5..9 really are
      // the SLA metadata; a permuted schema must not decode garbage.
      request.priority = static_cast<int>(row[kColPriority].AsInt64());
      request.deadline = SimTime::FromMicros(row[kColDeadline].AsInt64());
      request.arrival = SimTime::FromMicros(row[kColArrival].AsInt64());
      request.client = static_cast<int>(row[kColClient].AsInt64());
      request.tenant = static_cast<int>(row[kColTenant].AsInt64());
    }
    batch.push_back(request);
  }
  return batch;
}

Result<RequestBatch> RequestStore::RowsToRequests(
    const std::vector<storage::Row>& rows) const {
  static const std::vector<int> kCanonical = {kColId, kColTa, kColIntrata,
                                              kColOperation, kColObject};
  return RowsToRequests(rows, kCanonical);
}

}  // namespace declsched::scheduler

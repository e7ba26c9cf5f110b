#include "server/database_server.h"

#include <algorithm>

#include "common/string_util.h"

namespace declsched::server {

DatabaseServer::DatabaseServer(const Config& config)
    : config_(config),
      rows_(static_cast<size_t>(std::max<int64_t>(config.num_rows, 0)), 0) {}

Status DatabaseServer::ValidateStatement(const Statement& stmt) const {
  if (stmt.op == txn::OpType::kRead || stmt.op == txn::OpType::kWrite) {
    if (stmt.object < 0 || stmt.object >= config_.num_rows) {
      return Status::InvalidArgument(
          StrFormat("row %lld out of range [0, %lld)",
                    static_cast<long long>(stmt.object),
                    static_cast<long long>(config_.num_rows)));
    }
  }
  if (!config_.known_tenants.empty()) {
    bool known = false;
    for (int t : config_.known_tenants) {
      if (t == stmt.tenant) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(
          StrFormat("unknown tenant %d", stmt.tenant));
    }
  }
  return Status::OK();
}

Status DatabaseServer::ValidateBatch(const StatementBatch& batch) const {
  if (config_.max_batch_statements > 0 &&
      static_cast<int64_t>(batch.size()) > config_.max_batch_statements) {
    return Status::InvalidArgument(
        StrFormat("batch of %lld statements exceeds limit %lld",
                  static_cast<long long>(batch.size()),
                  static_cast<long long>(config_.max_batch_statements)));
  }
  for (const Statement& stmt : batch) {
    DS_RETURN_NOT_OK(ValidateStatement(stmt));
  }
  return Status::OK();
}

Result<DatabaseServer::BatchStats> DatabaseServer::ExecuteBatch(
    const StatementBatch& batch, int shard) {
  BatchStats stats;
  if (batch.empty()) return stats;
  DS_RETURN_NOT_OK(ValidateBatch(batch));
  std::lock_guard<std::mutex> lock(mu_);
  stats.busy = config_.cost.batch_dispatch;
  for (const Statement& stmt : batch) {
    SimTime stmt_cost;
    switch (stmt.op) {
      case txn::OpType::kRead:
      case txn::OpType::kWrite:
        if (stmt.op == txn::OpType::kWrite) {
          ++rows_[static_cast<size_t>(stmt.object)];
          ++stats.writes;
        } else {
          ++stats.reads;
        }
        stmt_cost = config_.cost.statement_service;
        break;
      case txn::OpType::kCommit:
        ++stats.commits;
        stmt_cost = config_.cost.commit_service;
        break;
      case txn::OpType::kAbort:
        ++stats.aborts;
        stmt_cost = config_.cost.commit_service;
        break;
    }
    stats.busy += stmt_cost;
    tenant_busy_[stmt.tenant] += stmt_cost;
  }
  total_statements_ += static_cast<int64_t>(batch.size());
  total_busy_ += stats.busy;
  if (shard >= 0) {
    if (static_cast<size_t>(shard) >= shard_busy_.size()) {
      shard_busy_.resize(static_cast<size_t>(shard) + 1);
    }
    shard_busy_[static_cast<size_t>(shard)] += stats.busy;
  }
  return stats;
}

SimTime DatabaseServer::tenant_busy(int tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_busy_.find(tenant);
  return it == tenant_busy_.end() ? SimTime() : it->second;
}

SimTime DatabaseServer::shard_busy(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard < 0 || static_cast<size_t>(shard) >= shard_busy_.size()) {
    return SimTime();
  }
  return shard_busy_[static_cast<size_t>(shard)];
}

Result<int64_t> DatabaseServer::RowValue(int64_t key) const {
  if (key < 0 || key >= config_.num_rows) {
    return Status::NotFound(StrFormat("no row %lld", static_cast<long long>(key)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  return rows_[static_cast<size_t>(key)];
}

}  // namespace declsched::server

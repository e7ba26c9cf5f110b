// DatabaseServer: the backend the declarative scheduler dispatches to.
//
// In the paper's architecture (Figure 1) the middleware sends scheduled
// request batches to the server with the server's own scheduler disabled as
// far as possible. This server executes the batch directly against its
// storage without any lock acquisition (the middleware guarantees the batch
// is conflict-safe) and accounts the simulated CPU time it would take.
//
// Storage: the user table has one int64 value column keyed by row number,
// so it is held flat — a std::vector<int64_t> indexed by key, 8 bytes a
// row (the paper's 100 000 rows take 0.8 MB). A read touches nothing and a
// write increments its row in place: no allocation, no boxed values.
//
// Thread-safety: ExecuteBatch serializes internally, so the N shard workers
// of a ShardedScheduler may dispatch into one server concurrently (the
// sharded mode of the server stack — see examples/sharded_server.cpp,
// which drives it with --shards=N). Batches from different shards execute
// atomically with respect to each other; the middleware still guarantees
// each batch is conflict-safe on its own.

#ifndef DECLSCHED_SERVER_DATABASE_SERVER_H_
#define DECLSCHED_SERVER_DATABASE_SERVER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "server/cost_model.h"
#include "server/statement.h"

namespace declsched::server {

class DatabaseServer {
 public:
  struct Config {
    /// Size of the user table (the paper: 100 000 rows).
    int64_t num_rows = 100000;
    CostModel cost;
    /// Tenants allowed to execute; empty means any tenant id. Statements
    /// from other tenants fail validation with InvalidArgument.
    std::vector<int> known_tenants;
    /// Upper bound on statements per batch; larger batches fail validation
    /// with InvalidArgument. 0 disables the check.
    int64_t max_batch_statements = 0;
  };

  explicit DatabaseServer(const Config& config);

  struct BatchStats {
    int64_t reads = 0;
    int64_t writes = 0;
    int64_t commits = 0;
    int64_t aborts = 0;
    /// Simulated CPU time consumed by this batch.
    SimTime busy;
  };

  /// Checks one statement against this server's config without executing
  /// it: row in [0, num_rows), tenant known (when known_tenants is set).
  /// InvalidArgument on violation. Thread-safe (config is immutable), so
  /// the network front door can pre-validate before admission.
  Status ValidateStatement(const Statement& stmt) const;

  /// ValidateStatement over a whole batch, plus the max_batch_statements
  /// bound. The first violation is returned.
  Status ValidateBatch(const StatementBatch& batch) const;

  /// Executes a pre-scheduled batch without internal scheduling.
  /// Validate-first: the whole batch is checked (ValidateBatch) before any
  /// statement executes, so a failed batch leaves data and accounting
  /// untouched — no partial application. Thread-safe: concurrent callers
  /// (shard dispatchers) serialize on an internal mutex. `shard`
  /// attributes the batch's busy time to that dispatcher (see
  /// shard_busy); pass 0 when unsharded.
  Result<BatchStats> ExecuteBatch(const StatementBatch& batch, int shard = 0);

  /// Current value of a row (writes increment it); NotFound outside
  /// [0, num_rows). For test verification. Thread-safe.
  Result<int64_t> RowValue(int64_t key) const;

  /// Simulated busy time attributed to shard dispatcher `i` so far; zero
  /// for shards that never dispatched. Thread-safe.
  SimTime shard_busy(int shard) const;

  /// Simulated busy time attributed to `tenant`'s statements so far (the
  /// server-side view of per-tenant service, to validate the scheduler's
  /// accounting against); zero for unseen tenants. Thread-safe.
  SimTime tenant_busy(int tenant) const;

  int64_t total_statements() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_statements_;
  }
  SimTime total_busy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_busy_;
  }
  const Config& config() const { return config_; }

 private:
  Config config_;
  /// Guards the rows and every counter: one dispatcher executes at a time
  /// (the simulated server is a single execution resource; shards overlap
  /// scheduling work, not server work).
  mutable std::mutex mu_;
  /// Row values indexed by key (see the storage note above).
  std::vector<int64_t> rows_;
  int64_t total_statements_ = 0;
  SimTime total_busy_;
  std::vector<SimTime> shard_busy_;
  std::map<int, SimTime> tenant_busy_;
};

}  // namespace declsched::server

#endif  // DECLSCHED_SERVER_DATABASE_SERVER_H_

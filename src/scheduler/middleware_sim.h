// End-to-end middleware simulation: N closed-loop clients connect to the
// DeclarativeScheduler (instead of the server — paper Figure 1), which
// batches, schedules declaratively, and dispatches to the simulated DBMS.
//
// Two time domains, kept deliberately separate (see EXPERIMENTS.md):
//  * the simulated timeline (client latencies, server busy time), and
//  * real wall time of the scheduler's own query evaluation, recorded as
//    metrics — the quantity Section 4.3 measures.

#ifndef DECLSCHED_SCHEDULER_MIDDLEWARE_SIM_H_
#define DECLSCHED_SCHEDULER_MIDDLEWARE_SIM_H_

#include <optional>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "scheduler/adaptive_controller.h"
#include "scheduler/declarative_scheduler.h"
#include "server/database_server.h"
#include "txn/types.h"
#include "workload/oltp_generator.h"

namespace declsched::scheduler {

struct MiddlewareSimConfig {
  int num_clients = 50;
  SimTime duration = SimTime::FromSeconds(10);
  workload::WorkloadConfig workload;
  DeclarativeScheduler::Options scheduler;
  server::DatabaseServer::Config server;
  uint64_t seed = 1;
  /// Collect the executed-operation trace for the correctness oracles.
  bool record_history = false;
  /// Stop after this many commits; -1 = run the full window.
  int64_t max_committed_txns = -1;
  /// Transaction deadline = start + slack * (priority + 1).
  SimTime deadline_slack = SimTime::FromMillis(500);
  /// Delay before a deadlock victim retries.
  SimTime restart_backoff = SimTime::FromMillis(1);
  /// Optional adaptive-consistency controller.
  std::optional<AdaptiveConsistencyController::Options> adaptive;
};

struct MiddlewareSimResult {
  int64_t committed_txns = 0;
  int64_t committed_statements = 0;
  int64_t aborted_txns = 0;
  int64_t cycles = 0;
  SimTime elapsed;
  /// Simulated transaction latency (us), one histogram per SLA class.
  std::vector<Histogram> latency_by_class;
  int64_t deadline_met = 0;
  int64_t deadline_missed = 0;
  int64_t protocol_switches = 0;
  /// Scheduler aggregates (real wall-time query costs live here).
  SchedulerTotals totals;
  /// Per-tenant accounting at end of run (empty when the scheduler ran
  /// without tenant accounting). Ascending tenant id.
  std::vector<TenantAccountant::TenantTotals> tenant_totals;
  /// Executed-operation trace in dispatch order (if recorded).
  std::vector<txn::HistoryOp> history;
  /// Write statements dispatched to the server (including those of
  /// transactions that later aborted — dispatched work is done work).
  int64_t dispatched_writes = 0;
  /// Sum of all row values after the run (each write increments its row by
  /// one): in a correct pipeline this equals dispatched_writes.
  int64_t server_write_checksum = 0;

  double throughput_txns_per_sec() const {
    const double secs = elapsed.ToSecondsF();
    return secs > 0 ? static_cast<double>(committed_txns) / secs : 0;
  }
};

Result<MiddlewareSimResult> RunMiddlewareSimulation(const MiddlewareSimConfig& config);

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_MIDDLEWARE_SIM_H_

#include "scheduler/middleware_sim.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"

namespace declsched::scheduler {

namespace {

using txn::OpType;
using txn::TxnId;

struct Client {
  int index = 0;
  std::unique_ptr<workload::OltpWorkloadGenerator> generator;
  workload::TxnSpec spec;
  size_t next_op = 0;       // next operation to submit
  TxnId ta = 0;
  SimTime txn_start;
  SimTime deadline;
  bool outstanding = false;  // a request is queued/pending/dispatching
  bool commit_submitted = false;
  SimTime resume_at;         // earliest time the next submission may happen
  int consecutive_aborts = 0;  // drives exponential restart backoff
};

class Harness {
 public:
  explicit Harness(const MiddlewareSimConfig& config)
      : config_(config), server_(config.server) {}

  Result<MiddlewareSimResult> Run() {
    if (config_.num_clients <= 0) {
      return Status::InvalidArgument("num_clients must be positive");
    }
    scheduler_ = std::make_unique<DeclarativeScheduler>(config_.scheduler, &server_);
    DS_RETURN_NOT_OK(scheduler_->Init());
    if (config_.adaptive.has_value()) {
      adaptive_ = std::make_unique<AdaptiveConsistencyController>(*config_.adaptive,
                                                                  scheduler_.get());
    }

    int num_classes = std::max(1, config_.workload.num_sla_classes);
    result_.latency_by_class.resize(static_cast<size_t>(num_classes));

    clients_.reserve(static_cast<size_t>(config_.num_clients));
    for (int i = 0; i < config_.num_clients; ++i) {
      clients_.push_back(Client{});
      Client& c = clients_.back();
      c.index = i;
      c.generator = std::make_unique<workload::OltpWorkloadGenerator>(
          config_.workload, config_.seed + static_cast<uint64_t>(i) * 6151);
      BeginTransaction(c);
    }

    SimTime now;
    int64_t consecutive_stalls = 0;
    while (now < config_.duration) {
      if (config_.max_committed_txns >= 0 &&
          result_.committed_txns >= config_.max_committed_txns) {
        break;
      }

      // Submission phase: clients whose previous request completed.
      for (Client& c : clients_) {
        if (!c.outstanding && c.resume_at <= now) SubmitNext(c, now);
      }

      if (scheduler_->queue_size() == 0 && scheduler_->store()->pending_count() == 0) {
        // Everyone is waiting on a future resume time: jump there.
        SimTime next = SimTime::Max();
        for (const Client& c : clients_) {
          if (!c.outstanding && c.resume_at < next) next = c.resume_at;
        }
        if (next == SimTime::Max()) {
          return Status::Internal("middleware sim: no runnable client");
        }
        now = next > now ? next : now + SimTime::FromMicros(1);
        continue;
      }

      // Trigger phase.
      const SimTime eligible = scheduler_->NextEligible(now);
      if (eligible > now) {
        now = eligible;
        continue;
      }

      DS_ASSIGN_OR_RETURN(CycleStats stats, scheduler_->RunCycle(now));
      ++result_.cycles;

      // Completion phase: requests finish as the batch executes.
      SimTime t = now + server_.config().cost.batch_dispatch;
      for (const Request& request : scheduler_->last_dispatched()) {
        const bool terminal =
            request.op == OpType::kCommit || request.op == OpType::kAbort;
        t += terminal ? server_.config().cost.commit_service
                      : server_.config().cost.statement_service;
        if (request.op == OpType::kWrite) ++result_.dispatched_writes;
        DS_RETURN_NOT_OK(OnDispatched(request, t));
      }

      // Victim phase: deadlock resolution aborted these transactions.
      for (TxnId victim : scheduler_->last_victims()) {
        DS_RETURN_NOT_OK(OnVictim(victim, now));
      }

      if (adaptive_ != nullptr) {
        DS_ASSIGN_OR_RETURN(
            bool switched,
            adaptive_->OnCycle(scheduler_->queue_size() +
                               scheduler_->store()->pending_count()));
        if (switched) ++result_.protocol_switches;
      }

      if (stats.dispatched == 0 && stats.victims == 0) {
        ++consecutive_stalls;
        if (consecutive_stalls > 10000) {
          return Status::Internal(StrFormat(
              "middleware sim stalled: %lld pending, %lld queued, 0 progress",
              static_cast<long long>(scheduler_->store()->pending_count()),
              static_cast<long long>(scheduler_->queue_size())));
        }
        // Blocked work can only progress once some client submits again
        // (e.g. the lock holder's commit): jump straight to that time.
        SimTime next = SimTime::Max();
        for (const Client& c : clients_) {
          if (!c.outstanding && c.resume_at < next) next = c.resume_at;
        }
        if (next == SimTime::Max()) {
          // Everyone is blocked in pending; the resolver will break a cycle
          // on an upcoming cycle — tick forward minimally.
          now += SimTime::FromMicros(100);
        } else {
          now = next > now ? next : now + SimTime::FromMicros(100);
        }
      } else {
        consecutive_stalls = 0;
        now += stats.server_busy;
        if (stats.server_busy == SimTime()) now += SimTime::FromMicros(1);
      }
    }

    result_.elapsed = now < config_.duration ? now : config_.duration;
    result_.totals = scheduler_->totals();
    if (scheduler_->tenant_accountant() != nullptr) {
      result_.tenant_totals = scheduler_->tenant_accountant()->Totals();
    }
    for (int64_t k = 0; k < config_.server.num_rows; ++k) {
      DS_ASSIGN_OR_RETURN(int64_t value, server_.RowValue(k));
      result_.server_write_checksum += value;
    }
    return std::move(result_);
  }

 private:
  void BeginTransaction(Client& c) {
    c.spec = c.generator->NextTransaction();
    StartAttempt(c, /*now=*/c.resume_at);
  }

  void StartAttempt(Client& c, SimTime now) {
    c.ta = next_ta_++;
    ta_owner_[c.ta] = c.index;
    c.next_op = 0;
    c.commit_submitted = false;
    c.txn_start = now;
    c.deadline = now + config_.deadline_slack * (c.spec.sla_class + 1);
    c.outstanding = false;
  }

  void SubmitNext(Client& c, SimTime now) {
    Request request;
    request.ta = c.ta;
    request.priority = c.spec.sla_class;
    request.deadline = c.deadline;
    request.client = c.index;
    request.tenant = c.spec.tenant;
    if (c.next_op < c.spec.ops.size()) {
      const workload::OpSpec& op = c.spec.ops[c.next_op];
      request.intrata = static_cast<int64_t>(c.next_op) + 1;
      request.op = op.is_write ? OpType::kWrite : OpType::kRead;
      request.object = op.object;
    } else {
      DS_CHECK(!c.commit_submitted);
      request.intrata = static_cast<int64_t>(c.spec.ops.size()) + 1;
      request.op = OpType::kCommit;
      request.object = Request::kNoObject;
      c.commit_submitted = true;
    }
    scheduler_->Submit(std::move(request), now);
    c.outstanding = true;
  }

  Status OnDispatched(const Request& request, SimTime finish) {
    if (request.client < 0 ||
        request.client >= static_cast<int>(clients_.size())) {
      return Status::Internal("dispatched request has no client");
    }
    Client& c = clients_[request.client];
    if (request.ta != c.ta) return Status::OK();  // stale (aborted attempt)
    c.outstanding = false;
    c.resume_at = finish;

    if (config_.record_history &&
        (request.op == OpType::kRead || request.op == OpType::kWrite)) {
      result_.history.push_back(txn::HistoryOp{
          request.ta, request.op, request.object});
    }

    if (request.op == OpType::kCommit) {
      if (config_.record_history) {
        result_.history.push_back(txn::HistoryOp{request.ta, OpType::kCommit, 0});
      }
      ++result_.committed_txns;
      result_.committed_statements += static_cast<int64_t>(c.spec.ops.size());
      const int cls =
          std::min<int>(c.spec.sla_class,
                        static_cast<int>(result_.latency_by_class.size()) - 1);
      result_.latency_by_class[static_cast<size_t>(cls)].Record(
          (finish - c.txn_start).micros());
      if (finish <= c.deadline) {
        ++result_.deadline_met;
      } else {
        ++result_.deadline_missed;
      }
      ta_owner_.erase(request.ta);
      c.resume_at = finish;
      c.consecutive_aborts = 0;
      BeginTransactionAt(c, finish);
    } else {
      ++c.next_op;
    }
    return Status::OK();
  }

  void BeginTransactionAt(Client& c, SimTime now) {
    c.resume_at = now;
    c.spec = c.generator->NextTransaction();
    StartAttempt(c, now);
  }

  Status OnVictim(TxnId ta, SimTime now) {
    auto it = ta_owner_.find(ta);
    if (it == ta_owner_.end()) return Status::OK();
    Client& c = clients_[it->second];
    if (c.ta != ta) return Status::OK();
    ta_owner_.erase(it);
    ++result_.aborted_txns;
    if (config_.record_history) {
      result_.history.push_back(txn::HistoryOp{ta, OpType::kAbort, 0});
    }
    // Retry the same transaction spec under a fresh id. A restarted
    // transaction is younger than everyone else, so it loses every age-based
    // tie-break; exponential backoff keeps repeated victims from re-forming
    // the same deadlock in lockstep (retry storm).
    c.outstanding = false;
    const int shift = std::min(c.consecutive_aborts, 10);
    ++c.consecutive_aborts;
    c.resume_at = now + config_.restart_backoff * (int64_t{1} << shift);
    const workload::TxnSpec spec = c.spec;
    StartAttempt(c, c.resume_at);
    c.spec = spec;
    return Status::OK();
  }

  MiddlewareSimConfig config_;
  server::DatabaseServer server_;
  std::unique_ptr<DeclarativeScheduler> scheduler_;
  std::unique_ptr<AdaptiveConsistencyController> adaptive_;
  std::vector<Client> clients_;
  std::unordered_map<TxnId, int> ta_owner_;
  TxnId next_ta_ = 1;
  MiddlewareSimResult result_;
};

}  // namespace

Result<MiddlewareSimResult> RunMiddlewareSimulation(
    const MiddlewareSimConfig& config) {
  Harness harness(config);
  return harness.Run();
}

}  // namespace declsched::scheduler

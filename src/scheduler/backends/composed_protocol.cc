#include "scheduler/backends/composed_protocol.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "scheduler/backends/native_protocol.h"
#include "scheduler/lock_table.h"

namespace declsched::scheduler {

namespace {

class FilterStage : public ProtocolStage {
 public:
  enum class Kind { kSs2pl, kReadCommitted, kNone };

  explicit FilterStage(Kind kind) : kind_(kind) {}

  Result<RequestBatch> Apply(const ScheduleContext& context,
                             RequestBatch batch) const override {
    if (kind_ == Kind::kNone) return batch;
    // The owning ComposedProtocol maintains the lock table incrementally
    // and hands it down through the context; build from scratch only when
    // driven outside that pipeline.
    LockTable scratch;
    const LockTable* locks = context.locks;
    if (locks == nullptr) {
      scratch = BuildLockTable(context.store);
      locks = &scratch;
    }
    // Pending-pending conflicts are judged against the store's complete
    // pending set, not the incoming batch: an earlier stage may have
    // dropped the older conflicting request from the batch, but it is
    // still pending and still blocks — age ordering must not weaken just
    // because a cap or rank stage ran first. The pipeline shares one copy
    // of that universe through the context.
    RequestBatch fetched;
    const RequestBatch* universe = context.pending_universe;
    if (universe == nullptr) {
      DS_ASSIGN_OR_RETURN(fetched, context.store->AllPending());
      universe = &fetched;
    }
    return kind_ == Kind::kSs2pl
               ? FilterSs2pl(*locks, batch, universe)
               : FilterReadCommitted(*locks, batch, universe);
  }

  bool NeedsLockTable() const override { return kind_ != Kind::kNone; }

 private:
  Kind kind_;
};

class RankStage : public ProtocolStage {
 public:
  enum class Kind { kFcfs, kPriority, kEdf };

  explicit RankStage(Kind kind) : kind_(kind) {}

  Result<RequestBatch> Apply(const ScheduleContext&,
                             RequestBatch batch) const override {
    switch (kind_) {
      case Kind::kFcfs:
        RankById(&batch);
        break;
      case Kind::kPriority:
        RankByPriority(&batch);
        break;
      case Kind::kEdf:
        RankByDeadline(&batch);
        break;
    }
    return batch;
  }

  bool DefinesOrder() const override { return true; }

 private:
  Kind kind_;
};

class CapStage : public ProtocolStage {
 public:
  explicit CapStage(int64_t limit) : limit_(limit) {}

  Result<RequestBatch> Apply(const ScheduleContext&,
                             RequestBatch batch) const override {
    if (static_cast<int64_t>(batch.size()) > limit_) {
      batch.resize(static_cast<size_t>(limit_));
    }
    return batch;
  }

 private:
  int64_t limit_;
};

/// Tenant-fair ordering off the store's `tenants` relation — the composed
/// formulation of the native wfq/drr variants.
class FairRankStage : public ProtocolStage {
 public:
  enum class Kind { kVtime, kRound };

  explicit FairRankStage(Kind kind) : kind_(kind) {}

  Result<RequestBatch> Apply(const ScheduleContext& context,
                             RequestBatch batch) const override {
    if (kind_ == Kind::kVtime) {
      RankByTenantVtime(&batch, *context.store);
    } else {
      RankByTenantRound(&batch, *context.store);
    }
    return batch;
  }

  bool DefinesOrder() const override { return true; }

 private:
  Kind kind_;
};

/// Drops requests of throttled tenants — the composed formulation of the
/// native tenant-cap variant.
class TenantCapStage : public ProtocolStage {
 public:
  Result<RequestBatch> Apply(const ScheduleContext& context,
                             RequestBatch batch) const override {
    return FilterThrottledTenants(std::move(batch), *context.store);
  }
};

/// Starvation guard as a stage: requests of tenants whose oldest *pending*
/// request has waited >= wait_us move to the front, most-starved tenant
/// first; everything else keeps its order. Judged against the cycle's full
/// pending universe (like the filter stages), so an earlier cap/rank stage
/// cannot hide a tenant's oldest request from the guard.
class StarvationBoostStage : public ProtocolStage {
 public:
  explicit StarvationBoostStage(int64_t wait_us) : wait_us_(wait_us) {}

  Result<RequestBatch> Apply(const ScheduleContext& context,
                             RequestBatch batch) const override {
    RequestBatch fetched;
    const RequestBatch* universe = context.pending_universe;
    if (universe == nullptr) {
      DS_ASSIGN_OR_RETURN(fetched, context.store->AllPending());
      universe = &fetched;
    }
    // Oldest pending arrival per tenant. Min, not first-sight: preassigned
    // ids from concurrent submitters (sharded admission) need not arrive
    // in id order.
    std::map<int64_t, int64_t> oldest;
    for (const Request& r : *universe) {
      auto [it, inserted] = oldest.emplace(r.tenant, r.arrival.micros());
      if (!inserted && r.arrival.micros() < it->second) {
        it->second = r.arrival.micros();
      }
    }
    std::map<int64_t, int64_t> starved;  // tenant -> oldest arrival
    for (const auto& [tenant, arrival] : oldest) {
      if (context.now.micros() - arrival >= wait_us_) {
        starved.emplace(tenant, arrival);
      }
    }
    if (starved.empty()) return batch;
    std::stable_sort(batch.begin(), batch.end(),
                     [&starved](const Request& a, const Request& b) {
                       auto sa = starved.find(a.tenant);
                       auto sb = starved.find(b.tenant);
                       const int64_t ka =
                           sa == starved.end() ? INT64_MAX : sa->second;
                       const int64_t kb =
                           sb == starved.end() ? INT64_MAX : sb->second;
                       return ka < kb;
                     });
    return batch;
  }

  bool DefinesOrder() const override { return true; }

 private:
  int64_t wait_us_;
};

Result<std::unique_ptr<ProtocolStage>> BuildFilter(const std::string& arg) {
  if (arg == "ss2pl") {
    return std::unique_ptr<ProtocolStage>(new FilterStage(FilterStage::Kind::kSs2pl));
  }
  if (arg == "read-committed") {
    return std::unique_ptr<ProtocolStage>(
        new FilterStage(FilterStage::Kind::kReadCommitted));
  }
  if (arg == "none") {
    return std::unique_ptr<ProtocolStage>(new FilterStage(FilterStage::Kind::kNone));
  }
  return Status::BindError("unknown filter '" + arg +
                           "' (want ss2pl, read-committed, or none)");
}

Result<std::unique_ptr<ProtocolStage>> BuildRank(const std::string& arg) {
  if (arg == "fcfs") {
    return std::unique_ptr<ProtocolStage>(new RankStage(RankStage::Kind::kFcfs));
  }
  if (arg == "priority") {
    return std::unique_ptr<ProtocolStage>(new RankStage(RankStage::Kind::kPriority));
  }
  if (arg == "edf") {
    return std::unique_ptr<ProtocolStage>(new RankStage(RankStage::Kind::kEdf));
  }
  return Status::BindError("unknown rank '" + arg +
                           "' (want fcfs, priority, or edf)");
}

Result<std::unique_ptr<ProtocolStage>> BuildCap(const std::string& arg) {
  char* end = nullptr;
  const long long limit = std::strtoll(arg.c_str(), &end, 10);
  if (arg.empty() || end == nullptr || *end != '\0' || limit <= 0) {
    return Status::BindError("cap needs a positive integer, got '" + arg + "'");
  }
  return std::unique_ptr<ProtocolStage>(new CapStage(limit));
}

Result<std::unique_ptr<ProtocolStage>> BuildFairRank(const std::string& arg) {
  if (arg == "vtime") {
    return std::unique_ptr<ProtocolStage>(
        new FairRankStage(FairRankStage::Kind::kVtime));
  }
  if (arg == "round") {
    return std::unique_ptr<ProtocolStage>(
        new FairRankStage(FairRankStage::Kind::kRound));
  }
  return Status::BindError("unknown fair_rank '" + arg +
                           "' (want vtime or round)");
}

Result<std::unique_ptr<ProtocolStage>> BuildTenantCap(const std::string& arg) {
  if (!arg.empty()) {
    return Status::BindError(
        "tenant_cap takes no argument (per-tenant caps live in the "
        "tenants relation), got '" +
        arg + "'");
  }
  return std::unique_ptr<ProtocolStage>(new TenantCapStage());
}

Result<std::unique_ptr<ProtocolStage>> BuildStarvationBoost(
    const std::string& arg) {
  char* end = nullptr;
  const long long wait_us = std::strtoll(arg.c_str(), &end, 10);
  if (arg.empty() || end == nullptr || *end != '\0' || wait_us <= 0) {
    return Status::BindError(
        "starvation_boost needs a positive wait in micros, got '" + arg + "'");
  }
  return std::unique_ptr<ProtocolStage>(new StarvationBoostStage(wait_us));
}

std::map<std::string, StageBuilder>& StageRegistry() {
  static std::map<std::string, StageBuilder>* registry = [] {
    auto* r = new std::map<std::string, StageBuilder>();
    (*r)["filter"] = BuildFilter;
    (*r)["rank"] = BuildRank;
    (*r)["cap"] = BuildCap;
    (*r)["fair_rank"] = BuildFairRank;
    (*r)["tenant_cap"] = BuildTenantCap;
    (*r)["starvation_boost"] = BuildStarvationBoost;
    return r;
  }();
  return *registry;
}

class ComposedProtocol : public Protocol {
 public:
  ComposedProtocol(ProtocolSpec spec,
                   std::vector<std::unique_ptr<ProtocolStage>> stages,
                   RequestStore* store)
      : Protocol(std::move(spec)), stages_(std::move(stages)), store_(store) {
    for (const auto& stage : stages_) {
      needs_locks_ = needs_locks_ || stage->NeedsLockTable();
    }
  }

  Result<RequestBatch> Schedule(const ScheduleContext& context) const override {
    ScheduleContext staged = context;
    if (needs_locks_ && context.store == store_) {
      staged.locks = &lock_state_.Refresh(*context.store);
    }
    // One copy of the full pending set serves as both the initial batch and
    // every filter stage's conflict universe.
    DS_ASSIGN_OR_RETURN(const RequestBatch universe, context.store->AllPending());
    staged.pending_universe = &universe;
    RequestBatch batch = universe;
    for (const auto& stage : stages_) {
      DS_ASSIGN_OR_RETURN(batch, stage->Apply(staged, std::move(batch)));
    }
    return batch;
  }

  void OnScheduled(const RequestBatch& batch) override {
    if (needs_locks_) lock_state_.ApplyHistoryAppend(batch, *store_);
  }
  void OnFinished(const std::vector<txn::TxnId>& txns) override {
    if (needs_locks_) lock_state_.ApplyFinished(txns, *store_);
  }

 private:
  std::vector<std::unique_ptr<ProtocolStage>> stages_;
  RequestStore* store_;
  bool needs_locks_ = false;
  mutable LockTableState lock_state_;
};

}  // namespace

Status RegisterStage(const std::string& kind, StageBuilder builder) {
  if (kind.empty() || builder == nullptr) {
    return Status::InvalidArgument("stage kind and builder must be set");
  }
  if (!StageRegistry().emplace(kind, std::move(builder)).second) {
    return Status::AlreadyExists("stage kind already registered: " + kind);
  }
  return Status::OK();
}

std::vector<std::string> StageKinds() {
  std::vector<std::string> kinds;
  for (const auto& [kind, builder] : StageRegistry()) kinds.push_back(kind);
  return kinds;
}

Result<std::unique_ptr<Protocol>> CompileComposedProtocol(
    const ProtocolSpec& spec, RequestStore* store) {
  std::vector<std::unique_ptr<ProtocolStage>> stages;
  bool ordered = false;
  for (const std::string& piece : Split(spec.text, '|')) {
    const std::string descriptor(Trim(piece));
    if (descriptor.empty()) continue;
    const size_t colon = descriptor.find(':');
    const std::string kind = descriptor.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : std::string(Trim(descriptor.substr(colon + 1)));
    auto it = StageRegistry().find(std::string(Trim(kind)));
    if (it == StageRegistry().end()) {
      return Status::BindError(StrFormat("protocol %s: unknown stage kind '%s'",
                                         spec.name.c_str(), kind.c_str()));
    }
    auto stage = it->second(arg);
    if (!stage.ok()) {
      return Status::BindError(StrFormat("protocol %s: stage '%s': %s",
                                         spec.name.c_str(), descriptor.c_str(),
                                         stage.status().message().c_str()));
    }
    ordered = ordered || (*stage)->DefinesOrder();
    stages.push_back(std::move(*stage));
  }
  if (stages.empty()) {
    return Status::BindError(StrFormat("protocol %s: empty stage pipeline",
                                       spec.name.c_str()));
  }
  ProtocolSpec resolved = spec;
  resolved.ordered = resolved.ordered || ordered;
  return std::unique_ptr<Protocol>(
      new ComposedProtocol(std::move(resolved), std::move(stages), store));
}

}  // namespace declsched::scheduler

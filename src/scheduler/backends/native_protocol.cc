#include "scheduler/backends/native_protocol.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace declsched::scheduler {

namespace {

using txn::ObjectId;
using txn::TxnId;

class NativeProtocol : public Protocol {
 public:
  enum class Variant {
    kSs2pl,
    kFcfs,
    kSlaPriority,
    kEdf,
    kReadCommitted,
    kWfq,
    kDrr,
    kTenantCap,
  };

  NativeProtocol(ProtocolSpec spec, Variant variant, RequestStore* store,
                 bool incremental)
      : Protocol(std::move(spec)),
        variant_(variant),
        store_(store),
        incremental_(incremental) {}

  Result<RequestBatch> Schedule(const ScheduleContext& context) const override {
    if (!incremental_ || context.store != store_) {
      // Stateless fallback: "scratch:" variants, or a store this instance
      // holds no state for.
      return ScheduleFromScratch(context);
    }
    // Incremental fast path. Pending comes off the store's typed relation —
    // already decoded, already in id order (the relation is keyed by id).
    RequestBatch pending;
    const auto& mirror = context.store->pending_by_id();
    pending.reserve(mirror.size());
    for (const auto& [id, request] : mirror) pending.push_back(request);
    if (variant_ == Variant::kFcfs) return pending;

    const LockTable& locks = lock_state_.Refresh(*context.store);
    return Qualify(locks, pending, *context.store);
  }

  // Delta hooks: keep the lock state in lockstep with history so Schedule()
  // never rescans it. FCFS ignores locks entirely, so it skips the upkeep.
  void OnScheduled(const RequestBatch& batch) override {
    if (MaintainsLockState()) lock_state_.ApplyHistoryAppend(batch, *store_);
  }
  void OnFinished(const std::vector<TxnId>& txns) override {
    if (MaintainsLockState()) lock_state_.ApplyFinished(txns, *store_);
  }

 private:
  bool MaintainsLockState() const {
    return incremental_ && variant_ != Variant::kFcfs;
  }

  RequestBatch Qualify(const LockTable& locks, RequestBatch& pending,
                       const RequestStore& store) const {
    RequestBatch qualified = variant_ == Variant::kReadCommitted
                                 ? FilterReadCommitted(locks, pending)
                                 : FilterSs2pl(locks, pending);
    switch (variant_) {
      case Variant::kSlaPriority:
        RankByPriority(&qualified);
        break;
      case Variant::kEdf:
        RankByDeadline(&qualified);
        break;
      case Variant::kWfq:
        RankByTenantVtime(&qualified, store);
        break;
      case Variant::kDrr:
        RankByTenantRound(&qualified, store);
        break;
      case Variant::kTenantCap:
        qualified = FilterThrottledTenants(std::move(qualified), store);
        break;
      default:
        break;  // id order, established by the caller
    }
    return qualified;
  }

  /// The pre-incremental formulation: copy all of pending, rebuild the lock
  /// table from a full history scan, restricted to the objects pending
  /// actually touches.
  Result<RequestBatch> ScheduleFromScratch(const ScheduleContext& context) const {
    DS_ASSIGN_OR_RETURN(RequestBatch pending, context.store->AllPending());
    if (variant_ == Variant::kFcfs) return pending;

    std::unordered_set<ObjectId> pending_objects;
    pending_objects.reserve(pending.size());
    for (const Request& r : pending) pending_objects.insert(r.object);
    const LockTable locks =
        BuildLockTableRestricted(context.store, &pending_objects);
    return Qualify(locks, pending, *context.store);
  }

  Variant variant_;
  RequestStore* store_;
  bool incremental_;
  /// Cache of the store's history-implied locks; mutable because Schedule()
  /// is a read of the store, even when it refreshes the cache.
  mutable LockTableState lock_state_;
};

}  // namespace

void RankById(RequestBatch* batch) {
  std::sort(batch->begin(), batch->end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });
}

void RankByPriority(RequestBatch* batch) {
  std::sort(batch->begin(), batch->end(), [](const Request& a, const Request& b) {
    return std::make_pair(a.priority, a.id) < std::make_pair(b.priority, b.id);
  });
}

void RankByDeadline(RequestBatch* batch) {
  std::sort(batch->begin(), batch->end(), [](const Request& a, const Request& b) {
    const int a_none = a.deadline == SimTime() ? 1 : 0;
    const int b_none = b.deadline == SimTime() ? 1 : 0;
    return std::make_tuple(a_none, a.deadline.micros(), a.id) <
           std::make_tuple(b_none, b.deadline.micros(), b.id);
  });
}

namespace {

/// Tenant-acct lookup memoizing the last tenant seen — batches are
/// typically runs of the same tenant.
class TenantAcctReader {
 public:
  explicit TenantAcctReader(const RequestStore& store)
      : tenants_(store.tenants_by_id()) {}

  const TenantAcct& For(int64_t tenant) {
    if (cached_ == nullptr || cached_->tenant != tenant) {
      auto it = tenants_.find(tenant);
      if (it != tenants_.end()) {
        cached_ = &it->second;
      } else {
        default_ = TenantAcct{};
        default_.tenant = tenant;
        cached_ = &default_;
      }
    }
    return *cached_;
  }

 private:
  const std::map<int64_t, TenantAcct>& tenants_;
  const TenantAcct* cached_ = nullptr;
  TenantAcct default_;
};

}  // namespace

void RankByTenantVtime(RequestBatch* batch, const RequestStore& store) {
  TenantAcctReader acct(store);
  std::sort(batch->begin(), batch->end(),
            [&acct](const Request& a, const Request& b) {
              return std::make_pair(acct.For(a.tenant).vtime, a.id) <
                     std::make_pair(acct.For(b.tenant).vtime, b.id);
            });
}

void RankByTenantRound(RequestBatch* batch, const RequestStore& store) {
  TenantAcctReader acct(store);
  std::sort(batch->begin(), batch->end(),
            [&acct](const Request& a, const Request& b) {
              return std::make_tuple(acct.For(a.tenant).round,
                                     static_cast<int64_t>(a.tenant), a.id) <
                     std::make_tuple(acct.For(b.tenant).round,
                                     static_cast<int64_t>(b.tenant), b.id);
            });
}

RequestBatch FilterThrottledTenants(RequestBatch batch,
                                    const RequestStore& store) {
  TenantAcctReader acct(store);
  RequestBatch out;
  out.reserve(batch.size());
  for (Request& r : batch) {
    if (!acct.For(r.tenant).Throttled()) out.push_back(std::move(r));
  }
  return out;
}

Result<std::unique_ptr<Protocol>> CompileNativeProtocol(const ProtocolSpec& spec,
                                                        RequestStore* store) {
  std::string variant(Trim(spec.text));
  bool incremental = true;
  constexpr const char kScratchPrefix[] = "scratch:";
  if (variant.rfind(kScratchPrefix, 0) == 0) {
    incremental = false;
    variant = std::string(Trim(variant.substr(sizeof(kScratchPrefix) - 1)));
  }
  NativeProtocol::Variant v;
  if (variant == "ss2pl") {
    v = NativeProtocol::Variant::kSs2pl;
  } else if (variant == "fcfs") {
    v = NativeProtocol::Variant::kFcfs;
  } else if (variant == "sla-priority") {
    v = NativeProtocol::Variant::kSlaPriority;
  } else if (variant == "edf") {
    v = NativeProtocol::Variant::kEdf;
  } else if (variant == "read-committed") {
    v = NativeProtocol::Variant::kReadCommitted;
  } else if (variant == "wfq") {
    v = NativeProtocol::Variant::kWfq;
  } else if (variant == "drr") {
    v = NativeProtocol::Variant::kDrr;
  } else if (variant == "tenant-cap") {
    v = NativeProtocol::Variant::kTenantCap;
  } else {
    return Status::BindError(StrFormat(
        "protocol %s: unknown native variant '%s' (want ss2pl, fcfs, "
        "sla-priority, edf, read-committed, wfq, drr, or tenant-cap, "
        "optionally scratch:-prefixed)",
        spec.name.c_str(), variant.c_str()));
  }
  return std::unique_ptr<Protocol>(
      new NativeProtocol(spec, v, store, incremental));
}

}  // namespace declsched::scheduler

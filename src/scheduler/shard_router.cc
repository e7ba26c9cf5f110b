#include "scheduler/shard_router.h"

#include <algorithm>

#include "common/logging.h"

namespace declsched::scheduler {

namespace {

/// Mixes the key before the modulo so adjacent object ids (the common
/// workload layout) spread across shards instead of striding into one.
uint64_t Mix(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return key;
}

}  // namespace

ShardRouter::ShardRouter(int num_shards) : num_shards_(num_shards) {
  DS_CHECK(num_shards >= 1 && num_shards <= kMaxShards);
}

int ShardRouter::ShardOfObject(txn::ObjectId object) const {
  return static_cast<int>(Mix(static_cast<uint64_t>(object)) %
                          static_cast<uint64_t>(num_shards_));
}

int ShardRouter::ShardOfTransaction(txn::TxnId ta) const {
  return static_cast<int>(Mix(static_cast<uint64_t>(ta)) %
                          static_cast<uint64_t>(num_shards_));
}

std::vector<int> ShardRouter::MaskToShards(uint32_t mask) {
  std::vector<int> shards;
  for (int s = 0; mask != 0; ++s, mask >>= 1) {
    if (mask & 1u) shards.push_back(s);
  }
  return shards;  // ascending by construction — the canonical ticket order
}

ShardRouter::Route ShardRouter::RouteRequest(const Request& request) {
  Route route;
  if (request.op == txn::OpType::kRead || request.op == txn::OpType::kWrite) {
    route.shard = ShardOfObject(request.object);
    route.involved = 1u << route.shard;
    std::lock_guard<std::mutex> lock(mu_);
    footprint_[request.ta] |= route.involved;
    return route;
  }
  // Finisher: its lock set is everything the transaction touched.
  uint32_t mask = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = footprint_.find(request.ta);
    if (it != footprint_.end()) {
      mask = it->second;
      footprint_.erase(it);
    }
  }
  if (mask == 0) {
    // Never saw a read/write of this transaction (commit-only, or its
    // footprint was already consumed): nothing to release anywhere else.
    route.shard = ShardOfTransaction(request.ta);
    route.involved = 1u << route.shard;
    return route;
  }
  route.involved = mask;
  route.shard = __builtin_ctz(mask);  // lowest shard = escrow home
  return route;
}

std::vector<int> ShardRouter::Footprint(txn::TxnId ta) const {
  uint32_t mask = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = footprint_.find(ta);
    if (it != footprint_.end()) mask = it->second;
  }
  return MaskToShards(mask);
}

void ShardRouter::Forget(txn::TxnId ta) {
  std::lock_guard<std::mutex> lock(mu_);
  footprint_.erase(ta);
}

void ShardRouter::RecordFootprint(txn::TxnId ta, int shard) {
  DS_CHECK(shard >= 0 && shard < num_shards_);
  std::lock_guard<std::mutex> lock(mu_);
  footprint_[ta] |= 1u << shard;
}

int64_t ShardRouter::tracked_transactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(footprint_.size());
}

}  // namespace declsched::scheduler

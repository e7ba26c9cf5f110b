// ShardRouter: maps requests to scheduler shards and tracks each
// transaction's shard footprint.
//
// The sharded scheduler partitions requests by their primary lock target:
// a read/write locks exactly one object, so it routes to the shard that
// owns that object and schedules there with zero cross-shard coordination
// (SS2PL qualification is per-object — locks and pending-pending conflicts
// on an object all live in the owning shard's history/pending state). A
// commit/abort releases every lock its transaction holds, so its "lock
// set" is the union of the shards its earlier requests touched; the router
// records that footprint at admission time and hands it to the escrow
// coordinator when the finisher arrives.
//
// Thread-safety: all methods are safe to call from concurrent submitters
// (one mutex; the hot path is a hash + a small bitmask update).

#ifndef DECLSCHED_SCHEDULER_SHARD_ROUTER_H_
#define DECLSCHED_SCHEDULER_SHARD_ROUTER_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "scheduler/request.h"
#include "txn/types.h"

namespace declsched::scheduler {

class ShardRouter {
 public:
  /// At most 32 shards (footprints are a 32-bit shard bitmask).
  static constexpr int kMaxShards = 32;

  explicit ShardRouter(int num_shards);

  int num_shards() const { return num_shards_; }

  /// The shard owning an object's locks. Canonical across the whole run —
  /// every consumer (admission, escrow, benches) must agree on it.
  int ShardOfObject(txn::ObjectId object) const;

  /// Fallback shard for a request with no lock target and no recorded
  /// footprint (e.g. a commit-only transaction): hash of the transaction id.
  int ShardOfTransaction(txn::TxnId ta) const;

  /// Where one request goes, and whether it needs the escrow path.
  struct Route {
    /// Admission shard: the object's owner for read/write; the lowest
    /// footprint shard (the escrow "home") for a finisher.
    int shard = 0;
    /// Bitmask of every shard holding locks the request touches; ascending
    /// bit order is the canonical escrow-ticket order. More than one bit
    /// only for cross-shard finishers.
    uint32_t involved = 0;

    bool cross_shard() const { return (involved & (involved - 1)) != 0; }
  };

  /// Routes `request`. Read/write: records the object's shard in the
  /// transaction's footprint and returns it. Commit/abort: consumes the
  /// footprint (the entry is erased — the transaction is finishing) and
  /// returns all involved shards.
  Route RouteRequest(const Request& request);

  /// The recorded footprint of `ta`, ascending; empty if unknown. Does not
  /// consume the entry (RouteRequest on the finisher does). Used for
  /// deadlock-victim abort mirroring.
  std::vector<int> Footprint(txn::TxnId ta) const;

  /// Drops `ta`'s footprint (after a victim's abort has been mirrored).
  void Forget(txn::TxnId ta);

  /// Merges `shard` into `ta`'s footprint without routing a request —
  /// crash recovery rebuilds footprints from restored rows (RouteRequest
  /// learned them pre-crash; that memory died with the process).
  void RecordFootprint(txn::TxnId ta, int shard);

  /// Transactions with a live footprint (admitted, not yet finished).
  int64_t tracked_transactions() const;

 private:
  static std::vector<int> MaskToShards(uint32_t mask);

  const int num_shards_;
  mutable std::mutex mu_;
  /// ta -> bitmask of shards its read/write requests were routed to.
  std::unordered_map<txn::TxnId, uint32_t> footprint_;
};

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_SHARD_ROUTER_H_

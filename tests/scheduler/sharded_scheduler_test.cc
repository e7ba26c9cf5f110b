// Sharded scheduler: escrow property tests.
//
// The core property: on the same trace, the sharded scheduler dispatches
// exactly the single-shard scheduler's request set — no stall (every
// admitted request eventually dispatches; in particular the escrow path
// never deadlocks), no double dispatch (cross-shard finishers publish
// mirrors, which release locks but are never dispatched), same policy
// outcome (sharding the substrate does not touch policy code).
//
// Traces submit all of a transaction's reads/writes up front and the
// finisher only after every one of them dispatched (the paper's
// closed-loop contract). With that shape the age-ordered SS2PL filter is
// deadlock-free by construction — a younger transaction can only acquire
// locks on objects the older one never touches — so a stalled run is a
// scheduler bug, not a workload artifact.

#include "scheduler/sharded_scheduler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "scheduler/ir/compiled_protocol.h"
#include "scheduler/ir/vec/column_mirror.h"
#include "scheduler/protocol_library.h"
#include "scheduler/shard_router.h"

namespace declsched::scheduler {
namespace {

Request Op(int64_t ta, int64_t intrata, txn::OpType op, int64_t object) {
  Request r;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  return r;
}

/// Identity of a request independent of assigned ids (ids differ between
/// the reference and sharded runs when finisher submission order differs).
std::string Key(const Request& r) {
  return std::to_string(r.ta) + "." + std::to_string(r.intrata) + ":" +
         txn::OpTypeToChar(r.op) + std::to_string(r.object);
}

struct TraceTxn {
  txn::TxnId ta = 0;
  std::vector<Request> ops;  // reads/writes, objects strictly ascending
  txn::OpType finisher = txn::OpType::kCommit;
};

/// A randomized trace in waves; a wave's transactions are all submitted
/// before any of its finishers, and the next wave starts only after the
/// wave fully finished.
std::vector<std::vector<TraceTxn>> MakeTrace(Rng* rng, txn::TxnId* next_ta) {
  const int waves = 1 + static_cast<int>(rng->UniformInt(0, 1));
  std::vector<std::vector<TraceTxn>> trace(static_cast<size_t>(waves));
  for (auto& wave : trace) {
    const int txns = 2 + static_cast<int>(rng->UniformInt(0, 3));
    for (int t = 0; t < txns; ++t) {
      TraceTxn txn;
      txn.ta = (*next_ta)++;
      const int ops = 1 + static_cast<int>(rng->UniformInt(0, 3));
      // Distinct ascending objects from a small space: heavy conflicts and
      // multi-shard footprints.
      std::set<int64_t> objects;
      while (static_cast<int>(objects.size()) < ops) {
        objects.insert(rng->UniformInt(0, 11));
      }
      int64_t intrata = 1;
      for (int64_t object : objects) {
        txn.ops.push_back(Op(txn.ta, intrata++,
                             rng->Bernoulli(0.6) ? txn::OpType::kWrite
                                                 : txn::OpType::kRead,
                             object));
      }
      txn.finisher =
          rng->Bernoulli(0.9) ? txn::OpType::kCommit : txn::OpType::kAbort;
      wave.push_back(std::move(txn));
    }
  }
  return trace;
}

DeclarativeScheduler::Options NativeOptions() {
  DeclarativeScheduler::Options options;
  options.protocol = Ss2plNative();
  options.deadlock_detection = false;  // traces are deadlock-free
  return options;
}

/// Drives one trace to completion on any scheduler, via two hooks, and
/// returns every dispatched request. `submit` admits a batch, in order:
/// each wave's reads/writes, then each round's finishers. `settle` runs
/// until quiescent and appends newly dispatched requests. Fails (returns
/// false) on stall.
bool DriveTrace(const std::vector<std::vector<TraceTxn>>& trace,
                const std::function<void(RequestBatch*)>& submit,
                const std::function<void(RequestBatch*)>& settle,
                RequestBatch* dispatched) {
  for (const auto& wave : trace) {
    std::map<txn::TxnId, size_t> remaining;
    std::set<txn::TxnId> finisher_sent;
    std::set<txn::TxnId> finished;
    RequestBatch ops;
    for (const TraceTxn& txn : wave) {
      remaining[txn.ta] = txn.ops.size();
      ops.insert(ops.end(), txn.ops.begin(), txn.ops.end());
    }
    submit(&ops);
    for (int round = 0; round < 1000; ++round) {
      const size_t before = dispatched->size();
      settle(dispatched);
      for (size_t i = before; i < dispatched->size(); ++i) {
        const Request& r = (*dispatched)[i];
        if (r.op == txn::OpType::kCommit || r.op == txn::OpType::kAbort) {
          finished.insert(r.ta);
        } else if (remaining.count(r.ta)) {
          --remaining[r.ta];
        }
      }
      bool all_done = true;
      RequestBatch finishers;
      for (const TraceTxn& txn : wave) {
        if (finished.count(txn.ta)) continue;
        all_done = false;
        if (remaining[txn.ta] == 0 && !finisher_sent.count(txn.ta)) {
          finisher_sent.insert(txn.ta);
          finishers.push_back(
              Op(txn.ta, 1000, txn.finisher, Request::kNoObject));
        }
      }
      if (all_done) break;
      if (finishers.empty() && dispatched->size() == before) {
        return false;  // no progress and nothing left to feed: stalled
      }
      if (!finishers.empty()) submit(&finishers);
    }
    for (const TraceTxn& txn : wave) {
      if (!finished.count(txn.ta)) return false;
    }
  }
  return true;
}

/// Reference: the unsharded DeclarativeScheduler on the same trace.
RequestBatch ReferenceDispatches(const std::vector<std::vector<TraceTxn>>& trace) {
  DeclarativeScheduler sched(NativeOptions(), nullptr);
  EXPECT_TRUE(sched.Init().ok());
  RequestBatch dispatched;
  const bool ok = DriveTrace(
      trace,
      [&](RequestBatch* batch) {
        for (const Request& r : *batch) sched.Submit(r, SimTime());
      },
      [&](RequestBatch* out) {
        while (true) {
          auto stats = sched.RunCycle(SimTime());
          ASSERT_TRUE(stats.ok()) << stats.status().ToString();
          const RequestBatch& batch = sched.last_dispatched();
          out->insert(out->end(), batch.begin(), batch.end());
          if (stats->dispatched == 0 && sched.queue_size() == 0) return;
        }
      },
      &dispatched);
  EXPECT_TRUE(ok) << "reference scheduler stalled";
  return dispatched;
}

/// Admits `batch` through SubmitBatch calls cut at random points.
void SubmitInRandomCuts(ShardedScheduler* sharded, RequestBatch* batch,
                        Rng* rng) {
  for (size_t begin = 0; begin < batch->size();) {
    const size_t left = batch->size() - begin;
    const size_t n = static_cast<size_t>(
        rng->UniformInt(1, static_cast<int64_t>(left)));
    sharded->SubmitBatch(batch->data() + begin, n, SimTime());
    begin += n;
  }
}

std::vector<std::string> SortedKeys(const RequestBatch& batch) {
  std::vector<std::string> keys;
  keys.reserve(batch.size());
  for (const Request& r : batch) keys.push_back(Key(r));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// --- router units -----------------------------------------------------------

TEST(ShardRouterTest, ReadWriteRoutesByObjectAndRecordsFootprint) {
  ShardRouter router(4);
  const Request w = Op(7, 1, txn::OpType::kWrite, 42);
  const auto route = router.RouteRequest(w);
  EXPECT_EQ(route.shard, router.ShardOfObject(42));
  EXPECT_EQ(route.involved, 1u << route.shard);
  EXPECT_FALSE(route.cross_shard());
  EXPECT_EQ(router.Footprint(7), std::vector<int>{route.shard});
  EXPECT_EQ(router.tracked_transactions(), 1);
}

TEST(ShardRouterTest, FinisherConsumesFootprintInCanonicalOrder) {
  ShardRouter router(4);
  // Touch objects until the footprint spans at least two shards.
  std::set<int> shards;
  int64_t intrata = 1;
  for (int64_t object = 0; static_cast<int>(shards.size()) < 2; ++object) {
    router.RouteRequest(Op(9, intrata++, txn::OpType::kWrite, object));
    shards.insert(router.ShardOfObject(object));
  }
  const auto route =
      router.RouteRequest(Op(9, intrata, txn::OpType::kCommit, Request::kNoObject));
  uint32_t mask = 0;
  for (int shard : shards) mask |= 1u << shard;
  EXPECT_EQ(route.involved, mask);
  EXPECT_TRUE(route.cross_shard());
  EXPECT_EQ(route.shard, *shards.begin());  // home = lowest involved
  EXPECT_EQ(router.tracked_transactions(), 0);  // consumed
  // A finisher of an unknown transaction routes alone, by transaction hash.
  const auto unknown =
      router.RouteRequest(Op(55, 1, txn::OpType::kCommit, Request::kNoObject));
  EXPECT_EQ(unknown.involved, 1u << unknown.shard);
  EXPECT_EQ(unknown.shard, router.ShardOfTransaction(55));
}

// --- the escrow property ----------------------------------------------------

TEST(ShardedSchedulerTest, EscrowPropertyDispatchSetEquivalence) {
  // 1000 randomized traces, each driven through the unsharded scheduler and
  // through 2/3/4-shard schedulers — once a request at a time, once in
  // SubmitBatch calls cut at random points: identical dispatch sets, no
  // duplicates, no stall.
  constexpr int kTraces = 1000;
  int64_t total_escrows = 0;
  int64_t total_mirrors = 0;
  Rng rng(20260727);
  txn::TxnId next_ta = 1;
  for (int trace_idx = 0; trace_idx < kTraces; ++trace_idx) {
    const auto trace = MakeTrace(&rng, &next_ta);
    const std::vector<std::string> expected =
        SortedKeys(ReferenceDispatches(trace));
    // Duplicate keys would make "sets equal" vacuous; assert uniqueness.
    ASSERT_EQ(std::set<std::string>(expected.begin(), expected.end()).size(),
              expected.size());

    const int num_shards = 2 + trace_idx % 3;
    for (const bool batched : {false, true}) {
      ShardedScheduler::Options options;
      options.num_shards = num_shards;
      options.shard = NativeOptions();
      ShardedScheduler sharded(std::move(options), nullptr);
      ASSERT_TRUE(sharded.Init().ok());
      Rng cuts(static_cast<uint64_t>(trace_idx));
      RequestBatch dispatched;
      const bool ok = DriveTrace(
          trace,
          [&](RequestBatch* batch) {
            if (batched) {
              SubmitInRandomCuts(&sharded, batch, &cuts);
              return;
            }
            for (const Request& r : *batch) sharded.Submit(r, SimTime());
          },
          [&](RequestBatch* out) {
            ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
            const RequestBatch batch = sharded.TakeDispatched();
            out->insert(out->end(), batch.begin(), batch.end());
          },
          &dispatched);
      const std::string where = " (trace " + std::to_string(trace_idx) +
                                ", shards " + std::to_string(num_shards) +
                                (batched ? ", batched)" : ")");
      ASSERT_TRUE(ok) << "sharded scheduler stalled" << where;
      const std::vector<std::string> got = SortedKeys(dispatched);
      ASSERT_EQ(got, expected) << "dispatch set diverged" << where;
      const ShardedScheduler::Totals totals = sharded.totals();
      ASSERT_EQ(totals.dispatched, static_cast<int64_t>(dispatched.size()));
      ASSERT_EQ(totals.submitted, totals.dispatched) << where;
      total_escrows += totals.escrows;
      total_mirrors += totals.mirrors_applied;
    }
  }
  // The property is about the escrow path; make sure the traces exercised it.
  EXPECT_GT(total_escrows, 200);
  EXPECT_GT(total_mirrors, 200);
}

TEST(ShardedSchedulerTest, BatchedAdmissionKeepsVecMirrorsOnTheDeltaPath) {
  // ss2pl-sql compiles onto the vec executor. Its columnar mirror takes an
  // admission delta only while ids reach its shard in increasing order and
  // rebuilds from scratch otherwise, as does the lock table on a missed
  // delta. Closed-loop batches here put each round's cross-shard commits
  // after the first writes of newly started transactions, so a finisher's
  // escrow admission overtaking a lower id bound for its home shard would
  // show up as a second rebuild.
  ShardedScheduler::Options options;
  options.num_shards = 2;
  options.shard.protocol = Ss2plSql();
  options.shard.deadlock_detection = false;
  ShardedScheduler sharded(std::move(options), nullptr);
  ASSERT_TRUE(sharded.Init().ok());

  std::vector<int64_t> on_shard[2];
  for (int64_t o = 0; on_shard[0].size() < 12 || on_shard[1].size() < 12; ++o) {
    on_shard[sharded.router().ShardOfObject(o)].push_back(o);
  }
  // Every transaction touches one object per shard, in ascending object
  // order with one request in flight (deadlock-free), so its commit is
  // cross-shard.
  struct Txn {
    std::vector<int64_t> objects;
    size_t next = 0;
  };
  Rng rng(17);
  std::map<txn::TxnId, Txn> live;
  txn::TxnId next_ta = 1;
  constexpr int kTxns = 300;
  int committed = 0;
  RequestBatch batch;
  RequestBatch dispatched;
  for (int round = 0; round < 10000 && committed < kTxns; ++round) {
    batch.clear();
    for (int k = 0; k < 3 && next_ta <= kTxns; ++k) {
      const txn::TxnId ta = next_ta++;
      Txn txn;
      for (const auto& objects : on_shard) {
        txn.objects.push_back(objects[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(objects.size()) - 1))]);
      }
      std::sort(txn.objects.begin(), txn.objects.end());
      batch.push_back(Op(ta, 1, txn::OpType::kWrite, txn.objects[0]));
      txn.next = 1;
      live[ta] = std::move(txn);
    }
    for (const Request& r : dispatched) {
      if (r.op == txn::OpType::kCommit) {
        ++committed;
        live.erase(r.ta);
        continue;
      }
      Txn& txn = live.at(r.ta);
      const int64_t intrata = static_cast<int64_t>(txn.next) + 1;
      if (txn.next < txn.objects.size()) {
        batch.push_back(Op(r.ta, intrata,
                           rng.Bernoulli(0.5) ? txn::OpType::kWrite
                                              : txn::OpType::kRead,
                           txn.objects[txn.next++]));
      } else {
        batch.push_back(
            Op(r.ta, intrata, txn::OpType::kCommit, Request::kNoObject));
      }
    }
    sharded.SubmitBatch(batch.data(), batch.size(), SimTime());
    ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
    dispatched = sharded.TakeDispatched();
  }
  ASSERT_EQ(committed, kTxns) << "closed loop stalled";
  const ShardedScheduler::Totals totals = sharded.totals();
  EXPECT_EQ(totals.submitted, totals.dispatched);
  EXPECT_EQ(totals.escrows, kTxns);
  for (int s = 0; s < sharded.num_shards(); ++s) {
    const auto* compiled = dynamic_cast<const ir::CompiledProtocol*>(
        sharded.shard(s)->active_protocol());
    ASSERT_NE(compiled, nullptr) << "shard " << s;
    ASSERT_TRUE(compiled->uses_vec()) << "shard " << s;
    EXPECT_EQ(compiled->mirror()->full_rebuilds(), 1) << "shard " << s;
    EXPECT_EQ(compiled->lock_state().full_rebuilds(), 1) << "shard " << s;
  }
}

// --- threaded mode ----------------------------------------------------------

TEST(ShardedSchedulerTest, ThreadedWorkersMatchReferenceDispatchSet) {
  // Real worker threads, concurrent submitters, and a dispatch callback
  // that feeds finishers from the shard threads themselves (the closed-loop
  // driver shape the benches use). Compared against the unsharded
  // reference on the same trace.
  // Each submitter thread owns a disjoint object range (txn index parity):
  // a transaction's ops are submitted back-to-back without waiting for
  // dispatch, which is deadlock-free only while admission order matches
  // transaction age — true within one submitter's stream, not across two.
  // Disjoint ranges mean cross-submitter transactions never conflict, so
  // the concurrent-admission interleaving cannot build a waits-for cycle.
  Rng rng(99);
  txn::TxnId next_ta = 1000;
  std::vector<TraceTxn> txns;
  for (int t = 0; t < 200; ++t) {
    TraceTxn txn;
    txn.ta = next_ta++;
    std::set<int64_t> objects;
    const int ops = 1 + static_cast<int>(rng.UniformInt(0, 2));
    const int64_t base = (t % 2) * 100;
    while (static_cast<int>(objects.size()) < ops) {
      objects.insert(base + rng.UniformInt(0, 99));
    }
    int64_t intrata = 1;
    for (int64_t object : objects) {
      txn.ops.push_back(Op(txn.ta, intrata++, txn::OpType::kWrite, object));
    }
    txns.push_back(std::move(txn));
  }
  const std::vector<std::vector<TraceTxn>> trace = {txns};
  const std::vector<std::string> expected =
      SortedKeys(ReferenceDispatches(trace));

  ShardedScheduler::Options options;
  options.num_shards = 4;
  options.shard = NativeOptions();
  // remaining[i]: ops of txns[i] not yet dispatched; at zero the callback
  // submits the commit from whichever shard thread dispatched the last op.
  std::vector<std::atomic<int>> remaining(txns.size());
  std::map<txn::TxnId, size_t> txn_index;
  for (size_t i = 0; i < txns.size(); ++i) {
    remaining[i].store(static_cast<int>(txns[i].ops.size()));
    txn_index[txns[i].ta] = i;
  }
  ShardedScheduler* sharded_ptr = nullptr;
  options.on_dispatch = [&](int, const RequestBatch& batch) {
    for (const Request& r : batch) {
      if (r.op != txn::OpType::kWrite && r.op != txn::OpType::kRead) continue;
      const size_t i = txn_index.at(r.ta);
      if (remaining[i].fetch_sub(1) == 1) {
        sharded_ptr->Submit(Op(r.ta, 1000, txn::OpType::kCommit,
                               Request::kNoObject),
                            SimTime());
      }
    }
  };
  ShardedScheduler sharded(std::move(options), nullptr);
  sharded_ptr = &sharded;
  ASSERT_TRUE(sharded.Init().ok());
  ASSERT_TRUE(sharded.Start().ok());
  // Two submitter threads share the op stream (MPSC admission).
  std::vector<std::thread> submitters;
  for (int part = 0; part < 2; ++part) {
    submitters.emplace_back([&, part] {
      for (size_t i = static_cast<size_t>(part); i < txns.size(); i += 2) {
        for (const Request& op : txns[i].ops) sharded.Submit(op, SimTime());
      }
    });
  }
  for (auto& t : submitters) t.join();
  // Quiesce, then wait for every commit to have been dispatched (commits
  // submitted from shard threads can re-wake the system after a WaitIdle).
  // Quiescence without progress means a stall — fail loudly, don't spin.
  const int64_t expected_total = static_cast<int64_t>(expected.size());
  while (sharded.totals().dispatched < expected_total) {
    const int64_t before = sharded.totals().dispatched;
    ASSERT_TRUE(sharded.WaitIdle(/*timeout_us=*/30000000)) << "not quiescent";
    const int64_t after = sharded.totals().dispatched;
    ASSERT_TRUE(after > before || after >= expected_total)
        << "stalled at " << after << "/" << expected_total << " dispatches";
  }
  sharded.Stop();
  EXPECT_EQ(SortedKeys(sharded.TakeDispatched()), expected);
  EXPECT_GT(sharded.totals().escrows, 0);
}

// --- staleness fallback -----------------------------------------------------

TEST(ShardedSchedulerTest, MissedCrossShardDeltaFallsBackToRebuild) {
  // A shard whose history is mutated without narration (here: a finisher
  // marker written straight into the store, as if the shard missed the
  // escrow mirror) must fall back to a from-scratch rebuild via the
  // epoch/content-version check — degraded cost, unchanged answers.
  ShardedScheduler::Options options;
  options.num_shards = 2;
  options.shard = NativeOptions();
  ShardedScheduler sharded(std::move(options), nullptr);
  ASSERT_TRUE(sharded.Init().ok());

  // Find an object on shard 1.
  int64_t object = 0;
  while (sharded.router().ShardOfObject(object) != 1) ++object;

  // T1 write-locks `object` on shard 1; T2's write behind it blocks.
  sharded.Submit(Op(1, 1, txn::OpType::kWrite, object), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
  sharded.Submit(Op(2, 1, txn::OpType::kWrite, object), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
  ASSERT_EQ(sharded.shard(1)->store()->pending_count(), 1);  // T2 blocked

  // T1's commit arrives out-of-band: straight into shard 1's history, no
  // OnScheduled narration — exactly what a missed delta looks like.
  ASSERT_TRUE(sharded.shard(1)
                  ->store()
                  ->InsertHistory(Op(1, 2, txn::OpType::kCommit,
                                     Request::kNoObject))
                  .ok());

  // An out-of-band edit wakes nothing by itself — the fallback runs at the
  // next cycle, whenever one is triggered. Trigger it with an unrelated
  // admission: the cycle detects the stale epoch/content-version, rebuilds,
  // sees T1 finished, and dispatches T2.
  int64_t other = object + 1;
  while (sharded.router().ShardOfObject(other) != 1) ++other;
  sharded.Submit(Op(3, 1, txn::OpType::kRead, other), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
  const RequestBatch dispatched = sharded.TakeDispatched();
  bool t2_dispatched = false;
  for (const Request& r : dispatched) {
    t2_dispatched = t2_dispatched || (r.ta == 2 && r.object == object);
  }
  EXPECT_TRUE(t2_dispatched);
  EXPECT_EQ(sharded.shard(1)->store()->pending_count(), 0);
}

// --- cross-shard victim abort ----------------------------------------------

TEST(ShardedSchedulerTest, VictimAbortMirrorsReleaseLocksOnOtherShards) {
  ShardedScheduler::Options options;
  options.num_shards = 2;
  options.shard = NativeOptions();
  options.shard.deadlock_detection = true;
  ShardedScheduler sharded(std::move(options), nullptr);
  ASSERT_TRUE(sharded.Init().ok());

  // Two objects on shard 0 (the deadlock arena), two on shard 1 (held by
  // the deadlocking transactions, wanted by bystanders).
  std::vector<int64_t> on0, on1;
  for (int64_t o = 0; on0.size() < 2 || on1.size() < 2; ++o) {
    (sharded.router().ShardOfObject(o) == 0 ? on0 : on1).push_back(o);
  }
  // Wave 1: T1 holds {on0[0], on1[0]}, T2 holds {on0[1], on1[1]}.
  sharded.Submit(Op(1, 1, txn::OpType::kWrite, on0[0]), SimTime());
  sharded.Submit(Op(1, 2, txn::OpType::kWrite, on1[0]), SimTime());
  sharded.Submit(Op(2, 1, txn::OpType::kWrite, on0[1]), SimTime());
  sharded.Submit(Op(2, 2, txn::OpType::kWrite, on1[1]), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
  ASSERT_EQ(sharded.TakeDispatched().size(), 4u);

  // Wave 2: the crossing writes — a waits-for cycle local to shard 0 —
  // plus bystanders T3/T4 blocked on shard 1 behind T1/T2.
  sharded.Submit(Op(1, 3, txn::OpType::kWrite, on0[1]), SimTime());
  sharded.Submit(Op(2, 3, txn::OpType::kWrite, on0[0]), SimTime());
  sharded.Submit(Op(3, 1, txn::OpType::kWrite, on1[0]), SimTime());
  sharded.Submit(Op(4, 1, txn::OpType::kWrite, on1[1]), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());

  const auto totals = sharded.totals();
  ASSERT_GT(totals.victims, 0) << "shard-local deadlock was not resolved";
  ASSERT_GT(totals.mirrors_applied, 0) << "victim abort was not mirrored";
  // Whichever of T1/T2 was aborted, its shard-1 lock released and the
  // bystander behind it dispatched.
  const RequestBatch dispatched = sharded.TakeDispatched();
  bool bystander_freed = false;
  for (const Request& r : dispatched) {
    bystander_freed = bystander_freed || r.ta == 3 || r.ta == 4;
  }
  EXPECT_TRUE(bystander_freed);
}

// --- escrow view plumbing ---------------------------------------------------

class EscrowProbeProtocol : public Protocol {
 public:
  struct Seen {
    int shard = -1;
    int num_shards = 0;
    std::vector<txn::TxnId> escrowed;
  };

  EscrowProbeProtocol(ProtocolSpec spec, std::vector<Seen>* log)
      : Protocol(std::move(spec)), log_(log) {}

  Result<RequestBatch> Schedule(const ScheduleContext& context) const override {
    Seen seen;
    seen.shard = context.shard;
    seen.num_shards = context.num_shards;
    if (context.escrowed != nullptr) seen.escrowed = context.escrowed->txns;
    log_->push_back(std::move(seen));
    return context.store->AllPending();  // passthrough policy
  }

 private:
  std::vector<Seen>* log_;
};

TEST(ShardedSchedulerTest, ScheduleContextCarriesShardIdAndEscrowView) {
  static std::vector<EscrowProbeProtocol::Seen> log;
  log.clear();
  ProtocolFactory factory;
  ASSERT_TRUE(factory
                  .RegisterBackend(
                      "probe",
                      [](const ProtocolSpec& spec, RequestStore*)
                          -> Result<std::unique_ptr<Protocol>> {
                        return std::unique_ptr<Protocol>(
                            new EscrowProbeProtocol(spec, &log));
                      })
                  .ok());
  ProtocolSpec spec;
  spec.name = "probe";
  spec.backend = "probe";

  ShardedScheduler::Options options;
  options.num_shards = 2;
  options.shard.protocol = spec;
  options.shard.factory = &factory;
  options.shard.deadlock_detection = false;
  ShardedScheduler sharded(std::move(options), nullptr);
  ASSERT_TRUE(sharded.Init().ok());

  // A transaction spanning both shards, then its escrowed commit.
  int64_t obj0 = 0, obj1 = 0;
  while (sharded.router().ShardOfObject(obj0) != 0) ++obj0;
  while (sharded.router().ShardOfObject(obj1) != 1) ++obj1;
  sharded.Submit(Op(5, 1, txn::OpType::kWrite, obj0), SimTime());
  sharded.Submit(Op(5, 2, txn::OpType::kWrite, obj1), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
  sharded.Submit(Op(5, 3, txn::OpType::kCommit, Request::kNoObject), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());

  bool saw_escrow = false;
  for (const auto& seen : log) {
    EXPECT_EQ(seen.num_shards, 2);
    EXPECT_TRUE(seen.shard == 0 || seen.shard == 1);
    for (txn::TxnId ta : seen.escrowed) {
      saw_escrow = saw_escrow || ta == 5;
    }
  }
  EXPECT_TRUE(saw_escrow) << "no cycle observed transaction 5 in escrow";
  EXPECT_EQ(sharded.totals().escrows, 1);
}

// --- shared server fan-in ---------------------------------------------------

TEST(ShardedSchedulerTest, ShardsShareOneServerWithPerShardBusyAccounting) {
  server::DatabaseServer::Config config;
  config.num_rows = 1000;
  server::DatabaseServer server(config);

  ShardedScheduler::Options options;
  options.num_shards = 2;
  options.shard = NativeOptions();
  ShardedScheduler sharded(std::move(options), &server);
  ASSERT_TRUE(sharded.Init().ok());
  // One single-op transaction per shard, then commits.
  int64_t obj0 = 0, obj1 = 0;
  while (sharded.router().ShardOfObject(obj0) != 0) ++obj0;
  while (sharded.router().ShardOfObject(obj1) != 1) ++obj1;
  sharded.Submit(Op(11, 1, txn::OpType::kWrite, obj0), SimTime());
  sharded.Submit(Op(12, 1, txn::OpType::kWrite, obj1), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
  sharded.Submit(Op(11, 2, txn::OpType::kCommit, Request::kNoObject), SimTime());
  sharded.Submit(Op(12, 2, txn::OpType::kCommit, Request::kNoObject), SimTime());
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());

  EXPECT_EQ(server.total_statements(), 4);
  EXPECT_GT(server.shard_busy(0).micros(), 0);
  EXPECT_GT(server.shard_busy(1).micros(), 0);
  EXPECT_EQ((server.shard_busy(0) + server.shard_busy(1)).micros(),
            server.total_busy().micros());
  // Each write incremented its row once.
  EXPECT_EQ(server.RowValue(obj0).ValueOrDie(), 1);
  EXPECT_EQ(server.RowValue(obj1).ValueOrDie(), 1);
}


// --- the catalog view stays off the compiled hot path ---------------------

/// Drives `txns` closed-loop transactions through SubmitBatch/RunUntilIdle.
/// Every transaction writes or reads one object per shard in ascending
/// order with one request in flight, so each commit is cross-shard; its
/// tenant is ta % `tenants`. Returns how many committed.
int RunCrossShardClosedLoop(ShardedScheduler* sharded, int txns, int tenants,
                            uint64_t seed) {
  std::vector<int64_t> on_shard[2];
  for (int64_t o = 0; on_shard[0].size() < 12 || on_shard[1].size() < 12; ++o) {
    on_shard[sharded->router().ShardOfObject(o)].push_back(o);
  }
  struct Txn {
    std::vector<int64_t> objects;
    size_t next = 0;
  };
  const auto tagged = [&](Request r) {
    r.tenant = static_cast<int>(r.ta % tenants);
    return r;
  };
  Rng rng(seed);
  std::map<txn::TxnId, Txn> live;
  txn::TxnId next_ta = 1;
  int committed = 0;
  RequestBatch batch;
  RequestBatch dispatched;
  for (int round = 0; round < 10000 && committed < txns; ++round) {
    batch.clear();
    for (int k = 0; k < 3 && next_ta <= txns; ++k) {
      const txn::TxnId ta = next_ta++;
      Txn txn;
      for (const auto& objects : on_shard) {
        txn.objects.push_back(objects[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(objects.size()) - 1))]);
      }
      std::sort(txn.objects.begin(), txn.objects.end());
      batch.push_back(tagged(Op(ta, 1, txn::OpType::kWrite, txn.objects[0])));
      txn.next = 1;
      live[ta] = std::move(txn);
    }
    for (const Request& r : dispatched) {
      if (r.op == txn::OpType::kCommit) {
        ++committed;
        live.erase(r.ta);
        continue;
      }
      Txn& txn = live.at(r.ta);
      const int64_t intrata = static_cast<int64_t>(txn.next) + 1;
      if (txn.next < txn.objects.size()) {
        batch.push_back(tagged(Op(r.ta, intrata,
                                  rng.Bernoulli(0.5) ? txn::OpType::kWrite
                                                     : txn::OpType::kRead,
                                  txn.objects[txn.next++])));
      } else {
        batch.push_back(tagged(
            Op(r.ta, intrata, txn::OpType::kCommit, Request::kNoObject)));
      }
    }
    sharded->SubmitBatch(batch.data(), batch.size(), SimTime());
    EXPECT_TRUE(sharded->RunUntilIdle(SimTime()).ok());
    dispatched = sharded->TakeDispatched();
  }
  return committed;
}

/// The compiled protocol, the lock table and the tenant accountant read the
/// typed relations, so a whole run never rewrites the catalog tables and
/// never leaves the delta path; the view is written only when asked for.
void ExpectCompiledRunLeavesViewUntouched(ProtocolSpec protocol, int tenants) {
  ShardedScheduler::Options options;
  options.num_shards = 2;
  options.shard.protocol = std::move(protocol);
  options.shard.deadlock_detection = false;
  ShardedScheduler sharded(std::move(options), nullptr);
  ASSERT_TRUE(sharded.Init().ok());
  constexpr const char* kTables[] = {"requests", "history", "tenants"};
  std::vector<const storage::Table*> tables;
  std::vector<uint64_t> versions;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    for (const char* name : kTables) {
      tables.push_back(sharded.shard(s)->store()->catalog()->GetTable(name));
      versions.push_back(tables.back()->version());
    }
  }

  constexpr int kTxns = 300;
  ASSERT_EQ(RunCrossShardClosedLoop(&sharded, kTxns, tenants, 23), kTxns);
  EXPECT_EQ(sharded.totals().escrows, kTxns);
  // Leave resident rows behind on every shard: a write that dispatches
  // (history) and a conflicting one that waits (pending).
  txn::TxnId ta = kTxns + 1;
  std::vector<int64_t> object_of(2, -1);
  for (int64_t o = 0; object_of[0] < 0 || object_of[1] < 0; ++o) {
    int64_t& first = object_of[sharded.router().ShardOfObject(o)];
    if (first < 0) first = o;
  }
  for (int64_t object : object_of) {
    sharded.Submit(Op(ta++, 1, txn::OpType::kWrite, object), SimTime());
    sharded.Submit(Op(ta++, 1, txn::OpType::kWrite, object), SimTime());
  }
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());

  const auto consumers = [&](int s) {
    const auto* compiled = dynamic_cast<const ir::CompiledProtocol*>(
        sharded.shard(s)->active_protocol());
    EXPECT_NE(compiled, nullptr) << "shard " << s;
    EXPECT_TRUE(compiled != nullptr && compiled->uses_vec()) << "shard " << s;
    const TenantAccountant* acct = sharded.shard(s)->tenant_accountant();
    EXPECT_NE(acct, nullptr) << "shard " << s;
    return std::vector<int64_t>{
        compiled != nullptr && compiled->uses_vec()
            ? compiled->mirror()->full_rebuilds()
            : -1,
        compiled != nullptr ? compiled->lock_state().full_rebuilds() : -1,
        acct != nullptr ? acct->full_rebuilds() : -1};
  };
  for (int s = 0; s < sharded.num_shards(); ++s) {
    for (size_t t = 0; t < 3; ++t) {
      EXPECT_EQ(tables[3 * s + t]->version(), versions[3 * s + t])
          << "shard " << s << " rewrote " << kTables[t] << " during the run";
    }
    // The mirror and the lock table build once on the first cycle; the
    // accountant adopts the empty store's sync point and never rebuilds.
    EXPECT_EQ(consumers(s), (std::vector<int64_t>{1, 1, 0})) << "shard " << s;
  }

  for (int s = 0; s < sharded.num_shards(); ++s) {
    RequestStore* store = sharded.shard(s)->store();
    ASSERT_GT(store->pending_count(), 0) << "shard " << s;
    ASSERT_GT(store->history_count(), 0) << "shard " << s;
    const storage::Catalog* catalog = store->catalog();
    std::vector<std::string> want;
    std::vector<std::string> got;
    for (const auto& [id, r] : store->pending_by_id()) {
      want.push_back(std::to_string(id) + " " + Key(r));
    }
    catalog->GetTable("requests")->ForEach(
        [&](storage::RowId, const storage::Row& row) {
          const Request r = RequestStore::RowToRequestFull(row);
          got.push_back(std::to_string(r.id) + " " + Key(r));
        });
    EXPECT_EQ(got, want) << "shard " << s << " requests";
    want.clear();
    got.clear();
    store->ForEachHistory([&](const Request& r) {
      want.push_back(std::to_string(r.id) + " " + Key(r));
    });
    catalog->GetTable("history")->ForEach(
        [&](storage::RowId, const storage::Row& row) {
          const Request r = RequestStore::RowToRequestFull(row);
          got.push_back(std::to_string(r.id) + " " + Key(r));
        });
    EXPECT_EQ(got, want) << "shard " << s << " history";
    want.clear();
    got.clear();
    for (const auto& [tenant, a] : store->tenants_by_id()) {
      want.push_back(std::to_string(tenant) + " v" + std::to_string(a.vtime) +
                     " i" + std::to_string(a.inflight));
    }
    catalog->GetTable("tenants")->ForEach(
        [&](storage::RowId, const storage::Row& row) {
          const TenantAcct a = RequestStore::RowToTenant(row);
          got.push_back(std::to_string(a.tenant) + " v" +
                        std::to_string(a.vtime) + " i" +
                        std::to_string(a.inflight));
        });
    EXPECT_EQ(got, want) << "shard " << s << " tenants";
    EXPECT_EQ(static_cast<int64_t>(want.size()),
              std::min<int64_t>(tenants, kTxns));
  }

  // One out-of-band UPDATE per request relation, then a cycle: every
  // consumer rebuilds exactly once more.
  for (int s = 0; s < sharded.num_shards(); ++s) {
    RequestStore* store = sharded.shard(s)->store();
    for (const char* table : {"requests", "history"}) {
      auto updated = store->sql_engine()->Execute(
          std::string("UPDATE ") + table + " SET priority = 1");
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      EXPECT_GT(*updated, 0) << "shard " << s << " " << table;
    }
  }
  for (int64_t object : object_of) {
    sharded.Submit(Op(ta++, 1, txn::OpType::kWrite, object), SimTime());
  }
  ASSERT_TRUE(sharded.RunUntilIdle(SimTime()).ok());
  for (int s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(consumers(s), (std::vector<int64_t>{2, 2, 1})) << "shard " << s;
  }
}

TEST(ShardedSchedulerTest, CompiledSs2plRunNeverMaterializesTheCatalog) {
  ExpectCompiledRunLeavesViewUntouched(Ss2plSql(), /*tenants=*/1);
}

TEST(ShardedSchedulerTest, CompiledWfqRunNeverMaterializesTheCatalog) {
  ExpectCompiledRunLeavesViewUntouched(WfqSql(), /*tenants=*/4);
}

}  // namespace
}  // namespace declsched::scheduler

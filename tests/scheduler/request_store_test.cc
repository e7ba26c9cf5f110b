#include "scheduler/request_store.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace declsched::scheduler {
namespace {

Request MakeRequest(int64_t id, int64_t ta, int64_t intrata, txn::OpType op,
                    int64_t object) {
  Request r;
  r.id = id;
  r.ta = ta;
  r.intrata = intrata;
  r.op = op;
  r.object = object;
  return r;
}

TEST(RequestStoreTest, StartsEmpty) {
  RequestStore store;
  EXPECT_EQ(store.pending_count(), 0);
  EXPECT_EQ(store.history_count(), 0);
  ASSERT_NE(store.catalog()->GetTable("requests"), nullptr);
  ASSERT_NE(store.catalog()->GetTable("history"), nullptr);
}

TEST(RequestStoreTest, InsertPendingAndReadBack) {
  RequestStore store;
  ASSERT_TRUE(store
                  .InsertPending({MakeRequest(1, 10, 1, txn::OpType::kRead, 5),
                                  MakeRequest(2, 11, 1, txn::OpType::kWrite, 6)})
                  .ok());
  EXPECT_EQ(store.pending_count(), 2);
  auto pending = store.AllPending();
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(pending->size(), 2u);
  EXPECT_EQ((*pending)[0].id, 1);
  EXPECT_EQ((*pending)[0].op, txn::OpType::kRead);
  EXPECT_EQ((*pending)[1].object, 6);
}

TEST(RequestStoreTest, MarkScheduledMovesToHistory) {
  RequestStore store;
  const Request r = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  ASSERT_TRUE(store.InsertPending({r}).ok());
  ASSERT_TRUE(store.MarkScheduled({r}).ok());
  EXPECT_EQ(store.pending_count(), 0);
  EXPECT_EQ(store.history_count(), 1);
}

TEST(RequestStoreTest, MarkScheduledUnknownIdFails) {
  RequestStore store;
  EXPECT_FALSE(store.MarkScheduled({MakeRequest(99, 1, 1, txn::OpType::kRead, 1)})
                   .ok());
}

TEST(RequestStoreTest, GarbageCollectRetiresFinishedTransactions) {
  RequestStore store;
  // T10: two ops + commit. T11: one op, still active.
  const Request a = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  const Request b = MakeRequest(2, 10, 2, txn::OpType::kRead, 6);
  const Request c = MakeRequest(3, 10, 3, txn::OpType::kCommit, -1);
  const Request d = MakeRequest(4, 11, 1, txn::OpType::kWrite, 7);
  ASSERT_TRUE(store.InsertPending({a, b, c, d}).ok());
  ASSERT_TRUE(store.MarkScheduled({a, b, c, d}).ok());
  EXPECT_EQ(store.history_count(), 4);
  auto removed = store.GarbageCollectFinished();
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->rows_retired, 3);  // T10's two ops + marker
  ASSERT_EQ(removed->txns.size(), 1u);
  EXPECT_EQ(removed->txns[0], 10);
  EXPECT_EQ(store.history_count(), 1);
  // Idempotent: the marker set was consumed, so the next call is the O(1)
  // nothing-to-retire fast path.
  auto again = store.GarbageCollectFinished();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows_retired, 0);
  EXPECT_TRUE(again->txns.empty());
}

TEST(RequestStoreTest, GarbageCollectNoopWithoutMarkers) {
  RequestStore store;
  const Request a = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  ASSERT_TRUE(store.InsertPending({a}).ok());
  ASSERT_TRUE(store.MarkScheduled({a}).ok());
  auto removed = store.GarbageCollectFinished();
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->rows_retired, 0);
  EXPECT_TRUE(removed->txns.empty());
}

TEST(RequestStoreTest, DatalogEdbShapes) {
  RequestStore store;
  const Request a = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  const Request b = MakeRequest(2, 11, 1, txn::OpType::kRead, 6);
  ASSERT_TRUE(store.InsertPending({a, b}).ok());
  ASSERT_TRUE(store.MarkScheduled({a}).ok());
  datalog::Database edb = store.BuildDatalogEdb();
  ASSERT_EQ(edb.count("req"), 1u);
  ASSERT_EQ(edb.count("hist"), 1u);
  ASSERT_EQ(edb.count("reqmeta"), 1u);
  EXPECT_EQ(edb["req"].size(), 1u);
  EXPECT_EQ(edb["hist"].size(), 1u);
  EXPECT_EQ(edb["req"][0].size(), 5u);
  EXPECT_EQ(edb["reqmeta"][0].size(), 4u);
  EXPECT_EQ(edb["hist"][0][3].AsString(), "w");
}

TEST(RequestStoreTest, RowsToRequestsRejoinsSlaColumns) {
  RequestStore store;
  Request r = MakeRequest(1, 10, 1, txn::OpType::kRead, 5);
  r.priority = 2;
  r.deadline = SimTime::FromMillis(77);
  ASSERT_TRUE(store.InsertPending({r}).ok());
  // Simulate a protocol that projected only the Table 2 columns.
  storage::Row core = {storage::Value::Int64(1), storage::Value::Int64(10),
                       storage::Value::Int64(1), storage::Value::String("r"),
                       storage::Value::Int64(5)};
  auto back = store.RowsToRequests({core});
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].priority, 2);
  EXPECT_EQ((*back)[0].deadline.micros(), 77000);
}

TEST(RequestStoreTest, RowsToRequestsHonorsColumnPositions) {
  RequestStore store;
  Request r = MakeRequest(1, 10, 1, txn::OpType::kRead, 5);
  r.priority = 3;
  ASSERT_TRUE(store.InsertPending({r}).ok());
  // A result schema with the Table 2 columns shuffled (object first).
  storage::Row shuffled = {storage::Value::Int64(5), storage::Value::Int64(1),
                           storage::Value::Int64(10), storage::Value::Int64(1),
                           storage::Value::String("r")};
  auto back = store.RowsToRequests({shuffled}, {1, 2, 3, 4, 0});
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].id, 1);
  EXPECT_EQ((*back)[0].object, 5);
  EXPECT_EQ((*back)[0].priority, 3);
}

TEST(RequestStoreTest, GcRescansAfterOutOfBandHistoryEdit) {
  RequestStore store;
  const Request a = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  ASSERT_TRUE(store.InsertPending({a}).ok());
  ASSERT_TRUE(store.MarkScheduled({a}).ok());
  // A commit marker injected by ad-hoc SQL rather than the store API: the
  // version mismatch forces GC back onto the full marker rescan, so the
  // transaction still retires like it would have pre-incrementally.
  auto ins = store.sql_engine()->Execute(
      "INSERT INTO history VALUES (2, 10, 2, 'c', -1, 0, 0, 0, -1, 0)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  auto gc = store.GarbageCollectFinished();
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc->rows_retired, 2);
  ASSERT_EQ(gc->txns.size(), 1u);
  EXPECT_EQ(gc->txns[0], 10);
  EXPECT_EQ(store.history_count(), 0);
}

TEST(RequestStoreTest, PendingMirrorTracksMutations) {
  RequestStore store;
  const Request a = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  const Request b = MakeRequest(2, 11, 1, txn::OpType::kRead, 6);
  const Request c = MakeRequest(3, 11, 2, txn::OpType::kRead, 7);
  ASSERT_TRUE(store.InsertPending({a, b, c}).ok());
  EXPECT_EQ(store.pending_by_id().size(), 3u);
  ASSERT_TRUE(store.MarkScheduled({a}).ok());
  EXPECT_EQ(store.pending_by_id().count(1), 0u);
  EXPECT_EQ(store.DropPendingOfTransaction(11), 2);
  EXPECT_TRUE(store.pending_by_id().empty());
  EXPECT_EQ(store.pending_count(), 0);
}

TEST(RequestStoreTest, EpochsBumpOncePerMutatingCall) {
  RequestStore store;
  const uint64_t p0 = store.pending_epoch();
  const uint64_t h0 = store.history_epoch();
  const Request a = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  const Request b = MakeRequest(2, 10, 2, txn::OpType::kCommit, -1);
  ASSERT_TRUE(store.InsertPending({a, b}).ok());
  EXPECT_EQ(store.pending_epoch(), p0 + 1);
  EXPECT_EQ(store.history_epoch(), h0);
  ASSERT_TRUE(store.MarkScheduled({a, b}).ok());
  EXPECT_EQ(store.pending_epoch(), p0 + 2);
  EXPECT_EQ(store.history_epoch(), h0 + 1);
  auto gc = store.GarbageCollectFinished();
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc->rows_retired, 2);
  EXPECT_EQ(store.history_epoch(), h0 + 2);
  // Empty mutations are free: no epoch churn, no cache invalidation.
  ASSERT_TRUE(store.InsertPending({}).ok());
  ASSERT_TRUE(store.MarkScheduled({}).ok());
  ASSERT_TRUE(store.GarbageCollectFinished().ok());
  EXPECT_EQ(store.pending_epoch(), p0 + 2);
  EXPECT_EQ(store.history_epoch(), h0 + 2);
}

TEST(RequestStoreTest, MirrorSelfHealsAfterOutOfBandEdit) {
  RequestStore store;
  ASSERT_TRUE(store.InsertPending({MakeRequest(1, 10, 1, txn::OpType::kRead, 5)}).ok());
  EXPECT_EQ(store.pending_by_id().size(), 1u);
  const uint64_t before = store.pending_epoch();
  // Count-preserving ad-hoc DML behind the store's back: the mirror
  // notices the table's content-version moved, rebuilds, and bumps the
  // pending epoch.
  auto updated = store.sql_engine()->Execute("UPDATE requests SET object = 42");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(store.pending_by_id().at(1).object, 42);
  EXPECT_GT(store.pending_epoch(), before);
  // Count-changing DML heals too.
  auto removed = store.sql_engine()->Execute("DELETE FROM requests");
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(store.pending_by_id().empty());
}

TEST(RequestStoreTest, DatalogEdbCacheInvalidatesPerRelation) {
  RequestStore store;
  const Request a = MakeRequest(1, 10, 1, txn::OpType::kWrite, 5);
  const Request b = MakeRequest(2, 11, 1, txn::OpType::kRead, 6);
  ASSERT_TRUE(store.InsertPending({a, b}).ok());
  const datalog::Database& edb = store.BuildDatalogEdb();
  EXPECT_EQ(edb.at("req").size(), 2u);
  EXPECT_TRUE(edb.at("hist").empty());
  // Unchanged store: same relations handed back without a rebuild.
  EXPECT_EQ(&store.BuildDatalogEdb(), &edb);
  ASSERT_TRUE(store.MarkScheduled({a}).ok());
  const datalog::Database& after = store.BuildDatalogEdb();
  EXPECT_EQ(after.at("req").size(), 1u);
  EXPECT_EQ(after.at("hist").size(), 1u);
  EXPECT_EQ(after.at("hist")[0][3].AsString(), "w");
}

TEST(RequestStoreTest, SqlEngineSeesTables) {
  RequestStore store;
  ASSERT_TRUE(store.InsertPending({MakeRequest(1, 10, 1, txn::OpType::kRead, 5)}).ok());
  auto result = store.sql_engine()->Query("SELECT COUNT(*) FROM requests");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt64(), 1);
}


// --- the catalog view against the typed relations -------------------------

std::vector<uint64_t> StoreViewSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("DECLSCHED_STORE_VIEW_SEEDS")) {
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const uint64_t v = std::strtoull(p, &end, 10);
      if (end == p) break;
      seeds.push_back(v);
      p = (*end == ',') ? end + 1 : end;
    }
  }
  if (seeds.empty()) seeds = {3, 33, 333};
  return seeds;
}

std::string Describe(const Request& r) {
  return std::to_string(r.id) + "/" + std::to_string(r.ta) + "." +
         std::to_string(r.intrata) + txn::OpTypeToChar(r.op) + "[" +
         std::to_string(r.object) + "] p" + std::to_string(r.priority) +
         " d" + std::to_string(r.deadline.micros()) + " a" +
         std::to_string(r.arrival.micros()) + " c" + std::to_string(r.client) +
         " t" + std::to_string(r.tenant);
}

std::string Describe(const TenantAcct& a) {
  return std::to_string(a.tenant) + ":" + std::to_string(a.weight) + "," +
         std::to_string(a.vtime) + "," + std::to_string(a.round) + "," +
         std::to_string(a.tokens) + "," + std::to_string(a.rate) + "," +
         std::to_string(a.burst) + "," + std::to_string(a.cap) + "," +
         std::to_string(a.inflight);
}

/// What the store must hold, kept by plain code beside it: the relations
/// in view order plus every counter's expected movement since the start.
struct StoreModel {
  std::map<int64_t, Request> pending;
  std::vector<Request> history;
  std::map<int64_t, TenantAcct> tenants;
  uint64_t pending_version = 0;
  uint64_t history_version = 0;
  uint64_t tenants_version = 0;
  uint64_t pending_epoch = 0;
  uint64_t history_epoch = 0;
};

struct Baseline {
  uint64_t pv, hv, tv, pe, he;
};

Baseline Counters(const RequestStore& store) {
  return {store.pending_version(), store.history_version(),
          store.tenants_version(), store.pending_epoch(),
          store.history_epoch()};
}

void ExpectTypedMatchesModel(const RequestStore& store, const StoreModel& m,
                             const Baseline& b, const std::string& where) {
  std::vector<std::string> want;
  std::vector<std::string> got;
  for (const auto& [id, r] : m.pending) want.push_back(Describe(r));
  for (const auto& [id, r] : store.pending_by_id()) {
    EXPECT_EQ(id, r.id) << where;
    got.push_back(Describe(r));
  }
  EXPECT_EQ(got, want) << where << ": pending";
  want.clear();
  got.clear();
  for (const Request& r : m.history) want.push_back(Describe(r));
  store.ForEachHistory([&](const Request& r) { got.push_back(Describe(r)); });
  EXPECT_EQ(got, want) << where << ": history";
  want.clear();
  got.clear();
  for (const auto& [t, a] : m.tenants) want.push_back(Describe(a));
  for (const auto& [t, a] : store.tenants_by_id()) got.push_back(Describe(a));
  EXPECT_EQ(got, want) << where << ": tenants";
  EXPECT_EQ(store.pending_count(), static_cast<int64_t>(m.pending.size()));
  EXPECT_EQ(store.history_count(), static_cast<int64_t>(m.history.size()));
  EXPECT_EQ(store.tenant_count(), static_cast<int64_t>(m.tenants.size()));
  const Baseline now = Counters(store);
  EXPECT_EQ(now.pv - b.pv, m.pending_version) << where;
  EXPECT_EQ(now.hv - b.hv, m.history_version) << where;
  EXPECT_EQ(now.tv - b.tv, m.tenants_version) << where;
  EXPECT_EQ(now.pe - b.pe, m.pending_epoch) << where;
  EXPECT_EQ(now.he - b.he, m.history_epoch) << where;
}

void ExpectViewMatchesModel(RequestStore* store, const StoreModel& m,
                            const std::string& where) {
  const storage::Catalog* catalog = store->catalog();
  std::vector<std::string> want;
  std::vector<std::string> got;
  for (const auto& [id, r] : m.pending) want.push_back(Describe(r));
  catalog->GetTable("requests")->ForEach([&](storage::RowId, const storage::Row& row) {
    got.push_back(Describe(RequestStore::RowToRequestFull(row)));
  });
  EXPECT_EQ(got, want) << where << ": requests table";
  want.clear();
  got.clear();
  for (const Request& r : m.history) want.push_back(Describe(r));
  catalog->GetTable("history")->ForEach([&](storage::RowId, const storage::Row& row) {
    got.push_back(Describe(RequestStore::RowToRequestFull(row)));
  });
  EXPECT_EQ(got, want) << where << ": history table";
  want.clear();
  got.clear();
  for (const auto& [t, a] : m.tenants) want.push_back(Describe(a));
  catalog->GetTable("tenants")->ForEach([&](storage::RowId, const storage::Row& row) {
    got.push_back(Describe(RequestStore::RowToTenant(row)));
  });
  EXPECT_EQ(got, want) << where << ": tenants table";
}

std::string SqlRow(const Request& r) {
  return "(" + std::to_string(r.id) + ", " + std::to_string(r.ta) + ", " +
         std::to_string(r.intrata) + ", '" + txn::OpTypeToChar(r.op) + "', " +
         std::to_string(r.object) + ", " + std::to_string(r.priority) + ", " +
         std::to_string(r.deadline.micros()) + ", " +
         std::to_string(r.arrival.micros()) + ", " + std::to_string(r.client) +
         ", " + std::to_string(r.tenant) + ")";
}

Request RandomRequest(Rng* rng, int64_t id) {
  static constexpr txn::OpType kOps[] = {txn::OpType::kRead, txn::OpType::kWrite,
                                         txn::OpType::kRead, txn::OpType::kWrite,
                                         txn::OpType::kCommit, txn::OpType::kAbort};
  Request r;
  r.id = id;
  r.ta = rng->UniformInt(1, 8);
  r.intrata = rng->UniformInt(1, 5);
  r.op = kOps[rng->UniformInt(0, 5)];
  r.object = (r.op == txn::OpType::kRead || r.op == txn::OpType::kWrite)
                 ? rng->UniformInt(0, 9)
                 : Request::kNoObject;
  r.priority = static_cast<int>(rng->UniformInt(0, 2));
  r.deadline = SimTime::FromMicros(rng->UniformInt(0, 1) * rng->UniformInt(1, 9000));
  r.arrival = SimTime::FromMicros(rng->UniformInt(0, 9000));
  r.client = static_cast<int>(rng->UniformInt(-1, 3));
  r.tenant = static_cast<int>(rng->UniformInt(0, 5));
  return r;
}

bool IsMarker(const Request& r) {
  return r.op == txn::OpType::kCommit || r.op == txn::OpType::kAbort;
}

/// Random sequences of the six mutators interleaved with out-of-band SQL
/// DML on every table: after each step the typed relations, the counters
/// and (on most steps) the materialized view must equal a plain model.
TEST(RequestStoreTest, CatalogViewEqualsTypedRelations) {
  for (uint64_t seed : StoreViewSeeds()) {
    Rng rng(seed);
    RequestStore store;
    StoreModel m;
    const Baseline base = Counters(store);
    int64_t next_id = 1;
    for (int step = 0; step < 400; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const int64_t kind = rng.UniformInt(0, 14);
      if (kind <= 2) {  // InsertPending
        RequestBatch batch;
        const int n = static_cast<int>(rng.UniformInt(1, 4));
        for (int i = 0; i < n; ++i) batch.push_back(RandomRequest(&rng, next_id++));
        ASSERT_TRUE(store.InsertPending(batch).ok()) << where;
        for (const Request& r : batch) {
          m.pending[r.id] = r;
          if (m.tenants.count(r.tenant) == 0) {
            TenantAcct acct;
            acct.tenant = r.tenant;
            m.tenants[r.tenant] = acct;
            ++m.tenants_version;
          }
        }
        m.pending_version += batch.size();
        ++m.pending_epoch;
      } else if (kind <= 4) {  // MarkScheduled: a projection of some pending
        std::vector<int64_t> ids;
        for (const auto& [id, r] : m.pending) {
          if (rng.Bernoulli(0.4)) ids.push_back(id);
        }
        if (ids.empty()) continue;
        std::reverse(ids.begin(), ids.end());  // dispatch order is any order
        RequestBatch batch;
        for (int64_t id : ids) {
          Request projection;
          projection.id = id;
          batch.push_back(projection);
        }
        ASSERT_TRUE(store.MarkScheduled(batch).ok()) << where;
        for (int64_t id : ids) {
          m.history.push_back(m.pending.at(id));
          m.pending.erase(id);
        }
        m.pending_version += ids.size();
        m.history_version += ids.size();
        ++m.pending_epoch;
        ++m.history_epoch;
      } else if (kind == 5) {  // InsertHistory
        const Request r = RandomRequest(&rng, next_id++);
        ASSERT_TRUE(store.InsertHistory(r).ok()) << where;
        m.history.push_back(r);
        ++m.history_version;
        ++m.history_epoch;
      } else if (kind == 6) {  // DropPendingOfTransaction
        const txn::TxnId ta = rng.UniformInt(1, 8);
        std::map<int64_t, int64_t> by_tenant;
        std::map<int64_t, int64_t> want_by_tenant;
        int64_t want = 0;
        for (auto it = m.pending.begin(); it != m.pending.end();) {
          if (it->second.ta == ta) {
            ++want_by_tenant[it->second.tenant];
            ++want;
            it = m.pending.erase(it);
          } else {
            ++it;
          }
        }
        EXPECT_EQ(store.DropPendingOfTransaction(ta, &by_tenant), want) << where;
        EXPECT_EQ(by_tenant, want_by_tenant) << where;
        m.pending_version += static_cast<uint64_t>(want);
        if (want > 0) ++m.pending_epoch;
      } else if (kind == 7) {  // GarbageCollectFinished
        std::vector<txn::TxnId> txns;
        for (const Request& r : m.history) {
          if (IsMarker(r)) txns.push_back(r.ta);
        }
        std::sort(txns.begin(), txns.end());
        txns.erase(std::unique(txns.begin(), txns.end()), txns.end());
        std::map<int64_t, int64_t> by_tenant;
        int64_t retired = 0;
        std::vector<Request> kept;
        for (const Request& r : m.history) {
          if (std::binary_search(txns.begin(), txns.end(), r.ta)) {
            ++by_tenant[r.tenant];
            ++retired;
          } else {
            kept.push_back(r);
          }
        }
        auto gc = store.GarbageCollectFinished();
        ASSERT_TRUE(gc.ok()) << where;
        EXPECT_EQ(gc->txns, txns) << where;
        EXPECT_EQ(gc->rows_retired, retired) << where;
        EXPECT_EQ(gc->rows_by_tenant, by_tenant) << where;
        m.history = std::move(kept);
        m.history_version += static_cast<uint64_t>(retired);
        if (!txns.empty()) ++m.history_epoch;
      } else if (kind == 8) {  // UpsertTenant
        TenantAcct acct;
        acct.tenant = rng.UniformInt(0, 6);
        acct.weight = rng.UniformInt(1, 3);
        acct.vtime = rng.UniformInt(0, 500);
        acct.round = rng.UniformInt(0, 5);
        acct.tokens = rng.UniformInt(0, 4);
        acct.rate = rng.UniformInt(0, 2);
        acct.burst = rng.UniformInt(0, 4);
        acct.cap = rng.UniformInt(0, 3);
        acct.inflight = rng.UniformInt(0, 6);
        ASSERT_TRUE(store.UpsertTenant(acct).ok()) << where;
        m.tenants[acct.tenant] = acct;
        ++m.tenants_version;
      } else {  // out-of-band SQL DML on one of the three tables
        const int64_t table = rng.UniformInt(0, 2);
        const int64_t verb = rng.UniformInt(0, 2);
        const txn::TxnId ta = rng.UniformInt(1, 8);
        const int64_t tenant = rng.UniformInt(0, 6);
        const int64_t value = rng.UniformInt(0, 99);
        std::string sql;
        int64_t want = 0;
        if (table == 0 && verb == 0) {
          const Request r = RandomRequest(&rng, next_id++);
          sql = "INSERT INTO requests VALUES " + SqlRow(r);
          m.pending[r.id] = r;
          want = 1;
        } else if (table == 0 && verb == 1) {
          sql = "UPDATE requests SET priority = " + std::to_string(value) +
                " WHERE ta = " + std::to_string(ta);
          for (auto& [id, r] : m.pending) {
            if (r.ta == ta) {
              r.priority = static_cast<int>(value);
              ++want;
            }
          }
        } else if (table == 0) {
          sql = "DELETE FROM requests WHERE ta = " + std::to_string(ta);
          for (auto it = m.pending.begin(); it != m.pending.end();) {
            if (it->second.ta == ta) {
              it = m.pending.erase(it);
              ++want;
            } else {
              ++it;
            }
          }
        } else if (table == 1 && verb == 0) {
          const Request r = RandomRequest(&rng, next_id++);
          sql = "INSERT INTO history VALUES " + SqlRow(r);
          m.history.push_back(r);
          want = 1;
        } else if (table == 1 && verb == 1) {
          sql = "UPDATE history SET object = " + std::to_string(value) +
                " WHERE ta = " + std::to_string(ta);
          for (Request& r : m.history) {
            if (r.ta == ta) {
              r.object = value;
              ++want;
            }
          }
        } else if (table == 1) {
          sql = "DELETE FROM history WHERE ta = " + std::to_string(ta);
          const size_t before = m.history.size();
          m.history.erase(std::remove_if(m.history.begin(), m.history.end(),
                                         [&](const Request& r) { return r.ta == ta; }),
                          m.history.end());
          want = static_cast<int64_t>(before - m.history.size());
        } else if (verb == 0 && m.tenants.count(tenant + 10) == 0) {
          TenantAcct acct;
          acct.tenant = tenant + 10;  // above UpsertTenant's ids: always fresh
          acct.vtime = value;
          sql = "INSERT INTO tenants VALUES (" + std::to_string(acct.tenant) +
                ", 1, " + std::to_string(value) + ", 0, 0, 0, 0, 0, 0)";
          m.tenants[acct.tenant] = acct;
          want = 1;
        } else if (verb <= 1) {
          sql = "UPDATE tenants SET vtime = " + std::to_string(value) +
                " WHERE tenant = " + std::to_string(tenant);
          auto it = m.tenants.find(tenant);
          if (it != m.tenants.end()) {
            it->second.vtime = value;
            want = 1;
          }
        } else {
          sql = "DELETE FROM tenants WHERE tenant = " + std::to_string(tenant);
          want = static_cast<int64_t>(m.tenants.erase(tenant));
        }
        auto affected = store.sql_engine()->Execute(sql);
        ASSERT_TRUE(affected.ok()) << where << ": " << sql << ": "
                                   << affected.status().ToString();
        ASSERT_EQ(*affected, want) << where << ": " << sql;
        // An absorbed edit moves the relation's version by the rows it
        // touched; only pending answers with an epoch bump.
        const uint64_t moved = static_cast<uint64_t>(want);
        if (table == 0) {
          m.pending_version += moved;
          if (want > 0) ++m.pending_epoch;
        } else if (table == 1) {
          m.history_version += moved;
        } else {
          m.tenants_version += moved;
        }
      }
      ExpectTypedMatchesModel(store, m, base, where);
      // Let the view lag across some steps so a rewrite covers several
      // mutations; checking it must not move any counter.
      if (rng.Bernoulli(0.5)) {
        ExpectViewMatchesModel(&store, m, where);
        ExpectTypedMatchesModel(store, m, base, where + " after view sync");
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace declsched::scheduler

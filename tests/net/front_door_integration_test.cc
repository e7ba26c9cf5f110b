// End-to-end tests of the network front door over a real loopback socket:
// submit batches through HTTP and verify the dispatch set, the error-path
// status mapping, admin endpoints, and that /metrics reconciles with the
// scheduler's own totals.

#include "net/front_door.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/json.h"
#include "net/net_test_util.h"
#include "scheduler/protocol_library.h"

namespace declsched::net {
namespace {

using testing::TestClient;

FrontDoor::Options BaseOptions() {
  FrontDoor::Options options;
  options.num_shards = 2;
  options.shard.protocol = scheduler::Ss2plNative();
  options.server.num_rows = 1000;
  return options;
}

JsonValue ParseBody(const std::string& body) {
  Result<JsonValue> parsed = JsonValue::Parse(body);
  EXPECT_TRUE(parsed.ok()) << body;
  return parsed.ok() ? std::move(parsed).MoveValue() : JsonValue();
}

TEST(FrontDoorTest, SubmitCommitsAndReportsDispatchCounts) {
  FrontDoor::Options options = BaseOptions();
  options.keep_dispatch_log = true;
  FrontDoor door(std::move(options));
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  const std::string body =
      R"({"tenant":1,"txns":[)"
      R"({"ops":[{"op":"write","object":3},{"op":"read","object":9}]},)"
      R"({"ops":[{"op":"write","object":700}]}]})";
  const auto response = client.Post("/v1/submit", body);
  EXPECT_EQ(response.status, 200);
  const JsonValue doc = ParseBody(response.body);
  EXPECT_EQ(doc.Get("txns")->AsInt64(), 2);
  EXPECT_EQ(doc.Get("statements")->AsInt64(), 3);
  // Every client statement plus one commit per transaction dispatched.
  EXPECT_EQ(doc.Get("dispatched")->AsInt64(), 3 + 2);

  // Dispatch-set equality against what was submitted: group the scheduler's
  // dispatch log by transaction and compare (op, object) sequences.
  scheduler::RequestBatch dispatched = door.sched()->TakeDispatched();
  std::map<txn::TxnId, std::vector<std::pair<txn::OpType, int64_t>>> by_txn;
  for (const scheduler::Request& r : dispatched) {
    by_txn[r.ta].emplace_back(r.op, r.object);
  }
  ASSERT_EQ(by_txn.size(), 2u);
  std::vector<std::vector<std::pair<txn::OpType, int64_t>>> got;
  for (auto& [ta, ops] : by_txn) {
    // Within one transaction the closed loop forces submission order.
    got.push_back(ops);
  }
  const std::vector<std::pair<txn::OpType, int64_t>> txn_a = {
      {txn::OpType::kWrite, 3},
      {txn::OpType::kRead, 9},
      {txn::OpType::kCommit, scheduler::Request::kNoObject}};
  const std::vector<std::pair<txn::OpType, int64_t>> txn_b = {
      {txn::OpType::kWrite, 700},
      {txn::OpType::kCommit, scheduler::Request::kNoObject}};
  EXPECT_TRUE((got[0] == txn_a && got[1] == txn_b) ||
              (got[0] == txn_b && got[1] == txn_a));

  EXPECT_EQ(door.inflight_statements(), 0);
  door.Shutdown();
}

TEST(FrontDoorTest, ManyPipelinedSubmissionsAllCommitExactlyOnce) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  constexpr int kBatches = 50;
  for (int i = 0; i < kBatches; ++i) {
    const int64_t base = (i * 7) % 900;
    const std::string body =
        "{\"txns\":[{\"ops\":[{\"op\":\"write\",\"object\":" +
        std::to_string(base) + "},{\"op\":\"write\",\"object\":" +
        std::to_string(base + 50) + "}]}]}";
    const auto response = client.Post("/v1/submit", body);
    ASSERT_EQ(response.status, 200) << response.body;
  }

  const scheduler::ShardedScheduler::Totals totals = door.sched()->totals();
  EXPECT_EQ(totals.submitted, totals.dispatched);
  EXPECT_EQ(totals.dispatched, kBatches * 3);  // 2 writes + commit each
  EXPECT_EQ(door.metrics().Value("frontdoor_txns_committed_total"), kBatches);
  EXPECT_EQ(door.inflight_statements(), 0);
  door.Shutdown();
}

TEST(FrontDoorTest, ErrorPathsMapToHttpStatuses) {
  FrontDoor::Options options = BaseOptions();
  options.server.known_tenants = {0, 1};
  FrontDoor door(std::move(options));
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  // Malformed JSON -> 400.
  EXPECT_EQ(client.Post("/v1/submit", "{not json").status, 400);
  // Wrong shape -> 400.
  EXPECT_EQ(client.Post("/v1/submit", R"({"txns":[]})").status, 400);
  EXPECT_EQ(client.Post("/v1/submit", R"({"txns":[{"ops":[]}]})").status, 400);
  // Descending objects violate the deadlock-free submission order -> 400.
  EXPECT_EQ(
      client
          .Post("/v1/submit",
                R"({"txns":[{"ops":[{"op":"write","object":9},)"
                R"({"op":"write","object":3}]}]})")
          .status,
      400);
  // Row out of range -> 400 (num_rows is 1000).
  const auto range = client.Post(
      "/v1/submit", R"({"txns":[{"ops":[{"op":"write","object":99999}]}]})");
  EXPECT_EQ(range.status, 400);
  EXPECT_NE(range.body.find("out of range"), std::string::npos);
  // Unknown tenant -> 400.
  const auto tenant = client.Post(
      "/v1/submit",
      R"({"tenant":7,"txns":[{"ops":[{"op":"write","object":1}]}]})");
  EXPECT_EQ(tenant.status, 400);
  EXPECT_NE(tenant.body.find("unknown tenant"), std::string::npos);
  // A tenant or object that is not a whole number in range -> 400, never
  // truncated or wrapped onto a known one (4294967296 would wrap to 0).
  for (const char* body : {
           R"({"tenant":1e30,"txns":[{"ops":[{"op":"write","object":1}]}]})",
           R"({"tenant":1.9,"txns":[{"ops":[{"op":"write","object":1}]}]})",
           R"({"tenant":4294967296,"txns":[{"ops":[{"op":"write","object":1}]}]})",
           R"({"tenant":99999999999999999999,"txns":[{"ops":[{"op":"write","object":1}]}]})",
           R"({"tenant":-1,"txns":[{"ops":[{"op":"write","object":1}]}]})",
           R"({"txns":[{"ops":[{"op":"write","object":1e30}]}]})",
           R"({"txns":[{"ops":[{"op":"write","object":-1e30}]}]})",
           R"({"txns":[{"ops":[{"op":"write","object":2.5}]}]})",
           R"({"txns":[{"ops":[{"op":"write","object":99999999999999999999}]}]})",
       }) {
    EXPECT_EQ(client.Post("/v1/submit", body).status, 400) << body;
  }
  // Unknown route -> 404.
  EXPECT_EQ(client.Get("/nope").status, 404);
  // A valid submission still works after all those rejections.
  EXPECT_EQ(client
                .Post("/v1/submit",
                      R"({"txns":[{"ops":[{"op":"write","object":5}]}]})")
                .status,
            200);
  door.Shutdown();
}

TEST(FrontDoorTest, GlobalCapReturns429WithRetryAfter) {
  FrontDoor::Options options = BaseOptions();
  options.max_inflight_statements = 1;
  FrontDoor door(std::move(options));
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  // Two statements against a cap of one: refused before submission.
  const auto response = client.Post(
      "/v1/submit",
      R"({"txns":[{"ops":[{"op":"write","object":1},)"
      R"({"op":"write","object":2}]}]})");
  EXPECT_EQ(response.status, 429);
  const std::string* retry_after = response.Header("Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");
  EXPECT_EQ(door.metrics().Value("frontdoor_throttled_total",
                                 {{"reason", "global"}}),
            1);
  // A one-statement batch fits.
  EXPECT_EQ(client
                .Post("/v1/submit",
                      R"({"txns":[{"ops":[{"op":"write","object":1}]}]})")
                .status,
            200);
  door.Shutdown();
}

TEST(FrontDoorTest, DrainRefusesNewSubmissions) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  EXPECT_EQ(client.Get("/healthz").status, 200);
  EXPECT_EQ(client.Post("/v1/admin/drain", "").status, 200);
  EXPECT_EQ(client.Get("/healthz").status, 503);
  const auto refused = client.Post(
      "/v1/submit", R"({"txns":[{"ops":[{"op":"write","object":1}]}]})");
  EXPECT_EQ(refused.status, 503);
  ASSERT_NE(refused.Header("Retry-After"), nullptr);
  door.Shutdown();
}

TEST(FrontDoorTest, StatsTenantsAndProtocolsEndpoints) {
  FrontDoor::Options options = BaseOptions();
  options.shard.tenant_qos.tenants[1] = scheduler::TenantQosSpec{};
  FrontDoor door(std::move(options));
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  ASSERT_EQ(client
                .Post("/v1/submit",
                      R"({"tenant":1,"txns":[{"ops":[)"
                      R"({"op":"write","object":2},)"
                      R"({"op":"write","object":4}]}]})")
                .status,
            200);

  const auto stats = client.Get("/v1/stats");
  EXPECT_EQ(stats.status, 200);
  const JsonValue sdoc = ParseBody(stats.body);
  EXPECT_EQ(sdoc.Get("shards")->AsInt64(), 2);
  EXPECT_EQ(sdoc.Get("totals")->Get("dispatched")->AsInt64(), 3);
  EXPECT_EQ(sdoc.Get("totals")->Get("submitted")->AsInt64(), 3);
  EXPECT_EQ(sdoc.Get("inflight_statements")->AsInt64(), 0);
  EXPECT_EQ(sdoc.Get("jobs_inflight")->AsInt64(), 0);

  const auto tenants = client.Get("/v1/tenants");
  EXPECT_EQ(tenants.status, 200);
  const JsonValue tdoc = ParseBody(tenants.body);
  ASSERT_TRUE(tdoc.Get("tenants")->is_array());

  const auto protocols = client.Get("/v1/protocols");
  EXPECT_EQ(protocols.status, 200);
  const JsonValue pdoc = ParseBody(protocols.body);
  EXPECT_GT(pdoc.Get("protocols")->size(), 5u);
  door.Shutdown();
}

TEST(FrontDoorTest, AdaptiveStatsExposePerShardControllerState) {
  // Without the option, /v1/stats still has the adaptive object, disabled.
  {
    FrontDoor door(BaseOptions());
    ASSERT_TRUE(door.Start().ok());
    TestClient client(door.port());
    const JsonValue doc = ParseBody(client.Get("/v1/stats").body);
    ASSERT_TRUE(doc.Get("adaptive") != nullptr);
    EXPECT_FALSE(doc.Get("adaptive")->Get("enabled")->AsBool());
    door.Shutdown();
  }

  scheduler::AdaptiveConsistencyController::Options adaptive;
  adaptive.strict = scheduler::Ss2plNative();
  adaptive.relaxed = scheduler::ReadCommittedNative();
  FrontDoor::Options enabled = BaseOptions();
  enabled.adaptive = adaptive;
  FrontDoor adaptive_door(std::move(enabled));
  ASSERT_TRUE(adaptive_door.Start().ok());
  TestClient client(adaptive_door.port());

  ASSERT_EQ(client
                .Post("/v1/submit",
                      R"({"tenant":1,"txns":[{"ops":[)"
                      R"({"op":"write","object":2}]}]})")
                .status,
            200);

  const JsonValue doc = ParseBody(client.Get("/v1/stats").body);
  const JsonValue* a = doc.Get("adaptive");
  ASSERT_TRUE(a != nullptr);
  EXPECT_TRUE(a->Get("enabled")->AsBool());
  EXPECT_EQ(a->Get("strict")->AsString(), "ss2pl-native");
  EXPECT_EQ(a->Get("relaxed")->AsString(), "read-committed-native");
  ASSERT_EQ(a->Get("shards")->size(), 2u);
  for (const JsonValue& shard : a->Get("shards")->items()) {
    // One tiny batch never crosses the relax threshold: still strict.
    EXPECT_FALSE(shard.Get("relaxed")->AsBool());
    EXPECT_EQ(shard.Get("active_protocol")->AsString(), "ss2pl-native");
    EXPECT_EQ(shard.Get("switches")->AsInt64(), 0);
  }
  EXPECT_EQ(doc.Get("totals")->Get("adaptive_switches")->AsInt64(), 0);
  adaptive_door.Shutdown();
}

TEST(FrontDoorTest, MetricsReconcileWithSchedulerTotals) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  constexpr int kBatches = 20;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_EQ(client
                  .Post("/v1/submit",
                        "{\"txns\":[{\"ops\":[{\"op\":\"write\",\"object\":" +
                            std::to_string(i * 13 % 1000) + "}]}]}")
                  .status,
              200);
  }

  // The registry the scrape renders is the one the scheduler counts into:
  // its counters must agree with the scheduler's own atomics exactly.
  const scheduler::ShardedScheduler::Totals totals = door.sched()->totals();
  observability::MetricsRegistry& metrics = door.metrics();
  EXPECT_EQ(metrics.Value("sched_submitted_total"), totals.submitted);
  EXPECT_EQ(metrics.Value("sched_dispatched_total"), totals.dispatched);
  EXPECT_EQ(metrics.Value("sched_cycles_total"), totals.cycles);
  EXPECT_EQ(metrics.Value("frontdoor_txns_committed_total"), kBatches);
  EXPECT_EQ(metrics.Value("frontdoor_statements_admitted_total"), kBatches);
  EXPECT_EQ(metrics.Value("frontdoor_inflight_statements"), 0);

  // And the HTTP scrape carries the same numbers.
  const auto scrape = client.Get("/metrics");
  EXPECT_EQ(scrape.status, 200);
  ASSERT_NE(scrape.Header("Content-Type"), nullptr);
  EXPECT_NE(scrape.Header("Content-Type")->find("text/plain"),
            std::string::npos);
  EXPECT_NE(scrape.body.find("sched_dispatched_total " +
                             std::to_string(totals.dispatched)),
            std::string::npos);
  EXPECT_NE(scrape.body.find("frontdoor_txns_committed_total " +
                             std::to_string(kBatches)),
            std::string::npos);
  EXPECT_NE(scrape.body.find("# TYPE frontdoor_submit_latency_us histogram"),
            std::string::npos);
  door.Shutdown();
}

TEST(FrontDoorTest, ProtocolSwitchOverHttp) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  ASSERT_EQ(client
                .Post("/v1/submit",
                      R"({"txns":[{"ops":[{"op":"write","object":1}]}]})")
                .status,
            200);

  const auto switched =
      client.Post("/v1/admin/protocol", R"({"protocol":"edf-sql"})");
  EXPECT_EQ(switched.status, 200) << switched.body;
  const JsonValue pdoc = ParseBody(client.Get("/v1/protocols").body);
  EXPECT_EQ(pdoc.Get("active")->AsString(), "edf-sql");

  // Traffic keeps flowing under the new protocol.
  EXPECT_EQ(client
                .Post("/v1/submit",
                      R"({"txns":[{"ops":[{"op":"write","object":8}]}]})")
                .status,
            200);

  // Unknown protocol -> 404, active protocol unchanged.
  EXPECT_EQ(client.Post("/v1/admin/protocol", R"({"protocol":"nope"})").status,
            404);
  EXPECT_EQ(client.Post("/v1/admin/protocol", R"({"x":1})").status, 400);
  door.Shutdown();
}

TEST(FrontDoorTest, ExplainEndpoint) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  TestClient client(door.port());

  const auto explained = client.Get("/v1/admin/explain?protocol=ss2pl-sql");
  EXPECT_EQ(explained.status, 200);
  const JsonValue doc = ParseBody(explained.body);
  EXPECT_EQ(doc.Get("protocol")->AsString(), "ss2pl-sql");
  EXPECT_GT(doc.Get("plan")->AsString().size(), 10u);

  EXPECT_EQ(client.Get("/v1/admin/explain").status, 400);
  EXPECT_EQ(client.Get("/v1/admin/explain?protocol=nope").status, 404);
  door.Shutdown();
}

TEST(FrontDoorTest, ShutdownIsIdempotentAndStopsServing) {
  FrontDoor door(BaseOptions());
  ASSERT_TRUE(door.Start().ok());
  const uint16_t port = door.port();
  {
    TestClient client(port);
    EXPECT_EQ(client.Get("/healthz").status, 200);
  }
  door.Shutdown();
  door.Shutdown();  // idempotent
  // The listener is gone: a fresh connect must fail.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);
}

}  // namespace
}  // namespace declsched::net

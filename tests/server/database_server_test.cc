#include "server/database_server.h"

#include "gtest/gtest.h"

namespace declsched::server {
namespace {

using txn::OpType;

Statement Stmt(OpType op, int64_t object, int64_t ta = 1, int64_t intra = 1) {
  return Statement{ta, intra, op, object};
}

TEST(DatabaseServerTest, ExecutesBatchAndCounts) {
  DatabaseServer::Config config;
  config.num_rows = 100;
  DatabaseServer server(config);
  auto stats = server.ExecuteBatch({Stmt(OpType::kRead, 5), Stmt(OpType::kWrite, 6),
                                    Stmt(OpType::kWrite, 6),
                                    Stmt(OpType::kCommit, -1)});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reads, 1);
  EXPECT_EQ(stats->writes, 2);
  EXPECT_EQ(stats->commits, 1);
  EXPECT_GT(stats->busy.micros(), 0);
  EXPECT_EQ(server.total_statements(), 4);
}

TEST(DatabaseServerTest, WritesIncrementRowValues) {
  DatabaseServer::Config config;
  config.num_rows = 10;
  DatabaseServer server(config);
  ASSERT_TRUE(server.ExecuteBatch({Stmt(OpType::kWrite, 3), Stmt(OpType::kWrite, 3)})
                  .ok());
  auto value = server.RowValue(3);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 2);
  EXPECT_EQ(*server.RowValue(4), 0);
}

TEST(DatabaseServerTest, OutOfRangeRowRejected) {
  DatabaseServer::Config config;
  config.num_rows = 10;
  DatabaseServer server(config);
  EXPECT_TRUE(server.ExecuteBatch({Stmt(OpType::kRead, 10)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(server.ExecuteBatch({Stmt(OpType::kWrite, -2)})
                  .status()
                  .IsInvalidArgument());
}

TEST(DatabaseServerTest, EmptyBatchIsFree) {
  DatabaseServer server(DatabaseServer::Config{});
  auto stats = server.ExecuteBatch({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->busy.micros(), 0);
}

TEST(DatabaseServerTest, BusyTimeScalesWithBatchSize) {
  DatabaseServer::Config config;
  config.num_rows = 1000;
  DatabaseServer server(config);
  StatementBatch small, large;
  for (int i = 0; i < 10; ++i) small.push_back(Stmt(OpType::kRead, i));
  for (int i = 0; i < 100; ++i) large.push_back(Stmt(OpType::kRead, i));
  auto s = server.ExecuteBatch(small);
  auto l = server.ExecuteBatch(large);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(l.ok());
  // Per-statement cost dominates; the fixed dispatch overhead amortizes.
  EXPECT_GT(l->busy.micros(), 9 * s->busy.micros());
  EXPECT_LT(l->busy.micros(), 11 * s->busy.micros());
}

TEST(DatabaseServerTest, TenantBusyAttributesPerStatementCost) {
  DatabaseServer::Config config;
  config.num_rows = 100;
  DatabaseServer server(config);
  StatementBatch batch;
  Statement a = Stmt(OpType::kRead, 1);
  a.tenant = 1;
  Statement b = Stmt(OpType::kRead, 2);
  b.tenant = 2;
  Statement c = Stmt(OpType::kCommit, 0);
  c.tenant = 2;
  batch = {a, b, c};
  ASSERT_TRUE(server.ExecuteBatch(batch).ok());
  EXPECT_EQ(server.tenant_busy(1), config.cost.statement_service);
  EXPECT_EQ(server.tenant_busy(2),
            config.cost.statement_service + config.cost.commit_service);
  EXPECT_EQ(server.tenant_busy(9), SimTime());
}

TEST(DatabaseServerTest, ValidateFirstLeavesFailedBatchUnapplied) {
  DatabaseServer::Config config;
  config.num_rows = 10;
  DatabaseServer server(config);
  // The first statement is valid, the second is out of range: nothing may
  // execute — no partial application, no accounting.
  auto stats =
      server.ExecuteBatch({Stmt(OpType::kWrite, 3), Stmt(OpType::kWrite, 10)});
  EXPECT_TRUE(stats.status().IsInvalidArgument());
  EXPECT_EQ(*server.RowValue(3), 0);
  EXPECT_EQ(server.total_statements(), 0);
  EXPECT_EQ(server.total_busy(), SimTime());
}

TEST(DatabaseServerTest, ValidateStatementChecksWithoutExecuting) {
  DatabaseServer::Config config;
  config.num_rows = 10;
  DatabaseServer server(config);
  EXPECT_TRUE(server.ValidateStatement(Stmt(OpType::kRead, 9)).ok());
  EXPECT_TRUE(server.ValidateStatement(Stmt(OpType::kCommit, -1)).ok());
  EXPECT_TRUE(
      server.ValidateStatement(Stmt(OpType::kRead, 10)).IsInvalidArgument());
  EXPECT_TRUE(
      server.ValidateStatement(Stmt(OpType::kWrite, -1)).IsInvalidArgument());
  EXPECT_EQ(server.total_statements(), 0);
}

TEST(DatabaseServerTest, UnknownTenantRejectedWhenConfigured) {
  DatabaseServer::Config config;
  config.num_rows = 10;
  config.known_tenants = {1, 2};
  DatabaseServer server(config);
  Statement ok = Stmt(OpType::kWrite, 1);
  ok.tenant = 2;
  EXPECT_TRUE(server.ValidateStatement(ok).ok());
  Statement unknown = Stmt(OpType::kWrite, 1);
  unknown.tenant = 7;
  const Status status = server.ValidateStatement(unknown);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("unknown tenant"), std::string::npos);
  EXPECT_TRUE(server.ExecuteBatch({unknown}).status().IsInvalidArgument());
  // An empty allowlist admits any tenant.
  DatabaseServer open(DatabaseServer::Config{});
  EXPECT_TRUE(open.ValidateStatement(unknown).ok());
}

TEST(DatabaseServerTest, BatchSizeLimitEnforced) {
  DatabaseServer::Config config;
  config.num_rows = 100;
  config.max_batch_statements = 2;
  DatabaseServer server(config);
  EXPECT_TRUE(
      server.ExecuteBatch({Stmt(OpType::kRead, 1), Stmt(OpType::kRead, 2)})
          .ok());
  auto too_big = server.ExecuteBatch(
      {Stmt(OpType::kRead, 1), Stmt(OpType::kRead, 2), Stmt(OpType::kRead, 3)});
  EXPECT_TRUE(too_big.status().IsInvalidArgument());
  EXPECT_EQ(server.total_statements(), 2);
}

TEST(DatabaseServerTest, MillionRowTableKeepsData) {
  DatabaseServer::Config config;
  config.num_rows = 1000000;  // flat rows: 8 MB, no per-row allocation
  DatabaseServer server(config);
  auto stats = server.ExecuteBatch({Stmt(OpType::kWrite, 999999)});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->writes, 1);
  EXPECT_EQ(*server.RowValue(999999), 1);
  EXPECT_EQ(*server.RowValue(0), 0);
  EXPECT_TRUE(server.RowValue(1000000).status().IsNotFound());
}

}  // namespace
}  // namespace declsched::server

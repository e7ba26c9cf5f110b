#include "storage/table.h"

#include "gtest/gtest.h"

namespace declsched::storage {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

Row MakeRow(int64_t id, const std::string& name, double score) {
  return {Value::Int64(id), Value::String(name), Value::Double(score)};
}

TEST(TableTest, InsertAndGet) {
  Table t("t", TestSchema());
  auto id = t.Insert(MakeRow(1, "a", 0.5));
  ASSERT_TRUE(id.ok());
  const Row* row = t.Get(*id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[0].AsInt64(), 1);
  EXPECT_EQ((*row)[1].AsString(), "a");
  EXPECT_EQ(t.size(), 1);
}

TEST(TableTest, InsertRejectsWrongArity) {
  Table t("t", TestSchema());
  EXPECT_TRUE(t.Insert({Value::Int64(1)}).status().IsInvalidArgument());
}

TEST(TableTest, InsertRejectsWrongType) {
  Table t("t", TestSchema());
  EXPECT_TRUE(t.Insert({Value::String("x"), Value::String("a"), Value::Double(0)})
                  .status()
                  .IsTypeError());
}

TEST(TableTest, InsertAcceptsNullAnywhere) {
  Table t("t", TestSchema());
  EXPECT_TRUE(t.Insert({Value::Null(), Value::Null(), Value::Null()}).ok());
}

TEST(TableTest, InsertAcceptsNumericCoercion) {
  Table t("t", TestSchema());
  // Int into double column and vice versa is allowed (dynamic numerics).
  EXPECT_TRUE(t.Insert({Value::Int64(1), Value::String("a"), Value::Int64(2)}).ok());
  EXPECT_TRUE(t.Insert({Value::Double(1.0), Value::String("a"), Value::Double(2)}).ok());
}

TEST(TableTest, DeleteTombstones) {
  Table t("t", TestSchema());
  RowId a = *t.Insert(MakeRow(1, "a", 1));
  RowId b = *t.Insert(MakeRow(2, "b", 2));
  ASSERT_TRUE(t.Delete(a).ok());
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.Get(a), nullptr);
  EXPECT_NE(t.Get(b), nullptr);
  // Double delete fails.
  EXPECT_TRUE(t.Delete(a).IsNotFound());
  EXPECT_TRUE(t.Delete(999).IsNotFound());
}

TEST(TableTest, UpdateReplacesRow) {
  Table t("t", TestSchema());
  RowId a = *t.Insert(MakeRow(1, "a", 1));
  ASSERT_TRUE(t.Update(a, MakeRow(1, "z", 9)).ok());
  EXPECT_EQ((*t.Get(a))[1].AsString(), "z");
  EXPECT_TRUE(t.Update(999, MakeRow(0, "", 0)).IsNotFound());
}

TEST(TableTest, ScanReturnsLiveRowsInInsertionOrder) {
  Table t("t", TestSchema());
  RowId a = *t.Insert(MakeRow(1, "a", 1));
  t.Insert(MakeRow(2, "b", 2)).ValueOrDie();
  t.Insert(MakeRow(3, "c", 3)).ValueOrDie();
  ASSERT_TRUE(t.Delete(a).ok());
  auto rows = t.Scan();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 2);
  EXPECT_EQ(rows[1][0].AsInt64(), 3);
}

TEST(TableTest, DeleteWhere) {
  Table t("t", TestSchema());
  for (int i = 0; i < 10; ++i) t.Insert(MakeRow(i, "a", i)).ValueOrDie();
  const int64_t removed =
      t.DeleteWhere([](const Row& row) { return row[0].AsInt64() % 2 == 0; });
  EXPECT_EQ(removed, 5);
  EXPECT_EQ(t.size(), 5);
}

TEST(TableTest, ClearKeepsSchema) {
  Table t("t", TestSchema());
  t.Insert(MakeRow(1, "a", 1)).ValueOrDie();
  t.Clear();
  EXPECT_EQ(t.size(), 0);
  t.Insert(MakeRow(2, "b", 2)).ValueOrDie();
  EXPECT_EQ(t.size(), 1);
}

TEST(TableTest, AutoVacuumCompactsDecayedHeap) {
  Table t("t", TestSchema());
  for (int i = 0; i < 1000; ++i) t.Insert(MakeRow(i, "a", i)).ValueOrDie();
  EXPECT_EQ(t.slot_count(), 1000);
  // DeleteWhere leaves mostly tombstones behind -> auto-vacuum kicks in.
  const int64_t removed =
      t.DeleteWhere([](const Row& row) { return row[0].AsInt64() < 900; });
  EXPECT_EQ(removed, 900);
  EXPECT_EQ(t.size(), 100);
  EXPECT_EQ(t.slot_count(), 100);  // compacted, not tombstoned
  // Survivors keep their values and relative iteration order.
  int64_t expect = 900;
  t.ForEach([&](RowId, const Row& row) {
    EXPECT_EQ(row[0].AsInt64(), expect);
    ++expect;
  });
  EXPECT_EQ(expect, 1000);
}

TEST(TableTest, AutoVacuumRespectsMinSlots) {
  Table t("t", TestSchema());
  for (int i = 0; i < 100; ++i) t.Insert(MakeRow(i, "a", i)).ValueOrDie();
  // Below the 256-slot default floor: tombstones are cheaper than a vacuum.
  t.DeleteWhere([](const Row& row) { return row[0].AsInt64() < 90; });
  EXPECT_EQ(t.size(), 10);
  EXPECT_EQ(t.slot_count(), 100);
  EXPECT_FALSE(t.MaybeVacuum());
}

TEST(TableTest, AutoVacuumCanBeDisabledAndTriggeredManually) {
  Table t("t", TestSchema());
  t.SetAutoVacuum(/*live_ratio=*/0.0, /*min_slots=*/0);
  for (int i = 0; i < 1000; ++i) t.Insert(MakeRow(i, "a", i)).ValueOrDie();
  t.DeleteWhere([](const Row& row) { return row[0].AsInt64() != 0; });
  EXPECT_EQ(t.slot_count(), 1000);  // disabled: full tombstone heap remains
  EXPECT_FALSE(t.MaybeVacuum());
  t.SetAutoVacuum(/*live_ratio=*/0.5, /*min_slots=*/256);
  EXPECT_TRUE(t.MaybeVacuum());
  EXPECT_EQ(t.slot_count(), 1);
  EXPECT_EQ(t.size(), 1);
}

TEST(TableTest, SingleRowDeleteNeverAutoVacuums) {
  // Delete() callers may hold RowIds from an earlier scan; only bulk-delete
  // boundaries are allowed to compact.
  Table t("t", TestSchema());
  std::vector<RowId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(*t.Insert(MakeRow(i, "a", i)));
  for (int i = 0; i < 999; ++i) ASSERT_TRUE(t.Delete(ids[i]).ok());
  EXPECT_EQ(t.slot_count(), 1000);  // RowIds stayed valid throughout
  EXPECT_NE(t.Get(ids[999]), nullptr);
  EXPECT_TRUE(t.MaybeVacuum());
  EXPECT_EQ(t.slot_count(), 1);
}

TEST(TableTest, VacuumCompacts) {
  Table t("t", TestSchema());
  for (int i = 0; i < 100; ++i) t.Insert(MakeRow(i, "a", i)).ValueOrDie();
  t.DeleteWhere([](const Row& row) { return row[0].AsInt64() < 90; });
  t.Vacuum();
  EXPECT_EQ(t.size(), 10);
  EXPECT_EQ(t.slot_count(), 10);
}

}  // namespace
}  // namespace declsched::storage

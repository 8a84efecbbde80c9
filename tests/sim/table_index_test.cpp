#include "table_index.hpp"

#include <gtest/gtest.h>

#include "relational/error.hpp"

namespace ccsql::oracle {
namespace {

Table sample() {
  Table t(Schema::of({"inmsg", "st", "out"}));
  t.append({V("req"), V("idle"), V("grant")});
  t.append({V("req"), V("busy"), V("retry")});
  t.append({V("resp"), V("busy"), V("done")});
  return t;
}

TEST(TableIndex, FindsUniqueRow) {
  Table t = sample();
  TableIndex idx(t, {"inmsg", "st"});
  auto row = idx.find({V("req"), V("busy")});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(idx.at(*row, "out"), V("retry"));
  EXPECT_FALSE(idx.find({V("resp"), V("idle")}).has_value());
}

TEST(TableIndex, SingleColumnKey) {
  Table t(Schema::of({"inmsg", "out"}));
  t.append({V("a"), V("x")});
  t.append({V("b"), V("y")});
  TableIndex idx(t, {"inmsg"});
  EXPECT_TRUE(idx.find({V("a")}).has_value());
}

TEST(TableIndex, DuplicateKeyRejected) {
  Table t(Schema::of({"inmsg", "out"}));
  t.append({V("a"), V("x")});
  t.append({V("a"), V("y")});
  EXPECT_THROW(TableIndex(t, {"inmsg"}), Error);
}

TEST(TableIndex, UnknownKeyColumnRejected) {
  Table t = sample();
  EXPECT_THROW(TableIndex(t, {"nope"}), BindError);
}

TEST(TableIndex, NullValuesInKeysWork) {
  Table t(Schema::of({"inmsg", "out"}));
  t.append({null_value(), V("x")});
  t.append({V("a"), V("y")});
  TableIndex idx(t, {"inmsg"});
  auto row = idx.find({null_value()});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(idx.at(*row, "out"), V("x"));
}

}  // namespace
}  // namespace ccsql::oracle

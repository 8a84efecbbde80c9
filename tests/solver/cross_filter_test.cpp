// The fused cross+filter kernel against the naive reference
// (oracle::cross_select_naive: materialise Table::cross, then filter it
// row by row with the interpreted walk).  Every comparison is on the CSV
// rendering, so the kernel must reproduce the oracle's rows in exactly its
// order: left-major, then right order.

#include "solver/cross_filter.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "naive_oracle.hpp"
#include "random_sql.hpp"
#include "relational/error.hpp"
#include "relational/format.hpp"
#include "relational/parser.hpp"

namespace ccsql {
namespace {

/// Runs the kernel and the oracle on the same inputs and compares them in
/// row order; returns the kernel's result.
Table expect_matches_oracle(const Table& left, const Table& right,
                            const std::string& pred_text,
                            const Schema& ident,
                            const FunctionRegistry* functions = nullptr) {
  const Expr pred = parse_expr(pred_text);
  Table fused = cross_filter(left, right, pred, ident, functions);
  EXPECT_EQ(to_csv(fused),
            to_csv(oracle::cross_select_naive(left, right, pred, ident,
                                              functions)))
      << pred_text;
  return fused;
}

/// A one-column table holding `n` cells that cycle through `pool`.
Table cycling_column(const std::string& name, std::size_t n,
                     const std::vector<std::string>& pool) {
  Table t(Schema::of({name}));
  for (std::size_t i = 0; i < n; ++i) t.append_texts({pool[i % pool.size()]});
  return t;
}

TEST(CrossSelect, MatchesNaiveCrossPlusFilter) {
  Table left(Schema::of({"x", "y"}));
  left.append_texts({"a", "1"});
  left.append_texts({"b", "2"});
  left.append_texts({"c", "1"});
  Table right(Schema::of({"z"}));
  right.append_texts({"1"});
  right.append_texts({"2"});
  right.append_texts({"3"});
  const SchemaPtr full = Schema::of({"x", "y", "z"});
  const Table t =
      expect_matches_oracle(left, right, "y = z and not x = c", *full);
  EXPECT_EQ(t.row_count(), 2u);  // (a, 1, 1) and (b, 2, 2)
}

TEST(CrossSelect, EqualityJoinMatchesNaive) {
  Table l(Schema::of({"a"}));
  l.append({V("x")});
  l.append({V("y")});
  Table r(Schema::of({"b"}));
  r.append({V("x")});
  r.append({V("z")});
  const SchemaPtr full = Schema::of({"a", "b"});
  const Table joined = expect_matches_oracle(l, r, "a = b", *full);
  ASSERT_EQ(joined.row_count(), 1u);
  EXPECT_EQ(joined.at(0, "a"), V("x"));
  EXPECT_EQ(joined.at(0, "b"), V("x"));
}

class CrossSelectProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrossSelectProperty, MatchesNaiveCrossPlusFilter) {
  testgen::Rng rng(GetParam() + 3000);
  const std::vector<std::string> all = {"p", "q", "r"};
  for (int iter = 0; iter < 60; ++iter) {
    const Table left = testgen::random_table(rng, {"p", "q"});
    const Table right = testgen::random_table(rng, {"r"});
    const SchemaPtr full = Schema::of(all);
    expect_matches_oracle(left, right, testgen::random_predicate(rng, all),
                          *full);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSelectProperty,
                         ::testing::Values(7u, 42u, 20260806u));

TEST(CrossSelect, EmptyPrefixIsTheFirstColumnStep) {
  // Generation starts from the 0-column, 1-row unit table.
  const Table dom = cycling_column("m", 4, {"readex", "data", "wb", "NULL"});
  const SchemaPtr full = Schema::of({"m", "n"});
  const Table t =
      expect_matches_oracle(Table::unit(), dom, "m != data", *full);
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.column_count(), 1u);
}

TEST(CrossSelect, EmptyInputsYieldEmptyProductWithItsSchema) {
  const SchemaPtr full = Schema::of({"p", "r"});
  const Table none(Schema::of({"p"}));
  const Table dom = cycling_column("r", 3, {"v0", "v1"});
  const Table a = expect_matches_oracle(none, dom, "p = r", *full);
  EXPECT_EQ(a.row_count(), 0u);
  EXPECT_EQ(a.column_count(), 2u);
  const Table b = expect_matches_oracle(dom.renamed("r", "p"),
                                        Table(Schema::of({"r"})), "p = r",
                                        *full);
  EXPECT_EQ(b.row_count(), 0u);
}

TEST(CrossSelect, ConjunctOverPrefixColumnsOnly) {
  // A constraint can become ready at a column it does not mention (it waits
  // for the last of its columns); here the filter reads only the prefix.
  Table left(Schema::of({"p", "q"}));
  left.append_texts({"v0", "v0"});
  left.append_texts({"v0", "v1"});
  left.append_texts({"v1", "v1"});
  const Table dom = cycling_column("r", 3, {"v0", "v1", "v2"});
  const SchemaPtr full = Schema::of({"p", "q", "r"});
  const Table t = expect_matches_oracle(left, dom, "p = q", *full);
  EXPECT_EQ(t.row_count(), 6u);
}

TEST(CrossSelect, ColumnFreeConstraintKeepsTheWholeProduct) {
  Table left(Schema::of({"p"}));
  left.append_texts({"v0"});
  left.append_texts({"v1"});
  const Table dom = cycling_column("r", 3, {"v0", "v1", "v2"});
  const SchemaPtr full = Schema::of({"p", "r"});
  EXPECT_EQ(expect_matches_oracle(left, dom, "true", *full).row_count(), 6u);
  EXPECT_EQ(expect_matches_oracle(left, dom, "false", *full).row_count(), 0u);
}

TEST(CrossSelect, RegistryPredicate) {
  FunctionRegistry fns;
  fns.add_unary("isrequest",
                [](Value v) { return v == V("readex") || v == V("wb"); });
  const Table left = cycling_column("m", 5, {"readex", "data", "wb", "idone"});
  const Table dom = cycling_column("act", 3, {"queue", "drop", "NULL"});
  const SchemaPtr full = Schema::of({"m", "act"});
  const Table t = expect_matches_oracle(
      left, dom, "isrequest(m) ? act = queue : act != queue", *full, &fns);
  EXPECT_EQ(t.row_count(), 3u + 2u * 2u);
  // Unknown functions are a bind error, as for any compiled predicate.
  EXPECT_THROW((void)cross_filter(left, dom, parse_expr("nosuch(m)"), *full,
                                  &fns),
               BindError);
}

TEST(CrossSelect, NullCellsCompareAsOrdinaryValues) {
  Table left(Schema::of({"inmsg", "dirst"}));
  left.append({V("readex"), null_value()});
  left.append({null_value(), V("SI")});
  left.append({V("wb"), V("MESI")});
  const Table dom = cycling_column("remmsg", 3, {"NULL", "sinv", "sinv"});
  const SchemaPtr full = Schema::of({"inmsg", "dirst", "remmsg"});
  expect_matches_oracle(left, dom, "dirst = NULL ? remmsg = sinv : remmsg = NULL",
                        *full);
  expect_matches_oracle(left, dom, "inmsg = remmsg", *full);
  expect_matches_oracle(left, dom, "remmsg != NULL and inmsg != NULL", *full);
}

TEST(CrossSelect, CandidateCountsAcrossBatchEdges) {
  // left rows x right rows = 1023, 1024, 1025 and 3000 candidates: one
  // short batch, one exact batch, one row past it (the boundary falls inside
  // a left row's run of right values), and several batches.
  const std::vector<std::string> pool = {"v0", "v1", "v2", "v3", "v4", "NULL"};
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {33, 31}, {32, 32}, {25, 41}, {1, 1025}, {1025, 1}, {100, 30}};
  const SchemaPtr full = Schema::of({"p", "q", "r"});
  for (const auto& [ln, rn] : shapes) {
    Table left(Schema::of({"p", "q"}));
    for (std::size_t i = 0; i < ln; ++i) {
      left.append_texts({pool[i % pool.size()], pool[(i / 2) % pool.size()]});
    }
    const Table right = cycling_column("r", rn, {"v3", "v0", "NULL", "v1"});
    SCOPED_TRACE(std::to_string(ln) + " x " + std::to_string(rn));
    expect_matches_oracle(left, right, "p = r or q = v2", *full);
    expect_matches_oracle(left, right, "p = v1 ? r != q : r in (v0, v3)",
                          *full);
    expect_matches_oracle(left, right, "r != v0", *full);
  }
}

TEST(CrossSelect, OverlappingColumnNamesAreASchemaError) {
  const Table a = cycling_column("p", 2, {"v0"});
  const SchemaPtr full = Schema::of({"p"});
  EXPECT_THROW((void)cross_filter(a, a, parse_expr("true"), *full),
               SchemaError);
}

}  // namespace
}  // namespace ccsql

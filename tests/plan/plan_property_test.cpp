// Property tests: the planned executor must agree with the naive reference
// executor (oracle::run_naive) on randomized tables and predicates, for
// every fixed seed.  Any divergence is a planner bug by definition — the
// naive path is the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "naive_oracle.hpp"
#include "plan/planner.hpp"
#include "random_sql.hpp"
#include "relational/query.hpp"

namespace ccsql {
namespace {

using testgen::chance;
using testgen::pick;
using testgen::random_predicate;
using testgen::random_table;
using testgen::Rng;

/// Projection list: subset of `cols`, star, or COUNT(*).
std::string random_projection(Rng& rng, const std::vector<std::string>& cols,
                              std::vector<std::string>* chosen) {
  chosen->clear();
  if (chance(rng, 0.15)) return "count(*)";
  if (chance(rng, 0.2)) {
    *chosen = cols;
    return "*";
  }
  // Distinct columns: duplicate names in a projection are a schema error.
  std::vector<std::string> pool = cols;
  std::shuffle(pool.begin(), pool.end(), rng);
  std::string s;
  const std::size_t n = 1 + pick(rng, cols.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) s += ", ";
    s += pool[i];
    chosen->push_back(pool[i]);
  }
  return s;
}

std::string random_select(Rng& rng, const std::string& from,
                          const std::vector<std::string>& cols) {
  std::vector<std::string> chosen;
  std::string proj = random_projection(rng, cols, &chosen);
  std::string q = "select ";
  if (proj != "count(*)" && chance(rng, 0.3)) q += "distinct ";
  q += proj + " from " + from;
  if (chance(rng, 0.9)) q += " where " + random_predicate(rng, cols);
  if (!chosen.empty() && proj != "count(*)" && chance(rng, 0.3)) {
    q += " order by " + chosen[pick(rng, chosen.size())];
  }
  return q;
}

void expect_planned_matches_naive(const Catalog& db, const std::string& sql) {
  SelectStmt stmt = parse_select(sql);
  Table planned = plan::run_select(db, stmt);
  Table naive = oracle::run_naive(db, stmt);
  EXPECT_EQ(planned.row_count(), naive.row_count()) << sql;
  EXPECT_TRUE(planned.set_equal(naive)) << sql;
  EXPECT_EQ(plan::is_empty(db, stmt), naive.row_count() == 0) << sql;
}

class PlanPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlanPropertyTest, SingleTableQueries) {
  Rng rng(GetParam());
  const std::vector<std::string> cols = {"a0", "a1", "a2"};
  for (int iter = 0; iter < 60; ++iter) {
    Catalog db;
    db.put("A", random_table(rng, cols));
    expect_planned_matches_naive(db, random_select(rng, "A", cols));
  }
}

TEST_P(PlanPropertyTest, AliasedTwoTableQueries) {
  Rng rng(GetParam() + 1000);
  const std::vector<std::string> a_cols = {"a0", "a1"};
  const std::vector<std::string> b_cols = {"b0", "b1"};
  const std::vector<std::string> visible = {"x.a0", "x.a1", "y.b0", "y.b1"};
  for (int iter = 0; iter < 60; ++iter) {
    Catalog db;
    db.put("A", random_table(rng, a_cols));
    db.put("B", random_table(rng, b_cols));
    expect_planned_matches_naive(db,
                                 random_select(rng, "A x, B y", visible));
  }
}

TEST_P(PlanPropertyTest, UnionQueries) {
  Rng rng(GetParam() + 2000);
  const std::vector<std::string> cols = {"a0", "a1", "a2"};
  for (int iter = 0; iter < 40; ++iter) {
    Catalog db;
    db.put("A", random_table(rng, cols));
    // Same arity on both branches; positions align the union.
    std::string q = "select a0, a1 from A where " +
                    random_predicate(rng, cols) +
                    " union select a1, a2 from A where " +
                    random_predicate(rng, cols);
    expect_planned_matches_naive(db, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanPropertyTest,
                         ::testing::Values(7u, 42u, 20260806u));

}  // namespace
}  // namespace ccsql

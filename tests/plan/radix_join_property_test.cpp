// Differential pin: the radix-partitioned hash join must be byte-identical
// to a plain nested-loop reference join computed here, at every jobs level.
// Seeded inputs large enough to cross the radix threshold (build side >=
// 8192 rows) make the partitioned path actually exercise multi-partition
// build + probe.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "relational/database.hpp"
#include "relational/format.hpp"
#include "relational/table.hpp"

namespace ccsql {
namespace {

Table seeded_table(std::uint32_t seed, std::size_t rows, std::size_t keys,
                   const char* payload_prefix) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> key(0, keys - 1);
  Table t(Schema::of({"k1", "k2", std::string(payload_prefix) + "p"}));
  t.reserve_rows(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t k = key(rng);
    t.append({V("a" + std::to_string(k % 97)),
              V("b" + std::to_string(k / 97)),
              V(payload_prefix + std::to_string(i % 1024))});
  }
  return t;
}

Table left_input() {
  return seeded_table(/*seed=*/7, /*rows=*/10000, /*keys=*/4096, "l");
}
// Build side (right) crosses the 8192-row radix threshold.
Table right_input() {
  return seeded_table(/*seed=*/11, /*rows=*/16384, /*keys=*/4096, "r");
}

using Pairs = std::vector<std::pair<Value, Value>>;

/// (lp, rp) for every matching (left row, right row), left rows in table
/// order and, within one left row, right rows in table order — the order
/// the hash join's probe emits.
Pairs reference_join(const Table& l, const Table& r) {
  std::map<std::pair<Value, Value>, std::vector<std::size_t>> by_key;
  for (std::size_t j = 0; j < r.row_count(); ++j) {
    by_key[{r.at(j, 0), r.at(j, 1)}].push_back(j);
  }
  Pairs out;
  for (std::size_t i = 0; i < l.row_count(); ++i) {
    const auto it = by_key.find({l.at(i, 0), l.at(i, 1)});
    if (it == by_key.end()) continue;
    for (std::size_t j : it->second) out.emplace_back(l.at(i, 2), r.at(j, 2));
  }
  return out;
}

Pairs run_join(std::size_t jobs) {
  Database db;
  db.put("L", left_input());
  db.put("R", right_input());
  db.set_jobs(jobs);
  const QueryResult res = db.query(
      "select l.lp, r.rp from L l, R r "
      "where l.k1 = r.k1 and l.k2 = r.k2");
  Pairs out;
  for (std::size_t i = 0; i < res.row_count(); ++i) {
    out.emplace_back(res.column(0)[i], res.column(1)[i]);
  }
  return out;
}

TEST(RadixJoin, MatchesSinglePartitionAtEveryJobsLevel) {
  const Pairs reference = reference_join(left_input(), right_input());
  ASSERT_GT(reference.size(), 0u);
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    EXPECT_EQ(run_join(jobs), reference)
        << "radix join diverged at jobs=" << jobs;
  }
}

TEST(RadixJoin, BuildsMultiplePartitionsAboveThreshold) {
  Table r = seeded_table(/*seed=*/11, /*rows=*/16384, /*keys=*/4096, "r");
  const std::vector<std::size_t> cols{0, 1};
  const JoinIndex& idx = r.join_index_on(cols, /*jobs=*/4);
  EXPECT_GT(idx.partitions(), 1u);
  EXPECT_EQ(idx.row_count(), r.row_count());
}

TEST(RadixJoin, SmallBuildSideStaysSinglePartition) {
  Table r = seeded_table(/*seed=*/3, /*rows=*/512, /*keys=*/64, "r");
  const std::vector<std::size_t> cols{0, 1};
  const JoinIndex& idx = r.join_index_on(cols, /*jobs=*/4);
  EXPECT_EQ(idx.partitions(), 1u);
}

}  // namespace
}  // namespace ccsql

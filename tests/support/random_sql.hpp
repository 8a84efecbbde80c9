#pragma once

// Random tables and WHERE-clause predicates over a small shared value pool,
// for the property tests that compare an engine against the naive oracle
// (planner queries, the solver's cross_filter kernel).  Deterministic for
// a given std::mt19937 seed.

#include <random>
#include <string>
#include <vector>

#include "relational/table.hpp"

namespace ccsql::testgen {

using Rng = std::mt19937;

inline std::size_t pick(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

inline bool chance(Rng& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

inline const std::vector<std::string> kValues = {"v0", "v1", "v2", "v3",
                                                 "v4"};

/// A table with `cols` columns and up to 25 rows of values drawn from the
/// small shared pool, so random equalities hit often enough to matter.
inline Table random_table(Rng& rng, const std::vector<std::string>& cols) {
  Table t(Schema::of(cols));
  const std::size_t rows = pick(rng, 26);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    row.reserve(cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
      row.push_back(kValues[pick(rng, kValues.size())]);
    }
    t.append_texts(row);
  }
  return t;
}

inline std::string random_value(Rng& rng) {
  // Bare and quoted spellings intern to the same symbol; exercise both.
  const std::string& v = kValues[pick(rng, kValues.size())];
  return chance(rng, 0.3) ? "\"" + v + "\"" : v;
}

/// One comparison / membership leaf over `cols`.
inline std::string random_leaf(Rng& rng,
                               const std::vector<std::string>& cols) {
  const std::string& col = cols[pick(rng, cols.size())];
  std::string s;
  switch (pick(rng, 5)) {
    case 0:
      s = col + " = " + random_value(rng);
      break;
    case 1:
      s = col + " != " + random_value(rng);
      break;
    case 2:  // column = column (the hash-join shape when it spans tables)
      s = col + " = " + cols[pick(rng, cols.size())];
      break;
    case 3:
      s = col + " in (" + random_value(rng) + ", " + random_value(rng) + ")";
      break;
    default:
      s = "not " + col + " = " + random_value(rng);
      break;
  }
  return s;
}

inline std::string join_leaves(Rng& rng, const std::vector<std::string>& cols,
                               const char* op) {
  const std::size_t n = 2 + pick(rng, 2);
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) s += std::string(" ") + op + " ";
    s += random_leaf(rng, cols);
  }
  return s;
}

/// A random WHERE clause: a leaf, a conjunction, a disjunction, or a ternary
/// (the shape of the paper's column constraints).  The grammar has no
/// parentheses, so nesting stays within what the parser accepts.
inline std::string random_predicate(Rng& rng,
                                    const std::vector<std::string>& cols) {
  switch (pick(rng, 5)) {
    case 0:
      return random_leaf(rng, cols);
    case 1:
      return join_leaves(rng, cols, "and");
    case 2:
      return join_leaves(rng, cols, "or");
    case 3:
      return random_leaf(rng, cols) + " ? " + join_leaves(rng, cols, "and") +
             " : " + join_leaves(rng, cols, "or");
    default:
      // Constant-foldable condition.
      return std::string(chance(rng, 0.5) ? "true" : "false") + " ? " +
             random_leaf(rng, cols) + " : " + random_leaf(rng, cols);
  }
}

}  // namespace ccsql::testgen

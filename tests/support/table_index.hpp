#pragma once

// The original string-keyed controller-table index, kept as the lookup
// oracle for sim::ControllerDispatch (tests/sim/dispatch_test.cpp).  Only
// tests link it (the ccsql_test_oracle library).

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/table.hpp"

namespace ccsql::oracle {

/// Hash index over selected key columns of a controller table: the unique
/// row matching a controller's current input and state.  Duplicate key
/// tuples are rejected at construction — a controller table that is
/// ambiguous under its lookup key cannot drive hardware (or a simulator).
class TableIndex {
 public:
  TableIndex(const Table& table, std::vector<std::string> key_columns);

  /// Row index for the key values (same order as key_columns), or nullopt
  /// if the table has no such row (an illegal input combination — a
  /// specification incompleteness the simulator reports as an error).
  [[nodiscard]] std::optional<std::size_t> find(
      const std::vector<Value>& key) const;

  [[nodiscard]] const Table& table() const noexcept { return *table_; }

  /// Cell accessor for a found row.
  [[nodiscard]] Value at(std::size_t row, std::string_view column) const {
    return table_->at(row, table_->schema().index_of(column));
  }

  /// Lifetime lookup counters (observability; see ccsql::obs).
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  static std::string key_string(const std::vector<Value>& key);

  const Table* table_;
  std::vector<std::size_t> key_cols_;
  std::unordered_map<std::string, std::size_t> index_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace ccsql::oracle

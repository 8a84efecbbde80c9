#include "table_index.hpp"

#include "relational/error.hpp"

namespace ccsql::oracle {

TableIndex::TableIndex(const Table& table,
                       std::vector<std::string> key_columns)
    : table_(&table) {
  key_cols_.reserve(key_columns.size());
  for (const auto& name : key_columns) {
    key_cols_.push_back(table.schema().index_of(name));
  }
  std::vector<ColumnView> cols;
  cols.reserve(key_cols_.size());
  for (std::size_t c : key_cols_) cols.push_back(table.column(c));
  std::vector<Value> key(key_cols_.size());
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    for (std::size_t k = 0; k < key_cols_.size(); ++k) {
      key[k] = cols[k][r];
    }
    if (!index_.emplace(key_string(key), r).second) {
      throw Error("TableIndex: duplicate key tuple at row " +
                  std::to_string(r));
    }
  }
}

std::optional<std::size_t> TableIndex::find(
    const std::vector<Value>& key) const {
  auto it = index_.find(key_string(key));
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

std::string TableIndex::key_string(const std::vector<Value>& key) {
  std::string s;
  for (Value v : key) {
    s += std::to_string(v.id());
    s += ',';
  }
  return s;
}

}  // namespace ccsql::oracle

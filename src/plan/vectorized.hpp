#pragma once

// Vectorized batch execution for the plan operators (DESIGN.md section 10).
//
// RowFilter is the executor's one predicate object: it compiles a resolved
// Expr into a bytecode program and filters row-index ranges or selection
// vectors with it.
//
// The batch path walks the table in batches of kBatchRows rows, seeds a
// dense selection vector per batch, and lets the bytecode program refine it
// (bc::Program::eval_batch).  Row-index output keeps table order, so the
// selection a batch produces is byte-identical to a row-at-a-time scan —
// including under a row budget, where the filter stops at exactly the row
// that fills the limit.
//
// Morsels and batches share the same 1024-row grain: a parallel morsel is
// one batch, so the parallel and serial paths see identical batch
// boundaries and emit identical selections.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "relational/bytecode.hpp"
#include "relational/expr.hpp"
#include "relational/table.hpp"

namespace ccsql::plan::vec {

/// Rows per evaluation batch; equal to the executor's morsel grain so a
/// morsel is exactly one batch.
inline constexpr std::size_t kBatchRows = 1024;

class RowFilter {
 public:
  /// Compiles `expr` for rows of `row_schema` (identifier-hood from
  /// `full_schema`).
  RowFilter(const Expr& expr, const Schema& row_schema,
            const Schema& full_schema, const FunctionRegistry* functions)
      : prog_(compile_bytecode(expr, row_schema, full_schema, functions)) {}

  /// Distinct columns this predicate reads per row, at most `width` — the
  /// bytes-touched basis for EXPLAIN ANALYZE.
  [[nodiscard]] std::size_t columns_read(std::size_t width) const {
    return std::min(prog_.columns_read(), width);
  }

 private:
  friend std::size_t filter_rows(std::span<const RowFilter* const> chain,
                                 std::span<const Value* const> cols,
                                 const std::size_t* rows, std::size_t begin,
                                 std::size_t end, std::size_t limit,
                                 bc::Sel& out);

  bc::Program prog_;
};

/// Filters rows of one table through the conjunctive chain `chain` (non-
/// empty, innermost filter first, all compiled against that table's
/// schema), kBatchRows positions at a time.  Position p in [begin, end)
/// names row rows[p], or row p itself when `rows` is null; `rows` must be
/// ascending (an index bucket).  `cols` holds the table's column base
/// pointers (Table::column_ptrs).  Appends the surviving rows to `out` in
/// order, stopping once `limit` have been appended, and returns the
/// positions visited: up to and including the one that filled `limit`,
/// else end - begin.  Selection buffers are thread-local, so a warm call
/// allocates nothing beyond what `out` grows by.
std::size_t filter_rows(std::span<const RowFilter* const> chain,
                        std::span<const Value* const> cols,
                        const std::size_t* rows, std::size_t begin,
                        std::size_t end, std::size_t limit, bc::Sel& out);

}  // namespace ccsql::plan::vec

#include "solver/cross_filter.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "plan/vectorized.hpp"
#include "relational/bytecode.hpp"

namespace ccsql {
namespace {

// Candidate c pairs left row c / rn with right row c % rn (rn = right's row
// count).  These fill dst[0, count) with one column's cells for the
// candidates [c0, c0 + count): a left column repeats each cell rn times, a
// right column tiles whole.

void gather_left(const Value* src, std::size_t rn, std::size_t c0,
                 std::size_t count, Value* dst) {
  std::size_t li = c0 / rn;
  std::size_t ri = c0 % rn;
  for (std::size_t k = 0; k < count; ++li, ri = 0) {
    const std::size_t run = std::min(rn - ri, count - k);
    std::fill_n(dst + k, run, src[li]);
    k += run;
  }
}

void gather_right(const Value* src, std::size_t rn, std::size_t c0,
                  std::size_t count, Value* dst) {
  std::size_t ri = c0 % rn;
  for (std::size_t k = 0; k < count; ri = 0) {
    const std::size_t run = std::min(rn - ri, count - k);
    std::copy_n(src + ri, run, dst + k);
    k += run;
  }
}

}  // namespace

Table cross_filter(const Table& left, const Table& right, const Expr& pred,
                   const Schema& ident_schema,
                   const FunctionRegistry* functions) {
  std::vector<Column> cols = left.schema().columns();
  for (const Column& c : right.schema().columns()) cols.push_back(c);
  const SchemaPtr schema = make_schema(std::move(cols));  // disjoint names
  const bc::Program prog =
      compile_bytecode(pred, *schema, ident_schema, functions);

  // One batch buffer per column the program reads; the pointer array the
  // program indexes by schema position leaves every other column null.
  const std::vector<std::uint32_t> reads = prog.columns();
  std::vector<std::vector<Value>> bufs(
      reads.size(), std::vector<Value>(plan::vec::kBatchRows));
  std::vector<const Value*> ptrs(schema->size(), nullptr);
  for (std::size_t k = 0; k < reads.size(); ++k) {
    ptrs[reads[k]] = bufs[k].data();
  }

  const std::size_t lw = left.column_count();
  const std::size_t rn = right.row_count();
  const std::size_t n = left.row_count() * rn;
  bc::Sel lsel;
  bc::Sel rsel;
  bc::Sel pass;
  bc::Scratch scratch;
  for (std::size_t c0 = 0; c0 < n; c0 += plan::vec::kBatchRows) {
    const std::size_t count = std::min(plan::vec::kBatchRows, n - c0);
    for (std::size_t k = 0; k < reads.size(); ++k) {
      const std::size_t j = reads[k];
      if (j < lw) {
        gather_left(left.column_data(j), rn, c0, count, bufs[k].data());
      } else {
        gather_right(right.column_data(j - lw), rn, c0, count,
                     bufs[k].data());
      }
    }
    prog.eval_range(ptrs, 0, static_cast<std::uint32_t>(count), pass,
                    scratch);
    for (const std::uint32_t i : pass) {
      const std::size_t c = c0 + i;
      lsel.push_back(static_cast<std::uint32_t>(c / rn));
      rsel.push_back(static_cast<std::uint32_t>(c % rn));
    }
  }
  return Table::hcat(schema, left.gather(lsel), right.gather(rsel));
}

}  // namespace ccsql

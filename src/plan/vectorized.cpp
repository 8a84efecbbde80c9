#include "plan/vectorized.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"

namespace ccsql::plan::vec {

std::size_t filter_rows(std::span<const RowFilter* const> chain,
                        std::span<const Value* const> cols,
                        const std::size_t* rows, std::size_t begin,
                        std::size_t end, std::size_t limit, bc::Sel& out) {
  if (limit == 0 || begin >= end) return 0;
  // Selection buffers are acquired/released LIFO, so one thread-local pool
  // serves nested evaluations (a registry predicate that itself filters)
  // and is reused across every batch this thread runs.
  thread_local bc::Scratch scratch;
  struct Buffers {
    bc::Scratch& pool;
    bc::Sel& seed = pool.acquire();  // this batch's bucket rows
    bc::Sel& a = pool.acquire();
    bc::Sel& b = pool.acquire();
    ~Buffers() { pool.release(3); }
  } buf{scratch};
  std::size_t added = 0;
  for (std::size_t b0 = begin; b0 < end; b0 += kBatchRows) {
    const std::size_t b1 = std::min(b0 + kBatchRows, end);
    bc::Sel* cur = &buf.a;
    bc::Sel* next = &buf.b;
    if (rows == nullptr) {
      chain[0]->prog_.eval_range(cols, static_cast<std::uint32_t>(b0),
                                 static_cast<std::uint32_t>(b1), *cur,
                                 scratch);
    } else {
      buf.seed.assign(rows + b0, rows + b1);
      chain[0]->prog_.eval_batch(cols, buf.seed, *cur, scratch);
    }
    for (std::size_t k = 1; k < chain.size() && !cur->empty(); ++k) {
      chain[k]->prog_.eval_batch(cols, *cur, *next, scratch);
      std::swap(cur, next);
    }
    CCSQL_COUNT("exec.batches", 1);
    CCSQL_OBSERVE("exec.sel_density", static_cast<double>(cur->size()) /
                                          static_cast<double>(b1 - b0));
    if (added + cur->size() < limit) {
      out.insert(out.end(), cur->begin(), cur->end());
      added += cur->size();
      continue;
    }
    // This batch fills the budget: stop at exactly the position that
    // fills it.
    const std::size_t take = limit - added;
    out.insert(out.end(), cur->begin(), cur->begin() + take);
    const std::uint32_t last = (*cur)[take - 1];
    const std::size_t pos =
        rows == nullptr
            ? last
            : b0 + static_cast<std::size_t>(
                       std::lower_bound(buf.seed.begin(), buf.seed.end(),
                                        last) -
                       buf.seed.begin());
    return pos + 1 - begin;
  }
  return end - begin;
}

}  // namespace ccsql::plan::vec

#pragma once

// The reference query engine the planner is tested against.  It is
// deliberately literal: materialise the FROM cross product, filter it row
// by row with the interpreted CompiledExpr walk, then count / project /
// union / sort — no rewrites, no indexes, no bytecode, no parallelism.
// Only tests and benchmarks link it (the ccsql_test_oracle library).

#include <string_view>

#include "relational/expr.hpp"
#include "relational/function_registry.hpp"
#include "relational/parser.hpp"
#include "relational/query.hpp"
#include "relational/table.hpp"

namespace ccsql::oracle {

/// Executes `stmt` against `db` the naive way.
[[nodiscard]] Table run_naive(const Catalog& db, const SelectStmt& stmt);

/// True iff every SELECT of the invariant text yields no rows under
/// run_naive.
[[nodiscard]] bool check_empty_naive(const Catalog& db,
                                     std::string_view invariant_text);

/// select(pred, cross(left, right)) over free-standing tables, with bare
/// identifiers resolved against `ident_schema` — the reference for the
/// solver's incremental-generation step (plan::cross_select).
[[nodiscard]] Table cross_select_naive(
    const Table& left, const Table& right, const Expr& pred,
    const Schema& ident_schema, const FunctionRegistry* functions = nullptr);

}  // namespace ccsql::oracle

#pragma once

#include "relational/expr.hpp"
#include "relational/function_registry.hpp"
#include "relational/schema.hpp"
#include "relational/table.hpp"

namespace ccsql {

/// The fused cross+filter kernel behind each incremental-generation step:
/// the rows of cross(left, right) that satisfy `pred`, without
/// materialising the product.  `pred` is compiled once into a bytecode
/// program over left's columns followed by right's (bare identifiers
/// resolved against `ident_schema`, as for compile_bytecode).  Candidates
/// are the (left row, right row) pairs in cross order and are evaluated
/// plan::vec::kBatchRows at a time: each batch gathers only the columns
/// the program reads, the program filters it, and the survivors are kept
/// as one left and one right selection vector.  The output is one gather
/// per input column, so rows come out left-major, then in right order —
/// exactly the rows and order of cross(left, right).select(pred).  Column
/// names must be disjoint (SchemaError otherwise).
[[nodiscard]] Table cross_filter(const Table& left, const Table& right,
                                 const Expr& pred, const Schema& ident_schema,
                                 const FunctionRegistry* functions = nullptr);

}  // namespace ccsql

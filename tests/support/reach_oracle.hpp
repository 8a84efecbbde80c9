#pragma once

// The sequential explicit-state explorer the production explore_parallel
// (checks/reach.hpp) is tested against: a plain breadth-first search whose
// visited set holds Machine::fingerprint() strings — no hashing, no
// symmetry, no parallelism.  Only tests and benchmarks link it (the
// ccsql_test_oracle library).

#include "checks/reach.hpp"

namespace ccsql::oracle {

/// Breadth-first exploration of every interleaving under `v`, from the
/// all-invalid initial state, with the same aggregates explore_parallel
/// reports (states, transitions, deadlock count and example, violations).
[[nodiscard]] ReachResult explore(const ProtocolSpec& spec,
                                  const ChannelAssignment& v,
                                  const ReachConfig& config);

}  // namespace ccsql::oracle

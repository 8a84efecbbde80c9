// Determinism property: the parallel explorer's aggregates are a pure
// function of the configuration — identical at any --jobs value, and
// identical to the sequential string-fingerprint oracle (reach_oracle.hpp).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks/reach.hpp"
#include "protocol/asura/asura.hpp"
#include "reach_oracle.hpp"

namespace ccsql {
namespace {

const ProtocolSpec& spec() {
  static const std::unique_ptr<ProtocolSpec> s = asura::make_asura();
  return *s;
}

struct Aggregates {
  std::uint64_t states;
  std::uint64_t transitions;
  bool complete;
  std::uint64_t deadlock_states;
  std::vector<std::string> violations;
  std::string deadlock_example;

  bool operator==(const Aggregates& o) const {
    return states == o.states && transitions == o.transitions &&
           complete == o.complete && deadlock_states == o.deadlock_states &&
           violations == o.violations && deadlock_example == o.deadlock_example;
  }
};

Aggregates of(const ReachResult& r) {
  return Aggregates{r.states,          r.transitions, r.complete,
                    r.deadlock_states, r.violations,  r.deadlock_example};
}

ReachParallelConfig base_config(int quads, int addrs, int ops) {
  ReachParallelConfig cfg;
  cfg.n_quads = quads;
  cfg.n_addrs = addrs;
  cfg.ops_per_node = ops;
  return cfg;
}

TEST(ReachParallelProperty, AggregatesIdenticalAtAnyJobsLevel) {
  const std::vector<ReachParallelConfig> configs = {
      base_config(1, 1, 2), base_config(2, 1, 1), base_config(2, 3, 1)};
  for (const char* a : {asura::kAssignV5, asura::kAssignV5Fix}) {
    for (const auto& cfg : configs) {
      ReachParallelConfig c1 = cfg;
      c1.jobs = 1;
      const ReachParallelResult r1 =
          explore_parallel(spec(), spec().assignment(a), c1);
      for (std::size_t jobs : {std::size_t{4}, std::size_t{8}}) {
        ReachParallelConfig cj = cfg;
        cj.jobs = jobs;
        const ReachParallelResult rj =
            explore_parallel(spec(), spec().assignment(a), cj);
        EXPECT_TRUE(of(r1) == of(rj))
            << a << " quads=" << cfg.n_quads << " addrs=" << cfg.n_addrs
            << " jobs=" << jobs << ": " << r1.states << " vs " << rj.states
            << " states, " << r1.transitions << " vs " << rj.transitions
            << " transitions";
        EXPECT_EQ(r1.waves, rj.waves);
        EXPECT_EQ(r1.dedup_hits, rj.dedup_hits);
        EXPECT_EQ(r1.deadlock_trace.size(), rj.deadlock_trace.size());
      }
    }
  }
}

TEST(ReachParallelProperty, MatchesSequentialOracle) {
  const std::vector<ReachParallelConfig> configs = {
      base_config(1, 1, 2), base_config(2, 1, 1), base_config(2, 3, 1)};
  for (const char* a : {asura::kAssignV5, asura::kAssignV5Fix}) {
    for (const auto& cfg : configs) {
      const ReachResult seq =
          oracle::explore(spec(), spec().assignment(a), cfg);
      const ReachParallelResult par =
          explore_parallel(spec(), spec().assignment(a), cfg);
      EXPECT_TRUE(of(seq) == of(par))
          << a << " quads=" << cfg.n_quads << " addrs=" << cfg.n_addrs
          << ": seq " << seq.states << "/" << seq.transitions << ", par "
          << par.states << "/" << par.transitions;
    }
  }
}

TEST(ReachParallelProperty, DeadlockConfigMatchesOracle) {
  // The directed Figure 4 configuration: two same-home addresses, read and
  // atomic traffic only, one remote requester.  V5 deadlocks; both
  // explorers must agree on every aggregate including the deadlock report.
  ReachParallelConfig cfg = base_config(2, 3, 2);
  cfg.inject_ops = {"prd", "patomic"};
  cfg.ops_by_node = {2, 1};
  const ReachResult seq =
      oracle::explore(spec(), spec().assignment(asura::kAssignV5), cfg);
  const ReachParallelResult par =
      explore_parallel(spec(), spec().assignment(asura::kAssignV5), cfg);
  EXPECT_GT(par.deadlock_states, 0u);
  EXPECT_TRUE(of(seq) == of(par))
      << "seq " << seq.states << "/" << seq.deadlock_states << ", par "
      << par.states << "/" << par.deadlock_states;
}

}  // namespace
}  // namespace ccsql

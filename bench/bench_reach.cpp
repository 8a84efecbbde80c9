// Experiment REACH (DESIGN.md): the model-checking baseline.
//
// The paper (section 4.2) positions SQL static analysis against model
// checkers: "Model checkers ... have a lot of reasoning power and can
// detect such deadlocks.  However, to use these tools, the controller
// tables need to be extensively abstracted to avoid the state explosion
// problem."  This bench quantifies that: exhaustive explicit-state
// exploration of the same table-driven protocol grows exponentially with
// the configuration, while the complete SQL deadlock analysis stays at
// milliseconds; both find the Figure 4 deadlock.
//
// The sequential legs run the test-side string-fingerprint oracle
// (tests/support/reach_oracle.hpp), the reference the parallel explorer
// must match.  The parallel/symmetry legs measure how far the engineered
// explorer (checks/reach_parallel.cpp) pushes that wall: wave-parallel BFS
// over a sharded 128-bit visited set, and orbit canonicalization that
// divides the state count by the quad/address symmetry group.
//
// `--smoke` runs a fixed set of legs without google-benchmark and emits a
// ccsql-bench/1 document for the CI perf-smoke job (states/sec rates carry
// the `_qps` unit so bench_diff treats drops, not gains, as regressions).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench/bench_util.hpp"
#include "checks/reach.hpp"
#include "checks/vcg.hpp"
#include "core/pool.hpp"
#include "reach_oracle.hpp"

namespace {

using namespace ccsql;
using namespace ccsql::bench;

void BM_ExhaustiveExploration(benchmark::State& state) {
  ReachConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 1;
  cfg.ops_per_node = static_cast<int>(state.range(0));
  std::uint64_t states = 0;
  bool ok = false;
  for (auto _ : state) {
    ReachResult r = oracle::explore(
        asura_spec(), asura_spec().assignment(asura::kAssignV5Fix), cfg);
    states = r.states;
    ok = r.verified();
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["verified"] = ok ? 1 : 0;
}
BENCHMARK(BM_ExhaustiveExploration)->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelExploration(benchmark::State& state) {
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 4;
  cfg.ops_per_node = 1;
  cfg.jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t states = 0;
  for (auto _ : state) {
    ReachParallelResult r = explore_parallel(
        asura_spec(), asura_spec().assignment(asura::kAssignV5Fix), cfg);
    states = r.states;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_ParallelExploration)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SymmetryReducedExploration(benchmark::State& state) {
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 4;
  cfg.ops_per_node = 1;
  cfg.symmetry = true;
  std::uint64_t states = 0;
  std::uint64_t group = 0;
  for (auto _ : state) {
    ReachParallelResult r = explore_parallel(
        asura_spec(), asura_spec().assignment(asura::kAssignV5Fix), cfg);
    states = r.states;
    group = r.canon_group;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["canon_group"] = static_cast<double>(group);
}
BENCHMARK(BM_SymmetryReducedExploration)->Unit(benchmark::kMillisecond);

void BM_TimeToFigure4Witness(benchmark::State& state) {
  // Directed configuration: two same-home addresses, read/atomic traffic,
  // one remote requester — the smallest space containing the Figure 4
  // wedge (see checks/reach.hpp inject_ops/ops_by_node).
  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 3;
  cfg.ops_per_node = 2;
  cfg.inject_ops = {"prd", "patomic"};
  cfg.ops_by_node = {2, 1};
  cfg.stop_at_first_deadlock = true;
  std::uint64_t states = 0;
  std::size_t trace = 0;
  for (auto _ : state) {
    ReachParallelResult r = explore_parallel(
        asura_spec(), asura_spec().assignment(asura::kAssignV5), cfg);
    states = r.states;
    trace = r.deadlock_trace.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["states_to_witness"] = static_cast<double>(states);
  state.counters["witness_actions"] = static_cast<double>(trace);
}
BENCHMARK(BM_TimeToFigure4Witness)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_SqlAnalysisForComparison(benchmark::State& state) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : asura_spec().controllers()) {
    refs.push_back(ControllerTableRef::from_spec(
        *c, asura_spec().database().get(c->name())));
  }
  std::size_t cycles = 0;
  for (auto _ : state) {
    DeadlockAnalysis analysis(refs,
                              asura_spec().assignment(asura::kAssignV5));
    cycles = analysis.cycles().size();
    benchmark::DoNotOptimize(analysis);
  }
  state.counters["cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_SqlAnalysisForComparison)->Unit(benchmark::kMillisecond);

void set_metric(const std::string& name, std::uint64_t value) {
  obs::Tracer::global().metrics().set(name, value);
}

std::uint64_t rate(std::uint64_t states, double seconds) {
  return static_cast<std::uint64_t>(states / (seconds > 0 ? seconds : 1e-9));
}

/// The CI perf-smoke legs: fixed configs, one run each, ccsql-bench/1 out.
int run_smoke() {
  std::printf("# Experiment REACH (smoke): parallel explorer rates "
              "(pool default_jobs = %zu)\n",
              core::Pool::default_jobs());
  enable_metrics();

  ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 4;
  cfg.ops_per_node = 1;

  // Sequential oracle and the parallel explorer on the same config.
  const ReachResult seq = oracle::explore(
      asura_spec(), asura_spec().assignment(asura::kAssignV5Fix), cfg);
  set_metric("bench.reach.seq_states", seq.states);
  set_metric("bench.reach.seq_states_per_sec_qps",
             rate(seq.states, seq.seconds));

  const ReachParallelResult par = explore_parallel(
      asura_spec(), asura_spec().assignment(asura::kAssignV5Fix), cfg);
  set_metric("bench.reach.par_states", par.states);
  set_metric("bench.reach.par_waves", par.waves);
  set_metric("bench.reach.par_states_per_sec_qps",
             rate(par.states, par.seconds));
  std::printf("#   parallel: %llu states in %.2fs (%llu/s)\n",
              static_cast<unsigned long long>(par.states), par.seconds,
              static_cast<unsigned long long>(rate(par.states, par.seconds)));

  cfg.symmetry = true;
  const ReachParallelResult sym = explore_parallel(
      asura_spec(), asura_spec().assignment(asura::kAssignV5Fix), cfg);
  set_metric("bench.reach.sym_states", sym.states);
  set_metric("bench.reach.sym_canon_group", sym.canon_group);
  set_metric("bench.reach.sym_states_per_sec_qps",
             rate(sym.states, sym.seconds));
  set_metric("bench.reach.sym_reduction_pct",
             sym.states > 0 ? par.states * 100 / sym.states : 0);
  std::printf("#   symmetry: %llu states (group %llu, %llux reduction)\n",
              static_cast<unsigned long long>(sym.states),
              static_cast<unsigned long long>(sym.canon_group),
              static_cast<unsigned long long>(
                  sym.states > 0 ? par.states / sym.states : 0));

  // Time-to-witness on the directed Figure 4 configuration.
  ReachParallelConfig fig4;
  fig4.n_quads = 2;
  fig4.n_addrs = 3;
  fig4.ops_per_node = 2;
  fig4.inject_ops = {"prd", "patomic"};
  fig4.ops_by_node = {2, 1};
  fig4.stop_at_first_deadlock = true;
  const ReachParallelResult wit = explore_parallel(
      asura_spec(), asura_spec().assignment(asura::kAssignV5), fig4);
  set_metric("bench.reach.witness_states", wit.states);
  set_metric("bench.reach.witness_actions", wit.deadlock_trace.size());
  set_metric("bench.reach.witness_states_per_sec_qps",
             rate(wit.states, wit.seconds));
  std::printf("#   witness: %zu actions after %llu states\n",
              wit.deadlock_trace.size(),
              static_cast<unsigned long long>(wit.states));

  finish_metrics("bench_reach");
  // The smoke run doubles as a sanity gate: the verdicts must hold.
  const bool ok = seq.verified() && par.verified() &&
                  par.states == seq.states && sym.verified() &&
                  wit.deadlock_states > 0;
  if (!ok) std::fprintf(stderr, "bench_reach: smoke verdict mismatch\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccsql;
  using namespace ccsql::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  std::printf("# Experiment REACH: state explosion vs SQL static analysis\n");
  std::printf("# config (quads,addrs,ops) -> states (V5fix, complete?)\n");
  for (auto [q, a, o] : {std::tuple{1, 1, 1}, {2, 1, 1}, {2, 1, 2},
                         {2, 2, 2}}) {
    ReachConfig cfg;
    cfg.n_quads = q;
    cfg.n_addrs = a;
    cfg.ops_per_node = o;
    cfg.max_states = 1'000'000;
    ReachResult r = oracle::explore(
        asura_spec(), asura_spec().assignment(asura::kAssignV5Fix), cfg);
    std::printf("#   (%d,%d,%d): %llu states, %s, %.2fs\n", q, a, o,
                static_cast<unsigned long long>(r.states),
                r.complete ? "complete" : "TRUNCATED", r.seconds);
  }
  std::printf("# the SQL deadlock analysis of the same tables is complete "
              "in ~2 ms (below)\n");
  enable_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_metrics_summary();
  return 0;
}

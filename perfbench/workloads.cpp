#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <deque>
#include <optional>
#include <set>

#include "checks/invariant.hpp"
#include "checks/reach.hpp"
#include "checks/vcg.hpp"
#include "core/flow.hpp"
#include "core/pool.hpp"
#include "mapping/asura_map.hpp"
#include "protocol/asura/asura.hpp"
#include "serve/server.hpp"
#include "sim/dispatch.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace perfbench {

using ccsql::ProtocolSpec;
using Scope = SpanRecorder::Scope;

Facts::Facts()
    : values_{
          // flow_asura: the paper's ASURA pipeline.
          {"flow.D_rows", 331},
          {"flow.D_cols", 30},
          {"flow.invariants", 70},
          {"flow.V4_cycles", 3},
          {"flow.V5_cycles", 3},
          {"flow.V5fix_cycles", 0},
          {"flow.ED_rows", 670},
          // reach_v5fix: 2 quads x 4 addrs x 1 op/node, symmetry off.
          {"reach.states", 19741},
          {"reach.transitions", 39676},
          {"reach.deadlocks", 0},
          {"reach.violations", 0},
          // sim_sweep: default_sweep_grid("V5fix", 8).
          {"sim.cells", 360},
          // serve_rw: every ASURA invariant is a read.
          {"serve.invariants", 70},
      } {}

bool Facts::set(std::string_view assignment) {
  const auto eq = assignment.find('=');
  if (eq == std::string_view::npos) return false;
  const std::string name(assignment.substr(0, eq));
  const std::string_view text = assignment.substr(eq + 1);
  auto it = values_.find(name);
  if (it == values_.end()) return false;
  long long value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) return false;
  it->second = value;
  return true;
}

long long Facts::operator[](const std::string& name) const {
  return values_.at(name);
}

namespace {

constexpr const char* kV5fix = ccsql::asura::kAssignV5Fix;

/// Lanes a jobs-2 workload runs at: its own count, capped by the process pin
/// (a probe inside a jobs-1 run stays on one lane).
std::size_t lanes(std::size_t jobs) {
  return std::min(jobs, ccsql::core::Pool::default_jobs());
}

bool is(std::uint64_t value, long long expected) {
  return expected >= 0 && value == static_cast<std::uint64_t>(expected);
}

/// Spec construction with table generation: the set-up every workload pays.
std::unique_ptr<ProtocolSpec> build_spec(SpanRecorder* rec) {
  Scope span(rec, "protocol.spec_build");
  auto spec = ccsql::asura::make_asura();
  (void)spec->database();  // generates every controller table
  return spec;
}

/// Summed ms of the run loop's "op" spans and of their direct children.
std::pair<double, double> op_and_child_ms(const SpanRecorder& rec) {
  double op = 0.0;
  double child = 0.0;
  for (const SpanRecord& s : rec.spans()) {
    if (s.name != "op") continue;
    op += s.ms();
    child += static_cast<double>(s.child_ns) / 1e6;
  }
  return {op, child};
}

/// Parallel efficiency of a single-lane workload: the share of op wall the
/// calls into the library cover (the rest is the benchmark's own glue).
double child_share(const SpanRecorder& rec, std::size_t jobs) {
  const auto [op, child] = op_and_child_ms(rec);
  return op > 0.0 ? child / (static_cast<double>(jobs) * op) : 0.0;
}

// ---- flow_asura -------------------------------------------------------------

/// The facts a flow op is checked against, from either op variant.
struct FlowOutcome {
  std::uint64_t d_rows = 0;
  std::uint64_t d_cols = 0;
  std::uint64_t invariants = 0;
  bool invariants_hold = false;
  std::map<std::string, std::uint64_t> cycles;
  bool mapping_ok = false;
  std::uint64_t ed_rows = 0;
  bool sim_healthy = false;

  [[nodiscard]] bool matches(const Facts& f) const {
    auto cycles_of = [this](const std::string& a) -> std::uint64_t {
      auto it = cycles.find(a);
      return it == cycles.end() ? ~std::uint64_t{0} : it->second;
    };
    return is(d_rows, f["flow.D_rows"]) && is(d_cols, f["flow.D_cols"]) &&
           is(invariants, f["flow.invariants"]) && invariants_hold &&
           is(cycles_of("V4"), f["flow.V4_cycles"]) &&
           is(cycles_of("V5"), f["flow.V5_cycles"]) &&
           is(cycles_of("V5fix"), f["flow.V5fix_cycles"]) && mapping_ok &&
           is(ed_rows, f["flow.ED_rows"]) && sim_healthy;
  }
};

class FlowWorkload final : public Workload {
 public:
  explicit FlowWorkload(const Facts& facts)
      : Workload("flow_asura"), facts_(facts) {}

  std::size_t jobs() const override { return 1; }
  const char* work_unit() const override { return "flow runs"; }
  double ops_per_second() const override { return 19.0; }
  std::size_t warmup_ops() const override { return 3; }
  std::size_t probe_ops() const override { return 8; }

  void reset() override { spec_.reset(); }
  void setup(SpanRecorder* rec) override { spec_ = build_spec(rec); }

  OpOutcome op(std::uint64_t, SpanRecorder* rec) override {
    const FlowOutcome out = rec != nullptr ? staged(rec) : whole();
    return {out.matches(facts_), 1.0};
  }

  void layer_metrics(SpanRecorder& rec, const PhaseInfo& phase,
                     Metrics& out) override {
    auto med = [&rec](const char* name) {
      return median(rec.durations_ms(name));
    };
    out.push_back({"solver.generate_ms", med("solver.generate"), "ms"});
    out.push_back({"solver.generate_D_ms", med("solver.generate.D"), "ms"});
    out.push_back(
        {"checks.invariant.suite_ms", med("checks.invariant.suite"), "ms"});
    for (const char* a : {"V4", "V5", "V5fix"}) {
      out.push_back({std::string("checks.vcg.") + a + "_ms",
                     med((std::string("checks.vcg.") + a).c_str()), "ms"});
    }
    out.push_back({"mapping.verify_ms", med("mapping.verify"), "ms"});
    out.push_back({"sim.validate_ms", med("sim.validate"), "ms"});
    // Flow::run's own time (untraced ops) minus the stages the traced ops
    // recompose from the same public calls: what the breakdown misses.
    std::vector<double> stage_sums;
    for (const SpanRecord& s : rec.spans()) {
      if (s.name == "op") stage_sums.push_back(s.child_ns / 1e6);
    }
    out.push_back({"core.flow.unaccounted_ms",
                   median(phase.untraced_ms) - median(stage_sums), "ms"});
    if (phase.own) {
      out.push_back({"core.pool.parallel_efficiency",
                     child_share(rec, phase.jobs), "ratio"});
    }
  }

 private:
  /// The op as users run it: `ccsql flow`'s options.
  FlowOutcome whole() const {
    ccsql::FlowOptions opts;
    opts.map_directory = true;
    const ccsql::FlowReport r = ccsql::Flow(*spec_).run(opts);
    FlowOutcome f;
    for (const auto& t : r.tables) {
      if (t.name == ccsql::asura::kDirectory) {
        f.d_rows = t.rows;
        f.d_cols = t.cols;
      }
    }
    f.invariants = r.invariants.size();
    f.invariants_hold = r.invariants_hold();
    for (const auto& a : r.assignments) f.cycles[a.name] = a.cycles.size();
    f.mapping_ok = r.mapping_ran && r.mapping.ok();
    f.ed_rows = r.mapping.ed_rows;
    f.sim_healthy = r.sim.ran && r.sim.healthy;
    return f;
  }

  /// The same stages Flow::run performs, called one by one through the
  /// public API so each gets its own span.
  FlowOutcome staged(SpanRecorder* rec) const {
    const ProtocolSpec& spec = *spec_;
    FlowOutcome f;
    {
      Scope span(rec, "solver.generate");
      for (const auto& c : spec.controllers()) {
        Scope one(rec, "solver.generate." + c->name());
        c->invalidate();
        const ccsql::Table& t = c->generate(&spec.database().functions());
        if (c->name() == ccsql::asura::kDirectory) {
          f.d_rows = t.row_count();
          f.d_cols = t.column_count();
        }
      }
    }
    {
      Scope span(rec, "checks.invariant.suite");
      const ccsql::InvariantChecker checker(spec.database());
      const auto results = checker.check_all(spec.invariants());
      f.invariants = results.size();
      f.invariants_hold = ccsql::InvariantChecker::all_hold(results);
    }
    {
      Scope span(rec, "checks.vcg");
      std::vector<ccsql::ControllerTableRef> refs;
      for (const auto& c : spec.controllers()) {
        refs.push_back(ccsql::ControllerTableRef::from_spec(
            *c, spec.database().get(c->name())));
      }
      for (const auto& a : spec.assignments()) {
        Scope one(rec, "checks.vcg." + a->name());
        const ccsql::DeadlockAnalysis analysis(refs, *a);
        f.cycles[a->name()] = analysis.cycles().size();
      }
    }
    {
      Scope span(rec, "mapping.verify");
      const auto m = ccsql::mapping::verify_directory_mapping(spec);
      f.mapping_ok = m.ok();
      f.ed_rows = m.ed_rows;
    }
    {
      Scope span(rec, "sim.validate");
      // Flow::run validates under the first cycle-free assignment.
      for (const auto& a : spec.assignments()) {
        if (f.cycles[a->name()] != 0) continue;
        ccsql::sim::SimConfig cfg;
        cfg.n_quads = 2;
        cfg.n_addrs = 4;
        cfg.channel_capacity = 2;
        cfg.transactions_per_node = ccsql::FlowOptions{}.sim_transactions;
        ccsql::sim::Machine m(spec, *a, cfg);
        m.set_memory_latency(2);
        m.enable_random_workload();
        f.sim_healthy = m.run().healthy();
        break;
      }
    }
    return f;
  }

  const Facts& facts_;
  std::unique_ptr<ProtocolSpec> spec_;
};

// ---- reach_v5fix ------------------------------------------------------------

ccsql::ReachParallelConfig reach_config(std::size_t jobs) {
  ccsql::ReachParallelConfig cfg;
  cfg.n_quads = 2;
  cfg.n_addrs = 4;
  cfg.ops_per_node = 1;
  cfg.symmetry = false;
  cfg.jobs = jobs;
  return cfg;
}

/// Per-call cost of the sim::Machine primitives the explorer is built on,
/// timed from outside on a breadth-first replay of the reach config.
struct PrimitiveCosts {
  std::array<double, 5> total_ms{};  // snapshot restore possible apply hash
  std::array<std::uint64_t, 5> calls{};
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;

  [[nodiscard]] double mean_us(std::size_t k) const {
    return calls[k] != 0 ? total_ms[k] * 1e3 / static_cast<double>(calls[k])
                         : 0.0;
  }
};

PrimitiveCosts replay_primitives(const ProtocolSpec& spec) {
  enum { kSnapshot, kRestore, kPossible, kApply, kHash };
  PrimitiveCosts c;
  const ccsql::ReachParallelConfig rc = reach_config(1);
  ccsql::sim::SimConfig cfg;
  cfg.n_quads = rc.n_quads;
  cfg.n_addrs = rc.n_addrs;
  cfg.channel_capacity = rc.channel_capacity;
  cfg.transactions_per_node = rc.ops_per_node;
  ccsql::sim::Machine m(spec, spec.assignment(kV5fix), cfg);
  m.enable_random_workload();

  auto timed = [&c](int k, auto&& call) {
    const auto t0 = Clock::now();
    auto result = call();
    c.total_ms[k] += ms_between(t0, Clock::now());
    ++c.calls[k];
    return result;
  };
  using Snapshot = ccsql::sim::Machine::Snapshot;
  std::set<std::array<std::uint64_t, 2>> visited;
  std::deque<Snapshot> frontier;
  visited.insert(timed(kHash, [&] { return m.state_hash(); }));
  frontier.push_back(timed(kSnapshot, [&] { return m.snapshot(); }));
  c.states = 1;
  while (!frontier.empty()) {
    const Snapshot state = std::move(frontier.front());
    frontier.pop_front();
    timed(kRestore, [&] { m.restore(state); return 0; });
    const auto actions = timed(kPossible, [&] { return m.possible_actions(); });
    for (const auto& action : actions) {
      timed(kRestore, [&] { m.restore(state); return 0; });
      m.clear_errors();
      if (!timed(kApply, [&] { return m.apply_action(action); })) continue;
      ++c.transitions;
      if (visited.insert(timed(kHash, [&] { return m.state_hash(); }))
              .second) {
        frontier.push_back(timed(kSnapshot, [&] { return m.snapshot(); }));
        ++c.states;
      }
    }
  }
  return c;
}

class ReachWorkload final : public Workload {
 public:
  explicit ReachWorkload(const Facts& facts)
      : Workload("reach_v5fix"), facts_(facts) {}

  std::size_t jobs() const override { return 2; }
  const char* work_unit() const override { return "explored states"; }
  double ops_per_second() const override { return 1.7; }
  std::size_t warmup_ops() const override { return 2; }
  std::size_t probe_ops() const override { return 2; }

  void reset() override { spec_.reset(); }
  void setup(SpanRecorder* rec) override { spec_ = build_spec(rec); }

  OpOutcome op(std::uint64_t, SpanRecorder* rec) override {
    return explore(rec, lanes(jobs()), "checks.reach.explore");
  }

  void layer_metrics(SpanRecorder& rec, const PhaseInfo& phase,
                     Metrics& out) override {
    const double explore_ms = median(rec.durations_ms("checks.reach.explore"));
    out.push_back({"checks.reach.explore_ms", explore_ms, "ms"});
    out.push_back({"checks.reach.states_per_s",
                   explore_ms > 0 ? static_cast<double>(last_.states) * 1e3 /
                                        explore_ms
                                  : 0.0,
                   "1/s"});
    const double candidates =
        static_cast<double>(last_.dedup_hits + last_.states);
    out.push_back({"checks.reach.dedup_ratio",
                   candidates > 0 ? last_.dedup_hits / candidates : 0.0,
                   "ratio"});

    PrimitiveCosts c;
    {
      Scope span(&rec, "sim.primitive_replay");
      c = replay_primitives(*spec_);
    }
    record(is(c.states, facts_["reach.states"]) &&
           is(c.transitions, facts_["reach.transitions"]));
    const char* names[] = {"sim.snapshot_us", "sim.restore_us",
                           "sim.possible_actions_us", "sim.apply_action_us",
                           "sim.state_hash_us"};
    for (std::size_t k = 0; k < 5; ++k) {
      out.push_back({names[k], c.mean_us(k), "us"});
    }
    // Estimate: calls the explorer makes, from its own state and transition
    // counts, at the replay's per-call cost, over the lanes' explore time.
    const double s = static_cast<double>(last_.states);
    const double t = static_cast<double>(last_.transitions);
    const double est_us = s * (c.mean_us(0) + c.mean_us(1) + c.mean_us(2)) +
                          t * (c.mean_us(1) + c.mean_us(3) + c.mean_us(4));
    const double lanes_us =
        static_cast<double>(lanes(jobs())) * explore_ms * 1e3;
    out.push_back(
        {"sim.primitive_share", lanes_us > 0 ? est_us / lanes_us : 0.0,
         "ratio"});

    if (phase.own) {
      // One lane does all the work serially: T1 / (jobs x Tjobs).
      std::vector<double> serial;
      for (int i = 0; i < 2; ++i) {
        rec.set_op(0);
        const auto t0 = Clock::now();
        record(explore(&rec, 1, "checks.reach.explore_serial").ok);
        serial.push_back(ms_between(t0, Clock::now()));
      }
      out.push_back({"core.pool.parallel_efficiency",
                     explore_ms > 0 ? median(serial) /
                                          (static_cast<double>(phase.jobs) *
                                           explore_ms)
                                    : 0.0,
                     "ratio"});
    }
  }

 private:
  OpOutcome explore(SpanRecorder* rec, std::size_t jobs,
                    std::string_view span_name) {
    ccsql::ReachParallelResult r;
    {
      Scope span(rec, span_name);
      r = ccsql::explore_parallel(*spec_, spec_->assignment(kV5fix),
                                  reach_config(jobs));
    }
    const bool ok = r.complete && is(r.states, facts_["reach.states"]) &&
                    is(r.transitions, facts_["reach.transitions"]) &&
                    is(r.deadlock_states, facts_["reach.deadlocks"]) &&
                    is(r.violations.size(), facts_["reach.violations"]);
    last_ = r;
    return {ok, static_cast<double>(r.states)};
  }

  const Facts& facts_;
  std::unique_ptr<ProtocolSpec> spec_;
  ccsql::ReachParallelResult last_;
};

// ---- sim_sweep --------------------------------------------------------------

class SimWorkload final : public Workload {
 public:
  static constexpr unsigned kGridSeeds = 8;

  SimWorkload(unsigned seed, const Facts& facts)
      : Workload("sim_sweep"),
        facts_(facts),
        seed_(seed),
        grid_(ccsql::sim::default_sweep_grid(kV5fix, kGridSeeds)) {
    // Disjoint cell seeds per workload seed; the grid's shape is unchanged.
    for (auto& cell : grid_) cell.config.seed += kGridSeeds * seed;
  }

  std::size_t jobs() const override { return 2; }
  const char* work_unit() const override { return "simulated events"; }
  double ops_per_second() const override { return 10.0; }
  std::size_t warmup_ops() const override { return 2; }
  std::size_t probe_ops() const override { return 2; }

  void reset() override {
    engine_.reset();
    spec_.reset();
  }

  void setup(SpanRecorder* rec) override {
    spec_ = build_spec(rec);
    Scope span(rec, "sim.compile");
    engine_ = std::make_unique<ccsql::sim::SweepEngine>(*spec_);
  }

  OpOutcome op(std::uint64_t, SpanRecorder* rec) override {
    ccsql::sim::SweepResult r;
    {
      Scope span(rec, "sim.sweep");
      r = engine_->run(grid_, lanes(jobs()));
    }
    const auto& m = r.merged;
    const std::array<std::uint64_t, 4> sig = {m.events(), m.cycles,
                                              m.table_hits, m.send_stalls};
    if (!reference_) reference_ = sig;
    if (rec != nullptr) {
      for (const auto& run : r.runs) traced_cell_s_ += run.seconds;
    }
    const bool ok = r.all_healthy() && r.runs.size() == grid_.size() &&
                    is(grid_.size(), facts_["sim.cells"]) &&
                    sig == *reference_;
    return {ok, static_cast<double>(r.events)};
  }

  void layer_metrics(SpanRecorder& rec, const PhaseInfo& phase,
                     Metrics& out) override {
    // Single grid cells through Machine::run, on one shared compilation as
    // the sweep engine does.  A probe times the first seed's cells only.
    const auto tables = ccsql::sim::CompiledTables::compile(
        *spec_, ccsql::sim::ControllerDispatch::Mode::kDense);
    std::map<std::string, std::vector<double>> cell_us;
    for (const auto& cell : grid_) {
      if (!phase.own && cell.config.seed != 1 + kGridSeeds * seed_) continue;
      const std::string shape(ccsql::sim::workload_name(cell.config.workload));
      ccsql::sim::Machine m(*spec_, spec_->assignment(cell.assignment),
                            cell.config, tables);
      m.set_memory_latency(cell.memory_latency);
      m.enable_workload();
      rec.set_op(0);
      const auto t0 = Clock::now();
      ccsql::sim::SimResult r;
      {
        Scope span(&rec, "sim.cell." + shape);
        r = m.run();
      }
      cell_us[shape].push_back(ms_between(t0, Clock::now()) * 1e3);
      record(r.healthy());
    }
    for (const char* shape : {"random", "lock", "producer-consumer",
                              "false-sharing", "streaming"}) {
      out.push_back({std::string("sim.cell_us_p50.") + shape,
                     median(cell_us[shape]), "us"});
    }
    if (phase.own) {
      double sweep_ms = 0.0;
      for (double ms : rec.durations_ms("sim.sweep")) sweep_ms += ms;
      out.push_back({"core.pool.parallel_efficiency",
                     sweep_ms > 0 ? traced_cell_s_ * 1e3 /
                                        (static_cast<double>(phase.jobs) *
                                         sweep_ms)
                                  : 0.0,
                     "ratio"});
    }
  }

 private:
  const Facts& facts_;
  unsigned seed_;
  std::vector<ccsql::sim::SweepRun> grid_;
  std::unique_ptr<ProtocolSpec> spec_;
  std::unique_ptr<ccsql::sim::SweepEngine> engine_;
  std::optional<std::array<std::uint64_t, 4>> reference_;
  double traced_cell_s_ = 0.0;
};

// ---- serve_rw ---------------------------------------------------------------

class ServeWorkload final : public Workload {
 public:
  /// Suite passes between two writes: one write per 20 passes, so the 70
  /// reads after each write (5% of reads) replan.
  static constexpr std::size_t kPassesPerWrite = 20;

  ServeWorkload(unsigned seed, const Facts& facts)
      : Workload("serve_rw"), facts_(facts), seed_(seed) {}

  std::size_t jobs() const override { return 1; }
  const char* work_unit() const override { return "queries"; }
  double ops_per_second() const override { return 105000.0; }
  std::size_t warmup_ops() const override { return 2 * cycle(); }
  std::size_t trace_block() const override { return cycle(); }
  std::size_t traced_ops(std::size_t timed) const override {
    return std::min(timed, 40 * cycle());
  }
  std::size_t probe_ops() const override { return 4 * cycle(); }

  void reset() override {
    server_.reset();
    spec_.reset();
  }

  void setup(SpanRecorder* rec) override {
    spec_ = build_spec(rec);
    reads_.clear();
    for (const auto& inv : spec_->invariants()) reads_.push_back(inv.sql);
    suite_ok_ = is(reads_.size(), facts_["serve.invariants"]);
    Scope span(rec, "serve.server_build");
    server_ = std::make_unique<ccsql::serve::Server>(spec_->database());
  }

  OpOutcome op(std::uint64_t i, SpanRecorder* rec) override {
    // Writes fall at fixed read counts; the seed picks the phase.
    const std::size_t pos = (i + phase()) % cycle();
    if (pos == cycle() - 1) {
      Scope span(rec, "serve.update");
      ccsql::Table copy =
          server_->snapshot().catalog().get(ccsql::asura::kDirectory);
      server_->update([&copy](ccsql::Database& db) {
        db.put(ccsql::asura::kDirectory, std::move(copy));
      });
      return {true, 1.0};
    }
    const std::size_t k = pos % reads_.size();
    Scope span(rec, pos < reads_.size() ? "serve.replan_read"
                                        : "serve.check_empty");
    const bool empty = server_->check_empty(reads_[k]);
    return {empty && suite_ok_, 1.0};
  }

  void layer_metrics(SpanRecorder& rec, const PhaseInfo& phase,
                     Metrics& out) override {
    out.push_back({"serve.check_empty_us_p50",
                   median(rec.durations_ms("serve.check_empty")) * 1e3,
                   "us"});
    out.push_back({"serve.replan_read_us_p50",
                   median(rec.durations_ms("serve.replan_read")) * 1e3,
                   "us"});
    out.push_back(
        {"serve.update_ms_p50", median(rec.durations_ms("serve.update")),
         "ms"});
    const auto cache = server_->stats().cache;
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    out.push_back({"serve.cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(cache.hits) / lookups
                               : 0.0,
                   "ratio"});
    if (phase.own) {
      out.push_back({"core.pool.parallel_efficiency",
                     child_share(rec, phase.jobs), "ratio"});
    }
  }

 private:
  /// Ops from one write to the next (known once setup() loaded the suite).
  [[nodiscard]] std::size_t cycle() const {
    return kPassesPerWrite * reads_.size() + 1;
  }
  [[nodiscard]] std::size_t phase() const {
    return (static_cast<std::size_t>(seed_) * 7919u) % cycle();
  }

  const Facts& facts_;
  unsigned seed_;
  std::unique_ptr<ProtocolSpec> spec_;
  std::vector<std::string> reads_;
  bool suite_ok_ = false;  // the suite has the expected size
  std::unique_ptr<ccsql::serve::Server> server_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"flow_asura", "reach_v5fix",
                                                 "sim_sweep", "serve_rw"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, unsigned seed,
                                        const Facts& facts) {
  if (name == "flow_asura") return std::make_unique<FlowWorkload>(facts);
  if (name == "reach_v5fix") return std::make_unique<ReachWorkload>(facts);
  if (name == "sim_sweep") return std::make_unique<SimWorkload>(seed, facts);
  if (name == "serve_rw") return std::make_unique<ServeWorkload>(seed, facts);
  return nullptr;
}

}  // namespace perfbench

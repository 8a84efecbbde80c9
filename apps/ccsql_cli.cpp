// ccsql — command-line driver for the table-driven protocol methodology.
//
//   ccsql tables [NAME] [--csv]       print controller tables
//   ccsql sql "STMT[; STMT...]"       run SQL against the protocol database
//   ccsql explain "SELECT" [--analyze]
//                                     show the optimized query plan with
//                                     estimated vs actual row counts;
//                                     --analyze adds per-operator wall time,
//                                     rows/batches/morsels, and memory
//   ccsql invariants [-v]             run the invariant suite
//   ccsql deadlock [ASSIGNMENT]       virtual-channel deadlock analysis
//   ccsql map                         section 5 hardware-mapping flow
//   ccsql codegen TABLE [--casez]     emit controller code from an
//                                     implementation table
//   ccsql sim [ASSIGNMENT] [--fig4] [--quads N] [--addrs N] [--capacity N]
//         [--txns N] [--seed N] [--latency N] [--workload NAME]
//                                     table-driven simulation, reporting
//                                     events/sec
//   ccsql sweep [ASSIGNMENT] [--seeds N] [--quiet]
//                                     the pool-parallel validation grid
//                                     (quads x capacity x workload x seed);
//                                     exits 1 on any unhealthy run
//   ccsql reach [ASSIGNMENT] [--quads N] [--addrs N] [--ops N]
//         [--symmetry] [--classify] [--witness] [--max-states N]
//         [--first-deadlock] [--only-ops A,B] [--node-ops N,M]
//                                     exhaustive parallel exploration,
//                                     optionally symmetry-reduced;
//                                     --classify labels VCG cycles against
//                                     the reachable states
//   ccsql serve [--sessions N] [--iterations N] [--no-cache]
//         [--max-inflight N] [--writer N] [--script FILE] [-v]
//                                     multi-session serving loop over
//                                     snapshots + the plan cache
//   ccsql flow                        the full push-button report
//
// Global flags (any command):
//   --trace FILE               write a trace (format from extension)
//   --trace-format FMT         text | jsonl | chrome
//   --metrics                  collect + print the metrics summary
//   --stats                    end-of-run one-page summary: top counters,
//                              histogram p50/p95/max, pool utilization,
//                              memory accounting (no trace file needed)
//   --jobs N                   parallel lanes for query execution, the
//                              invariant suite, and VCG composition
//                              (CCSQL_JOBS=N does the same; default:
//                              hardware concurrency).  Results are
//                              identical at any N.
// CCSQL_TRACE / CCSQL_TRACE_FORMAT / CCSQL_METRICS=1 / CCSQL_JOBS in the
// environment do the same.  Each command accepts only the global flags and
// its own; any other flag, a missing flag value, a malformed number or one
// below the flag's minimum (counts such as --quads start at 1) exits 2.
//
// All commands operate on the built-in ASURA reconstruction.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccsql.hpp"
#include "checks/lint.hpp"
#include "checks/reach.hpp"
#include "core/flow.hpp"
#include "core/pool.hpp"
#include "mapping/codegen.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "protocol/asura/asura.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sim/machine.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace ccsql;

/// Parsed command line.  Flags were checked against the command's accepted
/// set at parse time, and integer values were validated against their
/// minimum, so the accessors cannot fail.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;  // switches map to ""

  [[nodiscard]] bool has(const std::string& f) const {
    return flags.count(f) != 0;
  }
  [[nodiscard]] int value_of(const std::string& f, int fallback) const {
    const auto it = flags.find(f);
    return it == flags.end() ? fallback : std::stoi(it->second);
  }
  [[nodiscard]] std::string str_value_of(const std::string& f,
                                         const std::string& fallback) const {
    const auto it = flags.find(f);
    return it == flags.end() ? fallback : it->second;
  }
};

/// kInt takes a non-negative integer, kCount a positive one.
enum class FlagKind { kSwitch, kInt, kCount, kText };

// Ceilings of the count flags.  Past these a run cannot be set up in
// memory or cannot finish, so they are usage errors (exit 2) rather than a
// std::bad_alloc at exit 1:
//  - quads: the network keeps a dense (src, dst, channel) slot table of
//    quads^2 x channels entries, and per-quad node and home tables are
//    sized up front;
//  - addrs: home memory and the coherence monitor's per-address tables are
//    filled for every address at machine construction;
//  - capacity, txns/ops: messages per channel and operations per node;
//  - seeds: the sweep materialises 45 grid cells per seed;
//  - sessions x iterations: every query of `serve` logs its latency;
//  - jobs: one pool thread per lane.
constexpr int kMaxQuads = 256;
constexpr int kMaxAddrs = 1 << 16;
constexpr int kMaxCapacity = 1 << 16;
constexpr int kMaxOpsPerNode = 1 << 20;
constexpr int kMaxSeeds = 1000;
constexpr int kMaxSessions = 256;
constexpr int kMaxIterations = 1000;
constexpr int kMaxJobs = 1024;

struct FlagSpec {
  const char* name;
  FlagKind kind;
  /// What a valued flag needs, for the error message (integer kinds
  /// default to a description of their range).
  const char* wants = nullptr;
  /// Largest accepted value of an integer kind.
  int max = INT_MAX;

  [[nodiscard]] std::string wanted() const {
    std::string out = wants != nullptr            ? wants
                      : kind == FlagKind::kCount ? "a positive integer"
                                                 : "a non-negative integer";
    if (max != INT_MAX) out += " of at most " + std::to_string(max);
    return out;
  }
};

constexpr FlagSpec kGlobalFlags[] = {
    {"--trace", FlagKind::kText, "a file path"},
    {"--trace-format", FlagKind::kText, "a format"},
    {"--metrics", FlagKind::kSwitch},
    {"--stats", FlagKind::kSwitch},
    {"--jobs", FlagKind::kCount, "a positive thread count", kMaxJobs},
};

/// Strict decimal parse: the whole token, no sign, within [min, max].
std::optional<int> parse_int(const std::string& text, long min,
                             long max = INT_MAX) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno != 0 || v < min || v > max) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

/// Splits a comma-separated flag value, dropping empty items.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  for (std::string tok; std::getline(ss, tok, ',');) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

int usage() {
  std::cerr
      << "usage: ccsql COMMAND [ARGS]\n"
         "  tables [NAME] [--csv]    print controller tables\n"
         "  sql \"STMT[; ...]\"        run SQL against the protocol database\n"
         "  explain \"SELECT\" [--analyze]  show the optimized query plan\n"
         "  invariants [-v]          run the invariant suite\n"
         "  deadlock [ASSIGNMENT]    deadlock analysis (default: all)\n"
         "  map                      hardware-mapping flow\n"
         "  codegen TABLE [--casez]  emit code from an implementation table\n"
         "  sim [ASSIGNMENT] [--fig4] [--quads N] [--addrs N] [--capacity N]\n"
         "      [--txns N] [--seed N] [--latency N] [--workload NAME]\n"
         "                           table-driven simulation; workloads:\n"
         "                           random, lock, producer-consumer,\n"
         "                           false-sharing, streaming\n"
         "  sweep [ASSIGNMENT] [--seeds N] [--quiet]\n"
         "                           validation grid of simulations on the\n"
         "                           pool; exit 1 on any unhealthy run\n"
         "  reach [ASSIGNMENT] [--quads N] [--addrs N] [--ops N]\n"
         "        [--symmetry] [--classify] [--witness]\n"
         "        [--max-states N] [--first-deadlock]\n"
         "        [--only-ops A,B] [--node-ops N,M]\n"
         "                           parallel reachability (sharded visited\n"
         "                           set, deterministic at any --jobs);\n"
         "                           --symmetry canonicalizes modulo quad/\n"
         "                           address permutations, --classify labels\n"
         "                           each VCG cycle reachable/unreachable,\n"
         "                           --witness prints the deadlock trace\n"
         "  lint                     specification hygiene advisories\n"
         "  serve [--sessions N] [--iterations N] [--no-cache]\n"
         "        [--max-inflight N] [--writer N] [--script FILE] [-v]\n"
         "                           multi-session serving loop (invariant\n"
         "                           suite or a SQL script) over snapshots +\n"
         "                           the prepared-statement cache\n"
         "  flow                     full push-button report\n"
         "global flags: --trace FILE [--trace-format text|jsonl|chrome] "
         "--metrics --stats --jobs N\n";
  return 2;
}

int cmd_tables(const ProtocolSpec& spec, const Args& args) {
  const Database& db = spec.database();
  if (!args.positional.empty()) {
    const Table& t = db.get(args.positional[0]);
    std::cout << (args.has("--csv") ? to_csv(t) : to_ascii(t));
    return 0;
  }
  for (const auto& c : spec.controllers()) {
    const Table& t = db.get(c->name());
    std::cout << c->name() << ": " << t.row_count() << " rows x "
              << t.column_count() << " cols\n";
  }
  std::cout << "Messages: " << spec.messages().size() << " types\n";
  return 0;
}

int cmd_sql(const ProtocolSpec& spec, const Args& args) {
  if (args.positional.empty()) return usage();
  // A private mutable copy of the session so CREATE/INSERT/DROP work.
  Database db = spec.database();
  std::stringstream statements(args.positional[0]);
  std::string stmt;
  while (std::getline(statements, stmt, ';')) {
    if (stmt.find_first_not_of(" \t\n") == std::string::npos) continue;
    Table result = db.execute(stmt);
    if (result.column_count() > 0) std::cout << to_ascii(result);
  }
  return 0;
}

int cmd_explain(const ProtocolSpec& spec, const Args& args) {
  if (args.positional.empty()) return usage();
  const Database& db = spec.database();
  std::cout << (args.has("--analyze")
                    ? db.explain_analyze(args.positional[0])
                    : db.explain(args.positional[0]))
                   .plan;
  return 0;
}

int cmd_invariants(const ProtocolSpec& spec, const Args& args) {
  InvariantChecker checker(spec.database());
  auto results = checker.check_all(spec.invariants());
  std::cout << InvariantChecker::report(results, args.has("-v"));
  return InvariantChecker::all_hold(results) ? 0 : 1;
}

int cmd_deadlock(const ProtocolSpec& spec, const Args& args) {
  std::vector<ControllerTableRef> refs;
  for (const auto& c : spec.controllers()) {
    refs.push_back(
        ControllerTableRef::from_spec(*c, spec.database().get(c->name())));
  }
  bool any_cycles = false;
  for (const auto& a : spec.assignments()) {
    if (!args.positional.empty() && a->name() != args.positional[0]) continue;
    DeadlockAnalysis analysis(refs, *a);
    std::cout << "=== assignment " << a->name() << " ===\n"
              << analysis.report() << "\n";
    any_cycles |= !analysis.deadlock_free();
  }
  return any_cycles ? 1 : 0;
}

int cmd_map(const ProtocolSpec& spec, const Args&) {
  auto report = mapping::verify_directory_mapping(spec);
  std::cout << "ED: " << report.ed_rows << " rows x " << report.ed_cols
            << " cols\n";
  for (const auto& [name, rows] : report.table_rows) {
    std::cout << "  " << name << ": " << rows << " rows\n";
  }
  std::cout << "ED reconstructed: " << report.ed_reconstructed
            << "\ndebugged table recovered: " << report.base_recovered
            << "\ncontainment check: " << report.contains_debugged << "\n";
  return report.ok() ? 0 : 1;
}

int cmd_codegen(const ProtocolSpec& spec, const Args& args) {
  if (args.positional.empty()) return usage();
  ControllerSpec ed_spec = mapping::make_extended_directory(spec);
  const Table& ed = ed_spec.generate(&spec.database().functions());
  auto parts = mapping::partition_directory(ed, spec.database().functions());
  for (const auto& p : parts) {
    if (p.name != args.positional[0]) continue;
    const auto dialect = args.has("--casez") ? mapping::CodeDialect::kCasez
                                             : mapping::CodeDialect::kCxx;
    std::cout << mapping::generate_value_declarations(p.table, p.name)
              << "\n"
              << mapping::generate_code(p.table, p.name, dialect);
    return 0;
  }
  std::cerr << "unknown implementation table: " << args.positional[0]
            << " (try Request_remmsg, Response_dir, ...)\n";
  return 2;
}

int cmd_sim(const ProtocolSpec& spec, const Args& args) {
  const std::string assignment =
      args.positional.empty() ? asura::kAssignV5Fix : args.positional[0];
  sim::SimConfig cfg;
  cfg.n_quads = args.value_of("--quads", 4);
  cfg.n_addrs = args.value_of("--addrs", cfg.n_quads * 2);
  cfg.channel_capacity = args.value_of("--capacity", 2);
  cfg.transactions_per_node = args.value_of("--txns", 100);
  cfg.seed = static_cast<unsigned>(args.value_of("--seed", 1));
  if (const std::string wl = args.str_value_of("--workload", "");
      !wl.empty()) {
    const auto parsed = sim::parse_workload(wl);
    if (!parsed) {
      std::cerr << "unknown workload '" << wl
                << "' (random, lock, producer-consumer, false-sharing, "
                   "streaming)\n";
      return 2;
    }
    cfg.workload = *parsed;
  }

  if (args.has("--fig4")) {
    cfg.n_quads = 3;
    cfg.n_addrs = 6;
    cfg.channel_capacity = 1;
    sim::Machine m(spec, spec.assignment(assignment), cfg);
    m.set_memory_latency(16);
    m.set_line(2, "MESI", {2});
    m.set_line(5, "MESI", {0});
    m.script(0, "pwb", 5);
    m.script(1, "pwr", 2);
    sim::SimResult r = m.run();
    std::cout << "fig4 under " << assignment << ": "
              << (r.deadlocked ? "DEADLOCK" : (r.completed ? "completed"
                                                           : "stalled"))
              << " in " << r.steps << " steps\n"
              << r.deadlock_report;
    return r.deadlocked ? 1 : 0;
  }

  sim::Machine m(spec, spec.assignment(assignment), cfg);
  m.set_memory_latency(args.value_of("--latency", 2));
  m.enable_workload();
  sim::SimResult r = m.run();
  std::cout << "completed=" << r.completed << " deadlocked=" << r.deadlocked
            << " steps=" << r.steps << " transactions="
            << r.transactions_done << " errors=" << r.errors.size()
            << " workload=" << sim::workload_name(cfg.workload)
            << " events/sec=" << r.events_per_sec() << "\n";
  for (const auto& e : r.errors) std::cout << "  " << e << "\n";
  if (r.deadlocked) std::cout << r.deadlock_report;
  if (args.has("--metrics")) std::cout << r.counters.summary();
  return r.healthy() ? 0 : 1;
}

int cmd_reach(const ProtocolSpec& spec, const Args& args) {
  const std::string assignment =
      args.positional.empty() ? asura::kAssignV5Fix : args.positional[0];
  ReachParallelConfig cfg;
  cfg.n_quads = args.value_of("--quads", 2);
  cfg.n_addrs = args.value_of("--addrs", 1);
  cfg.ops_per_node = args.value_of("--ops", 2);
  cfg.max_states =
      static_cast<std::uint64_t>(args.value_of("--max-states", 2000000));
  cfg.stop_at_first_deadlock = args.has("--first-deadlock");
  cfg.symmetry = args.has("--symmetry");
  // Directed exploration: comma-separated op names / per-node budgets.
  if (args.has("--only-ops")) {
    cfg.inject_ops = split_list(args.str_value_of("--only-ops", ""));
    if (cfg.inject_ops.empty()) {
      std::cerr << "error: --only-ops needs at least one op\n";
      return 2;
    }
    for (const std::string& op : cfg.inject_ops) {
      if (sim::is_injectable_op(op)) continue;
      std::cerr << "error: --only-ops: unknown op '" << op << "' (";
      const char* sep = "";
      for (const sim::InjectableOp& known : sim::kInjectableOps) {
        std::cerr << sep << known.name;
        sep = ", ";
      }
      std::cerr << ")\n";
      return 2;
    }
  }
  if (args.has("--node-ops")) {
    for (const std::string& tok :
         split_list(args.str_value_of("--node-ops", ""))) {
      const std::optional<int> budget = parse_int(tok, 0, kMaxOpsPerNode);
      if (!budget) {
        std::cerr << "error: --node-ops needs non-negative integers of at "
                     "most "
                  << kMaxOpsPerNode << ", got '" << tok << "'\n";
        return 2;
      }
      cfg.ops_by_node.push_back(*budget);
    }
    if (cfg.ops_by_node.empty()) {
      std::cerr << "error: --node-ops needs at least one budget\n";
      return 2;
    }
  }

  ReachParallelResult r =
      explore_parallel(spec, spec.assignment(assignment), cfg);
  std::cout << "states=" << r.states << " transitions=" << r.transitions
            << " complete=" << r.complete
            << " deadlock_states=" << r.deadlock_states
            << " violations=" << r.violations.size()
            << " waves=" << r.waves << " dedup=" << r.dedup_hits
            << " canon=" << r.canon_group << " (" << r.seconds << "s)\n";
  for (const auto& v : r.violations) std::cout << "  " << v << "\n";
  if (r.deadlock_states > 0) {
    std::cout << r.deadlock_example;
    std::cout << "witness: " << r.deadlock_trace.size()
              << " actions to the first deadlock\n";
    if (args.has("--witness")) {
      for (const auto& act : r.deadlock_trace) {
        std::cout << "  " << act.to_string() << "\n";
      }
    }
  }

  if (args.has("--classify")) {
    std::vector<ControllerTableRef> refs;
    for (const auto& c : spec.controllers()) {
      refs.push_back(
          ControllerTableRef::from_spec(*c, spec.database().get(c->name())));
    }
    DeadlockAnalysis analysis(refs, spec.assignment(assignment));
    std::cout << "cycle classification:\n"
              << format_classification(classify_cycles(
                     spec, spec.assignment(assignment), analysis.cycles(),
                     cfg));
  }
  return r.verified() ? 0 : 1;
}

/// Runs the default validation grid (quads x channel capacity x workload
/// shape x --seeds seeds) on the pool through sim::SweepEngine.  The merged
/// counters are identical at any --jobs; exit 1 when any run deadlocks,
/// stalls or reports coherence/table errors.
int cmd_sweep(const ProtocolSpec& spec, const Args& args) {
  const std::string assignment =
      args.positional.empty() ? asura::kAssignV5Fix : args.positional[0];
  const auto seeds = static_cast<unsigned>(args.value_of("--seeds", 8));
  const bool quiet = args.has("--quiet");
  // An unknown assignment name throws here, before any run starts.
  static_cast<void>(spec.assignment(assignment));
  const std::size_t jobs = core::Pool::default_jobs();

  const sim::SweepEngine engine(spec);
  const std::vector<sim::SweepRun> grid =
      sim::default_sweep_grid(assignment, seeds);
  std::cout << "# sweep: " << grid.size() << " runs (" << assignment
            << "), jobs=" << jobs << "\n";
  const sim::SweepResult result = engine.run(grid, jobs);

  int shown = 0;  // the first 8 unhealthy runs are described
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const sim::SimResult& r = result.runs[i];
    if (r.healthy() || quiet || ++shown > 8) continue;
    std::cout << "BAD " << grid[i].label() << ": completed=" << r.completed
              << " deadlocked=" << r.deadlocked << " stalled=" << r.stalled
              << " steps=" << r.steps << "\n";
    for (const auto& e : r.errors) std::cout << "  " << e << "\n";
  }

  const auto fixed3 = [](double v) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << v;
    return os.str();
  };
  const double cycles = static_cast<double>(result.merged.cycles);
  std::cout << "# " << result.runs.size() << " runs: " << result.completed
            << " completed, " << result.deadlocked << " deadlocked, "
            << result.stalled << " stalled, " << result.unhealthy
            << " unhealthy\n"
            << "# events " << result.events << "  cycles "
            << result.merged.cycles << "  events/cycle "
            << fixed3(cycles > 0 ? static_cast<double>(result.events) / cycles
                                 : 0.0)
            << "\n"
            << "# wall " << fixed3(result.seconds) << "s  events/sec "
            << result.events_per_sec << "\n";
  if (!quiet) std::cout << result.merged.summary();
  return result.all_healthy() ? 0 : 1;
}

int cmd_lint(const ProtocolSpec& spec, const Args&) {
  auto findings = lint(spec, asura::processor_sinks());
  std::cout << lint_report(findings);
  return 0;
}

/// Stands up a serve::Server over the protocol database, drives N
/// concurrent sessions over the invariant suite (or a --script of SELECTs,
/// one per line, '#' comments and blank lines skipped), and prints the
/// throughput/latency/cache report.  Exit 0 clean, 1 on violations, 2 on
/// usage or setup errors.
int cmd_serve(const ProtocolSpec& spec, const Args& args) {
  const auto sessions =
      static_cast<std::size_t>(args.value_of("--sessions", 8));
  const auto iterations =
      static_cast<std::size_t>(args.value_of("--iterations", 1));
  const bool use_cache = !args.has("--no-cache");
  const auto max_inflight =
      static_cast<std::size_t>(args.value_of("--max-inflight", 0));
  const auto writer_swaps =
      static_cast<std::size_t>(args.value_of("--writer", 0));
  const std::string script_path = args.str_value_of("--script", "");

  std::vector<std::string> statements;
  bool exists_mode = true;
  if (!script_path.empty()) {
    std::ifstream in(script_path);
    if (!in) {
      std::cout << "serve: cannot open script " << script_path << "\n";
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      statements.push_back(line);
    }
    exists_mode = false;
  } else {
    for (const auto& inv : spec.invariants()) statements.push_back(inv.sql);
  }
  if (statements.empty()) {
    std::cout << "serve: nothing to run\n";
    return 2;
  }

  serve::ServerOptions server_opts;
  server_opts.use_plan_cache = use_cache;
  server_opts.max_inflight = max_inflight;
  serve::Server server(spec.database(), server_opts);

  serve::DriveOptions drive_opts;
  drive_opts.sessions = sessions;
  drive_opts.iterations = iterations;
  drive_opts.exists_mode = exists_mode;
  drive_opts.writer_swaps = writer_swaps;
  if (writer_swaps > 0) {
    drive_opts.writer_table = spec.controllers().front()->name();
  }

  serve::DriveReport report = serve::drive(server, statements, drive_opts);
  const serve::ServerStats stats = server.stats();

  std::ostream& os = std::cout;
  os << "serve: " << sessions << " sessions x " << iterations
     << " iterations over " << statements.size()
     << (exists_mode ? " invariants" : " queries") << " (cache "
     << (use_cache ? "on" : "off");
  if (max_inflight > 0) os << ", max-inflight " << max_inflight;
  os << ")\n";
  os << "  queries=" << report.queries << " violations=" << report.violations
     << " wall=" << report.wall_us / 1000 << "ms qps=" << std::uint64_t(
            report.qps())
     << " p50=" << report.latency_percentile_us(0.5)
     << "us p95=" << report.latency_percentile_us(0.95) << "us\n";
  os << "  plan_cache: hits=" << stats.cache.hits
     << " misses=" << stats.cache.misses
     << " evictions=" << stats.cache.evictions
     << " invalidations=" << stats.cache.invalidations
     << " entries=" << stats.cache.entries << "\n";
  if (writer_swaps > 0) {
    os << "  writer: swaps=" << report.writer_swaps
       << " generation=" << stats.generation
       << " admission_waits=" << stats.admission_waits << "\n";
  }
  if (args.has("-v")) {
    for (const auto& s : report.sessions) {
      os << "  session " << s.id << ": queries=" << s.queries
         << " violations=" << s.violations << " run=" << s.run_us / 1000
         << "ms\n";
    }
  }

  // Make the run observable: serve.* gauges land in the process metrics
  // registry (the --stats page reads them there, and a tracing run
  // flushes them as counter events for trace_summary's serve digest).
  if (obs::Tracer::global().enabled()) {
    server.publish_stats(obs::Tracer::global().metrics());
  }
  return report.violations == 0 ? 0 : 1;
}

int cmd_flow(const ProtocolSpec& spec, const Args&) {
  Flow flow(spec);
  FlowOptions opts;
  opts.map_directory = true;
  FlowReport report = flow.run(opts);
  std::cout << report.summary();
  std::cout << "debugged under " << asura::kAssignV5Fix << ": "
            << report.debugged(asura::kAssignV5Fix) << "\n";
  return report.debugged(asura::kAssignV5Fix) ? 0 : 1;
}

/// Installs the sink / metrics requested by --trace/--trace-format/--metrics
/// (the CCSQL_TRACE environment path is handled by Tracer::global() itself).
int configure_observability(const Args& args) {
  auto& tracer = obs::Tracer::global();
  if (args.has("--trace")) {
    const std::string path = args.str_value_of("--trace", "");
    obs::Format format = obs::format_for_path(path);
    if (args.has("--trace-format")) {
      auto parsed = obs::parse_format(args.str_value_of("--trace-format", ""));
      if (!parsed) {
        std::cerr << "error: --trace-format must be text, jsonl or chrome\n";
        return 2;
      }
      format = *parsed;
    }
    tracer.set_sink(obs::open_trace_file(path, format));
  }
  if (args.has("--metrics") || args.has("--stats")) tracer.enable_metrics();
  if (args.has("--jobs")) {
    // Before any parallel region, so the global pool is sized to match.
    core::Pool::set_default_jobs(
        static_cast<std::size_t>(args.value_of("--jobs", 1)));
  }
  return 0;
}

/// End-of-run one-page summary for --stats: the top counters, histogram
/// p50/p95/max, pool utilization, and memory accounting — no trace file
/// needed.
void print_stats_page(std::ostream& os) {
  obs::Metrics& metrics = obs::Tracer::global().metrics();
  core::Pool::global().publish_stats(metrics);
  obs::MemTracker::global().publish(metrics);

  os << "=== run stats ===\n";
  auto counters = metrics.counters();
  if (!counters.empty()) {
    std::vector<std::pair<std::string, std::uint64_t>> ranked(
        counters.begin(), counters.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (ranked.size() > 12) ranked.resize(12);
    os << "top counters:\n";
    for (const auto& [name, value] : ranked) {
      os << "  " << name << " = " << value << "\n";
    }
  }
  auto hists = metrics.histograms();
  if (!hists.empty()) {
    os << "histograms:\n";
    for (const auto& [name, h] : hists) {
      os << "  " << name << "  count=" << h.count << " p50=" << h.percentile(0.5)
         << " p95=" << h.percentile(0.95) << " max=" << h.max << "\n";
    }
  }
  os << core::Pool::global().stats().summary() << "\n";
  os << obs::MemTracker::global().summary() << "\n";
  // Serving-layer digest, present only when a serve::Server published.
  if (const std::uint64_t serve_queries = metrics.counter("serve.queries");
      serve_queries != 0) {
    os << "serve: queries=" << serve_queries << " (uncached "
       << metrics.counter("serve.uncached_queries") << ")  plan_cache hits="
       << metrics.counter("serve.plan_cache.hits")
       << " misses=" << metrics.counter("serve.plan_cache.misses")
       << " evictions=" << metrics.counter("serve.plan_cache.evictions")
       << " entries=" << metrics.counter("serve.plan_cache.entries")
       << "  snapshot.active=" << metrics.counter("serve.snapshot.active")
       << "\n";
  }
}

struct Command {
  const char* name;
  int (*run)(const ProtocolSpec&, const Args&);
  std::vector<FlagSpec> flags;  // accepted besides kGlobalFlags
};

const std::vector<Command>& commands() {
  using K = FlagKind;
  static const std::vector<Command> table = {
      {"tables", cmd_tables, {{"--csv", K::kSwitch}}},
      {"sql", cmd_sql, {}},
      {"explain", cmd_explain, {{"--analyze", K::kSwitch}}},
      {"invariants", cmd_invariants, {{"-v", K::kSwitch}}},
      {"deadlock", cmd_deadlock, {}},
      {"map", cmd_map, {}},
      {"codegen", cmd_codegen, {{"--casez", K::kSwitch}}},
      {"sim",
       cmd_sim,
       {{"--fig4", K::kSwitch},
        {"--quads", K::kCount, nullptr, kMaxQuads},
        {"--addrs", K::kCount, nullptr, kMaxAddrs},
        {"--capacity", K::kCount, nullptr, kMaxCapacity},
        {"--txns", K::kCount, nullptr, kMaxOpsPerNode},
        {"--seed", K::kInt},
        {"--latency", K::kInt},
        {"--workload", K::kText, "a workload name"}}},
      {"sweep",
       cmd_sweep,
       {{"--seeds", K::kCount, nullptr, kMaxSeeds}, {"--quiet", K::kSwitch}}},
      {"reach",
       cmd_reach,
       {{"--quads", K::kCount, nullptr, kMaxQuads},
        {"--addrs", K::kCount, nullptr, kMaxAddrs},
        {"--ops", K::kCount, nullptr, kMaxOpsPerNode},
        // A search budget: nothing is sized by it up front.
        {"--max-states", K::kCount},
        {"--first-deadlock", K::kSwitch},
        {"--symmetry", K::kSwitch},
        {"--classify", K::kSwitch},
        {"--witness", K::kSwitch},
        {"--only-ops", K::kText, "a comma-separated op list"},
        {"--node-ops", K::kText, "a comma-separated budget list"}}},
      {"lint", cmd_lint, {}},
      {"serve",
       cmd_serve,
       {{"--sessions", K::kCount, nullptr, kMaxSessions},
        {"--iterations", K::kCount, nullptr, kMaxIterations},
        {"--no-cache", K::kSwitch},
        {"--max-inflight", K::kInt},
        {"--writer", K::kInt},
        {"--script", K::kText, "a file path"},
        {"-v", K::kSwitch}}},
      {"flow", cmd_flow, {}},
  };
  return table;
}

/// Parses argv[2..] for `cmd`: a token starting with '-' must be a global
/// flag or one of the command's own; a valued flag takes the next token,
/// which must not itself start with '-'; an integer value must be a
/// decimal from 0 (kInt) or 1 (kCount) up to the flag's max.  Returns
/// false after printing the error.
bool parse_args(const Command& cmd, int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.empty() || token[0] != '-') {
      args.positional.push_back(token);
      continue;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : kGlobalFlags) {
      if (token == f.name) spec = &f;
    }
    for (const FlagSpec& f : cmd.flags) {
      if (token == f.name) spec = &f;
    }
    if (spec == nullptr) {
      std::cerr << "error: unknown flag " << token << " for ccsql "
                << cmd.name << "\n";
      return false;
    }
    std::string value;
    if (spec->kind != FlagKind::kSwitch) {
      if (i + 1 >= argc || argv[i + 1][0] == '-') {
        std::cerr << "error: " << token << " needs " << spec->wanted()
                  << "\n";
        return false;
      }
      value = argv[++i];
    }
    if ((spec->kind == FlagKind::kInt || spec->kind == FlagKind::kCount) &&
        !parse_int(value, spec->kind == FlagKind::kCount ? 1 : 0,
                   spec->max)) {
      std::cerr << "error: " << token << " needs " << spec->wanted()
                << ", got '" << value << "'\n";
      return false;
    }
    args.flags[token] = value;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto& table = commands();
  const auto cmd_it =
      std::find_if(table.begin(), table.end(), [&](const Command& c) {
        return std::string(argv[1]) == c.name;
      });
  if (cmd_it == table.end()) return usage();
  Args args;
  if (!parse_args(*cmd_it, argc, argv, args)) return 2;

  // Flushes and closes the trace sink however main unwinds — error returns,
  // thrown exceptions — so JSONL/Chrome traces are never truncated
  // mid-event.  finish() is idempotent: the explicit call below makes the
  // guard a no-op on the normal path.
  struct TraceFlushGuard {
    ~TraceFlushGuard() { obs::Tracer::global().finish(); }
  } flush_guard;
  int rc = 1;
  try {
    rc = configure_observability(args);
    if (rc == 0) {
      auto spec = ccsql::asura::make_asura();
      rc = cmd_it->run(*spec, args);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    rc = 1;
  }
  auto& tracer = obs::Tracer::global();
  const bool print_metrics = tracer.metrics_enabled();
  if (args.has("--stats")) print_stats_page(std::cout);
  tracer.finish();  // flush + close the trace before the process exits
  if (print_metrics && !args.has("--stats")) {
    std::cout << tracer.metrics().summary();
  }
  return rc;
}

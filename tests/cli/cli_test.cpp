// End-to-end smoke tests of the ccsql command-line driver: every command
// runs, produces the expected headline output, and returns the documented
// exit code.  The binary path is injected by CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(CCSQL_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    r.output += buf.data();
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(Cli, NoArgsShowsUsage) {
  RunResult r = run("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: ccsql"), std::string::npos);
}

TEST(Cli, TablesListsAllEight) {
  RunResult r = run("tables");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* name : {"D:", "M:", "NC:", "CC:", "RSN:", "RAC:", "IOC:",
                           "INT:"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
}

TEST(Cli, TablesSingleCsv) {
  RunResult r = run("tables M --csv");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("inmsg,"), std::string::npos);
  EXPECT_NE(r.output.find("mread,"), std::string::npos);
}

TEST(Cli, SqlStatementChain) {
  RunResult r = run(
      "sql \"create table T as select distinct dirst from D; "
      "select count(*) from T order by count\"");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("3"), std::string::npos);  // I, SI, MESI
}

TEST(Cli, SqlErrorsAreReported) {
  RunResult r = run("sql \"select nope from Missing\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, InvariantsPass) {
  RunResult r = run("invariants");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("0 violated"), std::string::npos);
  // The suite reports its total time against the paper's <5 min budget.
  EXPECT_NE(r.output.find("suite total:"), std::string::npos);
  EXPECT_NE(r.output.find("paper budget 300 s: PASS"), std::string::npos);
}

TEST(Cli, DeadlockFindsFigure4AndExitsNonzero) {
  RunResult r = run("deadlock V5");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cycle"), std::string::npos);
  EXPECT_NE(r.output.find("VC4"), std::string::npos);
}

TEST(Cli, DeadlockCleanAssignmentExitsZero) {
  RunResult r = run("deadlock V5fix");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("deadlock-free"), std::string::npos);
}

TEST(Cli, MapVerifies) {
  RunResult r = run("map");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("ED reconstructed: 1"), std::string::npos);
}

TEST(Cli, CodegenEmitsFunction) {
  RunResult r = run("codegen Response_bdir");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("void Response_bdir_step"), std::string::npos);
  RunResult casez = run("codegen Response_bdir --casez");
  EXPECT_NE(casez.output.find("casez"), std::string::npos);
}

TEST(Cli, SimFig4DeadlocksUnderV5) {
  RunResult r = run("sim V5 --fig4");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("DEADLOCK"), std::string::npos);
}

TEST(Cli, SimRandomHealthyUnderFix) {
  RunResult r = run("sim V5fix --quads 3 --txns 30 --seed 5");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("completed=1"), std::string::npos);
  EXPECT_NE(r.output.find("errors=0"), std::string::npos);
}

// The validation sweep (one seed per cell: 3 topologies x 3 capacities x
// 5 workload shapes) completes healthy and exits 0.
TEST(Cli, SweepSmokeHealthy) {
  RunResult r = run("sweep --seeds 1 --jobs 2 --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("# sweep: 45 runs (V5fix), jobs=2"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("# 45 runs: 45 completed, 0 deadlocked, 0 stalled, "
                          "0 unhealthy"),
            std::string::npos)
      << r.output;
}

// Figure 4 end to end: the directed search under V5 reaches the VC2/VC4
// wedge (exit 1) and labels the VCG cycles against it.
TEST(Cli, ReachClassifiesFigure4Cycles) {
  RunResult r = run(
      "reach V5 --quads 2 --addrs 3 --ops 2 --only-ops prd,patomic "
      "--node-ops 2,1 --classify --witness");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("witness: 16 actions to the first deadlock"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("cycle 0 [VC2 VC4]: reachable  (witness: 16 "
                          "actions)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("cycle 1 [VC4]: unreachable"), std::string::npos);
  EXPECT_NE(r.output.find("cycle 2 [VC2]: unreachable"), std::string::npos);
}

TEST(Cli, ReachSmallConfigVerified) {
  RunResult r = run("reach V5fix --quads 2 --addrs 1 --ops 1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("complete=1"), std::string::npos);
  EXPECT_NE(r.output.find("deadlock_states=0"), std::string::npos);
}

TEST(Cli, LintReportsPinnedAdvisories) {
  RunResult r = run("lint");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("8 finding(s)"), std::string::npos);
  EXPECT_NE(r.output.find("Dfdback"), std::string::npos);
}

TEST(Cli, FlowReportsDebugged) {
  RunResult r = run("flow");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("debugged under V5fix: 1"), std::string::npos);
  EXPECT_NE(r.output.find("hardware mapping:"), std::string::npos);
  EXPECT_NE(r.output.find("sim validation"), std::string::npos);
  EXPECT_NE(r.output.find("budget OK"), std::string::npos);
}

TEST(Cli, ExplainAnalyzeProfilesOperators) {
  RunResult r = run(
      "explain --analyze \"Select a.memmsg, b.inmsg, b.outmsg from D a, M b "
      "where a.memmsg = b.inmsg and a.memmsg = \\\"wb\\\" and "
      "not b.outmsg = \\\"compl\\\"\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("time="), std::string::npos);
  EXPECT_NE(r.output.find("rows_out="), std::string::npos);
  EXPECT_NE(r.output.find("build="), std::string::npos);
  EXPECT_NE(r.output.find("memory:"), std::string::npos);
  // Plain explain carries no profile brackets.
  RunResult plain = run("explain \"Select dirst from D\"");
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(plain.output.find("time="), std::string::npos);
}

TEST(Cli, StatsPrintsOnePageSummary) {
#ifdef CCSQL_TRACING_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (CCSQL_TRACING=OFF)";
#endif
  RunResult r = run("invariants --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("=== run stats ==="), std::string::npos);
  EXPECT_NE(r.output.find("pool:"), std::string::npos);
  EXPECT_NE(r.output.find("memory:"), std::string::npos);
  EXPECT_NE(r.output.find("p95="), std::string::npos);
}

TEST(Cli, SimMetricsPrintsCounterTable) {
#ifdef CCSQL_TRACING_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (CCSQL_TRACING=OFF)";
#endif
  RunResult r = run("sim V5fix --quads 2 --txns 10 --metrics");
  EXPECT_EQ(r.exit_code, 0);
  // Per-run counters ...
  EXPECT_NE(r.output.find("sim.msgs_sent"), std::string::npos);
  EXPECT_NE(r.output.find("sim.table_hits"), std::string::npos);
  EXPECT_NE(r.output.find("sim.vc_sent."), std::string::npos);
  // ... and the global registry (solver counters from table generation).
  EXPECT_NE(r.output.find("solver.tables_generated"), std::string::npos);
}

TEST(Cli, FlowChromeTraceCoversEveryLayer) {
#ifdef CCSQL_TRACING_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (CCSQL_TRACING=OFF)";
#endif
  const std::string trace =
      "/tmp/ccsql_cli_trace_" + std::to_string(getpid()) + ".json";
  RunResult r = run("flow --trace " + trace + " --trace-format chrome");
  EXPECT_EQ(r.exit_code, 0) << r.output;

  std::ifstream in(trace);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string body = buffer.str();
  std::remove(trace.c_str());

  EXPECT_EQ(body.front(), '[');  // a trace_event JSON array
  // Spans from all four instrumented layers plus the flow driver itself.
  EXPECT_NE(body.find("\"cat\":\"relational\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"solver\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"checks\""), std::string::npos);
  EXPECT_NE(body.find("\"cat\":\"sim\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"flow.run\""), std::string::npos);
  // trace_event required keys.
  EXPECT_NE(body.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(body.find("\"ts\":"), std::string::npos);
}

TEST(Cli, TraceFlagRequiresAPath) {
  RunResult r = run("flow --trace");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace needs a file path"), std::string::npos);
}

TEST(Cli, BadTraceFormatIsRejected) {
  RunResult r = run("flow --trace /tmp/x.json --trace-format yaml");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace-format must be"), std::string::npos);
}

// Each command accepts only the global flags and its own: an unknown flag
// (including the retired engine switches) exits 2 before any work runs.
TEST(Cli, UnknownFlagsAreRejected) {
  for (const char* args :
       {"flow --bogus", "invariants --no-planner", "sim --no-bytecode",
        "tables --analyze", "sim --no-dense", "reach --sequential",
        "sweep --hashed"}) {
    RunResult r = run(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("unknown flag"), std::string::npos) << args;
  }
}

// Malformed values, and numbers below the flag's minimum: a count such as
// --quads, --addrs or --txns starts at 1 (0 used to divide by zero or to
// pass with no work done).  List flags are checked item by item: op names
// against the simulator's injectable operations, budgets as non-negative
// integers.
TEST(Cli, MalformedNumbersAreRejected) {
  for (const char* args :
       {"serve --sessions abc", "serve --iterations 2x", "serve --sessions 0",
        "serve --jobs 0", "sim --quads -3", "reach --ops", "sim --addrs 0",
        "reach --quads 0", "sim --quads 0", "sim --txns 0", "sweep --seeds 0",
        "reach --only-ops bogus", "reach --only-ops prd,bogus",
        "reach --node-ops 2,x", "reach --node-ops 1,+2",
        // Past the count ceilings: rejected at parse time, before anything
        // is sized by the value.
        "sim --quads 100000 --txns 1", "reach --quads 1000 --addrs 1000",
        "sim --quads 257", "sim --addrs 65537", "sim --capacity 65537",
        "sim --txns 1048577", "reach --ops 1048577",
        "reach --node-ops 2,1048577", "sweep --seeds 1001",
        "serve --sessions 257", "serve --iterations 1001",
        "flow --jobs 1025"}) {
    RunResult r = run(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos) << args;
  }
}

/// The value printed for `name` in the --metrics summary ("name  value").
long metric(const std::string& output, const std::string& name) {
  const std::size_t at = output.find("\n" + name + " ");
  if (at == std::string::npos) return -1;
  return std::stol(output.substr(at + name.size() + 2));
}

// The plan.index_builds / plan.index_hits split is decided by the index
// cache itself, so the invariant suite reports the same split at any job
// count (a racy pre-check once let parallel runs count extra builds).
TEST(Cli, IndexBuildSplitIsJobsIndependent) {
#ifdef CCSQL_TRACING_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (CCSQL_TRACING=OFF)";
#endif
  const RunResult serial = run("invariants --metrics --jobs 1");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  const long builds = metric(serial.output, "plan.index_builds");
  const long hits = metric(serial.output, "plan.index_hits");
  ASSERT_GT(builds, 0) << serial.output;
  ASSERT_GT(hits, 0) << serial.output;
  for (int i = 0; i < 4; ++i) {
    const RunResult par = run("invariants --metrics --jobs 4");
    ASSERT_EQ(par.exit_code, 0) << par.output;
    EXPECT_EQ(metric(par.output, "plan.index_builds"), builds) << i;
    EXPECT_EQ(metric(par.output, "plan.index_hits"), hits) << i;
  }
}

// Flow generates each controller table once (eight, then ED in the mapping
// stage): taking the function registry for the first generation must not
// build the whole database inside that table's timed window.
TEST(Cli, FlowGeneratesEachTableOnce) {
#ifdef CCSQL_TRACING_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (CCSQL_TRACING=OFF)";
#endif
  const RunResult r = run("flow --metrics");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(metric(r.output, "solver.tables_generated"), 9) << r.output;
}

}  // namespace

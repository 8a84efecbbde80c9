// ccsql_perf: one run of one benchmark workload (see README.md).
//
//   ccsql_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--git-sha <sha>] [--source-digest <hex>]
//              [--trace-out <file.jsonl>] [--expect <fact>=<value>]...
//
// --trace 0 times the workload and prints the end-to-end metrics; --trace 1
// records spans around the calls into each module and prints the per-layer
// metrics.  The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it carry
// the host context and a readable digest.  Exit 0 on a finished run (failed
// ops are reported, not fatal), 2 on bad usage, 1 on an internal error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pool.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef CCSQL_PERF_BUILD_TYPE
#define CCSQL_PERF_BUILD_TYPE "unknown"
#endif
#ifndef CCSQL_PERF_COMPILER
#define CCSQL_PERF_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per run, half before the warm-up and half after the timed ops
/// (so they sample the start and the end of the run); setup_s is their
/// median.
constexpr int kSetupReps = 24;
/// Set-ups of the workloads a traced run probes besides its own.
constexpr int kProbeSetupReps = 3;
/// Workload seeds are taken modulo this.
constexpr unsigned long long kSeedRange = 1000000;

struct Options {
  std::string workload;
  unsigned seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
  Facts facts;
};

int usage(const std::string& why) {
  std::cerr << "ccsql_perf: " << why
            << "\nusage: ccsql_perf --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--git-sha <sha>] [--source-digest <hex>]"
               " [--trace-out <file>] [--expect <fact>=<value>]...\n";
  return 2;
}

bool parse_uint(const std::string& text, unsigned long long max,
                unsigned long long& out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && end == text.data() + text.size() && out <= max;
}

/// Returns 0 on success, else the exit code.
int parse(int argc, char** argv, Options& o) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      // Any 64-bit integer, signed or not; it is folded into [0, kSeedRange)
      // so the workloads' seed arithmetic cannot overflow.  Seeds below
      // kSeedRange map to themselves.
      const bool negative = !value.empty() && value[0] == '-';
      if (!parse_uint(negative ? value.substr(1) : value,
                      std::numeric_limits<unsigned long long>::max(), n)) {
        return usage("bad --seed " + value);
      }
      o.seed = static_cast<unsigned>(n % kSeedRange);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 600, n) || n == 0) {
        return usage("bad --seconds " + value);
      }
      o.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else if (flag == "--source-digest") {
      o.source_digest = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--expect") {
      if (!o.facts.set(value)) return usage("bad --expect " + value);
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// The process's peak resident set.  VmHWM starts afresh at exec, whereas
/// Linux carries ru_maxrss over from the image that exec replaced (here the
/// launching Python process), so ru_maxrss is only the fallback.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// 64-bit FNV-1a, for the context's comparability key.
std::string fnv_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The host context line.  `comparable_as` hashes everything two results
/// must share to be compared (not the seed or the code version, which are
/// what a comparison varies): results with different keys are not
/// comparable.
void print_context(const Options& o, const Workload& w, std::size_t ops) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream key;
  key << "nproc=" << nproc << ";jobs=" << w.jobs()
      << ";build=" << CCSQL_PERF_BUILD_TYPE
      << ";compiler=" << CCSQL_PERF_COMPILER << ";workload=" << w.name()
      << ";seconds=" << o.seconds << ";trace=" << o.trace;
  std::cout << "# context {\"workload\":\"" << w.name() << "\",\"seed\":"
            << o.seed << ",\"seconds\":" << o.seconds
            << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"git_sha\":\""
            << json_escape(o.git_sha) << "\",\"source_digest\":\""
            << json_escape(o.source_digest) << "\",\"nproc\":" << nproc
            << ",\"jobs\":" << w.jobs() << ",\"build_type\":\""
            << CCSQL_PERF_BUILD_TYPE << "\",\"compiler\":\""
            << CCSQL_PERF_COMPILER << "\",\"timed_ops\":" << ops
            << ",\"comparable_as\":\"" << fnv_hex(key.str()) << "\"}\n";
}

/// A safety stop, far beyond the reference run length, that keeps a run on
/// a much slower host inside its time limit; runs that hit it say so.
bool past_time_cap(const Options& o, Clock::time_point start) {
  return ms_between(start, Clock::now()) > 4e3 * o.seconds;
}

std::size_t timed_ops(const Options& o, const Workload& w) {
  const double ops = std::round(o.seconds * w.ops_per_second());
  return std::max<std::size_t>(5, static_cast<std::size_t>(ops));
}

/// Wall (s) of `reps` fresh set-ups; the workload keeps the last one's
/// state.
std::vector<double> timed_setups(Workload& w, int reps, SpanRecorder* rec) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    w.reset();
    if (rec != nullptr) rec->set_op(0);
    const auto t0 = Clock::now();
    {
      SpanRecorder::Scope span(rec, "setup");
      w.setup(rec);
    }
    secs.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return secs;
}

void warm_up(Workload& w, std::uint64_t& next_op) {
  for (std::size_t i = 0; i < w.warmup_ops(); ++i) {
    w.record(w.op(next_op++, nullptr).ok);
  }
}

/// --trace 0: the end-to-end metrics.
Metrics run_timed(const Options& o, Workload& w) {
  Metrics out;
  std::vector<double> setup_secs = timed_setups(w, kSetupReps / 2, nullptr);
  std::uint64_t next_op = 0;
  warm_up(w, next_op);

  const std::size_t n = timed_ops(o, w);
  print_context(o, w, n);
  NsHistogram op_ns;
  double work = 0.0;
  const auto start = Clock::now();
  for (std::size_t j = 0; j < n && !past_time_cap(o, start); ++j) {
    const auto t0 = Clock::now();
    const OpOutcome r = w.op(next_op++, nullptr);
    op_ns.add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count());
    w.record(r.ok);
    work += r.work;
  }
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  const std::vector<double> late =
      timed_setups(w, kSetupReps - kSetupReps / 2, nullptr);
  setup_secs.insert(setup_secs.end(), late.begin(), late.end());
  if (op_ns.size() < n) {
    std::cout << "# time cap: stopped after " << op_ns.size() << " of " << n
              << " ops\n";
  }

  out.push_back({"setup_s", median(setup_secs), "s"});
  out.push_back({"work_per_s", work / wall_s, "1/s"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  std::cout << "# timed " << op_ns.size() << " ops in " << number(wall_s)
            << " s; " << w.work_unit() << " per second "
            << number(work / wall_s) << "\n";
  // Op-time percentiles are printed, not reported as metrics: the host's
  // fast and slow phases make per-op times bimodal, so a run's median jumps
  // between the phases (README.md, "Host noise and bounds").  A p90 is
  // meaningful only with at least ten ops beyond it.
  std::cout << "# op_ms_p50 " << number(op_ns.quantile_ms(0.5)) << " ms\n";
  if (op_ns.size() >= 100) {
    std::cout << "# op_ms_p90 " << number(op_ns.quantile_ms(0.9)) << " ms\n";
  }
  return out;
}

/// One workload's traced phase: set-ups, warm-up, then ops alternating
/// traced and untraced blocks, then the workload's per-layer metrics.
void traced_phase(const Options& o, Workload& w, bool own, Metrics& out,
                  std::map<std::string, std::vector<double>>& setup_spans) {
  SpanRecorder rec;
  timed_setups(w, own ? kSetupReps / 2 : kProbeSetupReps, &rec);
  for (const char* name :
       {"protocol.spec_build", "sim.compile", "serve.server_build"}) {
    for (double ms : rec.durations_ms(name)) setup_spans[name].push_back(ms);
  }
  std::uint64_t next_op = 0;
  warm_up(w, next_op);

  PhaseInfo phase;
  phase.own = own;
  phase.jobs = w.jobs();
  const std::size_t n = own ? w.traced_ops(timed_ops(o, w)) : w.probe_ops();
  if (own) print_context(o, w, n);
  const std::size_t block = w.trace_block();
  const auto pool_before = ccsql::core::Pool::global().stats();
  const auto start = Clock::now();
  for (std::size_t j = 0; j < n && !past_time_cap(o, start); ++j) {
    const bool traced = (j / block) % 2 == 0;
    const std::uint64_t id = next_op++;
    rec.set_op(id);
    const auto t0 = Clock::now();
    OpOutcome r;
    if (traced) {
      SpanRecorder::Scope span(&rec, "op");
      r = w.op(id, &rec);
    } else {
      r = w.op(id, nullptr);
    }
    (traced ? phase.traced_ms : phase.untraced_ms)
        .push_back(ms_between(t0, Clock::now()));
    w.record(r.ok);
  }
  const auto pool_after = ccsql::core::Pool::global().stats();

  w.layer_metrics(rec, phase, out);
  if (own) {
    out.push_back({"bench.trace_overhead_ms",
                   median(phase.traced_ms) - median(phase.untraced_ms),
                   "ms"});
    const double busy =
        static_cast<double>(pool_after.busy_nanos - pool_before.busy_nanos);
    const double idle =
        static_cast<double>(pool_after.idle_nanos - pool_before.idle_nanos);
    // No pool workers at jobs 1: nothing to utilize, reported as 0.
    out.push_back({"core.pool.utilization",
                   busy + idle > 0 ? busy / (busy + idle) : 0.0, "ratio"});
  }
  if (!o.trace_out.empty() && !rec.append_jsonl(o.trace_out, w.name())) {
    throw std::runtime_error("cannot write spans to " + o.trace_out);
  }
}

/// --trace 1: the per-layer metrics.  The run's own workload runs its full
/// op count; every other workload runs a short probe so that each layer is
/// reported, all at the own workload's pinned jobs.
Metrics run_traced(const Options& o, Workload& own,
                   std::vector<std::unique_ptr<Workload>>& probes) {
  Metrics out;
  std::map<std::string, std::vector<double>> setup_spans;
  traced_phase(o, own, true, out, setup_spans);
  for (auto& w : probes) traced_phase(o, *w, false, out, setup_spans);
  out.push_back({"protocol.spec_build_ms",
                 median(setup_spans["protocol.spec_build"]), "ms"});
  out.push_back({"sim.compile_ms", median(setup_spans["sim.compile"]), "ms"});
  out.push_back({"serve.server_build_ms",
                 median(setup_spans["serve.server_build"]), "ms"});
  return out;
}

int run(int argc, char** argv) {
  Options o;
  if (const int rc = parse(argc, argv, o); rc != 0) return rc;
  auto w = make_workload(o.workload, o.seed, o.facts);
  if (!w) return usage("unknown workload " + o.workload);
  // The program's own tracer stays off: it would be hidden instrumentation.
  if (ccsql::obs::Tracer::global().enabled()) {
    std::cerr << "ccsql_perf: the obs tracer is on (CCSQL_TRACE or "
                 "CCSQL_METRICS set); unset it\n";
    return 2;
  }
  ccsql::core::Pool::set_default_jobs(w->jobs());
  if (!o.trace_out.empty()) std::remove(o.trace_out.c_str());

  std::vector<std::unique_ptr<Workload>> probes;
  if (o.trace) {
    for (const auto& name : workload_names()) {
      if (name != w->name()) {
        probes.push_back(make_workload(name, o.seed, o.facts));
      }
    }
  }
  const Metrics metrics =
      o.trace ? run_traced(o, *w, probes) : run_timed(o, *w);

  std::uint64_t attempted = w->attempted();
  std::uint64_t failed = w->failed();
  for (const auto& p : probes) {
    attempted += p->attempted();
    failed += p->failed();
  }
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ccsql_perf: " << e.what() << "\n";
    return 1;
  }
}

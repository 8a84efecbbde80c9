// bench_diff — compare two ccsql-bench/1 metrics documents.
//
//   bench_diff OLD.json NEW.json [--threshold PCT] [--report-only]
//
// OLD is the baseline (bench/baselines/*.json), NEW is a fresh run written
// via CCSQL_BENCH_OUT.  Metrics are matched by name; a `bench.*` time-unit
// metric (us/ms/ns) whose NEW value exceeds OLD by more than the threshold
// (default 20%) is a regression, as is a `bench.*` rate metric (qps —
// higher is better) whose NEW value falls short of OLD by more than the
// threshold.  Everything else — counts, bytes, percent, and the pool
// busy/idle nanos (scheduler residency, not workload speed) — is compared
// for information only.  A gated (`bench.*` time or rate) metric present
// in OLD but missing from NEW fails the comparison: dropping a gated
// number takes an explicit baseline edit.
//
// Exit status: 0 clean, 1 regression found (suppressed by --report-only,
// the CI bring-up mode), gated metric missing, or unreadable input, 2 usage
// error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json_mini.hpp"

namespace {

using ccsql::obs::json::JValue;

struct Metric {
  double value = 0;
  std::string unit;
};

struct BenchDoc {
  std::string bench;
  std::string git_sha;
  double jobs = 0;
  std::map<std::string, Metric> metrics;
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff OLD.json NEW.json [--threshold PCT] "
               "[--report-only]\n");
  return 2;
}

bool is_time_unit(const std::string& unit) {
  return unit == "us" || unit == "ms" || unit == "ns";
}

/// Higher-is-better units: a drop beyond the threshold is the regression.
bool is_rate_unit(const std::string& unit) { return unit == "qps"; }

/// Reads and validates one ccsql-bench/1 document.  Returns false (with a
/// message on stderr) on I/O, parse, or schema mismatch.
bool load(const char* path, BenchDoc& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  JValue v;
  try {
    v = ccsql::obs::json::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", path, e.what());
    return false;
  }
  if (!v.has("schema") || v.at("schema").str != "ccsql-bench/1") {
    std::fprintf(stderr, "bench_diff: %s: not a ccsql-bench/1 document\n",
                 path);
    return false;
  }
  out.bench = v.has("bench") ? v.at("bench").str : "?";
  out.git_sha = v.has("git_sha") ? v.at("git_sha").str : "unknown";
  out.jobs = v.has("jobs") ? v.at("jobs").number : 0;
  if (v.has("metrics")) {
    for (const JValue& m : v.at("metrics").arr) {
      if (!m.has("name") || !m.has("value")) continue;
      Metric metric;
      metric.value = m.at("value").number;
      metric.unit = m.has("unit") ? m.at("unit").str : "count";
      out.metrics.emplace(m.at("name").str, metric);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* old_path = nullptr;
  const char* new_path = nullptr;
  double threshold_pct = 20.0;
  bool report_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold_pct = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--report-only") == 0) {
      report_only = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (old_path == nullptr) {
      old_path = argv[i];
    } else if (new_path == nullptr) {
      new_path = argv[i];
    } else {
      return usage();
    }
  }
  if (old_path == nullptr || new_path == nullptr) return usage();

  BenchDoc oldd;
  BenchDoc newd;
  if (!load(old_path, oldd) || !load(new_path, newd)) return 1;
  if (oldd.bench != newd.bench) {
    std::fprintf(stderr, "bench_diff: comparing different benches (%s vs %s)\n",
                 oldd.bench.c_str(), newd.bench.c_str());
  }

  std::printf("bench_diff: %s  old=%s (sha %s)  new=%s (sha %s)  "
              "threshold %.0f%%\n",
              newd.bench.c_str(), old_path, oldd.git_sha.c_str(), new_path,
              newd.git_sha.c_str(), threshold_pct);
  std::printf("  %-32s %14s %14s %9s\n", "metric", "old", "new", "delta");

  int regressions = 0;
  int missing = 0;
  std::size_t only_old = 0;
  std::size_t only_new = 0;
  for (const auto& [name, oldm] : oldd.metrics) {
    const bool bench = name.rfind("bench.", 0) == 0;
    const bool timed = is_time_unit(oldm.unit) && bench;
    const bool rate = is_rate_unit(oldm.unit) && bench;
    auto it = newd.metrics.find(name);
    if (it == newd.metrics.end()) {
      if (timed || rate) {
        ++missing;
        std::printf("  %-32s %12.0f %s %14s            MISSING\n",
                    name.c_str(), oldm.value, oldm.unit.c_str(), "-");
      } else {
        ++only_old;
      }
      continue;
    }
    const Metric& newm = it->second;
    const double delta_pct =
        oldm.value > 0 ? (newm.value - oldm.value) / oldm.value * 100.0 : 0.0;
    const bool regressed =
        (timed && oldm.value > 0 &&
         newm.value > oldm.value * (1.0 + threshold_pct / 100.0)) ||
        (rate && oldm.value > 0 &&
         oldm.value > newm.value * (1.0 + threshold_pct / 100.0));
    if (regressed) ++regressions;
    std::printf("  %-32s %12.0f %s %12.0f %s %+8.1f%%%s\n", name.c_str(),
                oldm.value, oldm.unit.c_str(), newm.value, newm.unit.c_str(),
                delta_pct,
                regressed ? "  REGRESSION"
                          : (timed || rate ? "" : "  (info)"));
  }
  for (const auto& [name, newm] : newd.metrics) {
    if (oldd.metrics.find(name) == oldd.metrics.end()) ++only_new;
  }
  if (only_old > 0 || only_new > 0) {
    std::printf("  (%zu metrics only in old, %zu only in new)\n", only_old,
                only_new);
  }

  if (missing > 0) {
    std::printf("bench_diff: %d gated metric%s missing from %s (edit the "
                "baseline to drop %s)\n",
                missing, missing == 1 ? "" : "s", new_path,
                missing == 1 ? "it" : "them");
    return 1;
  }
  if (regressions > 0) {
    std::printf("bench_diff: %d regression%s beyond %.0f%%%s\n", regressions,
                regressions == 1 ? "" : "s", threshold_pct,
                report_only ? " (report-only, not failing)" : "");
    return report_only ? 0 : 1;
  }
  std::printf("bench_diff: no regressions beyond %.0f%%\n", threshold_pct);
  return 0;
}

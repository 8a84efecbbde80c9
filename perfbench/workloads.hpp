#pragma once

// The benchmark's four workloads (README.md has the why of each).  A
// workload owns its state (protocol spec plus engine), rebuilds it in
// setup(), and runs one op at a time from a single closed-loop client.
// op() with a recorder is the traced variant: it records spans around the
// calls into each module, and checks the same facts.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Facts each op is checked against.  The self-test overrides one with
/// `--expect name=value` to show that a wrong fact makes ops fail.
class Facts {
 public:
  Facts();
  /// Parses "name=value" for a known name; false otherwise.
  bool set(std::string_view assignment);
  [[nodiscard]] long long operator[](const std::string& name) const;

 private:
  std::map<std::string, long long> values_;
};

struct OpOutcome {
  bool ok = false;
  double work = 0.0;  // work units the op completed
};

/// What the run loop observed over a traced phase, for per-layer metrics.
struct PhaseInfo {
  bool own = false;  // the phase of the workload the run was asked for
  std::size_t jobs = 1;
  std::vector<double> traced_ms;    // wall per traced op
  std::vector<double> untraced_ms;  // wall per untraced op
};

class Workload {
 public:
  explicit Workload(std::string name) : name_(std::move(name)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Pool lanes the workload runs at (pinned, recorded in the context).
  [[nodiscard]] virtual std::size_t jobs() const = 0;
  /// What one unit of `work_per_s` is.
  [[nodiscard]] virtual const char* work_unit() const = 0;
  /// Timed ops per second of --seconds.  This fixes the op count of a run
  /// (so the amount of work does not depend on the program's speed); it is
  /// chosen so a run takes about --seconds on the reference host.
  [[nodiscard]] virtual double ops_per_second() const = 0;
  /// Untimed ops before measuring.  This and the op counts below are
  /// queried after setup().
  [[nodiscard]] virtual std::size_t warmup_ops() const = 0;
  /// Ops per traced/untraced block when a traced phase alternates them.
  [[nodiscard]] virtual std::size_t trace_block() const { return 1; }
  /// Ops of the traced phase of a run of this workload, given the timed
  /// op count (capped where one span per op would make the span file huge).
  [[nodiscard]] virtual std::size_t traced_ops(std::size_t timed) const {
    return timed;
  }
  /// Ops of this workload's traced phase inside another workload's run.
  [[nodiscard]] virtual std::size_t probe_ops() const = 0;

  /// Drops the state setup() built (not timed).
  virtual void reset() = 0;
  /// Builds the workload's state from scratch: the timed set-up.
  virtual void setup(SpanRecorder* rec) = 0;
  /// One op.  With a recorder, the traced variant.
  virtual OpOutcome op(std::uint64_t i, SpanRecorder* rec) = 0;
  /// Per-layer metrics from a traced phase.  May run extra traced
  /// measurements of its own, which count as ops.
  virtual void layer_metrics(SpanRecorder& rec, const PhaseInfo& phase,
                             Metrics& out) = 0;

  /// Op accounting: every op and every checked extra measurement.
  void record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::string name_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The workload names, in the order traced runs visit them.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, unsigned seed,
                                        const Facts& facts);

}  // namespace perfbench

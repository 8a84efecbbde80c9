#pragma once

// In-memory span recording for the benchmark's traced runs.
//
// Spans are recorded by the benchmark itself, around its own calls into the
// library's modules; the library's obs tracer stays off.  Each span has a
// name, a start and end (ns since the recorder was created), the span that
// was open when it started (its parent) and the op it belongs to.  A span's
// self time is its duration minus the time its direct children cover; the
// recorder is single-threaded, so children never overlap.
//
// Passing a null recorder to Scope makes every scope a no-op, which is how
// the untraced runs share code with the traced ones.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;      // 1-based, in start order
  std::uint64_t parent = 0;  // 0 = no enclosing span
  std::uint64_t op = 0;      // op id current when the span started
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // summed durations of direct children

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
  [[nodiscard]] double self_ms() const {
    return static_cast<double>(end_ns - start_ns - child_ns) / 1e6;
  }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::size_t index_ = 0;
  };

  /// Spans opened from now on belong to op `op`.
  void set_op(std::uint64_t op) { op_ = op; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

  /// Durations (ms) of every closed span called `name`, in start order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// Appends every span as one JSON object per line, each tagged with
  /// `phase`.  Returns false when the file cannot be written.
  bool append_jsonl(const std::string& path, std::string_view phase) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  // indices of the open spans, innermost last
};

/// Quantile q in [0,1] by linear interpolation between order statistics;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Exact quantiles of nanosecond samples, kept as a count per distinct
/// value, so a run of millions of short ops does not hold every sample.
/// Durations under kDenseNs are counted in an array that is allocated and
/// written up front; only longer ones, a few per run, go to a map.  So the
/// benchmark's own memory is the same on every run instead of growing with
/// the number of distinct timings, and it does not move peak RSS.
class NsHistogram {
 public:
  NsHistogram() : dense_(kDenseNs, 0) {}
  void add(std::int64_t ns) {
    ns = std::max<std::int64_t>(ns, 0);
    if (ns < kDenseNs) {
      ++dense_[static_cast<std::size_t>(ns)];
    } else {
      ++sparse_[ns];
    }
    ++size_;
  }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// Same interpolation as quantile(), in milliseconds.
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  static constexpr std::int64_t kDenseNs = std::int64_t{1} << 17;  // 131 us
  std::vector<std::uint32_t> dense_;
  std::map<std::int64_t, std::uint64_t> sparse_;
  std::uint64_t size_ = 0;
};

}  // namespace perfbench

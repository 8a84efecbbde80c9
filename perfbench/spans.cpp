#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string_view name)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  SpanRecord s;
  s.name = std::string(name);
  s.id = rec_->spans_.size() + 1;
  s.parent = rec_->open_.empty() ? 0 : rec_->spans_[rec_->open_.back()].id;
  s.op = rec_->op_;
  index_ = rec_->spans_.size();
  rec_->spans_.push_back(std::move(s));
  rec_->open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is not charged to the span.
  rec_->spans_[index_].start_ns = rec_->now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  SpanRecord& s = rec_->spans_[index_];
  s.end_ns = rec_->now_ns();
  rec_->open_.pop_back();
  if (!rec_->open_.empty()) {
    rec_->spans_[rec_->open_.back()].child_ns += s.end_ns - s.start_ns;
  }
}

std::vector<double> SpanRecorder::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

bool SpanRecorder::append_jsonl(const std::string& path,
                                std::string_view phase) const {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  for (const SpanRecord& s : spans_) {
    out << "{\"phase\":\"" << phase << "\",\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << (s.end_ns - s.start_ns - s.child_ns) << "}\n";
  }
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double NsHistogram::quantile_ms(double q) const {
  if (size_ == 0) return 0.0;
  // The sample at 0-based rank r, walking the cumulative counts in order.
  auto at_rank = [this](std::uint64_t r) {
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns < dense_.size(); ++ns) {
      seen += dense_[ns];
      if (r < seen) return static_cast<double>(ns);
    }
    for (const auto& [ns, count] : sparse_) {
      seen += count;
      if (r < seen) return static_cast<double>(ns);
    }
    return 0.0;  // not reached: callers pass r < size_
  };
  const double pos = q * static_cast<double>(size_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  const double a = at_rank(lo);
  const double b = lo + 1 < size_ ? at_rank(lo + 1) : a;
  return (a + (b - a) * frac) / 1e6;
}

}  // namespace perfbench

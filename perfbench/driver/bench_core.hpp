// Benchmark-side helpers that do not touch the simulator: percentiles with
// their sample support, host-time spans with self-time arithmetic, a
// FNV-1a fingerprint accumulator and the correctness gate.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace mckbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// A nearest-rank percentile and how well the sample supports it. A
/// percentile is `supported` only when at least ten samples lie beyond it,
/// so a p90 needs >= 100 samples and a median >= 20.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported = false;
};

inline constexpr std::size_t kSamplesBeyond = 10;

inline Quantile quantile(std::vector<double> v, double q) {
  Quantile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (k >= v.size()) k = v.size() - 1;
  out.value = v[k];
  out.beyond = v.size() - 1 - k;
  out.supported = out.beyond >= kSamplesBeyond;
  return out;
}

/// Median of host-time samples (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One host-time span recorded around a call into the program.
struct Span {
  std::string name;
  double start = 0.0;  // seconds since the log's origin
  double end = 0.0;
  int parent = -1;     // index into the log, -1 = top level
  int run = 0;         // which simulated run (unit) the span belongs to
  double duration() const { return end - start; }
};

/// Spans are held in memory; nesting follows open/close order on one
/// thread.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int open(std::string name, int run) {
    Span s;
    s.name = std::move(name);
    s.run = run;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id` (must be the innermost open one); returns its
  /// duration.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    return s.duration();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Closes a span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int run)
      : log_(log), id_(log.open(std::move(name), run)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double close() {
    if (!closed_) {
      seconds_ = log_.close(id_);
      closed_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog& log_;
  int id_;
  bool closed_ = false;
  double seconds_ = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start);
      hi = std::min(hi, p.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = p.duration() - covered;
  }
  return out;
}

/// Sum of top-level span durations.
inline double top_level_total(const std::vector<Span>& spans) {
  double t = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) t += s.duration();
  }
  return t;
}

/// Per-name totals of self time, in first-seen order.
inline std::vector<std::pair<std::string, double>> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first == spans[i].name;
    });
    if (it == out.end()) {
      out.push_back({spans[i].name, self[i]});
    } else {
      it->second += self[i];
    }
  }
  return out;
}

/// Sum of the durations of every span called `name`.
inline double total_of(const std::vector<Span>& spans, const char* name) {
  double t = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) t += s.duration();
  }
  return t;
}

/// The top-level spans of a traced pass must cover its wall time to
/// within this share (the remainder is loop bookkeeping between spans).
inline constexpr double kSpanCoverageTolerance = 0.02;

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: a fingerprint of simulated statistics.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Collects failed checks. Any failure makes the benchmark exit non-zero
/// without publishing numbers.
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "mckbench: GATE FAILED: %s\n", what.c_str());
    failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

}  // namespace mckbench

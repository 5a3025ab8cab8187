// Statistics and result formatting for the repository benchmark.
//
// Every reported figure is a Metric: a name, a value kept at full double
// precision, its own unit, the number of observations behind it and, for
// ratios, the base the denominator counts. Latency tails use the highest
// percentile of a fixed ladder, up to a cap, that still has at least
// kTailMinBeyond samples above it, so a tail is never read off a handful of
// points.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Samples required strictly above a percentile before it may be reported.
inline constexpr uint64_t kTailMinBeyond = 10;

/// Percentiles a tail is chosen from, highest first.
inline constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least pct% of all samples at or below it. `sorted` must be non-empty.
inline size_t PercentileIndex(size_t n, double pct) {
  double rank = std::ceil(pct * static_cast<double>(n) / 100.0);
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

inline double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[PercentileIndex(sorted.size(), pct)];
}

/// Median with the midpoint rule for an even count; 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tail {
  double pct = 0;
  double value = 0;
  uint64_t beyond = 0;  ///< samples strictly above the reported rank
};

/// The highest ladder percentile not above `max_pct` with at least
/// kTailMinBeyond samples beyond it, or nullopt when even the median lacks
/// them.
inline std::optional<Tail> TailPercentile(const std::vector<double>& sorted,
                                          double max_pct = 99.0) {
  for (double pct : kTailLadder) {
    if (sorted.empty()) break;
    if (pct > max_pct) continue;
    size_t idx = PercentileIndex(sorted.size(), pct);
    uint64_t beyond = sorted.size() - idx - 1;
    if (beyond >= kTailMinBeyond) return Tail{pct, sorted[idx], beyond};
  }
  return std::nullopt;
}

/// A ratio with the base its denominator counts. A zero denominator gives
/// 0: the layer did no work of that kind in the run.
struct Ratio {
  double num = 0;
  double den = 0;
  std::string base;
  double value() const { return den > 0 ? num / den : 0; }
};

/// Shortest decimal that reads back as exactly `v` (all of its digits,
/// none invented). Non-finite values are a benchmark bug: JSON cannot hold
/// them.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric");
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string base;  ///< non-empty for ratios
  std::string note;  ///< e.g. which percentile a tail is
};

/// Ordered metric collection. Names are unique and every metric carries a
/// non-empty unit; Add() rejects anything else.
class MetricSet {
 public:
  void Add(Metric m) {
    if (m.unit.empty()) throw std::invalid_argument(m.name + ": no unit");
    for (const Metric& have : metrics_) {
      if (have.name == m.name) throw std::invalid_argument(m.name + ": twice");
    }
    FormatNumber(m.value);  // reject non-finite values at the source
    metrics_.push_back(std::move(m));
  }

  void Add(std::string name, double value, std::string unit, uint64_t samples,
           std::string note = "") {
    Add(Metric{std::move(name), value, std::move(unit), samples, "",
               std::move(note)});
  }

  /// A ratio; `unit` names what is counted per what when it is not a
  /// plain share (e.g. "drains/commit").
  void AddRatio(std::string name, const Ratio& r,
                std::string unit = "ratio") {
    Add(Metric{std::move(name), r.value(), std::move(unit),
               static_cast<uint64_t>(r.den), r.base, ""});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One human-readable line per metric: name, value, unit, sample count,
  /// and the base of a ratio.
  std::string Describe() const {
    std::string out;
    for (const Metric& m : metrics_) {
      out += "  " + m.name + " = " + FormatNumber(m.value) + " " + m.unit +
             "  (n=" + std::to_string(m.samples);
      if (!m.base.empty()) out += ", base=" + m.base;
      if (!m.note.empty()) out += ", " + m.note;
      out += ")\n";
    }
    return out;
  }

  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Largest share of the benchmark CPU's time the hypervisor may have stolen
/// during a window for the window to count. Stolen time stops every thread
/// of the run, so a window's throughput falls at least by the stolen share.
inline constexpr double kMaxWindowSteal = 0.01;
/// Fewest windows the medians are taken over: when fewer are under
/// kMaxWindowSteal, the ones with the least steal are used.
inline constexpr size_t kMinCleanWindows = 3;

/// Which of several samples to use, given the share of CPU time stolen
/// while each was taken: those at or under kMaxWindowSteal, or, when fewer
/// than `min_used` are, the `min_used` with the least steal (all of them
/// when there are no more than that).
inline std::vector<bool> LeastStolen(const std::vector<double>& steal,
                                     size_t min_used) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> used(steal.size());
  for (size_t i = 0; i < order.size(); ++i) {
    used[order[i]] = i < min_used || steal[order[i]] <= kMaxWindowSteal;
  }
  return used;
}

/// A timed phase cut into equal windows, each summarised on its own; the
/// medians over windows keep a burst of host noise in one window from
/// moving the run's figures.
struct WindowedSummary {
  double throughput = 0;  ///< median over windows of completions per second
  double p50 = 0;         ///< median over windows of the window median
  double tail = 0;        ///< median over windows of the window tail
  double tail_pct = 0;    ///< lowest tail percentile any window supported
  uint64_t samples = 0;
  int windows_used = 0;   ///< windows the medians are taken over
  std::vector<double> window_throughput;  ///< per window, in time order
};

/// `latency[i]` completed at `end_ns[i]`; the phase spans [start_ns,
/// stop_ns). Tails are capped at `max_pct`; a window too small for any tail
/// contributes its median. `steal[w]`, when given, is the share of CPU time
/// stolen during window w: the medians then cover the windows under
/// kMaxWindowSteal, or, when fewer than kMinCleanWindows are, the
/// kMinCleanWindows windows with the least steal.
inline WindowedSummary SummarizeWindows(const std::vector<double>& latency,
                                        const std::vector<int64_t>& end_ns,
                                        int64_t start_ns, int64_t stop_ns,
                                        int windows, double max_pct,
                                        const std::vector<double>& steal = {}) {
  if (latency.size() != end_ns.size() || windows < 1 || stop_ns <= start_ns ||
      !(steal.empty() || steal.size() == static_cast<size_t>(windows))) {
    throw std::invalid_argument("bad windowed sample");
  }
  std::vector<bool> used = steal.empty() ? std::vector<bool>(windows, true)
                                         : LeastStolen(steal, kMinCleanWindows);
  std::vector<std::vector<double>> bins(windows);
  double span = static_cast<double>(stop_ns - start_ns);
  for (size_t i = 0; i < latency.size(); ++i) {
    double at = static_cast<double>(end_ns[i] - start_ns) / span;
    int w = static_cast<int>(at * windows);
    bins[std::clamp(w, 0, windows - 1)].push_back(latency[i]);
  }
  WindowedSummary out;
  out.tail_pct = max_pct;
  double window_s = span / 1e9 / windows;
  std::vector<double> tput, p50, tail;
  for (int w = 0; w < windows; ++w) {
    std::vector<double>& bin = bins[w];
    out.window_throughput.push_back(static_cast<double>(bin.size()) /
                                    window_s);
    if (!used[w]) continue;
    ++out.windows_used;
    out.samples += bin.size();
    tput.push_back(out.window_throughput.back());
    if (bin.empty()) continue;
    std::sort(bin.begin(), bin.end());
    p50.push_back(Percentile(bin, 50));
    std::optional<Tail> t = TailPercentile(bin, max_pct);
    tail.push_back(t ? t->value : p50.back());
    out.tail_pct = std::min(out.tail_pct, t ? t->pct : 50.0);
  }
  out.throughput = Median(tput);
  out.p50 = Median(p50);
  out.tail = Median(tail);
  return out;
}

/// Median and tail of one latency distribution under the two given names;
/// the tail's real percentile and sample count go into its note.
inline void AddLatency(MetricSet* set, const std::string& p50_name,
                       const std::string& tail_name,
                       std::vector<double> samples, const std::string& unit) {
  std::sort(samples.begin(), samples.end());
  double p50 = samples.empty() ? 0 : Percentile(samples, 50);
  set->Add(p50_name, p50, unit, samples.size());
  std::optional<Tail> tail = TailPercentile(samples);
  if (tail) {
    std::string note = "p";
    note += FormatNumber(tail->pct);
    note += " with " + std::to_string(tail->beyond) + " samples beyond";
    set->Add(tail_name, tail->value, unit, samples.size(), note);
  } else {
    set->Add(tail_name, p50, unit, samples.size(),
             "too few samples for a tail; median shown");
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

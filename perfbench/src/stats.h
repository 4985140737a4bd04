// Small order-statistics helpers shared by the benchmark's phases.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// One reported figure, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// Percentile p of each of `windows` consecutive equal-count slices of `v`
// (in arrival order), then the median of those per-slice values: one slow
// stretch of a shared machine moves a single slice, not the reported figure.
inline double windowed_percentile(const std::vector<double>& v, double p, std::size_t windows) {
  windows = std::max<std::size_t>(1, std::min(windows, v.size()));
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    auto b = v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / windows);
    auto e = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / windows);
    per.push_back(percentile(std::vector<double>(b, e), p));
  }
  return median(per);
}

}  // namespace perfbench

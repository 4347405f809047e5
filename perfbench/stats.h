#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile. Below that the tail value is one or two outliers, not a
/// percentile, and the row says so instead of printing it as one.
inline constexpr uint64_t kMinBeyond = 10;

/// One exact percentile of a sample set, with the counts that say how
/// much to trust it.
struct Percentile {
  double value = 0;     ///< The nearest-rank sample (0 when n == 0).
  uint64_t n = 0;       ///< Samples the percentile was taken over.
  uint64_t beyond = 0;  ///< Samples strictly after the chosen rank.
  bool ok = false;      ///< n > 0 and beyond >= kMinBeyond.
};

/// Nearest-rank percentile over `sorted` (ascending): the value at rank
/// ceil(q * n), 1-based. No interpolation and no bucketing, so the result
/// is always one of the measured samples.
inline Percentile PercentileOfSorted(const std::vector<double>& sorted,
                                     double q) {
  Percentile p;
  p.n = sorted.size();
  if (p.n == 0) return p;
  q = std::clamp(q, 0.0, 1.0);
  // The epsilon keeps q * n from rounding up past an exact rank
  // (0.99 * 2000 must be rank 1980, not 1981).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(p.n) - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, p.n);
  p.value = sorted[rank - 1];
  p.beyond = p.n - rank;
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

/// Sorts a copy of `samples` and takes percentile q of it.
inline Percentile PercentileOf(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, q);
}

/// Median of a small set (the mean of the middle two for even sizes).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Pins the percentile routine against hand-computed inputs. Returns the
/// number of failed checks (0 = pass).
inline int PercentileSelfTest() {
  int failures = 0;
  auto expect = [&failures](bool cond) {
    if (!cond) ++failures;
  };
  // 1..100: p50 is 50, p99 is 99 with exactly one sample beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Percentile p50 = PercentileOf(hundred, 0.50);
  expect(p50.value == 50 && p50.n == 100 && p50.beyond == 50 && p50.ok);
  Percentile p99 = PercentileOf(hundred, 0.99);
  expect(p99.value == 99 && p99.beyond == 1 && !p99.ok);
  // 1000 samples: p99 has exactly 10 beyond, the smallest set that may
  // report it; 999 samples leave only 9 beyond.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Percentile t99 = PercentileOf(thousand, 0.99);
  expect(t99.value == 990 && t99.beyond == 10 && t99.ok);
  thousand.pop_back();
  Percentile n99 = PercentileOf(thousand, 0.99);
  expect(n99.value == 990 && n99.beyond == 9 && !n99.ok);
  // 2000 samples: the benchmark's floor, 20 beyond p99.
  std::vector<double> two_thousand;
  for (int i = 0; i < 2000; ++i) two_thousand.push_back(i % 7 == 0 ? 1e6 : i);
  Percentile w99 = PercentileOf(two_thousand, 0.99);
  expect(w99.beyond == 20 && w99.ok && w99.value == 1e6);
  // Extremes and the empty set.
  expect(PercentileOf({3, 1, 2}, 0.0).value == 1);
  expect(PercentileOf({3, 1, 2}, 1.0).value == 3);
  Percentile none = PercentileOf({}, 0.5);
  expect(none.n == 0 && !none.ok && none.value == 0);
  // Ties keep the exact sample value.
  expect(PercentileOf({5, 5, 5, 5}, 0.5).value == 5);
  expect(Median({4, 1, 3, 2}) == 2.5 && Median({9, 1, 5}) == 5);
  return failures;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

// Shared helpers of the repository benchmark (see perfbench/README.md).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/histogram.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline uint64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// The p-th percentile of `h`, interpolated linearly inside the bucket that
// holds it. LatencyHistogram::Percentile returns the bucket's lower bound,
// which would make repeated runs read the identical value and hide drift
// smaller than a bucket (~1.5%).
double PercentileNs(const gadget::LatencyHistogram& h, double p);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Total size of the regular files under `dir`, in bytes.
uint64_t DirBytes(const std::string& dir);

// Median of `v` (0 when empty).
double Median(std::vector<double> v);

// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

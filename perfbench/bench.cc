#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>

namespace perfbench {

double PercentileNs(const gadget::LatencyHistogram& h, double p) {
  if (h.count() == 0) {
    return 0;
  }
  const double target = p / 100.0 * static_cast<double>(h.count());
  double seen = 0;
  for (const auto& [index, n] : h.NonzeroBuckets()) {
    const double before = seen;
    seen += static_cast<double>(n);
    if (seen >= target) {
      const double lo = static_cast<double>(h.BucketLowerBound(index));
      const double hi = index + 1 < h.num_buckets()
                            ? static_cast<double>(h.BucketLowerBound(index + 1))
                            : static_cast<double>(h.max()) + 1;
      const double frac = (target - before) / static_cast<double>(n);
      return std::min(lo + (hi - lo) * frac, static_cast<double>(h.max()));
    }
  }
  return static_cast<double>(h.max());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace perfbench

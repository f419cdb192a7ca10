#ifndef RLCUT_E2EBENCH_HOST_H_
#define RLCUT_E2EBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace e2e {

/// Aggregate CPU tick counters of the host (first line of /proc/stat).
struct HostTicks {
  bool ok = false;
  uint64_t iowait = 0;
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks ReadHostTicks();

/// The first three fields of /proc/loadavg, or "n/a".
std::string ReadLoadAvg();

/// One diagnostic line describing host noise between two tick readings:
/// steal and iowait ticks (and their share of all ticks) plus the load
/// average at the end. Not a metric: it explains a noisy run.
std::string DescribeHostNoise(const HostTicks& before, const HostTicks& after,
                              const std::string& load_before);

/// CPU seconds consumed by this process so far (all threads).
double ProcessCpuSeconds();

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace e2e

#endif  // RLCUT_E2EBENCH_HOST_H_

#include "host.h"

#include <time.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace e2e {

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t fields[8] = {};
  for (uint64_t& f : fields) {
    if (!(in >> f)) return ticks;
  }
  ticks.ok = true;
  ticks.iowait = fields[4];
  ticks.steal = fields[7];
  for (uint64_t f : fields) ticks.total += f;
  return ticks;
}

std::string ReadLoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  if (!(in >> one >> five >> fifteen)) return "n/a";
  return one + " " + five + " " + fifteen;
}

std::string DescribeHostNoise(const HostTicks& before, const HostTicks& after,
                              const std::string& load_before) {
  std::ostringstream os;
  if (!before.ok || !after.ok || after.total <= before.total) {
    os << "host: /proc/stat unavailable";
  } else {
    const double total = static_cast<double>(after.total - before.total);
    const uint64_t steal = after.steal - before.steal;
    const uint64_t iowait = after.iowait - before.iowait;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "host: steal_ticks=%llu (%.2f%%) iowait_ticks=%llu "
                  "(%.2f%%)",
                  static_cast<unsigned long long>(steal),
                  100.0 * static_cast<double>(steal) / total,
                  static_cast<unsigned long long>(iowait),
                  100.0 * static_cast<double>(iowait) / total);
    os << buf;
  }
  os << " loadavg_before=[" << load_before << "] loadavg_after=["
     << ReadLoadAvg() << "]";
  return os.str();
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace e2e

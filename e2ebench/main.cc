// rlcut_e2e: end-to-end benchmark of the RLCut library (README.md).
//
//   rlcut_e2e --workload batch_tw --seed 1 --seconds 25 --trace 0
//   rlcut_e2e --workload ooc_mmap --seed 1 --prepare   # build the .rlg
//
// Prints diagnostic lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced round (--trace 1). Exits non-zero if a check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work_dir DIR] [--prepare]\n",
               argv0);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  bool prepare = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t n = 0;
    if (arg == "--prepare") {
      prepare = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value && ParseUint(argv[++i], &n)) {
      options.seed = n;
    } else if (arg == "--seconds" && has_value && ParseUint(argv[++i], &n)) {
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && has_value && ParseUint(argv[++i], &n) &&
               n <= 1) {
      options.trace = n == 1;
    } else if (arg == "--work_dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload) return Usage(argv[0]);

  if (prepare) {
    const rlcut::Status prepared = e2e::Prepare(options);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare: %s\n", prepared.ToString().c_str());
      return 1;
    }
    return 0;
  }

  const e2e::HostTicks ticks_before = e2e::ReadHostTicks();
  const std::string load_before = e2e::ReadLoadAvg();
  rlcut::Result<e2e::RunResult> run = e2e::Run(options);
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 run.status().ToString().c_str());
    return 1;
  }
  const e2e::RunResult& result = *run;
  std::printf("workload %s seed %llu threads %d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), e2e::kTrainerThreads,
              options.trace ? " (traced)" : "");
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("%s\n", e2e::DescribeHostNoise(ticks_before,
                                             e2e::ReadHostTicks(), load_before)
                          .c_str());
  bool correct = result.failures.empty();
  for (const std::string& failure : result.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::string metrics;
  for (const e2e::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      correct = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}

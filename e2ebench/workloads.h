#ifndef RLCUT_E2EBENCH_WORKLOADS_H_
#define RLCUT_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/status.h"

namespace e2e {

/// Trainer worker threads in every workload: fixed, never read from the
/// host. One, because the plans do not depend on it and every hand-off
/// of scoring work to another thread can stall behind a descheduled
/// vCPU (README.md, "Workloads").
inline constexpr int kTrainerThreads = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Minimum measured wall time; whole rounds are run until it passes.
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Directory for the .rlg, checkpoints and traces.
  std::string work_dir = ".bench_build/e2e";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed correctness checks; the run is correct iff this is empty.
  std::vector<std::string> failures;
  /// Diagnostic lines (sample counts, tails, host noise, per-layer
  /// table) printed before the result.
  std::vector<std::string> notes;
};

/// Builds a workload's file input (the ooc_mmap .rlg) afresh, in a
/// process of its own, so its memory never counts toward a measured run.
rlcut::Status Prepare(const RunOptions& options);

/// Runs one workload. A stream publish during which the replica link
/// degraded (or reported an error) is counted in `failed`: the client
/// keeps going against its local mirror, and a later push or the final
/// flush may heal the link, so the outputs alone would not show it. A
/// call that returns an error ends the run with a non-OK status.
rlcut::Result<RunResult> Run(const RunOptions& options);

// ---- The stream, exposed at any size for the checks' self-test --------

struct StreamConfig {
  uint32_t num_vertices = 1u << 17;
  uint64_t num_edges = 1u << 20;
  double batch_seconds = 300;
  uint64_t budget_vertices = 256;
  double budget_bytes = 64e6;
  uint64_t seed = 1;
  std::string checkpoint_path;
  /// Fault injection for the self-test: drop this many edges from the
  /// first non-empty micro-batch before it reaches the session.
  int drop_edges = 0;
};

/// One full stream round: set-up, live loop and the outcome the checks
/// read. `input_edges` receives the generated stream.
struct StreamRound {
  std::vector<rlcut::Edge> edges;
  std::vector<rlcut::DcId> locations;
  uint64_t base_edges = 0;
  uint32_t theta = 0;
  StreamOutcome outcome;
  PlanQuality reported;
  /// The last delta the replica sink forwarded.
  rlcut::PlanDelta last_delta;
  /// Publishes (v1 included) during which the replica link degraded.
  uint64_t failed_publishes = 0;
};

rlcut::Result<StreamRound> RunStreamForTest(const StreamConfig& config);

/// The full set of stream checks, including the cold recomputation of
/// the final plan over a graph the benchmark builds from the stream.
std::vector<std::string> VerifyStream(const StreamConfig& config,
                                      const StreamRound& round);

}  // namespace e2e

#endif  // RLCUT_E2EBENCH_WORKLOADS_H_

#ifndef RLCUT_CHECK_CHAOS_H_
#define RLCUT_CHECK_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace rlcut {
namespace check {

/// Chaos audit (docs/robustness.md): full training sessions under
/// randomized fault schedules. Every session builds a deterministic
/// problem, trains it fault-free for a reference plan, then re-trains
/// it with a seeded random FaultSchedule armed and asserts one of two
/// acceptable outcomes:
///
///   * masked — recovery (re-scoring, retries) absorbed every fault
///     and the final masters are bit-identical to the reference, or
///   * degraded — the result differs but CheckInvariants() is clean
///     and the plan round-trips through Save/Load/Apply.
///
/// Aborts, hangs, invariant violations and unloadable plans are
/// failures. Every third session additionally exercises the crash
/// lane: a fault-free run auto-checkpoints every other step, the
/// primary checkpoint file is then corrupted, and resume must land on
/// the last-good fallback and continue to a bit-identical final plan.
///
/// Every second session also exercises the streaming lane: an
/// RLCutSession driven over a short diurnal stream with faults armed at
/// the session.ingest_fail / session.publish_fail sites. Injected
/// failures must surface as clean Status errors; retrying the failed
/// call must converge on plans bit-identical to a fault-free streaming
/// reference.
struct ChaosOptions {
  int num_sessions = 16;
  VertexId num_vertices = 192;
  uint64_t num_edges = 1152;
  int num_dcs = 4;
  int max_steps = 5;
  int batch_size = 16;
  int num_threads = 3;
  uint64_t seed = 1;
};

struct ChaosReport {
  uint64_t sessions = 0;
  /// Faulted runs whose masters matched the reference bit-exactly.
  uint64_t masked = 0;
  /// Faulted runs that degraded but stayed valid (see above).
  uint64_t degraded = 0;
  /// Crash-lane resumes (all must be bit-identical).
  uint64_t crash_resumes = 0;
  /// Streaming-lane sessions that converged on the fault-free plans
  /// after retrying injected ingest/publish failures.
  uint64_t stream_recoveries = 0;
  /// Total injected fires across all sessions.
  uint64_t fires = 0;
  /// Of those, trainer.chunk_* fires: scoring tasks that stalled or
  /// were abandoned and had to be re-scored.
  uint64_t chunk_fires = 0;
  std::vector<std::string> failures;

  std::string Summary() const;
};

ChaosReport RunChaos(const ChaosOptions& options);

}  // namespace check
}  // namespace rlcut

#endif  // RLCUT_CHECK_CHAOS_H_

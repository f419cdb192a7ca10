#ifndef RLCUT_E2EBENCH_CHECKS_H_
#define RLCUT_E2EBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/topology.h"
#include "graph/graph.h"
#include "partition/partition_state.h"
#include "partition/plan_delta.h"
#include "partition/session.h"

// Correctness checks of the benchmark's outputs. Each is a pure function
// of the problem and what the program reported; none reuses the state the
// program computed with. A check returns an empty string when it passes
// and a one-line reason when it does not.

namespace e2e {

/// Plan quality as the program reported it for its final plan.
struct PlanQuality {
  /// Eq. 1-3 transfer time of one full-activity GAS iteration, ms.
  double transfer_ms = 0;
  /// Eq. 1 summed over the workload's iterations, s.
  double transfer_total_s = 0;
  /// Eq. 4-5 cost, USD.
  double cost_usd = 0;
  /// Replicas per vertex.
  double lambda = 0;
};

PlanQuality QualityOf(const rlcut::PartitionState& state);

/// The problem a plan is judged against.
struct Problem {
  const rlcut::Graph* graph = nullptr;
  const rlcut::Topology* topology = nullptr;
  const std::vector<rlcut::DcId>* locations = nullptr;
  const std::vector<double>* input_sizes = nullptr;
  uint32_t theta = 0;
};

/// Relative tolerance of every recomputed-vs-reported comparison. The
/// cold paths sum the same terms in another order, so they may differ
/// in the last bits, never more.
inline constexpr double kRelTolerance = 1e-9;

std::string CheckMastersInRange(const std::vector<rlcut::DcId>& masters,
                                uint64_t num_vertices, int num_dcs);

/// Eq. 7: the plan's cost stays within the budget B.
std::string CheckCostWithinBudget(double cost_usd, double budget_usd);

/// Recomputes transfer, cost and lambda cold from `masters`: a fresh
/// PartitionState, check::LegacyReferenceObjective over it, and the
/// benchmark's own replica recount under the hybrid-cut rule.
std::string CheckColdRecompute(const Problem& problem,
                               const std::vector<rlcut::DcId>& masters,
                               const PlanQuality& reported);

/// Lambda from the edge list alone: an edge lives in its target's master
/// DC, or in its source's master DC when the target's in-degree is at
/// least theta; a vertex is replicated in its master DC and in the DC of
/// every incident edge.
double RecountLambda(const rlcut::Graph& graph,
                     const std::vector<rlcut::DcId>& masters, uint32_t theta);

/// One published plan of the stream, as the benchmark diffed it.
struct PublishRecord {
  uint64_t version = 0;
  /// Edges in the session's graph when the plan was published.
  uint64_t graph_edges = 0;
  /// Masters that differ from the previous published plan (the initial
  /// locations before version 1).
  std::vector<rlcut::PlanMove> moves;
};

/// Everything the stream workload observed, for the checks below.
struct StreamOutcome {
  /// edges_applied of every ApplyDelta, in order.
  std::vector<uint64_t> applied;
  /// Edge count of the live session at the end.
  uint64_t live_edges = 0;
  std::vector<PublishRecord> publishes;
  /// The last plan PublishPlan returned.
  std::vector<rlcut::DcId> published_masters;
  /// The remote replica after the final flush.
  std::vector<rlcut::DcId> replica_masters;
  /// The last published plan of a session restored from the final
  /// checkpoint.
  std::vector<rlcut::DcId> restored_masters;
};

/// The stream's generated input, as the benchmark made it.
struct StreamInput {
  rlcut::VertexId num_vertices = 0;
  /// All stream edges in arrival order; the first `base_edges` form the
  /// graph the session opens on.
  const std::vector<rlcut::Edge>* edges = nullptr;
  uint64_t base_edges = 0;
  const std::vector<rlcut::DcId>* locations = nullptr;
  rlcut::MigrationBudget budget;
};

/// Input sizes d_v the problem defines for a graph holding the first
/// `prefix` stream edges: 16 KiB plus 1 KiB per incident edge.
std::vector<double> InputSizesOfPrefix(const StreamInput& input,
                                       uint64_t prefix);

/// Every check of the stream that needs no graph rebuild: edge
/// accounting, the budget of every publish (counted from the diffs),
/// the diff chain ending in the published plan, the replica and the
/// restored checkpoint. Returns one reason per failed check.
std::vector<std::string> CheckStream(const StreamInput& input,
                                     const StreamOutcome& outcome);

}  // namespace e2e

#endif  // RLCUT_E2EBENCH_CHECKS_H_

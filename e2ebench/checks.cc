#include "checks.h"

#include <bit>
#include <cmath>
#include <cstdio>

#include "check/legacy_reference.h"

namespace e2e {
namespace {

bool Close(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= kRelTolerance * scale;
}

std::string Mismatch(const char* what, double reported, double cold) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s: reported %.17g, recomputed %.17g",
                what, reported, cold);
  return buf;
}

}  // namespace

PlanQuality QualityOf(const rlcut::PartitionState& state) {
  PlanQuality q;
  const rlcut::Objective objective = state.CurrentObjective();
  q.transfer_ms = state.TransferSecondsPerIteration() * 1e3;
  q.transfer_total_s = objective.transfer_seconds;
  q.cost_usd = objective.cost_dollars;
  q.lambda = state.ReplicationFactor();
  return q;
}

std::string CheckMastersInRange(const std::vector<rlcut::DcId>& masters,
                                uint64_t num_vertices, int num_dcs) {
  if (masters.size() != num_vertices) {
    return "plan has " + std::to_string(masters.size()) + " masters for " +
           std::to_string(num_vertices) + " vertices";
  }
  for (size_t v = 0; v < masters.size(); ++v) {
    if (masters[v] < 0 || masters[v] >= num_dcs) {
      return "master of vertex " + std::to_string(v) + " is DC " +
             std::to_string(masters[v]) + ", outside [0, " +
             std::to_string(num_dcs) + ")";
    }
  }
  return "";
}

std::string CheckCostWithinBudget(double cost_usd, double budget_usd) {
  if (cost_usd <= budget_usd) return "";
  return Mismatch("cost over budget B (reported cost, B)", cost_usd,
                  budget_usd);
}

double RecountLambda(const rlcut::Graph& graph,
                     const std::vector<rlcut::DcId>& masters,
                     uint32_t theta) {
  const rlcut::VertexId n = graph.num_vertices();
  if (n == 0) return 0;
  std::vector<uint32_t> in_degree(n, 0);
  for (rlcut::EdgeId e = 0; e < graph.num_edges(); ++e) {
    ++in_degree[graph.EdgeTarget(e)];
  }
  std::vector<uint64_t> replicas(n, 0);
  for (rlcut::VertexId v = 0; v < n; ++v) {
    replicas[v] = uint64_t{1} << masters[v];
  }
  for (rlcut::EdgeId e = 0; e < graph.num_edges(); ++e) {
    const rlcut::VertexId src = graph.EdgeSource(e);
    const rlcut::VertexId dst = graph.EdgeTarget(e);
    const rlcut::DcId dc =
        in_degree[dst] >= theta ? masters[src] : masters[dst];
    replicas[src] |= uint64_t{1} << dc;
    replicas[dst] |= uint64_t{1} << dc;
  }
  uint64_t total = 0;
  for (uint64_t mask : replicas) total += std::popcount(mask);
  return static_cast<double>(total) / static_cast<double>(n);
}

std::string CheckColdRecompute(const Problem& problem,
                               const std::vector<rlcut::DcId>& masters,
                               const PlanQuality& reported) {
  const rlcut::Graph& graph = *problem.graph;
  if (std::string bad = CheckMastersInRange(
          masters, graph.num_vertices(), problem.topology->num_dcs());
      !bad.empty()) {
    return bad;
  }
  rlcut::PartitionConfig config;
  config.model = rlcut::ComputeModel::kHybridCut;
  config.theta = problem.theta;
  rlcut::PartitionState fresh(&graph, problem.topology, problem.locations,
                              problem.input_sizes, config);
  fresh.ResetDerived(masters);
  const PlanQuality cold = QualityOf(fresh);
  const rlcut::Objective legacy = rlcut::check::LegacyReferenceObjective(fresh);
  const double recount = RecountLambda(graph, masters, problem.theta);

  if (!Close(reported.transfer_ms, cold.transfer_ms)) {
    return Mismatch("transfer ms/iteration", reported.transfer_ms,
                    cold.transfer_ms);
  }
  if (!Close(reported.transfer_total_s, legacy.transfer_seconds)) {
    return Mismatch("total transfer s (legacy reference)",
                    reported.transfer_total_s, legacy.transfer_seconds);
  }
  if (!Close(reported.cost_usd, cold.cost_usd)) {
    return Mismatch("cost USD", reported.cost_usd, cold.cost_usd);
  }
  if (!Close(reported.cost_usd, legacy.cost_dollars)) {
    return Mismatch("cost USD (legacy reference)", reported.cost_usd,
                    legacy.cost_dollars);
  }
  if (!Close(reported.lambda, cold.lambda)) {
    return Mismatch("lambda", reported.lambda, cold.lambda);
  }
  if (!Close(reported.lambda, recount)) {
    return Mismatch("lambda (edge-list recount)", reported.lambda, recount);
  }
  return "";
}

std::vector<double> InputSizesOfPrefix(const StreamInput& input,
                                       uint64_t prefix) {
  std::vector<double> sizes(input.num_vertices, 0.0);
  std::vector<uint32_t> degree(input.num_vertices, 0);
  for (uint64_t i = 0; i < prefix && i < input.edges->size(); ++i) {
    ++degree[(*input.edges)[i].src];
    ++degree[(*input.edges)[i].dst];
  }
  for (size_t v = 0; v < sizes.size(); ++v) {
    sizes[v] = 16384.0 + 1024.0 * degree[v];
  }
  return sizes;
}

std::vector<std::string> CheckStream(const StreamInput& input,
                                     const StreamOutcome& outcome) {
  std::vector<std::string> failures;
  const uint64_t generated = input.edges->size();

  uint64_t applied = 0;
  for (uint64_t a : outcome.applied) applied += a;
  if (applied != generated - input.base_edges) {
    failures.push_back("edges applied " + std::to_string(applied) +
                       " != stream edges after the base " +
                       std::to_string(generated - input.base_edges));
  }
  if (outcome.live_edges != generated) {
    failures.push_back("live edge count " +
                       std::to_string(outcome.live_edges) +
                       " != generated stream edges " +
                       std::to_string(generated));
  }

  // Replay the diffs from the initial locations: every move must start
  // where the previous plan left its vertex, every publish must fit the
  // migration budget under the input sizes of its graph, and the chain
  // must end in the published plan.
  std::vector<rlcut::DcId> plan = *input.locations;
  uint64_t prefix_done = 0;
  std::vector<uint32_t> degree(input.num_vertices, 0);
  for (const PublishRecord& publish : outcome.publishes) {
    for (; prefix_done < publish.graph_edges && prefix_done < generated;
         ++prefix_done) {
      ++degree[(*input.edges)[prefix_done].src];
      ++degree[(*input.edges)[prefix_done].dst];
    }
    double bytes = 0;
    bool chained = true;
    for (const rlcut::PlanMove& move : publish.moves) {
      if (move.vertex >= plan.size() || plan[move.vertex] != move.from ||
          move.from == move.to) {
        chained = false;
        break;
      }
      plan[move.vertex] = move.to;
      bytes += 16384.0 + 1024.0 * degree[move.vertex];
    }
    const std::string version = "publish v" + std::to_string(publish.version);
    if (!chained) {
      failures.push_back(version + " does not chain onto the previous plan");
      break;
    }
    if (publish.moves.size() > input.budget.max_vertices) {
      failures.push_back(version + " moved " +
                         std::to_string(publish.moves.size()) +
                         " vertices, over the migration budget of " +
                         std::to_string(input.budget.max_vertices));
    }
    if (bytes > input.budget.max_bytes) {
      failures.push_back(version + " moved " + std::to_string(bytes) +
                         " bytes, over the migration budget of " +
                         std::to_string(input.budget.max_bytes));
    }
  }
  if (plan != outcome.published_masters) {
    failures.push_back(
        "the published diffs do not add up to the last published plan");
  }
  if (outcome.replica_masters != outcome.published_masters) {
    failures.push_back(
        "remote replica does not hold the last published plan");
  }
  if (outcome.restored_masters != outcome.published_masters) {
    failures.push_back(
        "the final checkpoint does not restore the last published plan");
  }
  return failures;
}

}  // namespace e2e

#include "check/stream_oracle.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/topology.h"
#include "common/sim_time.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "partition/migration.h"
#include "rlcut/session.h"

namespace rlcut {
namespace check {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() { return Mix64(state++); }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

std::string ScratchPath(int session) {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream name;
  name << "rlcut_stream_" << ::getpid() << "_"
       << counter.fetch_add(1, std::memory_order_relaxed) << "_s" << session;
  return (std::filesystem::temp_directory_path() / name.str()).string();
}

void RemoveWithSidecars(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".prev.tmp").c_str());
}

// One deterministic streaming problem: a diurnal temporal stream whose
// first half seeds the base graph and whose second half arrives in
// `num_batches` micro-batch windows, plus a mid-stream topology event.
struct StreamProblem {
  Topology topology;
  Topology degraded_topology;  // applied mid-stream via UpdateTopology
  TemporalGraph temporal;
  uint64_t base_count;
  Graph base_graph;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  // Per batch: the stream events (globally sequenced) and the watermark.
  std::vector<std::vector<StreamEvent>> batches;
  std::vector<SimTime> watermarks;

  StreamProblem(const StreamOracleOptions& options, uint64_t seed)
      : topology(MakeEc2Topology(options.num_dcs, Heterogeneity::kMedium)),
        temporal(MakeStream(options, seed)),
        base_count(temporal.edges().size() / 2),
        base_graph(temporal.Prefix(base_count)) {
    GeoLocatorOptions geo;
    geo.num_dcs = options.num_dcs;
    geo.seed = seed + 101;
    locations = AssignGeoLocations(base_graph, geo);
    sizes = AssignInputSizes(base_graph);

    std::vector<DataCenter> dcs = topology.dcs();
    for (DataCenter& dc : dcs) dc.uplink_gbps *= 0.7;
    degraded_topology = Topology(std::move(dcs));

    // Window the streamed suffix into strictly increasing watermarks.
    const std::vector<TimedEdge>& all = temporal.edges();
    const SimTime start =
        base_count < all.size() ? all[base_count].time : SimTime(0);
    const SimTime end = all.back().time + SimTime(1);
    batches.assign(options.num_batches, {});
    const int64_t span = end.micros() - start.micros();
    for (int b = 0; b < options.num_batches; ++b) {
      watermarks.push_back(SimTime::Micros(
          start.micros() + span * (b + 1) / options.num_batches));
    }
    watermarks.back() = end;  // catch the final edge exactly
    int batch = 0;
    for (uint64_t i = base_count; i < all.size(); ++i) {
      while (all[i].time > watermarks[batch]) ++batch;
      batches[batch].push_back(StreamEvent{all[i], i});
    }
  }

  static TemporalGraph MakeStream(const StreamOracleOptions& options,
                                  uint64_t seed) {
    TemporalStreamOptions stream;
    stream.num_vertices = options.num_vertices;
    stream.num_edges = options.num_edges;
    stream.horizon_seconds = 24 * 3600;
    stream.seed = seed;
    return GenerateDiurnalStream(stream);
  }

  PartitionerContext Context() const {
    PartitionerContext ctx;
    ctx.graph = &base_graph;
    ctx.topology = &topology;
    ctx.locations = &locations;
    ctx.input_sizes = &sizes;
    ctx.theta = PartitionState::AutoTheta(base_graph);
    ctx.seed = 1;
    return ctx;
  }

  RLCutSessionOptions SessionOptions(const StreamOracleOptions& options,
                                     uint64_t seed) const {
    RLCutSessionOptions sopts;
    sopts.initial.max_steps = options.max_steps;
    sopts.initial.batch_size = 16;
    sopts.initial.num_threads = 2;
    sopts.initial.seed = seed;
    sopts.initial.agent_visit_budget =
        static_cast<int64_t>(base_graph.num_vertices()) * 4;
    sopts.incremental = sopts.initial;
    sopts.incremental.max_steps = std::max(1, options.max_steps - 1);
    return sopts;
  }
};

// Everything one lane records about its run, for cross-lane comparison.
struct LaneTrace {
  std::vector<std::vector<DcId>> published;  // masters per publish
  std::vector<uint64_t> versions;
};

}  // namespace

std::string StreamOracleReport::Summary() const {
  std::ostringstream out;
  out << "stream: " << sessions << " sessions, " << publishes
      << " publishes (" << budget_clamped << " budget-clamped), " << resumes
      << " resumes, " << failures.size() << " failures";
  return out.str();
}

namespace {

// Drives one session lane: re-optimize + publish, then per batch
// ApplyDelta -> (mid-stream topology event) -> re-optimize -> publish.
// `shuffle_rng` non-null turns on the adversarial arrival order.
// `resume_path` non-null checkpoints after the mid batch, drops the
// session, and restores from the file.
bool DriveLane(const StreamOracleOptions& options,
               const StreamProblem& problem, uint64_t session_seed,
               Rng* shuffle_rng, const std::string* resume_path,
               LaneTrace* trace, StreamOracleReport* report,
               std::string* error) {
  const MigrationBudget budget{options.budget_vertices,
                               options.budget_bytes};
  const RLCutSessionOptions sopts =
      problem.SessionOptions(options, session_seed);
  Result<std::unique_ptr<RLCutSession>> opened =
      RLCutSession::Open(problem.Context(), sopts);
  if (!opened.ok()) {
    *error = "Open: " + opened.status().ToString();
    return false;
  }
  std::unique_ptr<RLCutSession> session = std::move(*opened);
  StreamBuffer buffer;

  auto reoptimize_and_publish = [&](const char* where) {
    Result<ReoptimizeResult> reopt = session->MaybeReoptimize(budget);
    if (!reopt.ok()) {
      *error = std::string(where) +
               " MaybeReoptimize: " + reopt.status().ToString();
      return false;
    }
    Result<PublishedPlan> plan = session->PublishPlan();
    if (!plan.ok()) {
      *error = std::string(where) +
               " PublishPlan: " + plan.status().ToString();
      return false;
    }
    if (plan->migration.vertices_moved > budget.max_vertices ||
        plan->migration.bytes_moved > budget.max_bytes) {
      std::ostringstream out;
      out << where << " publish v" << plan->version << " exceeded budget: "
          << plan->migration.vertices_moved << " vertices / "
          << plan->migration.bytes_moved << " bytes";
      *error = out.str();
      return false;
    }
    if (plan->reverted_vertices > 0 || (reopt->reverted_vertices > 0)) {
      ++report->budget_clamped;
    }
    trace->published.push_back(plan->masters);
    trace->versions.push_back(plan->version);
    return true;
  };

  if (!reoptimize_and_publish("initial")) return false;

  const int mid = options.num_batches / 2;
  const int topology_batch = options.num_batches / 3;
  for (int b = 0; b < options.num_batches; ++b) {
    std::vector<StreamEvent> events = problem.batches[b];
    if (shuffle_rng != nullptr) {
      // Adversarial arrival: shuffled within the window, a few events
      // from the next window pushed early (they stay pending until
      // their own cut), and every 7th event duplicated.
      for (size_t i = events.size(); i > 1; --i) {
        std::swap(events[i - 1], events[shuffle_rng->Below(i)]);
      }
      if (b + 1 < options.num_batches && !problem.batches[b + 1].empty()) {
        events.push_back(problem.batches[b + 1].front());
      }
    }
    for (size_t i = 0; i < events.size(); ++i) {
      buffer.Push(events[i]);
      if (shuffle_rng != nullptr && i % 7 == 3) buffer.Push(events[i]);
    }
    const MicroBatch batch = buffer.Cut(problem.watermarks[b]);
    Result<ApplyResult> applied = session->ApplyDelta(batch);
    if (!applied.ok()) {
      *error = "batch " + std::to_string(b) +
               " ApplyDelta: " + applied.status().ToString();
      return false;
    }
    if (b == topology_batch) {
      Result<TopologyUpdateResult> updated =
          session->UpdateTopology(problem.degraded_topology);
      if (!updated.ok()) {
        *error = "UpdateTopology: " + updated.status().ToString();
        return false;
      }
    }
    if (!reoptimize_and_publish(("batch " + std::to_string(b)).c_str())) {
      return false;
    }
    if (resume_path != nullptr && b == mid) {
      if (Status saved = session->SaveCheckpoint(*resume_path);
          !saved.ok()) {
        *error = "SaveCheckpoint: " + saved.ToString();
        return false;
      }
      session.reset();
      Result<std::unique_ptr<RLCutSession>> restored =
          RLCutSession::Restore(*resume_path, sopts);
      if (!restored.ok()) {
        *error = "Restore: " + restored.status().ToString();
        return false;
      }
      session = std::move(*restored);
    }
  }

  // Terminal checks: the live state must be internally consistent and
  // the live graph must equal a cold application of the same edits.
  const PartitionState* state = session->live_state();
  if (state == nullptr || !state->CheckInvariants()) {
    *error = "final state violates invariants";
    return false;
  }
  const uint64_t expected_edges = problem.temporal.edges().size();
  if (session->num_edges() != expected_edges) {
    *error = "session holds " + std::to_string(session->num_edges()) +
             " edges, cold application holds " +
             std::to_string(expected_edges);
    return false;
  }
  const Graph cold = problem.temporal.Prefix(expected_edges);
  const Graph& live = state->graph();
  if (live.num_edges() != cold.num_edges()) {
    *error = "live graph edge count diverged from cold application";
    return false;
  }
  for (EdgeId e = 0; e < cold.num_edges(); ++e) {
    const Edge a = live.GetEdge(e);
    const Edge b = cold.GetEdge(e);
    if (a.src != b.src || a.dst != b.dst) {
      *error = "live graph edge " + std::to_string(e) +
               " diverged from cold application";
      return false;
    }
  }
  return true;
}

// Re-tallies every publish of the reference lane against an
// independently cold-built problem: the migration delta between
// consecutive published plans must respect the budget under the exact
// sizes the session was using (initial sizes before the first applied
// batch, degree-derived sizes afterwards).
bool RecheckBudgets(const StreamOracleOptions& options,
                    const StreamProblem& problem, const LaneTrace& trace,
                    std::string* error) {
  const std::vector<DcId>* previous = &problem.locations;
  for (size_t p = 0; p < trace.published.size(); ++p) {
    // Publish 0 happens before any batch; publish k covers batches
    // [0, k), so the graph holds the base edges plus those batches.
    uint64_t applied = 0;
    for (size_t b = 0; b < p && b < problem.batches.size(); ++b) {
      applied += problem.batches[b].size();
    }
    std::vector<double> sizes;
    if (applied == 0) {
      sizes = problem.sizes;
    } else {
      sizes = AssignInputSizes(
          problem.temporal.Prefix(problem.base_count + applied));
    }
    const MigrationSummary delta = PlanMigration(
        *previous, trace.published[p], sizes, problem.topology);
    if (delta.vertices_moved > options.budget_vertices ||
        delta.bytes_moved > options.budget_bytes) {
      std::ostringstream out;
      out << "cold re-tally of publish " << p << " exceeds the budget: "
          << delta.vertices_moved << " vertices / " << delta.bytes_moved
          << " bytes";
      *error = out.str();
      return false;
    }
    previous = &trace.published[p];
  }
  return true;
}

}  // namespace

StreamOracleReport RunStreamOracle(const StreamOracleOptions& options) {
  StreamOracleReport report;
  for (int s = 0; s < options.num_sessions; ++s) {
    const uint64_t session_seed = options.seed + static_cast<uint64_t>(s);
    const StreamProblem problem(options, session_seed);
    ++report.sessions;
    auto fail = [&](const std::string& message) {
      std::ostringstream out;
      out << "stream session " << s << " (seed " << session_seed
          << "): " << message;
      report.failures.push_back(out.str());
    };

    LaneTrace reference;
    std::string error;
    if (!DriveLane(options, problem, session_seed, nullptr, nullptr,
                   &reference, &report, &error)) {
      fail("reference lane: " + error);
      continue;
    }
    report.publishes += reference.published.size();
    if (!RecheckBudgets(options, problem, reference, &error)) {
      fail(error);
      continue;
    }

    // Shuffle lane: identical cuts, therefore identical publishes.
    {
      LaneTrace shuffled;
      Rng rng(Mix64(session_seed) ^ 0x5eed);
      StreamOracleReport scratch;  // lane counters must not double-count
      if (!DriveLane(options, problem, session_seed, &rng, nullptr,
                     &shuffled, &scratch, &error)) {
        fail("shuffle lane: " + error);
        continue;
      }
      if (shuffled.published != reference.published ||
          shuffled.versions != reference.versions) {
        fail("shuffled arrival diverged from in-order arrival");
        continue;
      }
    }

    // Resume lane: checkpoint mid-stream, restore, finish identically.
    {
      LaneTrace resumed;
      const std::string path = ScratchPath(s);
      StreamOracleReport scratch;
      const bool ok = DriveLane(options, problem, session_seed, nullptr,
                                &path, &resumed, &scratch, &error);
      RemoveWithSidecars(path);
      if (!ok) {
        fail("resume lane: " + error);
        continue;
      }
      if (resumed.published != reference.published ||
          resumed.versions != reference.versions) {
        fail("restored session diverged from the uninterrupted session");
        continue;
      }
      ++report.resumes;
    }
  }
  return report;
}

}  // namespace check
}  // namespace rlcut

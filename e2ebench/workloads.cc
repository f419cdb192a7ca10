#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "cloud/topology.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/rlg.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "graph/transform.h"
#include "layers.h"
#include "host.h"
#include "net/replica_service.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/plan_io.h"
#include "rlcut/session.h"
#include "rlcut/trainer.h"
#include "stats.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using rlcut::DcId;
using rlcut::Result;
using rlcut::Status;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Workload make-up (README.md, "Workloads") ------------------------

// Every problem instance (graph, geo-locations, input sizes) is fixed,
// like the datasets it stands in for, so every run of a workload must
// find the same plan. --seed varies what must not change the plan: the
// trainer's seed and, in the stream, the order in which edges arrive.
constexpr uint64_t kProblemSeed = 42;

constexpr uint64_t kTwScale = 500;
constexpr int kBatchDcs = 8;
constexpr double kBudgetFraction = 0.4;
constexpr int kBatchMinRounds = 3;

constexpr uint32_t kOocVertices = 1u << 19;
constexpr uint64_t kOocEdges = 1u << 22;
constexpr size_t kOocResidencyBudget = 48u << 20;
constexpr int64_t kOocVisitBudget = 1 << 20;

constexpr int kMinSetups = 3;

constexpr int kStreamDcs = 4;
constexpr int kReoptEveryBatches = 3;
constexpr int kCheckpointEveryPublishes = 4;
// Trainer batches between two deltas to the replica. rlcut_serve runs
// the library default of 4; at 4 the per-delta O(V) fingerprint round
// trips dominate the loop and swing with host CPU steal (README.md), so
// this loop leaves most of that replica cost out.
constexpr int kReplicaSyncBatches = 64;

std::string OocPath(const RunOptions& options) {
  return options.work_dir + "/ooc-g" + std::to_string(kProblemSeed) +
         "-v" + std::to_string(kOocVertices) + "-e" +
         std::to_string(kOocEdges) + ".rlg";
}

// ---- Per-layer bookkeeping ---------------------------------------------

// What one round measured around its calls into each layer.
struct LayerStats {
  double graph_build_s = 0;
  double graph_open_s = 0;
  double governor_drops = 0;
  double mapped_mb = 0;
  double partition_build_s = 0;
  double partition_build_rss_mb = 0;
  double budget_reverted = 0;
  // Wall and process CPU inside the calls that train: Train in the batch
  // workloads, MaybeReoptimize in the stream.
  double train_call_s = 0;
  double train_call_cpu_s = 0;
  std::vector<double> apply_s;
  std::vector<double> apply_edges;
  std::vector<double> reopt_s;
  double trained_vertices = 0;
  std::vector<double> publish_s;
  double migrated_bytes = 0;
  double checkpoint_s = 0;
  double checkpoint_bytes = 0;
  double net_push_s = 0;
  double net_flush_s = 0;
  double net_frames = 0;
  double net_deltas = 0;
  double net_snapshots = 0;
};

// Counters the library already keeps in the default registry.
const char* const kCounters[] = {"trainer.agent_visits", "trainer.migrations",
                                 "trainer.rollbacks", "trainer.shard_syncs",
                                 "threadpool.tasks"};

std::map<std::string, double> ReadCounters() {
  std::map<std::string, double> values;
  for (const char* name : kCounters) {
    values[name] = static_cast<double>(
        rlcut::obs::DefaultRegistry().GetCounter(name)->value());
  }
  return values;
}

// Rounds start from a trimmed heap, as a fresh process would: every
// round then pays the same page faults, and a layer's RSS growth shows
// instead of being served from memory an earlier round freed.
void ReleaseFreedMemory() { malloc_trim(0); }

double PeakRssMb() {
  return static_cast<double>(rlcut::PeakRssBytes()) / kMiB;
}

std::string Describe(const char* what, const Percentile& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s = %.6g (nearest rank %zu of %zu)",
                what, p.value, p.rank, p.samples);
  return buf;
}

// A median over rounds, with every round's value.
std::string DescribeRounds(const char* what, const std::vector<double>& v) {
  std::string out = Describe(what, Median(v)) + ", rounds:";
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", x);
    out += buf;
  }
  return out;
}

// ---- Batch workloads: batch_tw and ooc_mmap ----------------------------

struct BatchProblem {
  rlcut::GraphStore store;
  rlcut::Topology topology;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  uint32_t theta = 0;
  double budget = 0;

  Problem view() const {
    Problem p;
    p.graph = &store.graph();
    p.topology = &topology;
    p.locations = &locations;
    p.input_sizes = &sizes;
    p.theta = theta;
    return p;
  }
};

// Geo-location, input sizes, theta and the budget B (a fraction of the
// cost of moving every vertex to the cheapest-upload DC).
void FinishBatchProblem(BatchProblem* problem) {
  const rlcut::Graph& graph = problem->store.graph();
  problem->topology =
      rlcut::MakeEc2Topology(kBatchDcs, rlcut::Heterogeneity::kMedium);
  rlcut::GeoLocatorOptions geo;
  geo.num_dcs = kBatchDcs;
  geo.seed = kProblemSeed;
  problem->locations = rlcut::AssignGeoLocations(graph, geo);
  problem->sizes = rlcut::AssignInputSizes(graph);
  problem->theta = rlcut::PartitionState::AutoTheta(graph);
  const DcId hub = problem->topology.CheapestUploadDc();
  double centralized = 0;
  for (rlcut::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (problem->locations[v] != hub) {
      centralized += problem->topology.UploadCost(problem->locations[v],
                                                  problem->sizes[v]);
    }
  }
  problem->budget = kBudgetFraction * centralized;
}

Result<std::unique_ptr<BatchProblem>> SetupBatch(const RunOptions& options,
                                                 bool ooc,
                                                 LayerStats* stats) {
  auto problem = std::make_unique<BatchProblem>();
  if (ooc) {
    rlcut::MmapGraph::Options mmap;
    mmap.random_access = true;
    mmap.validate_structure = true;
    mmap.budget_bytes = kOocResidencyBudget;
    Result<rlcut::GraphStore> opened = TimeCall(
        "graph/open", &stats->graph_open_s,
        [&] { return rlcut::GraphStore::OpenMapped(OocPath(options), mmap); });
    if (!opened.ok()) return opened.status();
    problem->store = std::move(*opened);
    TimeCall("graph/build", &stats->graph_build_s,
             [&] { FinishBatchProblem(problem.get()); });
  } else {
    TimeCall("graph/build", &stats->graph_build_s, [&] {
      problem->store = rlcut::GraphStore::InMemory(rlcut::LoadDataset(
          rlcut::Dataset::kTwitter, kTwScale, kProblemSeed));
      FinishBatchProblem(problem.get());
    });
  }
  return problem;
}

struct PlanOutcome {
  std::vector<DcId> masters;
  PlanQuality quality;
};

// What Partitioner::Run does for RLCut, one layer at a time: state
// build with the natural initial placement, Train, plan extraction.
PlanOutcome PlanOnce(const BatchProblem& problem,
                     const rlcut::RLCutOptions& trainer_options,
                     LayerStats* stats) {
  const rlcut::Graph& graph = problem.store.graph();
  rlcut::PartitionConfig config;
  config.model = rlcut::ComputeModel::kHybridCut;
  config.theta = problem.theta;
  const double rss_before = static_cast<double>(rlcut::CurrentRssBytes());
  std::optional<rlcut::PartitionState> state;
  TimeCall("partition/build", &stats->partition_build_s, [&] {
    state.emplace(&graph, &problem.topology, &problem.locations,
                  &problem.sizes, config);
    state->ResetDerived(problem.locations);
  });
  stats->partition_build_rss_mb =
      (static_cast<double>(rlcut::CurrentRssBytes()) - rss_before) / kMiB;

  const double cpu_before = ProcessCpuSeconds();
  TimeCall("bench/train", &stats->train_call_s, [&] {
    rlcut::RLCutTrainer trainer(trainer_options);
    trainer.Train(&*state);
  });
  stats->train_call_cpu_s += ProcessCpuSeconds() - cpu_before;

  PlanOutcome out;
  double extract_s = 0;
  out.masters = TimeCall("partition/extract", &extract_s,
                         [&] { return rlcut::ExtractPlan(*state).masters; });
  out.quality = QualityOf(*state);
  return out;
}

rlcut::RLCutOptions BatchTrainerOptions(const RunOptions& options,
                                        const BatchProblem& problem,
                                        bool ooc) {
  rlcut::RLCutOptions trainer;
  trainer.budget = problem.budget;
  trainer.seed = options.seed;
  trainer.num_threads = kTrainerThreads;
  if (ooc) trainer.agent_visit_budget = kOocVisitBudget;
  return trainer;
}

// ---- Stream workload: stream_grow --------------------------------------

// A replica server on a thread of this process, reached over loopback
// TCP, as a separate replica process would be.
class ReplicaHost {
 public:
  static Result<std::unique_ptr<ReplicaHost>> Start() {
    Result<std::unique_ptr<rlcut::net::TcpListener>> listener =
        rlcut::net::TcpListener::Listen(0);
    if (!listener.ok()) return listener.status();
    std::unique_ptr<ReplicaHost> host(new ReplicaHost(std::move(*listener)));
    host->thread_ = std::thread([h = host.get()] { h->Serve(); });
    return host;
  }

  ~ReplicaHost() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    listener_->Close();
  }
  ReplicaHost(const ReplicaHost&) = delete;
  ReplicaHost& operator=(const ReplicaHost&) = delete;

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(listener_->port());
  }
  const rlcut::net::ReplicaServer& server() const { return server_; }
  /// First error a connection ended with, if any.
  Status error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  explicit ReplicaHost(std::unique_ptr<rlcut::net::TcpListener> listener)
      : listener_(std::move(listener)), server_(ServerOptions()) {}

  static rlcut::net::ReplicaServerOptions ServerOptions() {
    rlcut::net::ReplicaServerOptions options;
    options.idle_timeout_ms = 50;  // notices `stop_` quickly
    return options;
  }

  void Serve() {
    while (!stop_.load()) {
      Result<std::unique_ptr<rlcut::net::Transport>> accepted =
          listener_->Accept(/*timeout_ms=*/50);
      if (!accepted.ok()) continue;  // timed out; re-check stop_
      const Status served = server_.ServeConnection(accepted->get(), &stop_);
      if (!served.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (error_.ok()) error_ = served;
      }
    }
  }

  std::unique_ptr<rlcut::net::TcpListener> listener_;
  rlcut::net::ReplicaServer server_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  Status error_;
  std::thread thread_;
};

rlcut::RLCutSessionOptions StreamSessionOptions(const StreamConfig& config) {
  rlcut::RLCutSessionOptions options;
  options.initial.num_threads = kTrainerThreads;
  options.initial.shard_sync_batches = kReplicaSyncBatches;
  options.initial.seed = config.seed;
  options.incremental = options.initial;
  return options;
}

rlcut::MigrationBudget StreamBudget(const StreamConfig& config) {
  rlcut::MigrationBudget budget;
  budget.max_vertices = config.budget_vertices;
  budget.max_bytes = config.budget_bytes;
  return budget;
}

// The live daemon after its start: problem, replica link and a session
// that has published plan v1. Members are destroyed session first,
// replica server last.
struct StreamSetup {
  std::unique_ptr<ReplicaHost> host;
  std::unique_ptr<rlcut::net::ReplicaClient> client;
  std::unique_ptr<TimedReplicaSink> sink;
  std::vector<rlcut::TimedEdge> timed;
  uint64_t base_count = 0;
  double horizon = 0;
  rlcut::Topology topology;
  std::vector<DcId> locations;
  std::vector<double> base_sizes;
  uint32_t theta = 0;
  std::unique_ptr<rlcut::RLCutSession> session;
  std::vector<DcId> published;
  std::vector<PublishRecord> publishes;
  /// Publishes during which the replica link degraded or failed.
  uint64_t failed_publishes = 0;
};

std::vector<rlcut::PlanMove> DiffPlans(const std::vector<DcId>& before,
                                       const std::vector<DcId>& after) {
  std::vector<rlcut::PlanMove> moves;
  for (size_t v = 0; v < after.size(); ++v) {
    if (before[v] != after[v]) {
      moves.push_back({static_cast<rlcut::VertexId>(v), before[v], after[v]});
    }
  }
  return moves;
}

// Re-optimizes and publishes once, timing both calls, and records the
// benchmark's own diff of the new plan against the previous one. A
// publish counts as failed if the replica link degraded during it.
Status ReoptimizeAndPublish(StreamSetup* setup,
                            const rlcut::MigrationBudget& budget,
                            LayerStats* stats) {
  const uint64_t degraded_before = setup->sink->degraded_calls();
  double reopt_s = 0;
  const double cpu_before = ProcessCpuSeconds();
  Result<rlcut::ReoptimizeResult> reopt =
      TimeCall("session/reopt", &reopt_s,
               [&] { return setup->session->MaybeReoptimize(budget); });
  stats->train_call_cpu_s += ProcessCpuSeconds() - cpu_before;
  stats->train_call_s += reopt_s;
  if (!reopt.ok()) return reopt.status();
  if (setup->sink->degraded_calls() != degraded_before ||
      !setup->session->replica_status().ok()) {
    ++setup->failed_publishes;
  }
  stats->reopt_s.push_back(reopt_s);
  stats->trained_vertices += static_cast<double>(reopt->trained_vertices);
  stats->budget_reverted += static_cast<double>(reopt->reverted_vertices);

  double publish_s = 0;
  Result<rlcut::PublishedPlan> plan = TimeCall(
      "session/publish", &publish_s,
      [&] { return setup->session->PublishPlan(); });
  if (!plan.ok()) return plan.status();
  stats->publish_s.push_back(publish_s);
  stats->budget_reverted += static_cast<double>(plan->reverted_vertices);
  stats->migrated_bytes += plan->migration.bytes_moved;

  PublishRecord record;
  record.version = plan->version;
  record.graph_edges = setup->session->num_edges();
  record.moves = DiffPlans(setup->published, plan->masters);
  setup->publishes.push_back(std::move(record));
  setup->published = std::move(plan->masters);
  return Status::Ok();
}

// Daemon start: stream generation, geo-location and input sizes, the
// replica link, session Open, the first full pass and the v1 publish.
Result<std::unique_ptr<StreamSetup>> SetupStream(const StreamConfig& config,
                                                 LayerStats* stats) {
  auto setup = std::make_unique<StreamSetup>();
  std::optional<rlcut::Graph> base_graph;
  TimeCall("graph/build", &stats->graph_build_s, [&] {
    rlcut::TemporalStreamOptions stream;
    stream.num_vertices = config.num_vertices;
    stream.num_edges = config.num_edges;
    stream.seed = kProblemSeed;
    setup->horizon = stream.horizon_seconds;
    const rlcut::TemporalGraph temporal = rlcut::GenerateDiurnalStream(stream);
    setup->base_count = temporal.edges().size() / 5;
    base_graph.emplace(temporal.Prefix(setup->base_count));
    setup->timed = temporal.edges();
    setup->topology =
        rlcut::MakeEc2Topology(kStreamDcs, rlcut::Heterogeneity::kMedium);
    rlcut::GeoLocatorOptions geo;
    geo.num_dcs = kStreamDcs;
    geo.seed = kProblemSeed;
    setup->locations = rlcut::AssignGeoLocations(*base_graph, geo);
    setup->base_sizes = rlcut::AssignInputSizes(*base_graph);
    setup->theta = rlcut::PartitionState::AutoTheta(*base_graph);
  });

  Result<std::unique_ptr<ReplicaHost>> host = ReplicaHost::Start();
  if (!host.ok()) return host.status();
  setup->host = std::move(*host);
  rlcut::net::ReplicaClientOptions client_options;
  client_options.retry.seed = config.seed;
  setup->client = std::make_unique<rlcut::net::ReplicaClient>(
      rlcut::net::ReplicaClient::TcpConnector(setup->host->endpoint(),
                                              client_options.dial_timeout_ms),
      client_options);
  setup->sink = std::make_unique<TimedReplicaSink>(setup->client.get());

  rlcut::PartitionerContext ctx;
  ctx.graph = &*base_graph;
  ctx.topology = &setup->topology;
  ctx.locations = &setup->locations;
  ctx.input_sizes = &setup->base_sizes;
  ctx.theta = setup->theta;
  ctx.seed = config.seed;
  double open_s = 0;
  Result<std::unique_ptr<rlcut::RLCutSession>> session =
      TimeCall("session/open", &open_s, [&] {
        return rlcut::RLCutSession::Open(ctx, StreamSessionOptions(config));
      });
  if (!session.ok()) return session.status();
  setup->session = std::move(*session);
  setup->session->SetReplicaSink(setup->sink.get());
  setup->published = setup->locations;
  RLCUT_RETURN_IF_ERROR(
      ReoptimizeAndPublish(setup.get(), StreamBudget(config), stats));
  return setup;
}

struct LoopResult {
  double wall_s = 0;
  /// Wall time of each live re-optimize + publish.
  std::vector<double> pass_s;
  uint64_t edges = 0;
  uint64_t operations = 0;
  std::vector<double> freshness_s;
};

// The live loop: cut a micro-batch every `batch_seconds` of stream time,
// apply it, re-optimize and publish every kReoptEveryBatches batches,
// checkpoint every few publishes, and flush the replica at the end.
Status RunStreamLoop(const StreamConfig& config, StreamSetup* setup,
                     StreamOutcome* outcome, LoopResult* result,
                     LayerStats* stats) {
  const rlcut::MigrationBudget budget = StreamBudget(config);
  const std::vector<rlcut::TimedEdge>& all = setup->timed;
  const rlcut::SimTime window(config.batch_seconds);
  const rlcut::SimTime horizon(setup->horizon);
  rlcut::SimTime watermark =
      setup->base_count < all.size() ? all[setup->base_count].time : horizon;
  uint64_t next = setup->base_count;
  int since_reopt = 0;
  int dropped = 0;
  std::vector<Clock::time_point> unpublished_cuts;

  auto publish = [&]() -> Status {
    const auto plan_start = Clock::now();
    RLCUT_RETURN_IF_ERROR(ReoptimizeAndPublish(setup, budget, stats));
    const auto published_at = Clock::now();
    result->pass_s.push_back(
        std::chrono::duration<double>(published_at - plan_start).count());
    ++result->operations;
    for (const Clock::time_point cut : unpublished_cuts) {
      result->freshness_s.push_back(
          std::chrono::duration<double>(published_at - cut).count());
    }
    unpublished_cuts.clear();
    since_reopt = 0;
    const bool last = next >= all.size();
    if (last || setup->publishes.back().version %
                        kCheckpointEveryPublishes ==
                    0) {
      RLCUT_RETURN_IF_ERROR(TimeCall("session/checkpoint", &stats->checkpoint_s,
                                     [&] {
                                       return setup->session->SaveCheckpoint(
                                           config.checkpoint_path);
                                     }));
    }
    return Status::Ok();
  };

  // Edges of one window reach the buffer in a seeded random order, as
  // from an unordered transport; the buffer's cuts must not depend on it.
  std::mt19937_64 arrival(config.seed);
  std::vector<rlcut::StreamEvent> window_events;
  rlcut::StreamBuffer buffer;
  const auto start = Clock::now();
  while (next < all.size()) {
    watermark = std::min(watermark + window, horizon + rlcut::SimTime(1));
    window_events.clear();
    while (next < all.size() && all[next].time <= watermark) {
      window_events.push_back(rlcut::StreamEvent{all[next], next});
      ++next;
    }
    std::shuffle(window_events.begin(), window_events.end(), arrival);
    for (const rlcut::StreamEvent& event : window_events) buffer.Push(event);
    rlcut::MicroBatch batch = buffer.Cut(watermark);
    unpublished_cuts.push_back(Clock::now());
    if (dropped < config.drop_edges && !batch.edges.empty()) {
      const int n = std::min<int>(config.drop_edges - dropped,
                                  static_cast<int>(batch.edges.size()));
      batch.edges.resize(batch.edges.size() - static_cast<size_t>(n));
      dropped += n;
    }
    double apply_s = 0;
    Result<rlcut::ApplyResult> applied = TimeCall(
        "session/apply", &apply_s,
        [&] { return setup->session->ApplyDelta(batch); });
    if (!applied.ok()) return applied.status();
    ++result->operations;
    stats->apply_s.push_back(apply_s);
    stats->apply_edges.push_back(static_cast<double>(applied->edges_applied));
    outcome->applied.push_back(applied->edges_applied);
    result->edges += applied->edges_applied;
    if (++since_reopt >= kReoptEveryBatches || next >= all.size()) {
      RLCUT_RETURN_IF_ERROR(publish());
    }
  }
  RLCUT_RETURN_IF_ERROR(setup->sink->Flush());
  result->wall_s = SecondsSince(start);
  return Status::Ok();
}

// Reads what the checks compare after the loop: the remote replica, a
// session restored from the final checkpoint, the live plan's quality.
Status CollectStreamOutcome(const StreamConfig& config,
                            const StreamSetup& setup, StreamOutcome* outcome,
                            PlanQuality* reported) {
  outcome->live_edges = setup.session->num_edges();
  outcome->publishes = setup.publishes;
  outcome->published_masters = setup.published;
  outcome->replica_masters = setup.host->server().snapshot().masters;
  RLCUT_RETURN_IF_ERROR(setup.host->error());
  Result<std::unique_ptr<rlcut::RLCutSession>> restored =
      rlcut::RLCutSession::Restore(config.checkpoint_path,
                                   StreamSessionOptions(config));
  if (!restored.ok()) return restored.status();
  outcome->restored_masters = (*restored)->last_published_masters();
  *reported = QualityOf(*setup.session->live_state());
  return Status::Ok();
}

StreamConfig StreamConfigFor(const RunOptions& options) {
  StreamConfig config;
  config.seed = options.seed;
  config.checkpoint_path = options.work_dir + "/stream.ckpt";
  return config;
}

void RemoveCheckpoints(const std::string& path) {
  std::error_code ignored;
  fs::remove(path, ignored);
  fs::remove(path + ".prev", ignored);
}

// ---- Per-layer metrics -------------------------------------------------

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Median apply time per edge over the last quarter of micro-batches
// divided by the same over the first quarter: 1 when ingest cost does
// not grow with the history.
double ApplyGrowth(const LayerStats& s) {
  std::vector<double> per_edge;
  for (size_t i = 0; i < s.apply_s.size(); ++i) {
    if (s.apply_edges[i] > 0) per_edge.push_back(s.apply_s[i] / s.apply_edges[i]);
  }
  const size_t quarter = per_edge.size() / 4;
  if (quarter == 0) return 0;
  const std::vector<double> first(per_edge.begin(), per_edge.begin() + quarter);
  const std::vector<double> last(per_edge.end() - quarter, per_edge.end());
  const double base = Median(first).value;
  return base > 0 ? Median(last).value / base : 0;
}

std::vector<Metric> LayerMetrics(const LayerStats& s,
                                 const std::map<std::string, double>& counters,
                                 const std::map<std::string, SpanTotals>& spans,
                                 size_t span_count, double trace_overhead,
                                 RunResult* result) {
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  auto counter = [&](const char* name) { return counters.at(name); };
  // A tail is printed only over enough samples; a workload that has the
  // samples at all but too few of them fails.
  auto tail_ms = [&](const char* name, const std::vector<double>& samples) {
    const Percentile p = NearestRank(samples, 90);
    if (samples.empty()) return 0.0;
    result->notes.push_back(Describe(name, p));
    if (!TailSupported(p)) {
      result->failures.push_back(std::string(name) + ": " +
                                 std::to_string(p.samples) +
                                 " samples cannot support a p90");
      return 0.0;
    }
    return p.value * 1e3;
  };
  auto median_ms = [&](const char* name, const std::vector<double>& samples) {
    const Percentile p = Median(samples);
    if (!samples.empty()) result->notes.push_back(Describe(name, p));
    return p.value * 1e3;
  };

  const double train_s = span("trainer/train").total_s;
  const double visits = counter("trainer.agent_visits");
  const double migrations = counter("trainer.migrations");
  const double rollbacks = counter("trainer.rollbacks");
  return {
      {"graph.build_s", "s", s.graph_build_s},
      {"graph.open_s", "s", s.graph_open_s},
      {"graph.governor_drops", "count", s.governor_drops},
      {"graph.mapped_mb", "MiB", s.mapped_mb},
      {"partition.build_s", "s", s.partition_build_s},
      {"partition.build_rss_mb", "MiB", s.partition_build_rss_mb},
      {"partition.budget_reverted", "count", s.budget_reverted},
      {"trainer.train_s", "s", train_s},
      {"trainer.cpu_per_wall", "ratio",
       s.train_call_s > 0 ? s.train_call_cpu_s / s.train_call_s : 0},
      {"trainer.visits", "count", visits},
      {"trainer.visits_per_s", "1/s", train_s > 0 ? visits / train_s : 0},
      {"trainer.accept_ratio", "ratio",
       migrations + rollbacks > 0 ? migrations / (migrations + rollbacks) : 0},
      {"trainer.shard_syncs", "count", counter("trainer.shard_syncs")},
      {"threadpool.tasks", "count", counter("threadpool.tasks")},
      {"trainer.sample_self_s", "s", span("trainer/stage/sample").self_s},
      {"trainer.score_self_s", "s", span("trainer/stage/score").self_s},
      {"trainer.migrate_self_s", "s", span("trainer/stage/migrate").self_s},
      {"trainer.batch_other_s", "s", span("trainer/batch").self_s},
      {"session.apply_s", "s", Sum(s.apply_s)},
      {"session.apply_p50_ms", "ms", median_ms("session.apply_p50", s.apply_s)},
      {"session.apply_p90_ms", "ms", tail_ms("session.apply_p90", s.apply_s)},
      {"session.apply_growth", "ratio", ApplyGrowth(s)},
      {"session.reopt_s", "s", Sum(s.reopt_s)},
      {"session.reopt_p50_ms", "ms", median_ms("session.reopt_p50", s.reopt_s)},
      {"session.trained_vertices", "count", s.trained_vertices},
      {"session.publish_p50_ms", "ms",
       median_ms("session.publish_p50", s.publish_s)},
      {"session.migrated_mb", "MB", s.migrated_bytes / 1e6},
      {"session.checkpoint_s", "s", s.checkpoint_s},
      {"session.checkpoint_mb", "MiB", s.checkpoint_bytes / kMiB},
      {"net.push_s", "s", s.net_push_s},
      {"net.flush_s", "s", s.net_flush_s},
      {"net.frames", "count", s.net_frames},
      {"net.deltas_applied", "count", s.net_deltas},
      {"net.snapshots", "count", s.net_snapshots},
      {"obs.spans", "count", static_cast<double>(span_count)},
      {"obs.trace_overhead", "ratio", trace_overhead},
  };
}

// ---- Rounds ------------------------------------------------------------

// One measured round of any workload.
struct Round {
  double setup_s = 0;
  /// The timed phase: the plan (batch) or the live loop (stream).
  double phase_s = 0;
  LayerStats stats;
};

// Installs a recorder with detailed metrics for the traced round, and
// collects what it recorded.
class TraceScope {
 public:
  TraceScope() {
    counters_before_ = ReadCounters();
    rlcut::obs::SetDetailedMetrics(true);
    rlcut::obs::SetTraceRecorder(&recorder_);
  }
  ~TraceScope() { Stop(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    rlcut::obs::SetTraceRecorder(nullptr);
    rlcut::obs::SetDetailedMetrics(false);
    const std::map<std::string, double> after = ReadCounters();
    for (const auto& [name, value] : after) {
      counters_[name] = value - counters_before_[name];
    }
  }

  const rlcut::obs::TraceRecorder& recorder() const { return recorder_; }
  const std::map<std::string, double>& counters() const { return counters_; }

 private:
  bool stopped_ = false;
  rlcut::obs::TraceRecorder recorder_;
  std::map<std::string, double> counters_before_;
  std::map<std::string, double> counters_;
};

Status WriteTrace(const RunOptions& options,
                  const rlcut::obs::TraceRecorder& recorder,
                  RunResult* result) {
  const std::string dir = options.work_dir + "/traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  std::ofstream os(path);
  recorder.WriteChromeTrace(os);
  if (!os.good()) return Status::IoError("cannot write " + path);
  result->notes.push_back("trace: " + path);
  return Status::Ok();
}

void AddTraceNotes(const std::vector<Metric>& layers, RunResult* result) {
  result->notes.push_back("per-layer table (traced round):");
  for (const Metric& m : layers) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-28s %16.6f %s", m.name.c_str(),
                  m.value, m.unit.c_str());
    result->notes.push_back(buf);
  }
}

// Rounds loop shared by all workloads: `round()` runs one round.
// Timed runs repeat rounds until `seconds` passed since `start` (at
// least `min_rounds`). Traced runs make a traced round between two
// untraced ones, so that the first round's cold start does not bias the
// trace overhead.
template <typename RoundFn>
Status RunRounds(const RunOptions& options, Clock::time_point start,
                 int min_rounds, RoundFn&& round, std::vector<Round>* rounds,
                 std::unique_ptr<TraceScope>* traced_scope) {
  if (!options.trace) {
    while (static_cast<int>(rounds->size()) < min_rounds ||
           SecondsSince(start) < options.seconds) {
      Result<Round> r = round();
      if (!r.ok()) return r.status();
      rounds->push_back(std::move(*r));
    }
    return Status::Ok();
  }
  for (int i = 0; i < 3; ++i) {
    if (i == 1) *traced_scope = std::make_unique<TraceScope>();
    Result<Round> r = round();
    if (i == 1) (*traced_scope)->Stop();
    if (!r.ok()) return r.status();
    rounds->push_back(std::move(*r));
  }
  return Status::Ok();
}

// Finishes a traced run: per-layer metrics of the traced (middle) round,
// the trace overhead against the mean of the untraced rounds around it,
// trace files.
Status FinishTraced(const RunOptions& options, const std::vector<Round>& rounds,
                    const TraceScope& scope, RunResult* result) {
  const Round& traced = rounds[1];
  const double untraced_s = (rounds[0].phase_s + rounds[2].phase_s) / 2;
  const std::vector<rlcut::obs::TraceEvent> events = scope.recorder().events();
  const double overhead = untraced_s > 0 ? traced.phase_s / untraced_s : 0;
  result->metrics = LayerMetrics(traced.stats, scope.counters(),
                                 SummarizeSpans(events), events.size(),
                                 overhead, result);
  AddTraceNotes(result->metrics, result);
  return WriteTrace(options, scope.recorder(), result);
}

// The end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> EndToEndMetrics(double setup_s, double plan_s,
                                    double ingest_eps, double publish_p50_s,
                                    double peak_rss_mb,
                                    const PlanQuality& quality) {
  return {
      {"setup_s", "s", setup_s},
      {"plan_s", "s", plan_s},
      {"ingest_eps", "edges/s", ingest_eps},
      {"publish_p50_ms", "ms", publish_p50_s * 1e3},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"plan_transfer_ms", "ms/iter", quality.transfer_ms},
      {"plan_cost_usd", "USD", quality.cost_usd},
      {"plan_lambda", "replicas/vertex", quality.lambda},
  };
}

// ---- Workload runs -----------------------------------------------------

Result<RunResult> RunBatch(const RunOptions& options, bool ooc) {
  RunResult result;
  std::unique_ptr<BatchProblem> last_problem;
  std::vector<DcId> first_masters;
  PlanOutcome last_plan;
  bool plans_identical = true;

  auto round = [&]() -> Result<Round> {
    Round r;
    last_problem.reset();  // the previous round's graph and mapping
    ReleaseFreedMemory();
    const auto setup_start = Clock::now();
    Result<std::unique_ptr<BatchProblem>> problem =
        SetupBatch(options, ooc, &r.stats);
    if (!problem.ok()) return problem.status();
    r.setup_s = SecondsSince(setup_start);

    const rlcut::RLCutOptions trainer =
        BatchTrainerOptions(options, **problem, ooc);
    const auto plan_start = Clock::now();
    {
      LayerSpan plan_span("bench/plan");
      last_plan = PlanOnce(**problem, trainer, &r.stats);
    }
    r.phase_s = SecondsSince(plan_start);
    ++result.attempted;
    if (const rlcut::MmapGraph* mapped = (*problem)->store.mmap_graph()) {
      r.stats.governor_drops =
          static_cast<double>(mapped->mapping()->governor_drops());
      r.stats.mapped_mb = static_cast<double>(mapped->mapped_bytes()) / kMiB;
    }
    if (first_masters.empty()) {
      first_masters = last_plan.masters;
    } else if (first_masters != last_plan.masters) {
      plans_identical = false;
    }
    last_problem = std::move(*problem);
    return r;
  };

  std::vector<Round> rounds;
  std::unique_ptr<TraceScope> scope;
  RLCUT_RETURN_IF_ERROR(RunRounds(options, Clock::now(), kBatchMinRounds,
                                  round, &rounds, &scope));
  const double peak_rss_mb = PeakRssMb();  // before any check allocates

  // Checks on the last round's plan; every round must produce the same.
  const Problem problem = last_problem->view();
  if (!plans_identical) {
    result.failures.push_back("rounds of one seed produced different plans");
  }
  for (const std::string& failure :
       {CheckMastersInRange(last_plan.masters, problem.graph->num_vertices(),
                            problem.topology->num_dcs()),
        CheckCostWithinBudget(last_plan.quality.cost_usd,
                              last_problem->budget),
        CheckColdRecompute(problem, last_plan.masters, last_plan.quality)}) {
    if (!failure.empty()) result.failures.push_back(failure);
  }

  if (options.trace) {
    RLCUT_RETURN_IF_ERROR(FinishTraced(options, rounds, *scope, &result));
    return result;
  }
  std::vector<double> setups, plans, latencies;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    plans.push_back(r.phase_s);
    latencies.push_back(r.setup_s + r.phase_s);
  }
  const Percentile setup = Median(setups);
  const Percentile plan = Median(plans);
  const Percentile latency = Median(latencies);
  result.notes.push_back(DescribeRounds("setup_s", setups));
  result.notes.push_back(DescribeRounds("plan_s", plans));
  result.notes.push_back(Describe("publish_p50_s (set-up + plan)", latency));
  const double edges = static_cast<double>(problem.graph->num_edges());
  result.metrics =
      EndToEndMetrics(setup.value, plan.value, edges / plan.value,
                      latency.value, peak_rss_mb, last_plan.quality);
  return result;
}

Result<RunResult> RunStream(const RunOptions& options) {
  RunResult result;
  const StreamConfig config = StreamConfigFor(options);
  std::error_code ec;
  fs::create_directories(options.work_dir, ec);
  std::vector<double> setups;

  // Set-up alone, twice, so that setup_s is a median of three; the
  // sessions are torn down before the measured rounds. They count
  // toward the measured time.
  const auto measure_start = Clock::now();
  if (!options.trace) {
    for (int i = 1; i < kMinSetups; ++i) {
      LayerStats ignored;
      ReleaseFreedMemory();
      const auto start = Clock::now();
      Result<std::unique_ptr<StreamSetup>> setup = SetupStream(config, &ignored);
      if (!setup.ok()) return setup.status();
      setups.push_back(SecondsSince(start));
      result.attempted += 1;  // the v1 publish
      result.failed += (*setup)->failed_publishes;
    }
  }

  std::unique_ptr<StreamSetup> last_setup;
  StreamOutcome outcome;
  std::vector<double> plan_s, ingest_eps, freshness_s;
  auto round = [&]() -> Result<Round> {
    Round r;
    last_setup.reset();
    ReleaseFreedMemory();
    RemoveCheckpoints(config.checkpoint_path);
    const auto start = Clock::now();
    Result<std::unique_ptr<StreamSetup>> setup = SetupStream(config, &r.stats);
    if (!setup.ok()) return setup.status();
    r.setup_s = SecondsSince(start);
    result.attempted += 1;
    outcome = StreamOutcome{};
    LoopResult loop;
    {
      LayerSpan loop_span("bench/live_loop");
      RLCUT_RETURN_IF_ERROR(
          RunStreamLoop(config, setup->get(), &outcome, &loop, &r.stats));
    }
    r.phase_s = loop.wall_s;
    result.attempted += loop.operations;
    // The median pass times the pass count: a burst of host CPU steal
    // during a few passes moves the loop's total, not this.
    const Percentile pass = Median(loop.pass_s);
    result.notes.push_back(Describe("re-optimize + publish pass s", pass));
    plan_s.push_back(pass.value * static_cast<double>(pass.samples));
    ingest_eps.push_back(static_cast<double>(loop.edges) / loop.wall_s);
    freshness_s.insert(freshness_s.end(), loop.freshness_s.begin(),
                       loop.freshness_s.end());
    StreamSetup& s = **setup;
    result.failed += s.failed_publishes;
    r.stats.net_push_s = s.sink->push_seconds();
    r.stats.net_flush_s = s.sink->flush_seconds();
    const rlcut::net::ReplicaServerStats server = s.host->server().stats();
    r.stats.net_frames = static_cast<double>(server.frames);
    r.stats.net_deltas = static_cast<double>(server.deltas_applied);
    // Every Begin installs one snapshot by design; count only the
    // resyncs beyond those.
    r.stats.net_snapshots = static_cast<double>(server.snapshots_installed) -
                            static_cast<double>(s.sink->begins());
    r.stats.checkpoint_bytes =
        static_cast<double>(fs::file_size(config.checkpoint_path, ec));
    char breakdown[200];
    std::snprintf(breakdown, sizeof(breakdown),
                  "round breakdown, set-up included (s): apply %.3f, "
                  "reoptimize %.3f (replica push %.3f), publish %.3f, "
                  "checkpoint %.3f",
                  Sum(r.stats.apply_s), Sum(r.stats.reopt_s),
                  r.stats.net_push_s, Sum(r.stats.publish_s),
                  r.stats.checkpoint_s);
    result.notes.push_back(breakdown);
    last_setup = std::move(*setup);
    return r;
  };

  std::vector<Round> rounds;
  std::unique_ptr<TraceScope> scope;
  RLCUT_RETURN_IF_ERROR(
      RunRounds(options, measure_start, 1, round, &rounds, &scope));
  const double peak_rss_mb = PeakRssMb();  // before any check allocates

  StreamRound checked;
  checked.outcome = std::move(outcome);
  for (const rlcut::TimedEdge& te : last_setup->timed) {
    checked.edges.push_back(te.edge);
  }
  checked.locations = last_setup->locations;
  checked.base_edges = last_setup->base_count;
  checked.theta = last_setup->theta;
  RLCUT_RETURN_IF_ERROR(CollectStreamOutcome(config, *last_setup,
                                             &checked.outcome,
                                             &checked.reported));
  for (std::string& failure : VerifyStream(config, checked)) {
    result.failures.push_back(std::move(failure));
  }
  last_setup.reset();

  if (options.trace) {
    RLCUT_RETURN_IF_ERROR(FinishTraced(options, rounds, *scope, &result));
    return result;
  }
  std::vector<double> phases;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    phases.push_back(r.phase_s);
  }
  const Percentile setup = Median(setups);
  const Percentile freshness = Median(freshness_s);
  const Percentile freshness_tail = NearestRank(freshness_s, 90);
  result.notes.push_back(DescribeRounds("setup_s", setups));
  result.notes.push_back(DescribeRounds("live loop s", phases));
  result.notes.push_back(DescribeRounds("plan_s", plan_s));
  result.notes.push_back(DescribeRounds("ingest_eps", ingest_eps));
  result.notes.push_back(Describe("publish_p50_s", freshness));
  if (!TailSupported(freshness_tail)) {
    result.failures.push_back("publish freshness: " +
                              std::to_string(freshness_tail.samples) +
                              " micro-batches cannot support a p90");
  }
  result.notes.push_back(Describe("publish_p90_s", freshness_tail));
  result.metrics = EndToEndMetrics(setup.value, Median(plan_s).value,
                                   Median(ingest_eps).value, freshness.value,
                                   peak_rss_mb, checked.reported);
  return result;
}

}  // namespace

Status Prepare(const RunOptions& options) {
  if (options.workload != "ooc_mmap") return Status::Ok();
  // Built afresh every run: a file left by another build of the library
  // would still open cleanly, and hide a change to the generator, the
  // vertex order or the writer.
  const std::string path = OocPath(options);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  rlcut::PowerLawOptions gen;
  gen.num_vertices = kOocVertices;
  gen.num_edges = kOocEdges;
  gen.seed = kProblemSeed;
  const rlcut::Graph graph = rlcut::GeneratePowerLaw(gen);
  const rlcut::VertexPermutation perm =
      rlcut::BuildVertexOrder(graph, rlcut::VertexOrderKind::kDegree);
  return rlcut::WriteRlgFile(graph, &perm, {}, path);
}

Result<RunResult> Run(const RunOptions& options) {
  if (options.workload == "batch_tw") return RunBatch(options, false);
  if (options.workload == "ooc_mmap") {
    if (!fs::exists(OocPath(options))) {
      return Status::FailedPrecondition(OocPath(options) +
                                        " missing: run with --prepare first");
    }
    return RunBatch(options, true);
  }
  if (options.workload == "stream_grow") return RunStream(options);
  return Status::InvalidArgument("unknown workload " + options.workload);
}

Result<StreamRound> RunStreamForTest(const StreamConfig& config) {
  RemoveCheckpoints(config.checkpoint_path);
  LayerStats stats;
  Result<std::unique_ptr<StreamSetup>> setup = SetupStream(config, &stats);
  if (!setup.ok()) return setup.status();
  StreamRound round;
  LoopResult loop;
  RLCUT_RETURN_IF_ERROR(
      RunStreamLoop(config, setup->get(), &round.outcome, &loop, &stats));
  for (const rlcut::TimedEdge& te : (*setup)->timed) {
    round.edges.push_back(te.edge);
  }
  round.locations = (*setup)->locations;
  round.base_edges = (*setup)->base_count;
  round.theta = (*setup)->theta;
  round.last_delta = (*setup)->sink->last_delta();
  round.failed_publishes = (*setup)->failed_publishes;
  RLCUT_RETURN_IF_ERROR(CollectStreamOutcome(config, **setup, &round.outcome,
                                             &round.reported));
  return round;
}

std::vector<std::string> VerifyStream(const StreamConfig& config,
                                      const StreamRound& round) {
  StreamInput input;
  input.num_vertices = config.num_vertices;
  input.edges = &round.edges;
  input.base_edges = round.base_edges;
  input.locations = &round.locations;
  input.budget = StreamBudget(config);
  std::vector<std::string> failures = CheckStream(input, round.outcome);

  // Cold recomputation of the final plan over the whole stream.
  rlcut::GraphBuilder builder(config.num_vertices);
  builder.AddEdges(round.edges);
  const rlcut::Graph graph = std::move(builder).Build();
  const rlcut::Topology topology =
      rlcut::MakeEc2Topology(kStreamDcs, rlcut::Heterogeneity::kMedium);
  const std::vector<double> sizes =
      InputSizesOfPrefix(input, round.edges.size());
  Problem problem;
  problem.graph = &graph;
  problem.topology = &topology;
  problem.locations = &round.locations;
  problem.input_sizes = &sizes;
  problem.theta = round.theta;
  if (std::string bad = CheckColdRecompute(
          problem, round.outcome.published_masters, round.reported);
      !bad.empty()) {
    failures.push_back("final plan: " + bad);
  }
  return failures;
}

}  // namespace e2e

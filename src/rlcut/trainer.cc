#include "rlcut/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>

#include "check/invariants.h"
#include "common/logging.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "partition/plan_delta.h"
#include "rlcut/checkpoint.h"
#include "rlcut/shard.h"

namespace rlcut {
namespace {

// delta(x) of Eq. 10: 1 if x > 0 else 0.
inline double Delta(double x) { return x > 0 ? 1.0 : 0.0; }

// Score of moving from objective `before` to `after` (Eq. 10 with the
// last-iteration values replaced by `before`), used both for per-DC
// scores and for the migration rollback check. `smooth_weight` and
// `cost_pressure` are the extension weights (0 = paper-exact Eq. 10).
double ObjectiveScore(const Objective& before, const Objective& after,
                      double tw, double cw, double budget_delta,
                      double smooth_weight, double cost_pressure,
                      double budget) {
  double score = 0;
  if (before.transfer_seconds > 0) {
    score += tw * (before.transfer_seconds - after.transfer_seconds) /
             before.transfer_seconds;
  }
  if (smooth_weight > 0 && before.smooth_seconds > 0) {
    score += smooth_weight * tw *
             (before.smooth_seconds - after.smooth_seconds) /
             before.smooth_seconds;
  }
  if (before.cost_dollars > 0) {
    score += cw * (before.cost_dollars - after.cost_dollars) /
             before.cost_dollars * budget_delta;
  }
  if (cost_pressure > 0 && budget > 0) {
    score -= cost_pressure *
             (after.cost_dollars - before.cost_dollars) / budget;
  }
  return score;
}

// Instruments of one training step's "trainer.step.*" series, fetched
// once per step so the hot loops update raw counters.
struct StepInstruments {
  obs::Counter* migrations;
  obs::Counter* rollbacks;
  obs::Gauge* sample_rate;
  obs::Gauge* num_agents;
  obs::Gauge* seconds;
  obs::Gauge* transfer_seconds;
  obs::Gauge* cost_dollars;

  // `label` is the {"step", i} set for this step; callers reuse one
  // LabelSet across steps instead of rebuilding the pair per step.
  StepInstruments(obs::MetricsRegistry* registry,
                  const obs::LabelSet& label) {
    migrations = registry->GetCounter("trainer.step.migrations", label);
    rollbacks = registry->GetCounter("trainer.step.rollbacks", label);
    sample_rate = registry->GetGauge("trainer.step.sample_rate", label);
    num_agents = registry->GetGauge("trainer.step.num_agents", label);
    seconds = registry->GetGauge("trainer.step.seconds", label);
    transfer_seconds =
        registry->GetGauge("trainer.step.transfer_seconds", label);
    cost_dollars = registry->GetGauge("trainer.step.cost_dollars", label);
  }
};

// Eq. 10 weights of one training step.
struct StepWeights {
  double tw = 1;
  double cw = 0;
  double over_budget = 0;    // delta(C - B) at the step start
  double cost_pressure = 0;  // budget-pressure extension; 0 = off
};

// The cost term engages only while the budget is violated; tw shifts
// toward cost as training ages.
StepWeights WeightsForStep(const RLCutOptions& options, int step,
                           const Objective& objective) {
  StepWeights w;
  w.over_budget = options.budget > 0
                      ? Delta(objective.cost_dollars - options.budget)
                      : 0.0;
  w.cw = static_cast<double>(step) / static_cast<double>(options.max_steps);
  w.tw = 1.0 - w.cw * w.over_budget;
  // Budget-pressure extension: quadratic ramp as cost approaches B.
  w.cost_pressure =
      (options.budget_pressure && options.budget > 0)
          ? std::pow(std::min(1.0, objective.cost_dollars / options.budget),
                     2.0)
          : 0.0;
  return w;
}

// Eq. 10 scores of one shard's batch slots.
struct ChunkScores {
  std::vector<double> scores;  // slot-major: [i * num_dcs + r]
  std::vector<DcId> rho;
  bool done = false;  // false until an attempt scored every slot
};

// One batch of a step: agents[0, size) all decide against `objective`,
// the batch-start snapshot (the batching semantics of Sec. V-A).
struct Batch {
  const VertexId* agents;
  size_t size;
  Objective objective;
};

// Everything one Train() call carries across its stages. Train() builds
// it, the stage functions below read and update it, and Train() reads
// the cursor back when the step loop ends.
struct TrainRun {
  TrainRun(const RLCutOptions& options_in, PartitionState* state_in,
           AutomatonPool* automata_in, ThreadPool* workers_in,
           size_t num_shards_in)
      : options(options_in),
        state(state_in),
        graph(state_in->graph()),
        num_dcs(state_in->num_dcs()),
        automata(*automata_in),
        workers(workers_in),
        num_shards(num_shards_in),
        layout(graph, num_shards_in),
        scratch(num_shards_in),
        taken(graph.num_vertices(), 0),
        chosen(static_cast<size_t>(options_in.batch_size), kNoDc),
        shard_plan(num_shards_in),
        shard_loads(num_shards_in, 0),
        shard_scores(num_shards_in),
        replica(state_in->masters(), num_dcs) {
    rngs.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      rngs.emplace_back(options.seed + 0x9e37 * (s + 1));
    }
  }

  const RLCutOptions& options;
  PartitionState* state;
  const Graph& graph;
  const int num_dcs;
  AutomatonPool& automata;
  // Scoring workers; nullptr on a one-thread trainer, which scores every
  // shard on the coordinator.
  ThreadPool* workers;
  const size_t num_shards;

  // The ownership layout: each logical shard owns a contiguous
  // degree-balanced vertex range; the owner shard scores and commits
  // its vertices (docs/sharding.md). A pure function of the graph and
  // the shard count, so every host rebuilds the same layout.
  const ShardLayout layout;
  // Per-shard resources. RNG streams are keyed by logical shard — a
  // checkpoint property — never by worker thread, so a session paused
  // on a 16-core host resumes bit-identically on a 4-core one.
  std::vector<EvalScratch> scratch;
  std::vector<Rng> rngs;

  // The step cursor: what a TrainerSession saves (see SaveCursor).
  TrainResult result;
  int next_step = 0;
  int64_t visits_remaining = 0;
  Objective last_objective;

  // Per-run registry: the single bookkeeping path for step telemetry;
  // TrainResult::steps is materialized from it (see StepStats).
  obs::MetricsRegistry step_registry;

  // This step's sampled agents, and the hub agents already taken.
  std::vector<VertexId> agents;
  std::vector<uint8_t> taken;
  // Per-batch buffers, reused across batches. chosen[slot] is the
  // committed action of a batch slot. shard_plan[s] lists the batch
  // slots owned — scored and committed — by shard s, in ascending slot
  // order; shard s's commit-phase RNG is rngs[s], so ownership also
  // fixes which PRNG stream each agent draws from. active_shards lists
  // the shards with work this batch, in dispatch order.
  std::vector<DcId> chosen;
  std::vector<std::vector<size_t>> shard_plan;
  std::vector<size_t> active_shards;
  std::vector<uint64_t> shard_loads;
  std::vector<ChunkScores> shard_scores;

  // The delta-sync bus of the ownership protocol: non-owner shards
  // read plan state from this versioned replica instead of the
  // authoritative PartitionState. Committed moves accumulate in
  // sync_delta, applied every shard_sync_batches batches; in a process
  // split, Apply runs behind an RPC and nothing about the accumulation
  // changes. The external sink (if attached) receives the starting
  // snapshot and then exactly the deltas the replica applies, in order.
  // It is write-only: a slow, degraded, or failed sink never changes
  // what the trainer does, only what TrainResult::replica_status
  // reports.
  PlanReplica replica;
  PlanDelta sync_delta;
  int batches_since_sync = 0;
  ReplicaSink* sink = nullptr;
  Status sink_status;
  bool sink_degraded = false;

  obs::MetricsRegistry& global = obs::DefaultRegistry();
  obs::Counter* total_steps = global.GetCounter("trainer.steps");
  obs::Counter* total_visits = global.GetCounter("trainer.agent_visits");
  obs::Counter* total_migrations = global.GetCounter("trainer.migrations");
  obs::Counter* total_rollbacks = global.GetCounter("trainer.rollbacks");
  // Shards re-scored on the coordinator after their pool task produced
  // no scores, and batches whose pool tasks recorded an error.
  obs::Counter* chunk_inline_runs =
      global.GetCounter("trainer.chunk_inline_runs");
  obs::Counter* masked_pool_errors =
      global.GetCounter("trainer.masked_pool_errors");
  obs::Counter* autosaves = global.GetCounter("trainer.checkpoint_autosaves");
  obs::Counter* autosave_failures =
      global.GetCounter("trainer.checkpoint_autosave_failures");
  obs::Counter* shard_syncs = global.GetCounter("trainer.shard_syncs");
  obs::Counter* shard_sync_moves =
      global.GetCounter("trainer.shard_sync_moves");
  // Per-batch stage timings are histogram observations; they are only
  // taken when detailed metrics are on (SetDetailedMetrics).
  obs::Histogram* score_seconds =
      obs::DetailedMetricsEnabled()
          ? global.GetHistogram("trainer.stage.score_seconds")
          : nullptr;
  obs::Histogram* migrate_seconds =
      obs::DetailedMetricsEnabled()
          ? global.GetHistogram("trainer.stage.migrate_seconds")
          : nullptr;
};

// Writes the run's resumable cursor into `session` (see TrainerSession);
// the caller sets paused/finished.
void SaveCursor(const TrainRun& run, TrainerSession* session) {
  session->started = true;
  session->next_step = run.next_step;
  session->visits_remaining = run.visits_remaining;
  session->history = run.result.steps;
  session->num_shards = static_cast<uint32_t>(run.num_shards);
  session->rng_states.resize(run.num_shards);
  for (size_t s = 0; s < run.num_shards; ++s) {
    session->rng_states[s] = run.rngs[s].State();
  }
}

// Applies the pending delta to the replica and forwards it to the sink.
void SyncReplica(TrainRun& run) {
  run.sync_delta.base_version = run.replica.version();
  Status synced = run.replica.Apply(run.sync_delta);
  RLCUT_CHECK(synced.ok()) << "shard delta-sync rejected: "
                           << synced.ToString();
  run.shard_syncs->Increment();
  run.shard_sync_moves->Increment(run.sync_delta.moves.size());
  if (run.sink != nullptr) {
    const Status pushed = run.sink->PushDelta(run.sync_delta);
    if (!pushed.ok()) {
      // A push the sink's own mirror rejects is unrecoverable (the
      // network path degrades instead of erroring); stop feeding it
      // and surface the failure through the result.
      if (run.sink_status.ok()) run.sink_status = pushed;
      run.sink = nullptr;
    } else {
      run.sink_degraded = run.sink_degraded || run.sink->degraded();
    }
  }
  run.sync_delta.moves.clear();
  run.batches_since_sync = 0;
}

// Sample stage: a reserved share of hub agents plus the lowest-degree
// prefix of `eligible` (Sec. V-C + the hub-slot extension).
void SampleAgents(TrainRun& run, const std::vector<VertexId>& eligible,
                  const std::vector<VertexId>& hub_order,
                  uint64_t num_agents, double sr) {
  obs::TraceSpan sample_span("trainer/stage/sample", "trainer");
  sample_span.AddArg("sample_rate", sr);
  sample_span.AddArg("target_agents", static_cast<double>(num_agents));
  run.agents.clear();
  const size_t hub_count = std::min<size_t>(
      static_cast<size_t>(run.options.hub_slot_fraction *
                          static_cast<double>(num_agents)),
      hub_order.size());
  for (size_t i = 0; i < hub_count; ++i) {
    run.agents.push_back(hub_order[i]);
    run.taken[hub_order[i]] = 1;
  }
  for (VertexId v : eligible) {
    if (run.agents.size() >= num_agents) break;
    if (!run.taken[v]) run.agents.push_back(v);
  }
  for (size_t i = 0; i < hub_count; ++i) run.taken[hub_order[i]] = 0;
}

// Score stage (step 1): every agent of the batch scores every DC
// (Eq. 10) against the frozen batch-start state. A shard's scoring
// writes only its own ChunkScores, with no RNG draws and no automaton
// mutation, so a failed attempt can simply be run again; all side
// effects happen in the commit stage.
void ScoreBatch(TrainRun& run, const Batch& batch, const StepWeights& w) {
  // Slot-to-shard assignment (ownership protocol). Each slot belongs to
  // the shard owning its vertex; the assignment is a pure function of
  // the layout, never of the thread count or the load, so the committed
  // trajectory is the same on any host.
  for (size_t s = 0; s < run.num_shards; ++s) run.shard_plan[s].clear();
  for (size_t slot = 0; slot < batch.size; ++slot) {
    run.shard_plan[run.layout.OwnerOf(batch.agents[slot])].push_back(slot);
  }
  run.active_shards.clear();
  for (size_t s = 0; s < run.num_shards; ++s) {
    if (!run.shard_plan[s].empty()) run.active_shards.push_back(s);
  }
  if (run.options.straggler_mitigation && run.active_shards.size() > 1) {
    // Straggler mitigation, sharded form (Sec. V-B): ownership pins
    // which shard scores each agent, so instead of re-balancing the
    // work itself the heaviest shards are dispatched first and the
    // light ones fill the tail. Dispatch order only affects wall clock,
    // never results.
    for (size_t s : run.active_shards) {
      run.shard_loads[s] = 0;
      for (size_t slot : run.shard_plan[s]) {
        run.shard_loads[s] += run.graph.Degree(batch.agents[slot]) + 1;
      }
    }
    std::stable_sort(run.active_shards.begin(), run.active_shards.end(),
                     [&run](size_t a, size_t b) {
                       return run.shard_loads[a] > run.shard_loads[b];
                     });
  }

  obs::TraceSpan score_span("trainer/stage/score", "trainer");
  WallTimer stage_timer;
  const PartitionState& state = *run.state;
  const int num_dcs = run.num_dcs;
  const Objective& current = batch.objective;
  auto score_shard = [&](size_t s, bool faults_enabled) {
    if (faults_enabled) {
      int64_t stall_ms = 0;
      if (fault::ShouldFire("trainer.chunk_abandon")) return;
      if (fault::ShouldFire("trainer.chunk_stall", &stall_ms)) {
        fault::CancellableSleepMs(stall_ms > 0 ? stall_ms : 30, nullptr);
      }
    }
    const std::vector<size_t>& slots = run.shard_plan[s];
    ChunkScores& out = run.shard_scores[s];
    EvalScratch& es = run.scratch[s];
    out.scores.resize(slots.size() * static_cast<size_t>(num_dcs));
    out.rho.resize(slots.size());
    Objective evals[kMaxDataCenters];
    for (size_t i = 0; i < slots.size(); ++i) {
      const VertexId v = batch.agents[slots[i]];
      // Score every DC (Eq. 10) from one batched what-if pass —
      // EvaluateMoveAll collects the affected set and the
      // destination-independent base deltas once instead of per DC.
      // Seed rho at the current master (whose score is exactly 0) so
      // that ties on a plateau mean "don't move".
      DcId rho = state.master(v);
      double best_score = 0;
      double* scores = out.scores.data() + i * static_cast<size_t>(num_dcs);
      state.EvaluateMoveAll(v, &es, evals);
      for (DcId r = 0; r < num_dcs; ++r) {
        const Objective& moved = (r == state.master(v)) ? current : evals[r];
        const double score = ObjectiveScore(
            current, moved, w.tw, w.cw, w.over_budget,
            run.options.smooth_weight, w.cost_pressure, run.options.budget);
        scores[r] = score;
        if (score > best_score) {
          best_score = score;
          rho = r;
        }
      }
      out.rho[i] = rho;
    }
    out.done = true;
  };

  for (size_t s : run.active_shards) run.shard_scores[s].done = false;
  // One task per active shard, submitted once. The pool reports a
  // thrown or dropped task through TakeError and never retries it.
  const bool dispatched =
      run.workers != nullptr && run.active_shards.size() > 1;
  if (dispatched) {
    for (size_t s : run.active_shards) {
      (void)run.workers->Submit(
          [&score_shard, s] { score_shard(s, /*faults_enabled=*/true); });
    }
    run.workers->Wait();
    if (run.workers->TakeError() != nullptr) {
      run.masked_pool_errors->Increment();
    }
  }
  // The coordinator scores, with faults disabled, every shard that has
  // no scores yet: all of them when nothing was dispatched, otherwise
  // those whose task threw, was dropped by a crashed worker, or was
  // abandoned. Scoring is pure, so the batch's scores are the same
  // whichever path produced them.
  for (size_t s : run.active_shards) {
    if (run.shard_scores[s].done) continue;
    if (dispatched) run.chunk_inline_runs->Increment();
    score_shard(s, /*faults_enabled=*/false);
  }
  if (run.score_seconds != nullptr) {
    run.score_seconds->Observe(stage_timer.ElapsedSeconds());
  }
}

// Commit stage (steps 2-4). Owner shards commit in ascending shard
// order (slots ascending within a shard), each drawing from its own
// PRNG stream (rngs[s]) — a pure function of the shard layout, so the
// commit sequence is identical whatever the thread count.
void CommitBatch(TrainRun& run, const Batch& batch, int step) {
  const int num_dcs = run.num_dcs;
  for (size_t s = 0; s < run.num_shards; ++s) {
    const std::vector<size_t>& slots = run.shard_plan[s];
    const ChunkScores& buf = run.shard_scores[s];
    for (size_t i = 0; i < slots.size(); ++i) {
      const size_t slot = slots[i];
      const VertexId v = batch.agents[slot];
      const double* scores =
          buf.scores.data() + i * static_cast<size_t>(num_dcs);
      // Steps 2+3: reinforcement signal for rho, probability update.
      run.automata.UpdateSignals(v, buf.rho[i]);
      // Step 4: UCB action selection; record the normalized score of
      // the selected action as its observed reward.
      const DcId action =
          run.automata.SelectAction(v, step + 1, &run.rngs[s]);
      double best_score = 0;
      double min_score = 0;
      for (DcId r = 0; r < num_dcs; ++r) {
        best_score = std::max(best_score, scores[r]);
        min_score = std::min(min_score, scores[r]);
      }
      const double span = best_score - min_score;
      const double normalized =
          span > 0 ? (scores[action] - min_score) / span : 1.0;
      run.automata.RecordSelection(v, action, normalized);
      run.chosen[slot] = action;
    }
  }
}

// Migrate stage (step 5): sequential migration with rollback in batch
// order, then the delta-sync cadence (docs/sharding.md).
void MigrateBatch(TrainRun& run, const Batch& batch, const StepWeights& w,
                  const StepInstruments& metrics) {
  obs::TraceSpan migrate_span("trainer/stage/migrate", "trainer");
  WallTimer migrate_timer;
  const RLCutOptions& options = run.options;
  PartitionState* state = run.state;
  for (size_t slot = 0; slot < batch.size; ++slot) {
    const VertexId v = batch.agents[slot];
    const DcId action = run.chosen[slot];
    const DcId from = state->master(v);
    if (action == from) continue;
    const Objective before = state->CurrentObjective();
    // Evaluate-first acceptance: a rejected move costs one what-if
    // evaluation instead of a commit plus an exact rollback, and most
    // attempted moves are rejected once training settles.
    const Objective after = state->EvaluateMove(v, action, &run.scratch[0]);
    const double budget_delta =
        options.budget > 0 ? Delta(before.cost_dollars - options.budget)
                           : 0.0;
    // Hard feasibility filter (Eq. 7): never accept a move that lands
    // above budget while increasing cost. Starting from a feasible
    // state this keeps every intermediate state feasible.
    const bool breaks_budget = options.budget > 0 &&
                               after.cost_dollars > options.budget &&
                               after.cost_dollars > before.cost_dollars;
    if (breaks_budget ||
        ObjectiveScore(before, after, w.tw, w.cw, budget_delta,
                       options.smooth_weight, w.cost_pressure,
                       options.budget) < 0) {
      metrics.rollbacks->Increment();
    } else {
      // Committed moves double as the owner's published delta:
      // non-owner shards learn of them at the next replica sync.
      run.sync_delta.moves.push_back(PlanMove{v, from, action});
      state->MoveMaster(v, action);
      metrics.migrations->Increment();
    }
  }
  if (run.migrate_seconds != nullptr) {
    run.migrate_seconds->Observe(migrate_timer.ElapsedSeconds());
  }
  if (options.shard_sync_batches > 0 &&
      ++run.batches_since_sync >= options.shard_sync_batches) {
    SyncReplica(run);
  }
}

// End-of-step bookkeeping: the sampled invariant audit, step telemetry,
// the periodic auto-checkpoint, and the convergence and T_opt checks.
// Returns true when training should stop after this step.
bool FinishStep(TrainRun& run, int step, double sr,
                const WallTimer& step_timer, const StepInstruments& metrics,
                const WallTimer& total_timer) {
  const RLCutOptions& options = run.options;
  const PartitionState& state = *run.state;
  run.visits_remaining -= static_cast<int64_t>(run.agents.size());
  run.next_step = step + 1;

  // Sampled end-of-step audit (RLCUT_DEBUG_INVARIANTS=N): the state
  // just absorbed a batch of moves and rollbacks, so incremental
  // corruption would surface here first.
  if (check::ShouldCheckInvariantsAtStep(step)) {
    RLCUT_CHECK(state.CheckInvariants())
        << "partition state invariants violated after trainer step "
        << step;
  }

  const Objective objective = state.CurrentObjective();
  const double step_seconds = step_timer.ElapsedSeconds();
  metrics.seconds->Set(step_seconds);
  metrics.transfer_seconds->Set(objective.transfer_seconds);
  metrics.cost_dollars->Set(objective.cost_dollars);
  // Accumulate this step's StepStats directly (the registry keeps the
  // same values for export; re-materializing the whole history from it
  // every step was O(steps^2)). StepStatsFromRegistry stays as the
  // offline/resume view over an exported registry.
  StepStats step_stats;
  step_stats.step = step;
  step_stats.sample_rate = sr;
  step_stats.num_agents = run.agents.size();
  step_stats.seconds = step_seconds;
  step_stats.transfer_seconds = objective.transfer_seconds;
  step_stats.cost_dollars = objective.cost_dollars;
  step_stats.migrations = metrics.migrations->value();
  step_stats.rollbacks = metrics.rollbacks->value();
  run.result.steps.push_back(step_stats);

  run.total_steps->Increment();
  run.total_visits->Increment(run.agents.size());
  run.total_migrations->Increment(step_stats.migrations);
  run.total_rollbacks->Increment(step_stats.rollbacks);

  // Periodic auto-checkpoint (crash tolerance): a rotating
  // crash-consistent snapshot of the run every N completed steps.
  // Resuming it continues bit-identically, so a crash costs at most N
  // steps of work. Save failures degrade to telemetry + a warning; they
  // never take down the training run.
  if (options.checkpoint_every_steps > 0 && !options.checkpoint_path.empty() &&
      run.next_step % options.checkpoint_every_steps == 0) {
    TrainerSession snapshot;
    SaveCursor(run, &snapshot);
    const TrainerCheckpoint auto_checkpoint =
        CaptureCheckpoint(state, run.automata, snapshot, options.seed);
    if (Status saved = SaveTrainerCheckpointRotating(
            auto_checkpoint, options.checkpoint_path);
        !saved.ok()) {
      run.autosave_failures->Increment();
      RLCUT_LOG(kWarning) << "auto-checkpoint failed after step " << step
                          << ": " << saved.ToString();
    } else {
      run.autosaves->Increment();
    }
  }

  // Convergence: negligible relative improvement while feasible.
  const bool feasible =
      options.budget <= 0 || objective.cost_dollars <= options.budget;
  const Objective& last = run.last_objective;
  const double rel_improvement =
      last.transfer_seconds > 0
          ? (last.transfer_seconds - objective.transfer_seconds) /
                last.transfer_seconds
          : 0.0;
  run.last_objective = objective;
  if (feasible && step > 0 &&
      std::fabs(rel_improvement) < options.convergence_epsilon) {
    run.result.converged = true;
    return true;
  }
  if (options.t_opt_seconds > 0 &&
      total_timer.ElapsedSeconds() >= options.t_opt_seconds) {
    run.result.hit_time_budget = true;
    return true;
  }
  return false;
}

}  // namespace


std::vector<StepStats> StepStatsFromRegistry(
    const obs::MetricsRegistry& registry) {
  std::vector<StepStats> steps;
  // Step label -> steps index; the snapshot interleaves the series, so
  // a linear search here would make materialization O(steps^2).
  std::unordered_map<int, size_t> index;
  auto stats_for = [&steps, &index](int step) -> StepStats& {
    const auto [it, inserted] = index.try_emplace(step, steps.size());
    if (inserted) {
      steps.emplace_back();
      steps.back().step = step;
    }
    return steps[it->second];
  };
  constexpr std::string_view kPrefix = "trainer.step.";
  for (const obs::MetricSample& sample : registry.Snapshot()) {
    if (sample.name.rfind(kPrefix, 0) != 0) continue;
    const std::string step_label = sample.LabelValue("step");
    if (step_label.empty()) continue;
    StepStats& s = stats_for(std::stoi(step_label));
    const std::string_view field =
        std::string_view(sample.name).substr(kPrefix.size());
    if (field == "migrations") {
      s.migrations = static_cast<uint64_t>(sample.value);
    } else if (field == "rollbacks") {
      s.rollbacks = static_cast<uint64_t>(sample.value);
    } else if (field == "sample_rate") {
      s.sample_rate = sample.value;
    } else if (field == "num_agents") {
      s.num_agents = static_cast<uint64_t>(sample.value);
    } else if (field == "seconds") {
      s.seconds = sample.value;
    } else if (field == "transfer_seconds") {
      s.transfer_seconds = sample.value;
    } else if (field == "cost_dollars") {
      s.cost_dollars = sample.value;
    }
  }
  std::sort(steps.begin(), steps.end(),
            [](const StepStats& a, const StepStats& b) {
              return a.step < b.step;
            });
  return steps;
}

Status ValidateRLCutOptions(const RLCutOptions& options) {
  if (options.max_steps <= 0) {
    return Status::InvalidArgument("max_steps must be positive, got " +
                                   std::to_string(options.max_steps));
  }
  if (options.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive, got " +
                                   std::to_string(options.batch_size));
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(options.num_threads));
  }
  if (options.num_shards < 0) {
    return Status::InvalidArgument(
        "num_shards must be >= 0 (0 = kDefaultNumShards), got " +
        std::to_string(options.num_shards));
  }
  if (options.shard_sync_batches < 0) {
    return Status::InvalidArgument(
        "shard_sync_batches must be >= 0, got " +
        std::to_string(options.shard_sync_batches));
  }
  if (options.checkpoint_every_steps < 0) {
    return Status::InvalidArgument(
        "checkpoint_every_steps must be >= 0 (0 = disabled), got " +
        std::to_string(options.checkpoint_every_steps));
  }
  if (options.checkpoint_every_steps > 0 && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every_steps > 0 requires a checkpoint_path");
  }
  return Status::Ok();
}

Result<std::unique_ptr<RLCutTrainer>> RLCutTrainer::Create(
    const RLCutOptions& options) {
  if (Status valid = ValidateRLCutOptions(options); !valid.ok()) {
    return valid;
  }
  return std::make_unique<RLCutTrainer>(options);
}

RLCutTrainer::RLCutTrainer(const RLCutOptions& options) : options_(options) {
  // Clamp instead of crashing: callers holding options from external
  // input validate through Create()/ValidateRLCutOptions() first and
  // get a Status; programmatic callers get nearest-legal behavior.
  options_.max_steps = std::max(1, options_.max_steps);
  options_.batch_size = std::max(1, options_.batch_size);
  options_.num_threads = std::max(0, options_.num_threads);
  options_.num_shards = std::max(0, options_.num_shards);
  options_.shard_sync_batches = std::max(0, options_.shard_sync_batches);
  num_threads_ = options_.num_threads > 0
                     ? static_cast<size_t>(options_.num_threads)
                     : DefaultThreadCount();
  // The shard count deliberately does NOT default to hardware
  // concurrency: it is a checkpoint property (see RLCutOptions), so its
  // default must be the same constant on every host.
  num_shards_ = options_.num_shards > 0
                    ? static_cast<size_t>(options_.num_shards)
                    : static_cast<size_t>(kDefaultNumShards);
  // A one-thread trainer scores on the coordinator and owns no worker.
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
}

RLCutTrainer::~RLCutTrainer() = default;

Status RLCutTrainer::ValidateResume(const TrainerSession& session) const {
  // Legacy (pre-sharding) sessions carry the shard count implicitly as
  // the number of saved PRNG streams.
  const size_t session_shards = session.num_shards != 0
                                    ? static_cast<size_t>(session.num_shards)
                                    : session.rng_states.size();
  if (session.started && session_shards != 0 &&
      session_shards != num_shards_) {
    return Status::FailedPrecondition(
        "cannot resume: session was paused with " +
        std::to_string(session_shards) + " shards but this trainer has " +
        std::to_string(num_shards_) +
        " (set RLCutOptions::num_shards to match; the shard count is a "
        "checkpoint property, while the thread count may differ freely)");
  }
  return Status::Ok();
}

TrainResult RLCutTrainer::Train(PartitionState* state) {
  std::vector<VertexId> all(state->graph().num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  return Train(state, std::move(all));
}

double RLCutTrainer::SampleRateForStep(
    int step, const std::vector<StepStats>& history) const {
  if (options_.fixed_sample_rate > 0) {
    return std::min(1.0, options_.fixed_sample_rate);
  }
  if (options_.t_opt_seconds <= 0) return 1.0;
  // No completed-step telemetry yet: fall back to the bootstrap rate.
  // `history` can be empty with step > 0 when a resumed session was
  // paused before its first completed step.
  if (step == 0 || history.empty()) return options_.initial_sample_rate;

  // Eq. 14: remaining time per remaining step, times the mean observed
  // sampling-rate-per-second of past steps.
  double spent = 0;
  double rate_per_second = 0;
  for (const StepStats& s : history) {
    spent += s.seconds;
    rate_per_second += s.sample_rate / std::max(1e-9, s.seconds);
  }
  rate_per_second /= history.size();
  const double remaining = options_.t_opt_seconds - spent;
  if (remaining <= 0) return 0;  // out of time
  const double per_step = remaining / (options_.max_steps - step);
  const double sr = per_step * rate_per_second;
  return std::clamp(sr, options_.min_sample_rate, 1.0);
}

TrainResult RLCutTrainer::Train(PartitionState* state,
                                std::vector<VertexId> eligible) {
  return Train(state, std::move(eligible), nullptr);
}

TrainResult RLCutTrainer::Train(PartitionState* state,
                                std::vector<VertexId> eligible,
                                AutomatonPool* pool) {
  return Train(state, std::move(eligible), pool, nullptr);
}

TrainResult RLCutTrainer::Train(PartitionState* state,
                                std::vector<VertexId> eligible,
                                AutomatonPool* pool,
                                TrainerSession* session) {
  RLCUT_CHECK(state != nullptr);
  WallTimer total_timer;
  obs::TraceSpan train_span("trainer/train", "trainer");
  train_span.AddArg("eligible", static_cast<double>(eligible.size()));
  const Graph& graph = state->graph();
  const int num_dcs = state->num_dcs();
  if (eligible.empty() || num_dcs < 2) {
    TrainResult result;
    result.final_objective = state->CurrentObjective();
    result.converged = true;
    return result;
  }
  const bool resuming = session != nullptr && session->started;
  if (resuming && session->finished) {
    // The run already concluded; the uninterrupted run would not have
    // trained past this point, so continuing would diverge from it.
    TrainResult result;
    result.steps = session->history;
    result.final_objective = state->CurrentObjective();
    result.converged = true;
    return result;
  }

  // Sampling order: ascending degree (Sec. V-C: low-degree agents
  // contribute most per unit of training time). The descending order is
  // kept only for the Fig. 9 ablation.
  const bool descending = options_.sample_highest_degree_first;
  std::sort(eligible.begin(), eligible.end(),
            [&graph, descending](VertexId a, VertexId b) {
              const uint32_t da = graph.Degree(a);
              const uint32_t db = graph.Degree(b);
              if (da != db) return descending ? da > db : da < db;
              return a < b;
            });

  // Hub ordering for the importance-sampling extension: agents with the
  // largest apply-message volume first (see RLCutOptions).
  std::vector<VertexId> hub_order;
  if (options_.hub_slot_fraction > 0) {
    hub_order = eligible;
    std::stable_sort(hub_order.begin(), hub_order.end(),
                     [&](VertexId a, VertexId b) {
                       const double va = state->ApplyBytes(a);
                       const double vb = state->ApplyBytes(b);
                       if (va != vb) return va > vb;
                       return graph.Degree(a) > graph.Degree(b);
                     });
  }

  std::unique_ptr<AutomatonPool> local_pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<AutomatonPool>(graph.num_vertices(),
                                                 num_dcs, options_);
    pool = local_pool.get();
  }
  TrainRun run(options_, state, pool, pool_.get(), num_shards_);

  // A resumed session reinstates the per-shard PRNG states and the step
  // telemetry so far (the Eq. 14 sampler reads the full history, and
  // TrainResult::steps spans the whole run), so a continued run draws
  // the exact sequence the uninterrupted run would have.
  if (resuming && !session->rng_states.empty()) {
    // Callers with file-sourced sessions (rlcut_tool --resume_from)
    // gate on ValidateResume() first and exit with a Status; reaching
    // here with a mismatch is an API-contract violation.
    RLCUT_CHECK_EQ(session->rng_states.size(), num_shards_)
        << "resuming a session requires the shard count it was paused "
           "with";
    for (size_t s = 0; s < num_shards_; ++s) {
      run.rngs[s].SetState(session->rng_states[s]);
    }
  }
  const int start_step = resuming ? session->next_step : 0;
  if (resuming) run.result.steps = session->history;
  run.next_step = start_step;
  run.visits_remaining =
      resuming ? session->visits_remaining : options_.agent_visit_budget;
  run.last_objective = state->CurrentObjective();

  if (options_.shard_sync_batches > 0 && replica_sink_ != nullptr) {
    run.sink = replica_sink_;
    run.sink_status = run.sink->Begin(run.replica.Snapshot());
    if (!run.sink_status.ok()) run.sink = nullptr;
  }

  // Reusable {"step", i} label for the per-step instruments.
  obs::LabelSet step_label = {{"step", std::string()}};
  const size_t batch_size = static_cast<size_t>(options_.batch_size);
  // next_step is the first step the next Train call on this session
  // would run: pauses and pre-step exits leave it at the unexecuted
  // step, end-of-step exits advance past the executed one.
  bool paused = false;
  for (int step = start_step; step < options_.max_steps; ++step) {
    if (session != nullptr && session->stop_after_step >= 0 &&
        step >= session->stop_after_step) {
      paused = true;
      break;
    }
    obs::TraceSpan step_span("trainer/step", "trainer");
    step_span.AddArg("step", step);
    // steps=A-B fault triggers scope themselves to this window.
    fault::SetStepContext(step);
    double sr = SampleRateForStep(step, run.result.steps);
    if (options_.agent_visit_budget > 0) {
      if (run.visits_remaining <= 0) {
        run.result.hit_time_budget = true;
        break;
      }
      // Deterministic analog of Eq. 14: spread the remaining visit
      // budget evenly over the remaining steps.
      const double per_step = static_cast<double>(run.visits_remaining) /
                              (options_.max_steps - step);
      sr = std::min(sr, std::clamp(per_step /
                                       static_cast<double>(eligible.size()),
                                   options_.min_sample_rate, 1.0));
    }
    if (sr <= 0) {
      run.result.hit_time_budget = true;
      break;
    }
    const uint64_t num_agents = std::max<uint64_t>(
        1, static_cast<uint64_t>(sr * static_cast<double>(eligible.size())));
    WallTimer step_timer;

    SampleAgents(run, eligible, hub_order, num_agents, sr);
    const StepWeights weights =
        WeightsForStep(options_, step, state->CurrentObjective());
    step_label[0].second = std::to_string(step);
    const StepInstruments step_metrics(&run.step_registry, step_label);
    step_metrics.sample_rate->Set(sr);
    step_metrics.num_agents->Set(static_cast<double>(run.agents.size()));
    step_span.AddArg("sample_rate", sr);
    step_span.AddArg("num_agents", static_cast<double>(run.agents.size()));

    for (size_t batch_begin = 0; batch_begin < run.agents.size();
         batch_begin += batch_size) {
      const size_t this_batch =
          std::min(run.agents.size() - batch_begin, batch_size);
      obs::TraceSpan batch_span("trainer/batch", "trainer");
      batch_span.AddArg("agents", static_cast<double>(this_batch));
      const Batch batch{run.agents.data() + batch_begin, this_batch,
                        state->CurrentObjective()};
      ScoreBatch(run, batch, weights);
      CommitBatch(run, batch, step);
      MigrateBatch(run, batch, weights, step_metrics);
    }

    if (FinishStep(run, step, sr, step_timer, step_metrics, total_timer)) {
      break;
    }
  }

  fault::SetStepContext(-1);

  // Flush the residual delta and audit the protocol: after the final
  // sync the replica every non-owner shard reads must agree with the
  // authoritative plan bit for bit.
  if (options_.shard_sync_batches > 0) {
    if (!run.sync_delta.moves.empty()) SyncReplica(run);
    RLCUT_CHECK(run.replica.masters() == state->masters())
        << "delta-synced plan replica diverged from the partition state "
           "after "
        << run.replica.version() << " syncs";
  } else if (replica_sink_ != nullptr) {
    // Delta sync disabled: hand the sink the final plan as a snapshot
    // so it still converges to the authoritative state.
    run.sink = replica_sink_;
    run.sink_status = run.sink->Begin(
        PlanSnapshot{run.replica.version(), static_cast<int32_t>(num_dcs),
                     state->masters()});
    if (!run.sink_status.ok()) run.sink = nullptr;
  }
  if (run.sink != nullptr) {
    // The fail-closed barrier: the sink must confirm the far side holds
    // the final plan, or report why it cannot.
    const Status flushed = run.sink->Flush();
    if (run.sink_status.ok()) run.sink_status = flushed;
    run.sink_degraded = run.sink_degraded || run.sink->degraded();
  }
  run.result.replica_status = run.sink_status;
  run.result.replica_degraded = run.sink_degraded;

  if (session != nullptr) {
    SaveCursor(run, session);
    session->paused = paused;
    session->finished = !paused;
  }

  run.result.final_objective = state->CurrentObjective();
  run.result.overhead_seconds = total_timer.ElapsedSeconds();
  return std::move(run.result);
}

}  // namespace rlcut

#include "check/chaos.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/topology.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "partition/partition_state.h"
#include "partition/plan_io.h"
#include "rlcut/checkpoint.h"
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

// Minimal SplitMix64 stream for schedule randomization; the fault
// library itself re-derives per-hit decisions from the schedule seed,
// so this only has to pick rules and corruption points.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() { return Mix64(state++); }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }
};

std::string ScratchPath(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream name;
  name << "rlcut_chaos_" << ::getpid() << "_"
       << counter.fetch_add(1, std::memory_order_relaxed) << "_" << tag;
  return (std::filesystem::temp_directory_path() / name.str()).string();
}

void RemoveWithSidecars(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  const std::string prev = CheckpointFallbackPath(path);
  std::remove(prev.c_str());
  std::remove((prev + ".tmp").c_str());
}

// One deterministic chaos problem; mirrors the checkpoint tests' small
// power-law fixture but re-seeds the graph per session.
struct Problem {
  Topology topology;
  Graph graph;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  PartitionConfig config;

  Problem(const ChaosOptions& options, uint64_t seed)
      : topology(MakeEc2Topology(options.num_dcs, Heterogeneity::kMedium)) {
    PowerLawOptions gen;
    gen.num_vertices = options.num_vertices;
    gen.num_edges = options.num_edges;
    gen.seed = seed;
    graph = GeneratePowerLaw(gen);
    GeoLocatorOptions geo;
    geo.num_dcs = options.num_dcs;
    geo.seed = seed + 101;
    locations = AssignGeoLocations(graph, geo);
    sizes = AssignInputSizes(graph);
    config.model = ComputeModel::kHybridCut;
    config.theta = PartitionState::AutoTheta(graph);
    config.workload = Workload::PageRank();
  }

  std::unique_ptr<PartitionState> MakeState() const {
    auto state = std::make_unique<PartitionState>(&graph, &topology,
                                                  &locations, &sizes, config);
    state->ResetDerived(locations);
    return state;
  }

  std::vector<VertexId> AllVertices() const {
    std::vector<VertexId> all(graph.num_vertices());
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }
};

RLCutOptions TrainerOptions(const ChaosOptions& options, uint64_t seed) {
  RLCutOptions topts;
  topts.max_steps = options.max_steps;
  topts.batch_size = options.batch_size;
  topts.num_threads = options.num_threads;
  topts.seed = seed;
  topts.agent_visit_budget =
      static_cast<int64_t>(options.num_vertices) * 4;
  // A tiny epsilon still converges on an exact plateau (relative
  // improvement of 0.0), so sessions may legitimately stop early; the
  // crash lane checkpoints every step to guarantee a fallback pair.
  topts.convergence_epsilon = 1e-12;
  return topts;
}

// A randomized-but-seeded schedule over the sites a training session
// can hit: pool faults, trainer chunk faults, and checkpoint I/O faults
// (the armed run auto-checkpoints, so those sites are live too).
// plan.* rules target the armed SavePlan probe after training.
fault::FaultSchedule RandomSchedule(uint64_t seed, Rng* rng) {
  struct Candidate {
    const char* site;
    void (*fill)(fault::FaultRule*, Rng*);
  };
  static const Candidate kCandidates[] = {
      {"threadpool.task_throw",
       [](fault::FaultRule* r, Rng* g) {
         r->probability = 0.02 + 0.18 * g->NextDouble();
       }},
      {"threadpool.worker_stall",
       [](fault::FaultRule* r, Rng* g) {
         r->probability = 0.02 + 0.1 * g->NextDouble();
         r->amount = 5 + static_cast<int64_t>(g->Below(40));
       }},
      {"threadpool.worker_crash",
       [](fault::FaultRule* r, Rng* g) {
         r->nth = 1 + static_cast<int64_t>(g->Below(6));
         r->max_fires = 1 + static_cast<int64_t>(g->Below(2));
       }},
      {"trainer.chunk_stall",
       [](fault::FaultRule* r, Rng* g) {
         r->probability = 0.05 + 0.2 * g->NextDouble();
         r->amount = 5 + static_cast<int64_t>(g->Below(60));
       }},
      {"trainer.chunk_abandon",
       [](fault::FaultRule* r, Rng* g) {
         r->probability = 0.05 + 0.2 * g->NextDouble();
       }},
      {"checkpoint.open_fail",
       [](fault::FaultRule* r, Rng* g) {
         r->nth = 1 + static_cast<int64_t>(g->Below(3));
       }},
      {"checkpoint.short_write",
       [](fault::FaultRule* r, Rng* g) {
         r->probability = 0.3 + 0.5 * g->NextDouble();
       }},
      {"checkpoint.fsync_fail",
       [](fault::FaultRule* r, Rng* g) {
         r->probability = 0.3 + 0.5 * g->NextDouble();
       }},
      {"checkpoint.rename_fail",
       [](fault::FaultRule* r, Rng* g) {
         r->nth = 1 + static_cast<int64_t>(g->Below(3));
       }},
      {"plan.short_write", [](fault::FaultRule* r, Rng*) { r->nth = 1; }},
      {"plan.fsync_fail", [](fault::FaultRule* r, Rng*) { r->nth = 1; }},
      {"plan.rename_fail", [](fault::FaultRule* r, Rng*) { r->nth = 1; }},
  };
  constexpr size_t kNumCandidates =
      sizeof(kCandidates) / sizeof(kCandidates[0]);

  fault::FaultSchedule schedule;
  schedule.seed = seed;
  const size_t num_rules = 1 + rng->Below(3);
  std::vector<bool> used(kNumCandidates, false);
  for (size_t i = 0; i < num_rules; ++i) {
    size_t pick = rng->Below(kNumCandidates);
    while (used[pick]) pick = (pick + 1) % kNumCandidates;
    used[pick] = true;
    fault::FaultRule rule;
    rule.site = kCandidates[pick].site;
    kCandidates[pick].fill(&rule, rng);
    schedule.rules.push_back(rule);
  }
  return schedule;
}

// Asserts the crash-consistency contract of an atomic save target: the
// file either does not exist or loads cleanly — never a torn file.
bool CheckpointSlotIsCleanOrAbsent(const std::string& path,
                                   std::string* error) {
  if (!std::filesystem::exists(path)) return true;
  const Result<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
  if (loaded.ok()) return true;
  *error = path + " exists but is torn: " + loaded.status().ToString();
  return false;
}

// The faulted lane of one session. Returns true on success and bumps
// the masked/degraded counter; on failure appends to report->failures.
bool RunFaultedSession(const ChaosOptions& options, const Problem& problem,
                       uint64_t session_seed, int session_index,
                       const std::vector<DcId>& reference,
                       Rng* rng, ChaosReport* report) {
  const std::string ckpt_path =
      ScratchPath("s" + std::to_string(session_index) + ".ckpt");
  const std::string plan_path =
      ScratchPath("s" + std::to_string(session_index) + ".plan");
  auto fail = [&](const std::string& message) {
    fault::Disarm();
    std::ostringstream out;
    out << "session " << session_index << " (seed " << session_seed
        << "): " << message;
    report->failures.push_back(out.str());
    RemoveWithSidecars(ckpt_path);
    RemoveWithSidecars(plan_path);
    return false;
  };

  RLCutOptions topts = TrainerOptions(options, session_seed);
  topts.checkpoint_every_steps = 2;
  topts.checkpoint_path = ckpt_path;

  const fault::FaultSchedule schedule = RandomSchedule(session_seed, rng);
  auto state = problem.MakeState();
  AutomatonPool pool(problem.graph.num_vertices(),
                     problem.topology.num_dcs(), topts);
  fault::Arm(schedule);
  try {
    RLCutTrainer(topts).Train(state.get(), problem.AllVertices(), &pool);
  } catch (const std::exception& e) {
    return fail(std::string("training escaped with an exception under [") +
                schedule.ToSpec() + "]: " + e.what());
  }
  report->fires += fault::TotalFires();
  report->chunk_fires += fault::FireCount("trainer.chunk_stall") +
                         fault::FireCount("trainer.chunk_abandon");

  // Crash-consistency of the auto-checkpoint slots, checked while the
  // checkpoint.* rules are still armed the way the run left them (load
  // has no failure sites, so arming does not affect the probe itself).
  std::string slot_error;
  if (!CheckpointSlotIsCleanOrAbsent(ckpt_path, &slot_error) ||
      !CheckpointSlotIsCleanOrAbsent(CheckpointFallbackPath(ckpt_path),
                                     &slot_error)) {
    return fail("under [" + schedule.ToSpec() + "]: " + slot_error);
  }

  // Armed SavePlan probe: a failing save must report an error and leave
  // no torn file behind.
  const PartitionPlan armed_plan = ExtractPlan(*state);
  const Status armed_save = SavePlan(armed_plan, plan_path);
  if (std::filesystem::exists(plan_path)) {
    const Result<PartitionPlan> probe = LoadPlan(plan_path);
    if (!probe.ok()) {
      return fail("SavePlan under [" + schedule.ToSpec() +
                  "] left a torn plan: " + probe.status().ToString());
    }
  } else if (armed_save.ok()) {
    return fail("SavePlan reported Ok but wrote nothing");
  }
  fault::Disarm();

  // Outcome: bit-identical to the fault-free reference (all faults
  // masked), or degraded but valid.
  if (state->masters() == reference) {
    ++report->masked;
  } else {
    if (!state->CheckInvariants()) {
      return fail("degraded result violates invariants under [" +
                  schedule.ToSpec() + "]");
    }
    const Status saved = SavePlan(ExtractPlan(*state), plan_path);
    if (!saved.ok()) return fail("SavePlan: " + saved.ToString());
    const Result<PartitionPlan> loaded = LoadPlan(plan_path);
    if (!loaded.ok()) return fail("LoadPlan: " + loaded.status().ToString());
    auto replay = problem.MakeState();
    const Status applied = ApplyPlan(*loaded, replay.get());
    if (!applied.ok()) return fail("ApplyPlan: " + applied.ToString());
    if (replay->masters() != state->masters()) {
      return fail("degraded plan did not round-trip bit-identically");
    }
    ++report->degraded;
  }
  RemoveWithSidecars(ckpt_path);
  RemoveWithSidecars(plan_path);
  return true;
}

// The crash lane: a fault-free auto-checkpointing run, then corrupt the
// primary checkpoint and require resume to land on the fallback and
// continue to a bit-identical final plan. Runs unarmed because armed
// runs are not reproducible (thread timing permutes hit indices).
bool RunCrashResumeSession(const ChaosOptions& options,
                           const Problem& problem, uint64_t session_seed,
                           int session_index,
                           const std::vector<DcId>& reference, Rng* rng,
                           ChaosReport* report) {
  const std::string ckpt_path =
      ScratchPath("s" + std::to_string(session_index) + "_crash.ckpt");
  auto fail = [&](const std::string& message) {
    std::ostringstream out;
    out << "session " << session_index << " crash lane (seed "
        << session_seed << "): " << message;
    report->failures.push_back(out.str());
    RemoveWithSidecars(ckpt_path);
    return false;
  };

  RLCutOptions topts = TrainerOptions(options, session_seed);
  // Checkpoint after every step: convergence can stop a session after
  // as few as two steps, and each one autosaves before the convergence
  // check runs, so a primary + fallback pair always exists.
  topts.checkpoint_every_steps = 1;
  topts.checkpoint_path = ckpt_path;
  {
    auto state = problem.MakeState();
    AutomatonPool pool(problem.graph.num_vertices(),
                       problem.topology.num_dcs(), topts);
    RLCutTrainer(topts).Train(state.get(), problem.AllVertices(), &pool);
    if (state->masters() != reference) {
      return fail("auto-checkpointing perturbed the training result");
    }
  }
  if (!std::filesystem::exists(ckpt_path) ||
      !std::filesystem::exists(CheckpointFallbackPath(ckpt_path))) {
    return fail("run did not leave a primary + fallback checkpoint pair");
  }

  // Corrupt the primary: truncate at a random offset or flip a byte.
  std::string bytes;
  {
    std::ifstream in(ckpt_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  if (bytes.empty()) return fail("primary checkpoint is empty");
  if (rng->Below(2) == 0) {
    bytes.resize(rng->Below(bytes.size()));
  } else {
    bytes[rng->Below(bytes.size())] ^= 0x40;
  }
  {
    std::ofstream out(ckpt_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const Result<LoadedCheckpoint> loaded =
      LoadTrainerCheckpointWithFallback(ckpt_path);
  if (!loaded.ok()) {
    return fail("resume did not reach the fallback checkpoint: " +
                loaded.status().ToString());
  }
  if (!loaded->used_fallback) {
    return fail("corrupted primary unexpectedly loaded");
  }

  // Continue from the last-good checkpoint on a fresh problem build;
  // the continuation must reproduce the uninterrupted final plan.
  RLCutOptions resume_opts = TrainerOptions(options, session_seed);
  auto state = problem.MakeState();
  AutomatonPool pool(problem.graph.num_vertices(),
                     problem.topology.num_dcs(), resume_opts);
  TrainerSession session;
  const Status restored =
      RestoreCheckpoint(loaded->checkpoint, state.get(), &pool, &session);
  if (!restored.ok()) {
    return fail("RestoreCheckpoint: " + restored.ToString());
  }
  RLCutTrainer trainer(resume_opts);
  const Status resumable = trainer.ValidateResume(session);
  if (!resumable.ok()) {
    return fail("ValidateResume: " + resumable.ToString());
  }
  trainer.Train(state.get(), problem.AllVertices(), &pool, &session);
  if (state->masters() != reference) {
    return fail("resumed run diverged from the uninterrupted run");
  }
  ++report->crash_resumes;
  RemoveWithSidecars(ckpt_path);
  return true;
}

// The streaming lane: an RLCutSession over a short diurnal stream,
// first fault-free for a reference publish sequence, then with faults
// armed at the session ingest/publish sites. Injected failures must
// come back as clean Status errors (never aborts or torn state), and
// retrying the failed call must converge on the reference bit-exactly:
// both sites fail before any mutation, so a retry is a pure re-attempt.
bool RunStreamingFaultedSession(const ChaosOptions& options,
                                uint64_t session_seed, int session_index,
                                Rng* rng, ChaosReport* report) {
  auto fail = [&](const std::string& message) {
    fault::Disarm();
    std::ostringstream out;
    out << "session " << session_index << " streaming lane (seed "
        << session_seed << "): " << message;
    report->failures.push_back(out.str());
    return false;
  };

  // A small temporal problem: half the stream seeds the base graph,
  // the rest arrives in four micro-batches.
  TemporalStreamOptions stream;
  stream.num_vertices = options.num_vertices / 2;
  stream.num_edges = options.num_edges / 2;
  stream.seed = session_seed;
  const TemporalGraph temporal = GenerateDiurnalStream(stream);
  const uint64_t base_count = temporal.edges().size() / 2;
  const Graph base_graph = temporal.Prefix(base_count);
  GeoLocatorOptions geo;
  geo.num_dcs = options.num_dcs;
  geo.seed = session_seed + 77;
  const Topology topology =
      MakeEc2Topology(options.num_dcs, Heterogeneity::kMedium);
  const std::vector<DcId> locations = AssignGeoLocations(base_graph, geo);
  const std::vector<double> sizes = AssignInputSizes(base_graph);

  PartitionerContext ctx;
  ctx.graph = &base_graph;
  ctx.topology = &topology;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  ctx.theta = PartitionState::AutoTheta(base_graph);

  RLCutSessionOptions sopts;
  sopts.initial = TrainerOptions(options, session_seed);
  sopts.initial.checkpoint_every_steps = 0;
  sopts.incremental = sopts.initial;

  constexpr int kNumBatches = 4;
  std::vector<MicroBatch> batches;
  {
    StreamBuffer buffer;
    const std::vector<TimedEdge>& all = temporal.edges();
    const SimTime start = all[base_count].time;
    const SimTime end = all.back().time + SimTime(1);
    const int64_t span = end.micros() - start.micros();
    uint64_t next = base_count;
    for (int b = 0; b < kNumBatches; ++b) {
      SimTime watermark = b + 1 == kNumBatches
                              ? end
                              : SimTime::Micros(start.micros() +
                                                span * (b + 1) / kNumBatches);
      while (next < all.size() && all[next].time <= watermark) {
        buffer.Push(StreamEvent{all[next], next});
        ++next;
      }
      batches.push_back(buffer.Cut(watermark));
    }
  }
  const MigrationBudget budget{options.num_vertices / 4, 1e9};

  // One drive of the whole stream; with `armed`, every call retries
  // through injected failures (each site fails before any mutation).
  auto drive = [&](bool armed, std::vector<std::vector<DcId>>* published,
                   std::string* error) {
    Result<std::unique_ptr<RLCutSession>> opened =
        RLCutSession::Open(ctx, sopts);
    if (!opened.ok()) {
      *error = "Open: " + opened.status().ToString();
      return false;
    }
    std::unique_ptr<RLCutSession> session = std::move(*opened);
    auto retry = [&](auto&& call, const char* what,
                     std::string* err) -> bool {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const Status status = call();
        if (status.ok()) return true;
        if (!armed) {
          *err = std::string(what) + ": " + status.ToString();
          return false;
        }
        if (status.message().find("injected fault") == std::string::npos) {
          *err = std::string(what) +
                 " failed with a non-injected error under faults: " +
                 status.ToString();
          return false;
        }
      }
      *err = std::string(what) + ": injected fault did not stop firing";
      return false;
    };
    for (const MicroBatch& batch : batches) {
      if (!retry(
              [&] {
                Result<ApplyResult> r = session->ApplyDelta(batch);
                return r.ok() ? Status::Ok() : r.status();
              },
              "ApplyDelta", error)) {
        return false;
      }
      Result<ReoptimizeResult> reopt = session->MaybeReoptimize(budget);
      if (!reopt.ok()) {
        *error = "MaybeReoptimize: " + reopt.status().ToString();
        return false;
      }
      std::vector<DcId> masters;
      if (!retry(
              [&] {
                Result<PublishedPlan> r = session->PublishPlan();
                if (r.ok()) masters = std::move(r->masters);
                return r.ok() ? Status::Ok() : r.status();
              },
              "PublishPlan", error)) {
        return false;
      }
      published->push_back(std::move(masters));
    }
    if (session->live_state() == nullptr ||
        !session->live_state()->CheckInvariants()) {
      *error = "final streaming state violates invariants";
      return false;
    }
    return true;
  };

  std::vector<std::vector<DcId>> reference;
  std::string error;
  if (!drive(/*armed=*/false, &reference, &error)) {
    return fail("fault-free drive: " + error);
  }

  fault::FaultSchedule schedule;
  schedule.seed = session_seed;
  for (const char* site : {"session.ingest_fail", "session.publish_fail"}) {
    if (rng->Below(2) == 0 && schedule.rules.size() < 1) {
      // At most one probabilistic rule; the other site gets a bounded
      // deterministic rule so both fire in a typical run.
      fault::FaultRule rule;
      rule.site = site;
      rule.probability = 0.2 + 0.4 * rng->NextDouble();
      rule.max_fires = 1 + static_cast<int64_t>(rng->Below(4));
      schedule.rules.push_back(rule);
    } else {
      fault::FaultRule rule;
      rule.site = site;
      rule.nth = 1 + static_cast<int64_t>(rng->Below(3));
      rule.max_fires = 1 + static_cast<int64_t>(rng->Below(3));
      schedule.rules.push_back(rule);
    }
  }

  std::vector<std::vector<DcId>> faulted;
  fault::Arm(schedule);
  const bool ok = drive(/*armed=*/true, &faulted, &error);
  report->fires += fault::TotalFires();
  fault::Disarm();
  if (!ok) {
    return fail("under [" + schedule.ToSpec() + "]: " + error);
  }
  if (faulted != reference) {
    return fail("retried streaming run diverged from the fault-free "
                "reference under [" +
                schedule.ToSpec() + "]");
  }
  ++report->stream_recoveries;
  return true;
}

}  // namespace

std::string ChaosReport::Summary() const {
  std::ostringstream out;
  out << "chaos: " << sessions << " sessions (" << masked << " masked, "
      << degraded << " degraded-valid, " << crash_resumes
      << " crash resumes, " << stream_recoveries
      << " stream recoveries), " << fires << " injected fires ("
      << chunk_fires << " in scoring tasks), " << failures.size()
      << " failures";
  return out.str();
}

ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosReport report;
  // Never run with a leftover schedule from the caller.
  fault::Disarm();
  for (int s = 0; s < options.num_sessions; ++s) {
    const uint64_t session_seed = options.seed + static_cast<uint64_t>(s);
    Rng rng(Mix64(session_seed) ^ 0xc4a05);
    const Problem problem(options, session_seed);

    // Fault-free reference (no checkpointing: the faulted and crash
    // lanes must match it even though they auto-checkpoint).
    std::vector<DcId> reference;
    {
      auto state = problem.MakeState();
      AutomatonPool pool(problem.graph.num_vertices(),
                         problem.topology.num_dcs(),
                         TrainerOptions(options, session_seed));
      RLCutTrainer(TrainerOptions(options, session_seed))
          .Train(state.get(), problem.AllVertices(), &pool);
      reference = state->masters();
    }

    ++report.sessions;
    RunFaultedSession(options, problem, session_seed, s, reference, &rng,
                      &report);
    if (s % 3 == 2) {
      RunCrashResumeSession(options, problem, session_seed, s, reference,
                            &rng, &report);
    }
    if (s % 2 == 1) {
      RunStreamingFaultedSession(options, session_seed, s, &rng, &report);
    }
  }
  fault::Disarm();
  return report;
}

}  // namespace check
}  // namespace rlcut

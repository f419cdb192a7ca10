// Self-test of the benchmark's correctness checks: each one passes on a
// real run and rejects a deliberately wrong output.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "cloud/topology.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "rlcut/trainer.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {
namespace {

bool AnyContains(const std::vector<std::string>& failures,
                 const std::string& needle) {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const std::string& f) {
                       return f.find(needle) != std::string::npos;
                     });
}

TEST(NearestRank, IsExact) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Percentile p90 = NearestRank(hundred, 90);
  EXPECT_EQ(p90.value, 90);
  EXPECT_EQ(p90.rank, 90u);
  EXPECT_EQ(p90.beyond(), 10u);
  EXPECT_TRUE(TailSupported(p90));
  hundred.pop_back();
  EXPECT_FALSE(TailSupported(NearestRank(hundred, 90)));
  EXPECT_EQ(Median({4, 1, 3, 2}).value, 2);
  EXPECT_EQ(Median({5}).value, 5);
  EXPECT_EQ(Median({}).samples, 0u);
}

// A small batch plan, trained the way the batch workloads train.
class BatchChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    rlcut::PowerLawOptions gen;
    gen.num_vertices = 2048;
    gen.num_edges = 16384;
    graph_ = rlcut::GeneratePowerLaw(gen);
    topology_ = rlcut::MakeEc2Topology(4, rlcut::Heterogeneity::kMedium);
    rlcut::GeoLocatorOptions geo;
    geo.num_dcs = 4;
    locations_ = rlcut::AssignGeoLocations(graph_, geo);
    sizes_ = rlcut::AssignInputSizes(graph_);
    problem_.graph = &graph_;
    problem_.topology = &topology_;
    problem_.locations = &locations_;
    problem_.input_sizes = &sizes_;
    problem_.theta = rlcut::PartitionState::AutoTheta(graph_);

    rlcut::PartitionState state = Train(kTrainerThreads);
    masters_ = state.masters();
    reported_ = QualityOf(state);
  }

  rlcut::PartitionState Train(int threads) {
    rlcut::PartitionConfig config;
    config.theta = problem_.theta;
    rlcut::PartitionState state(&graph_, &topology_, &locations_, &sizes_,
                                config);
    state.ResetDerived(locations_);
    rlcut::RLCutOptions options;
    options.num_threads = threads;
    options.max_steps = 3;
    rlcut::RLCutTrainer(options).Train(&state);
    return state;
  }

  rlcut::Graph graph_;
  rlcut::Topology topology_;
  std::vector<rlcut::DcId> locations_;
  std::vector<double> sizes_;
  Problem problem_;
  std::vector<rlcut::DcId> masters_;
  PlanQuality reported_;
};

TEST_F(BatchChecks, AcceptTheRealPlan) {
  EXPECT_EQ(CheckMastersInRange(masters_, graph_.num_vertices(), 4), "");
  EXPECT_EQ(CheckCostWithinBudget(reported_.cost_usd, reported_.cost_usd), "");
  EXPECT_EQ(CheckColdRecompute(problem_, masters_, reported_), "");
}

TEST_F(BatchChecks, PlanDoesNotDependOnTheThreadCount) {
  EXPECT_EQ(Train(3).masters(), masters_);
}

TEST_F(BatchChecks, RejectAMasterOutOfRange) {
  std::vector<rlcut::DcId> bad = masters_;
  bad[7] = 4;
  EXPECT_NE(CheckMastersInRange(bad, graph_.num_vertices(), 4), "");
  EXPECT_NE(CheckColdRecompute(problem_, bad, reported_), "");
}

TEST_F(BatchChecks, RejectACostOverBudget) {
  EXPECT_NE(CheckCostWithinBudget(reported_.cost_usd,
                                  reported_.cost_usd * 0.999),
            "");
}

TEST_F(BatchChecks, RejectOneMasterChangedAfterTheReport) {
  // A vertex still at home: moving it adds its Eq. 4 move cost.
  rlcut::VertexId v = 0;
  while (masters_[v] != locations_[v]) ++v;
  std::vector<rlcut::DcId> bad = masters_;
  bad[v] = (bad[v] + 1) % 4;
  EXPECT_NE(CheckColdRecompute(problem_, bad, reported_), "");
}

TEST_F(BatchChecks, RejectAWrongLambda) {
  PlanQuality bad = reported_;
  bad.lambda *= 1.0 + 1e-6;
  EXPECT_NE(CheckColdRecompute(problem_, masters_, bad), "");
}

// A small stream run through the benchmark's own live loop.
class StreamChecks : public ::testing::Test {
 protected:
  static StreamConfig SmallConfig() {
    StreamConfig config;
    config.num_vertices = 4096;
    config.num_edges = 32768;
    config.batch_seconds = 1800;
    config.budget_vertices = 64;
    config.budget_bytes = 4e6;
    config.checkpoint_path = ::testing::TempDir() + "e2e_stream.ckpt";
    return config;
  }

  void SetUp() override {
    config_ = SmallConfig();
    rlcut::Result<StreamRound> round = RunStreamForTest(config_);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    round_ = std::move(*round);
    ASSERT_GE(round_.outcome.publishes.size(), 4u);
  }

  StreamConfig config_;
  StreamRound round_;
};

TEST_F(StreamChecks, AcceptTheRealStream) {
  const std::vector<std::string> failures = VerifyStream(config_, round_);
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_EQ(round_.failed_publishes, 0u);
}

TEST_F(StreamChecks, CountAPublishWhoseReplicaLinkDegraded) {
  // The first dial fails: the v1 pass starts degraded and a later push
  // heals the link, so the outputs pass every check and only the count
  // of failed publishes shows it.
  rlcut::fault::FaultSchedule schedule;
  rlcut::fault::FaultRule rule;
  rule.site = "net.connect_fail";
  rule.nth = 1;
  schedule.rules.push_back(rule);
  rlcut::fault::Arm(schedule);
  rlcut::Result<StreamRound> healed = RunStreamForTest(config_);
  rlcut::fault::Disarm();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_GE(healed->failed_publishes, 1u);
  EXPECT_TRUE(VerifyStream(config_, *healed).empty());
}

TEST_F(StreamChecks, RejectOneMasterChangedAfterPublish) {
  StreamRound bad = round_;
  rlcut::DcId& master = bad.outcome.published_masters[11];
  master = (master + 1) % 4;
  const std::vector<std::string> failures = VerifyStream(config_, bad);
  EXPECT_TRUE(AnyContains(failures, "remote replica"));
  EXPECT_TRUE(AnyContains(failures, "checkpoint"));
  EXPECT_TRUE(AnyContains(failures, "do not add up"));
}

TEST_F(StreamChecks, RejectOnePublishOverTheMigrationBudget) {
  StreamRound bad = round_;
  std::vector<PublishRecord>& publishes = bad.outcome.publishes;
  const size_t k = publishes.size() / 2;
  // The plan right after publish k.
  std::vector<rlcut::DcId> plan = bad.locations;
  for (size_t i = 0; i <= k; ++i) {
    for (const rlcut::PlanMove& m : publishes[i].moves) plan[m.vertex] = m.to;
  }
  std::vector<bool> moved(plan.size(), false);
  for (const rlcut::PlanMove& m : publishes[k].moves) moved[m.vertex] = true;
  for (rlcut::VertexId v = 0;
       publishes[k].moves.size() <= config_.budget_vertices; ++v) {
    if (moved[v]) continue;
    const rlcut::DcId to = (plan[v] + 1) % 4;
    publishes[k].moves.push_back({v, plan[v], to});
  }
  EXPECT_TRUE(AnyContains(VerifyStream(config_, bad),
                          "over the migration budget"));
}

TEST_F(StreamChecks, RejectOneStreamEdgeDropped) {
  StreamConfig config = config_;
  config.drop_edges = 1;
  rlcut::Result<StreamRound> dropped = RunStreamForTest(config);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  const std::vector<std::string> failures = VerifyStream(config, *dropped);
  EXPECT_TRUE(AnyContains(failures, "edges applied"));
  EXPECT_TRUE(AnyContains(failures, "live edge count"));
}

TEST_F(StreamChecks, RejectAReplicaOneDeltaBehind) {
  ASSERT_FALSE(round_.last_delta.moves.empty());
  StreamRound bad = round_;
  const std::vector<rlcut::PlanMove>& moves = round_.last_delta.moves;
  for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
    bad.outcome.replica_masters[it->vertex] = it->from;
  }
  const std::vector<std::string> failures = VerifyStream(config_, bad);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_TRUE(AnyContains(failures, "remote replica"));
}

}  // namespace
}  // namespace e2e

// Tests of the benchmark's own machinery: nearest-rank percentiles, the
// p90 sample floor, and the oracle checks every benchmark action passes
// through.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "client/experiment.h"
#include "oracle.h"
#include "stats.h"

namespace pdmbench {
namespace {

TEST(NearestRank, MatchesHandComputedRanks) {
  // Ten samples: p50 is the 5th smallest, p90 the 9th.
  const std::vector<double> ten = {9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
  EXPECT_EQ(*NearestRank(ten, 0.5), 5);
  EXPECT_EQ(*NearestRank(ten, 0.9), 9);
  EXPECT_EQ(*NearestRank(ten, 1.0), 10);
  // Seven samples: ceil(0.5 * 7) = 4th, ceil(0.9 * 7) = 7th.
  const std::vector<double> seven = {70, 10, 60, 20, 50, 30, 40};
  EXPECT_EQ(*NearestRank(seven, 0.5), 40);
  EXPECT_EQ(*NearestRank(seven, 0.9), 70);
  // One sample is every quantile.
  EXPECT_EQ(*NearestRank({3.5}, 0.5), 3.5);
  EXPECT_EQ(*P50({3.5}), 3.5);
}

TEST(NearestRank, RejectsEmptySamplesAndBadQuantiles) {
  EXPECT_FALSE(NearestRank({}, 0.5).ok());
  EXPECT_FALSE(NearestRank({1, 2}, 0.0).ok());
  EXPECT_FALSE(NearestRank({1, 2}, 1.5).ok());
}

TEST(P90, RefusesFewerThanOneHundredSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  EXPECT_FALSE(P90(samples).ok());
  samples.push_back(100);
  // 100 samples 1..100: the 90th smallest.
  ASSERT_TRUE(P90(samples).ok());
  EXPECT_EQ(*P90(samples), 90);
}

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pdm::client::ExperimentConfig config;
    config.generator.depth = 3;
    config.generator.branching = 4;
    config.generator.sigma = 0.6;
    auto created = pdm::client::Experiment::Create(config);
    ASSERT_TRUE(created.ok()) << created.status();
    experiment_ = std::move(*created);
    root_ = experiment_->product().root_obid;
    auto oracle = Oracle::Load(&db(), experiment_->user(), root_);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    oracle_ = std::make_unique<Oracle>(std::move(*oracle));
  }

  pdm::Database& db() { return experiment_->server().database(); }

  pdm::pdmsys::ProductTree RecursiveMle(int64_t root) {
    auto result =
        experiment_->MakeStrategy(pdm::model::StrategyKind::kRecursive)
            ->MultiLevelExpand(root);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->tree;
  }

  std::unique_ptr<pdm::client::Experiment> experiment_;
  std::unique_ptr<Oracle> oracle_;
  int64_t root_ = 0;
};

TEST_F(OracleTest, AgreesWithTheGeneratorAndTheProgram) {
  const pdm::pdmsys::GeneratedProduct& product = experiment_->product();
  const std::vector<size_t> per_level = oracle_->PerLevel(root_);
  ASSERT_EQ(per_level.size(), product.visible_per_level.size());
  for (size_t level = 1; level < per_level.size(); ++level) {
    EXPECT_EQ(per_level[level], product.visible_per_level[level]);
  }
  EXPECT_EQ(oracle_->SubtreeSize(root_), product.visible_nodes + 1);
  EXPECT_TRUE(CheckTree(*oracle_, RecursiveMle(root_), root_, 0).ok());
}

TEST_F(OracleTest, CatchesADroppedNode) {
  const pdm::pdmsys::ProductTree tree = RecursiveMle(root_);
  const int64_t child = oracle_->Children(root_).front();
  oracle_->DropChildForTest(root_, child);
  EXPECT_FALSE(CheckTree(*oracle_, tree, root_, 0).ok());
}

TEST_F(OracleTest, CatchesAReparentedNode) {
  const pdm::pdmsys::ProductTree tree = RecursiveMle(root_);
  const std::vector<int64_t> level1 = oracle_->AssembliesAtLevel(1);
  ASSERT_GE(level1.size(), 2u);
  const int64_t moved = oracle_->Children(level1[0]).front();
  oracle_->DropChildForTest(level1[0], moved);
  oracle_->AddChildForTest(level1[1], moved);
  EXPECT_FALSE(CheckTree(*oracle_, tree, root_, 0).ok());
}

TEST_F(OracleTest, CutsPartialExpandsAtTheLevelBound) {
  auto partial =
      pdm::client::RecursiveStrategy(&experiment_->connection(),
                                     &experiment_->rule_table(),
                                     experiment_->user(),
                                     experiment_->config().client)
          .PartialExpand(root_, 1);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(CheckTree(*oracle_, partial->tree, root_, 1).ok());
  EXPECT_FALSE(CheckTree(*oracle_, partial->tree, root_, 2).ok());
}

TEST_F(OracleTest, CatchesAWrongFlag) {
  const int64_t target = oracle_->AssembliesAtLevel(1).front();
  EXPECT_TRUE(CheckFlags(&db(), *oracle_, target, false).ok());
  auto checkout = experiment_->MakeCheckOutClient();
  auto out = checkout->CheckOut(
      target, pdm::client::CheckOutMethod::kRecursiveBatched);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(out->success);
  EXPECT_EQ(out->objects, oracle_->SubtreeSize(target));
  EXPECT_TRUE(CheckFlags(&db(), *oracle_, target, true).ok());
  EXPECT_FALSE(CheckFlags(&db(), *oracle_, target, false).ok());
  // One object flipped back behind the benchmark's back.
  const int64_t leaf = oracle_->Children(target).front();
  ASSERT_TRUE(db().Execute("UPDATE " +
                           std::string(oracle_->IsAssembly(leaf) ? "assy"
                                                                 : "comp") +
                           " SET checkedout = FALSE WHERE obid = " +
                           std::to_string(leaf))
                  .ok());
  EXPECT_FALSE(CheckFlags(&db(), *oracle_, target, true).ok());
}

}  // namespace
}  // namespace pdmbench

// Factory, configuration validation, and the interface contract every
// estimator kind must satisfy (parameterized across all six kinds).

#include <cmath>

#include <gtest/gtest.h>

#include "estimators/estimator.h"
#include "tests/test_stream.h"

namespace latest::estimators {
namespace {

using testing_support::FeedObjects;
using testing_support::MakeClusteredObjects;
using testing_support::MakeHybridQuery;
using testing_support::MakeKeywordQuery;
using testing_support::MakeSpatialQuery;
using testing_support::TestEstimatorConfig;

constexpr EstimatorKind kAllKinds[] = {
    EstimatorKind::kH4096, EstimatorKind::kRsl,  EstimatorKind::kRsh,
    EstimatorKind::kAasp,  EstimatorKind::kFfn,  EstimatorKind::kSpn,
    EstimatorKind::kCmSketch,
};

TEST(EstimatorFactoryTest, CreatesEveryKind) {
  const auto config = TestEstimatorConfig();
  for (const EstimatorKind kind : kAllKinds) {
    auto result = CreateEstimator(kind, config);
    ASSERT_TRUE(result.ok()) << EstimatorKindName(kind);
    EXPECT_EQ((*result)->kind(), kind);
  }
}

TEST(EstimatorFactoryTest, NamesAreUniqueAndStable) {
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kH4096), "H4096");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kRsl), "RSL");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kRsh), "RSH");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kAasp), "AASP");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kFfn), "FFN");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kSpn), "SPN");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kCmSketch), "CMS");
}

TEST(EstimatorConfigTest, DefaultValidatesAfterBoundsAndWindow) {
  EXPECT_TRUE(TestEstimatorConfig().Validate().ok());
}

TEST(EstimatorConfigTest, RejectsBadBounds) {
  auto config = TestEstimatorConfig();
  config.bounds = geo::Rect{};
  EXPECT_FALSE(config.Validate().ok());
}

TEST(EstimatorConfigTest, RejectsBadWindow) {
  auto config = TestEstimatorConfig();
  config.window.num_slices = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(EstimatorConfigTest, RejectsZeroKnobs) {
  for (auto mutate : {
           +[](EstimatorConfig* c) { c->histogram_cells = 0; },
           +[](EstimatorConfig* c) { c->reservoir_capacity = 0; },
           +[](EstimatorConfig* c) { c->rsh_grid_cells = 0; },
           +[](EstimatorConfig* c) { c->aasp_split_value = 0.0; },
           +[](EstimatorConfig* c) { c->aasp_split_value = 1.5; },
           +[](EstimatorConfig* c) { c->aasp_partitions = 0; },
           +[](EstimatorConfig* c) { c->aasp_kmv_size = 1; },
           +[](EstimatorConfig* c) { c->aasp_node_keywords = 0; },
           +[](EstimatorConfig* c) { c->ffn_hidden_units = 0; },
           +[](EstimatorConfig* c) { c->ffn_learning_rate = 0.0; },
           +[](EstimatorConfig* c) { c->spn_clusters = 0; },
       }) {
    auto config = TestEstimatorConfig();
    mutate(&config);
    EXPECT_FALSE(config.Validate().ok());
  }
}

TEST(EstimatorFactoryTest, CreateRejectsInvalidConfig) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 0;
  auto result = CreateEstimator(EstimatorKind::kRsl, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------
// Interface contract, parameterized over every estimator kind.

class EstimatorContractTest : public ::testing::TestWithParam<EstimatorKind> {
 protected:
  std::unique_ptr<Estimator> Make() {
    auto result = CreateEstimator(GetParam(), TestEstimatorConfig());
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

TEST_P(EstimatorContractTest, FreshEstimatorHasNoPopulation) {
  auto est = Make();
  EXPECT_EQ(est->seen_population(), 0u);
}

TEST_P(EstimatorContractTest, EstimatesAreNonNegativeAndFinite) {
  auto est = Make();
  const auto objects = MakeClusteredObjects(10000, 21);
  FeedObjects(est.get(), TestEstimatorConfig().window, objects);
  const stream::Query queries[] = {
      MakeSpatialQuery({20, 20, 40, 40}),
      MakeSpatialQuery({-50, -50, 500, 500}),
      MakeKeywordQuery({0}),
      MakeKeywordQuery({0, 7, 23, 49}),
      MakeHybridQuery({10, 10, 90, 90}, {1, 2}),
      MakeSpatialQuery({99.9, 99.9, 99.99, 99.99}),
  };
  for (const auto& q : queries) {
    const double e = est->Estimate(q);
    EXPECT_GE(e, 0.0);
    EXPECT_TRUE(std::isfinite(e));
  }
}

TEST_P(EstimatorContractTest, PopulationTracksWindow) {
  auto est = Make();
  const auto config = TestEstimatorConfig();
  const auto objects = MakeClusteredObjects(2000, 22, /*duration=*/2000);
  FeedObjects(est.get(), config.window, objects);
  // Window covers half the 2000ms stream.
  EXPECT_GT(est->seen_population(), 800u);
  EXPECT_LT(est->seen_population(), 1200u);
}

TEST_P(EstimatorContractTest, FullExpiryDrainsPopulation) {
  auto est = Make();
  const auto config = TestEstimatorConfig();
  const auto objects = MakeClusteredObjects(5000, 24);
  FeedObjects(est.get(), config.window, objects);
  for (uint32_t i = 0; i <= config.window.num_slices; ++i) {
    est->OnSliceRotate();
  }
  EXPECT_EQ(est->seen_population(), 0u);
}

TEST_P(EstimatorContractTest, MemoryBytesIsPositive) {
  auto est = Make();
  const auto objects = MakeClusteredObjects(5000, 25);
  FeedObjects(est.get(), TestEstimatorConfig().window, objects);
  EXPECT_GT(est->MemoryBytes(), 0u);
}

TEST_P(EstimatorContractTest, FeedbackIsAccepted) {
  auto est = Make();
  const auto objects = MakeClusteredObjects(5000, 26);
  FeedObjects(est.get(), TestEstimatorConfig().window, objects);
  const stream::Query q = MakeKeywordQuery({3});
  est->OnFeedback(q, est->Estimate(q), 123);  // Must not crash or throw.
}

TEST_P(EstimatorContractTest, DeterministicAcrossInstances) {
  auto a = Make();
  auto b = Make();
  const auto objects = MakeClusteredObjects(10000, 27);
  FeedObjects(a.get(), TestEstimatorConfig().window, objects);
  FeedObjects(b.get(), TestEstimatorConfig().window, objects);
  const stream::Query q = MakeHybridQuery({15, 15, 55, 55}, {0, 3});
  EXPECT_DOUBLE_EQ(a->Estimate(q), b->Estimate(q));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EstimatorContractTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<EstimatorKind>& info) {
      return EstimatorKindName(info.param);
    });

}  // namespace
}  // namespace latest::estimators

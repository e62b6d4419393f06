// Tests for src/exact: grid index, quadtree index, inverted index, and the
// exact evaluator, cross-validated against a brute-force scan.

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "exact/exact_evaluator.h"
#include "exact/grid_index.h"
#include "exact/inverted_index.h"
#include "exact/quadtree_index.h"
#include "stream/window_store.h"
#include "tests/test_stream.h"
#include "util/rng.h"

namespace latest::exact {
namespace {

using stream::GeoTextObject;
using stream::KeywordId;
using stream::Query;
using stream::Timestamp;
using stream::WindowStore;

using testing_support::BruteForceCount;
using testing_support::kTestBounds;
using testing_support::MakeHybridQuery;
using testing_support::MakeKeywordQuery;
using testing_support::MakeSpatialQuery;
using testing_support::MakeUniformObjects;

constexpr geo::Rect kBounds = kTestBounds;

/// Slice duration for test stores; the 10s default streams span 10 slices.
constexpr Timestamp kSliceMs = 1000;

/// Appends every object to the store and indexes the resulting row.
template <typename Index>
void FeedStore(WindowStore* store, Index* index,
               const std::vector<GeoTextObject>& objects) {
  for (const auto& obj : objects) index->Insert(store->Append(obj));
}

// --------------------------------------------------------------------
// GridIndex

TEST(GridIndexTest, EmptyIndexCountsZero) {
  WindowStore store(kSliceMs);
  GridIndex index(&store, kBounds, 8, 8);
  EXPECT_EQ(index.CountMatches(MakeSpatialQuery({0, 0, 50, 50}), 0), 0u);
}

TEST(GridIndexTest, CountsMatchBruteForce) {
  const auto objects = MakeUniformObjects(2000, 1);
  WindowStore store(kSliceMs);
  GridIndex index(&store, kBounds, 8, 8);
  FeedStore(&store, &index, objects);

  util::Rng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    const geo::Point c{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    const Query q = MakeSpatialQuery(
        geo::Rect::FromCenter(c, rng.NextDouble(1, 40), rng.NextDouble(1, 40)));
    EXPECT_EQ(index.CountMatches(q, 0), BruteForceCount(objects, q, 0));
  }
}

TEST(GridIndexTest, HybridPredicateExact) {
  const auto objects = MakeUniformObjects(1000, 3);
  WindowStore store(kSliceMs);
  GridIndex index(&store, kBounds, 8, 8);
  FeedStore(&store, &index, objects);
  const Query q = MakeHybridQuery({20, 20, 70, 70}, {1, 5});
  EXPECT_EQ(index.CountMatches(q, 0), BruteForceCount(objects, q, 0));
}

TEST(GridIndexTest, WindowCutoffExcludesExpired) {
  const auto objects = MakeUniformObjects(1000, 4);
  WindowStore store(kSliceMs);
  GridIndex index(&store, kBounds, 8, 8);
  FeedStore(&store, &index, objects);
  const Query q = MakeSpatialQuery({0, 0, 100, 100});
  EXPECT_EQ(index.CountMatches(q, 5000), BruteForceCount(objects, q, 5000));
}

TEST(GridIndexTest, LazyEvictionShrinksSize) {
  const auto objects = MakeUniformObjects(1000, 5);
  WindowStore store(kSliceMs);
  GridIndex index(&store, kBounds, 8, 8);
  FeedStore(&store, &index, objects);
  EXPECT_EQ(index.size(), 1000u);
  index.EvictBefore(5000);
  EXPECT_EQ(index.size(), BruteForceCount(objects, MakeSpatialQuery(kBounds), 5000));
}

TEST(GridIndexTest, ClearEmpties) {
  const auto objects = MakeUniformObjects(100, 6);
  WindowStore store(kSliceMs);
  GridIndex index(&store, kBounds, 8, 8);
  FeedStore(&store, &index, objects);
  index.Clear();
  store.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.CountMatches(MakeSpatialQuery(kBounds), 0), 0u);
}

TEST(GridIndexTest, FullDomainQueryCountsEverything) {
  const auto objects = MakeUniformObjects(500, 7);
  WindowStore store(kSliceMs);
  GridIndex index(&store, kBounds, 8, 8);
  FeedStore(&store, &index, objects);
  EXPECT_EQ(index.CountMatches(MakeSpatialQuery({-10, -10, 110, 110}), 0), 500u);
}

// --------------------------------------------------------------------
// QuadTreeIndex

TEST(QuadTreeIndexTest, CountsMatchBruteForce) {
  const auto objects = MakeUniformObjects(2000, 8);
  WindowStore store(kSliceMs);
  QuadTreeIndex index(&store, kBounds, 32, 10);
  FeedStore(&store, &index, objects);

  util::Rng rng(9);
  for (int iter = 0; iter < 50; ++iter) {
    const geo::Point c{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    const Query q = MakeSpatialQuery(
        geo::Rect::FromCenter(c, rng.NextDouble(1, 40), rng.NextDouble(1, 40)));
    EXPECT_EQ(index.CountMatches(q, 0), BruteForceCount(objects, q, 0));
  }
}

TEST(QuadTreeIndexTest, SplitsUnderLoad) {
  const auto objects = MakeUniformObjects(2000, 10);
  WindowStore store(kSliceMs);
  QuadTreeIndex index(&store, kBounds, 32, 10);
  FeedStore(&store, &index, objects);
  EXPECT_GT(index.num_nodes(), 1u);
  EXPECT_EQ(index.size(), 2000u);
}

TEST(QuadTreeIndexTest, WindowCutoffMatchesBruteForce) {
  const auto objects = MakeUniformObjects(2000, 11);
  WindowStore store(kSliceMs);
  QuadTreeIndex index(&store, kBounds, 32, 10);
  FeedStore(&store, &index, objects);
  const Query q = MakeSpatialQuery({10, 10, 60, 60});
  EXPECT_EQ(index.CountMatches(q, 7000), BruteForceCount(objects, q, 7000));
}

TEST(QuadTreeIndexTest, EvictionCollapsesEmptySubtrees) {
  const auto objects = MakeUniformObjects(2000, 12);
  WindowStore store(kSliceMs);
  QuadTreeIndex index(&store, kBounds, 32, 10);
  FeedStore(&store, &index, objects);
  const uint64_t nodes_full = index.num_nodes();
  index.EvictBefore(20000);  // Everything expires.
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_nodes(), 1u);
  EXPECT_GT(nodes_full, 1u);
}

TEST(QuadTreeIndexTest, HybridPredicate) {
  const auto objects = MakeUniformObjects(1000, 13);
  WindowStore store(kSliceMs);
  QuadTreeIndex index(&store, kBounds, 16, 10);
  FeedStore(&store, &index, objects);
  const Query q = MakeHybridQuery({0, 0, 50, 100}, {2, 3, 4});
  EXPECT_EQ(index.CountMatches(q, 0), BruteForceCount(objects, q, 0));
}

TEST(QuadTreeIndexTest, DegenerateAllSamePoint) {
  // All objects at one location: depth cap must prevent infinite splits.
  WindowStore store(kSliceMs);
  QuadTreeIndex index(&store, kBounds, 4, 6);
  for (int i = 0; i < 1000; ++i) {
    GeoTextObject obj;
    obj.oid = static_cast<stream::ObjectId>(i);
    obj.loc = {50, 50};
    obj.timestamp = i;
    index.Insert(store.Append(obj));
  }
  EXPECT_EQ(index.size(), 1000u);
  EXPECT_EQ(index.CountMatches(MakeSpatialQuery({49, 49, 51, 51}), 0), 1000u);
}

// --------------------------------------------------------------------
// InvertedIndex

TEST(InvertedIndexTest, KeywordCountsMatchBruteForce) {
  const auto objects = MakeUniformObjects(2000, 14);
  WindowStore store(kSliceMs);
  InvertedIndex index(&store);
  FeedStore(&store, &index, objects);
  for (KeywordId kw = 0; kw < 30; kw += 3) {
    const Query q = MakeKeywordQuery({kw});
    EXPECT_EQ(index.CountMatches(q, 0), BruteForceCount(objects, q, 0));
  }
}

TEST(InvertedIndexTest, MultiKeywordDeduplicatesObjects) {
  // An object carrying both query keywords must count once.
  WindowStore store(kSliceMs);
  InvertedIndex index(&store);
  GeoTextObject obj;
  obj.oid = 1;
  obj.loc = {1, 1};
  obj.keywords = {3, 7};
  obj.timestamp = 0;
  index.Insert(store.Append(obj));
  EXPECT_EQ(index.CountMatches(MakeKeywordQuery({3, 7}), 0), 1u);
}

TEST(InvertedIndexTest, MultiKeywordMatchesBruteForce) {
  const auto objects = MakeUniformObjects(2000, 15);
  WindowStore store(kSliceMs);
  InvertedIndex index(&store);
  FeedStore(&store, &index, objects);
  const Query q = MakeKeywordQuery({1, 4, 9, 16, 25});
  EXPECT_EQ(index.CountMatches(q, 0), BruteForceCount(objects, q, 0));
}

TEST(InvertedIndexTest, HybridFiltersByRange) {
  const auto objects = MakeUniformObjects(2000, 16);
  WindowStore store(kSliceMs);
  InvertedIndex index(&store);
  FeedStore(&store, &index, objects);
  const Query q = MakeHybridQuery({25, 25, 75, 75}, {0, 1, 2});
  EXPECT_EQ(index.CountMatches(q, 0), BruteForceCount(objects, q, 0));
}

TEST(InvertedIndexTest, CutoffExpiresPostings) {
  const auto objects = MakeUniformObjects(2000, 17);
  WindowStore store(kSliceMs);
  InvertedIndex index(&store);
  FeedStore(&store, &index, objects);
  const Query q = MakeKeywordQuery({2});
  EXPECT_EQ(index.CountMatches(q, 6000), BruteForceCount(objects, q, 6000));
  index.EvictBefore(6000);
  EXPECT_EQ(index.CountMatches(q, 6000), BruteForceCount(objects, q, 6000));
}

TEST(InvertedIndexTest, UnknownKeywordCountsZero) {
  WindowStore store(kSliceMs);
  InvertedIndex index(&store);
  EXPECT_EQ(index.CountMatches(MakeKeywordQuery({999}), 0), 0u);
}

// --------------------------------------------------------------------
// Window boundary semantics: an object stamped exactly at the cutoff is
// inside the window (eviction is strictly timestamp < cutoff), and every
// backend — grid, quadtree, inverted — must agree.

/// Objects straddling a boundary: ts in {cutoff - 1, cutoff, cutoff + 1},
/// all carrying keyword 5, spread over distinct locations.
std::vector<GeoTextObject> MakeBoundaryObjects(Timestamp cutoff) {
  std::vector<GeoTextObject> objects;
  const Timestamp stamps[3] = {cutoff - 1, cutoff, cutoff + 1};
  stream::ObjectId oid = 0;
  for (const Timestamp ts : stamps) {
    for (int i = 0; i < 4; ++i) {
      GeoTextObject obj;
      obj.oid = oid;
      obj.loc = {5.0 + 7.0 * static_cast<double>(oid), 50.0};
      obj.keywords = {5};
      obj.timestamp = ts;
      objects.push_back(obj);
      ++oid;
    }
  }
  return objects;
}

TEST(WindowBoundaryTest, CutoffTimestampRetainedByAllBackends) {
  constexpr Timestamp kCutoff = 5000;
  const auto objects = MakeBoundaryObjects(kCutoff);
  const uint64_t expected = 8;  // ts == cutoff and ts == cutoff + 1.

  WindowStore store(kSliceMs);
  GridIndex grid(&store, kBounds, 8, 8);
  QuadTreeIndex quadtree(&store, kBounds, 4, 8);
  InvertedIndex inverted(&store);
  for (const auto& obj : objects) {
    const WindowStore::Row row = store.Append(obj);
    grid.Insert(row);
    quadtree.Insert(row);
    inverted.Insert(row);
  }

  const Query spatial = MakeSpatialQuery(kBounds);
  const Query keyword = MakeKeywordQuery({5});
  EXPECT_EQ(grid.CountMatches(spatial, kCutoff), expected);
  EXPECT_EQ(quadtree.CountMatches(spatial, kCutoff), expected);
  EXPECT_EQ(inverted.CountMatches(keyword, kCutoff), expected);
  EXPECT_EQ(BruteForceCount(objects, spatial, kCutoff), expected);

  // Eager eviction at the same cutoff keeps the ts == cutoff objects too.
  grid.EvictBefore(kCutoff);
  quadtree.EvictBefore(kCutoff);
  inverted.EvictBefore(kCutoff);
  EXPECT_EQ(grid.size(), expected);
  EXPECT_EQ(quadtree.size(), expected);
  EXPECT_EQ(inverted.num_postings(), expected);
  EXPECT_EQ(grid.CountMatches(spatial, kCutoff), expected);
  EXPECT_EQ(quadtree.CountMatches(spatial, kCutoff), expected);
  EXPECT_EQ(inverted.CountMatches(keyword, kCutoff), expected);
}

// --------------------------------------------------------------------
// ExactEvaluator

class ExactEvaluatorTest : public ::testing::Test {
 protected:
  static constexpr Timestamp kWindow = 4000;

  void SetUp() override {
    objects_ = MakeUniformObjects(3000, 18);
    evaluator_.emplace(kBounds, kWindow);
    for (const auto& obj : objects_) evaluator_->Insert(obj);
  }

  uint64_t Truth(const Query& q) const {
    return BruteForceCount(objects_, q, q.timestamp - kWindow);
  }

  std::vector<GeoTextObject> objects_;
  std::optional<ExactEvaluator> evaluator_;
};

TEST_F(ExactEvaluatorTest, SpatialQueriesExact) {
  util::Rng rng(20);
  for (int iter = 0; iter < 30; ++iter) {
    const geo::Point c{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    Query q = MakeSpatialQuery(
        geo::Rect::FromCenter(c, rng.NextDouble(1, 50), rng.NextDouble(1, 50)),
        /*t=*/8000);
    EXPECT_EQ(evaluator_->TrueSelectivity(q), Truth(q));
  }
}

TEST_F(ExactEvaluatorTest, KeywordQueriesExact) {
  for (KeywordId kw = 0; kw < 30; kw += 5) {
    Query q = MakeKeywordQuery({kw, static_cast<KeywordId>(kw + 1)}, 8000);
    EXPECT_EQ(evaluator_->TrueSelectivity(q), Truth(q));
  }
}

TEST_F(ExactEvaluatorTest, HybridQueriesExact) {
  util::Rng rng(21);
  for (int iter = 0; iter < 30; ++iter) {
    const geo::Point c{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    Query q = MakeHybridQuery(
        geo::Rect::FromCenter(c, rng.NextDouble(5, 60), rng.NextDouble(5, 60)),
        {static_cast<KeywordId>(rng.NextBounded(30)),
         static_cast<KeywordId>(rng.NextBounded(30))},
        8000);
    EXPECT_EQ(evaluator_->TrueSelectivity(q), Truth(q));
  }
}

TEST_F(ExactEvaluatorTest, WindowSlides) {
  // A query at t=14000 sees only objects newer than 10000: none.
  Query q = MakeSpatialQuery({0, 0, 100, 100}, 14001);
  EXPECT_EQ(evaluator_->TrueSelectivity(q), 0u);
}

TEST_F(ExactEvaluatorTest, EvictExpiredKeepsAnswersCorrect) {
  evaluator_->EvictExpired(9000);
  Query q = MakeSpatialQuery({0, 0, 100, 100}, 9000);
  EXPECT_EQ(evaluator_->TrueSelectivity(q), Truth(q));
}

TEST_F(ExactEvaluatorTest, StoreDropsRetiredSlices) {
  // After eviction well past the stream end, the store retires every
  // sealed slice; only the open one may remain resident.
  evaluator_->EvictExpired(30000);
  EXPECT_LE(evaluator_->store().slices_resident(), 1u);
  EXPECT_EQ(evaluator_->TrueSelectivity(MakeSpatialQuery(kBounds, 30000)), 0u);
}

}  // namespace
}  // namespace latest::exact

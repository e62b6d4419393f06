// Batch-vs-scalar crosscheck: CountMatchesBatch on the grid backend and
// TrueSelectivityBatch on the evaluator must be bit-identical to the
// per-query scalar path at every kernel tier (scalar, SSE2, AVX2),
// including degenerate query batches (empty rects, missed grids,
// staggered cutoffs that straddle slice boundaries). The histogram
// batch-insert path is crosschecked via persisted-state equality.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/histogram2d_estimator.h"
#include "exact/exact_evaluator.h"
#include "exact/grid_index.h"
#include "simd/kernels.h"
#include "stream/sliding_window.h"
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

using testing_support::kTestBounds;
using testing_support::MakeUniformObjects;

constexpr geo::Rect kBounds = kTestBounds;
constexpr Timestamp kSliceMs = 1000;
constexpr Timestamp kStreamMs = 10000;

class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::SetActiveTier(saved_); }

 private:
  simd::KernelTier saved_;
};

/// A mixed query batch: spatial / keyword / hybrid predicates, staggered
/// timestamps (distinct per-query cutoffs, some on slice boundaries),
/// degenerate and out-of-domain rects, single- and multi-keyword sets.
std::vector<Query> MakeQueryBatch(size_t k, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    Query q;
    // Window end staggered across the stream's second half; every fourth
    // query lands exactly on a slice boundary.
    q.timestamp = (i % 4 == 0)
                      ? kStreamMs - static_cast<Timestamp>(i % 8) * kSliceMs
                      : kStreamMs / 2 +
                            static_cast<Timestamp>(rng.NextBounded(kStreamMs / 2));
    const uint32_t shape = rng.NextBounded(8);
    const bool spatial = shape != 0;     // 1/8 pure keyword
    const bool textual = shape % 3 != 1;  // ~2/3 carry keywords
    if (spatial) {
      if (shape == 7) {
        // Degenerate or out-of-domain rects.
        const double x = static_cast<double>(rng.NextBounded(100));
        q.range = (i % 2 == 0) ? geo::Rect{x, x, x, x}
                               : geo::Rect{200, 200, 250, 250};
      } else {
        const double x0 = rng.NextDouble(0, 80);
        const double y0 = rng.NextDouble(0, 80);
        q.range = geo::Rect{x0, y0, x0 + rng.NextDouble(1, 40),
                            y0 + rng.NextDouble(1, 40)};
      }
    }
    if (textual || !spatial) {
      const uint32_t nkw = 1 + rng.NextBounded(3);
      for (uint32_t j = 0; j < nkw; ++j) {
        q.keywords.push_back(static_cast<KeywordId>(rng.NextBounded(30)));
      }
      stream::CanonicalizeKeywords(&q.keywords);
    }
    batch.push_back(std::move(q));
  }
  // Production issues queries in stream order: scalar CountMatches evicts
  // lazily at each query's cutoff, so the sequential reference is only
  // well-defined for non-decreasing cutoffs. The grid batch pass itself
  // is order-independent (it evicts at the batch minimum); keyword and
  // hybrid queries run the scalar path in arrival order.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Query& a, const Query& b) {
                     return a.timestamp < b.timestamp;
                   });
  return batch;
}

/// Per-tier sweep shared by the index crosschecks.
template <typename Fn>
void ForEachTier(Fn&& fn) {
  TierGuard guard;
  const int highest = static_cast<int>(simd::HighestSupportedTier());
  for (int t = 0; t <= highest; ++t) {
    ASSERT_TRUE(simd::SetActiveTier(static_cast<simd::KernelTier>(t)));
    fn(static_cast<simd::KernelTier>(t));
  }
}

/// Scalar-tier, serial, per-query reference counts for a batch.
std::vector<uint64_t> ScalarReference(const std::vector<GeoTextObject>& objects,
                                      const std::vector<Query>& batch) {
  TierGuard guard;
  EXPECT_TRUE(simd::SetActiveTier(simd::KernelTier::kScalar));
  ExactEvaluator eval(kBounds, kStreamMs);
  for (const auto& obj : objects) eval.Insert(obj);
  std::vector<uint64_t> counts;
  counts.reserve(batch.size());
  for (const auto& q : batch) counts.push_back(eval.TrueSelectivity(q));
  return counts;
}

TEST(BatchCrosscheck, EvaluatorBatchMatchesScalarAtEveryTier) {
  const auto objects = MakeUniformObjects(4000, 5, kStreamMs);
  const auto batch = MakeQueryBatch(64, 99);
  const auto expect = ScalarReference(objects, batch);
  ForEachTier([&](simd::KernelTier tier) {
    ExactEvaluator eval(kBounds, kStreamMs);
    for (const auto& obj : objects) eval.Insert(obj);
    std::vector<uint64_t> counts(batch.size(), ~uint64_t{0});
    eval.TrueSelectivityBatch(batch.data(), batch.size(), counts.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(counts[i], expect[i])
          << "tier=" << simd::KernelTierName(tier) << " query=" << i;
    }
  });
}

TEST(BatchCrosscheck, EvaluatorBatchInterleavedWithScalarQueries) {
  // Batch and single-query evaluation against the SAME evaluator must
  // agree even though they leave different lazy-eviction states behind.
  const auto objects = MakeUniformObjects(2000, 6, kStreamMs);
  const auto batch = MakeQueryBatch(32, 101);
  const auto expect = ScalarReference(objects, batch);
  TierGuard guard;
  ExactEvaluator eval(kBounds, kStreamMs);
  for (const auto& obj : objects) eval.Insert(obj);
  std::vector<uint64_t> counts(batch.size());
  eval.TrueSelectivityBatch(batch.data(), batch.size(), counts.data());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(counts[i], expect[i]) << "first batch, query " << i;
    EXPECT_EQ(eval.TrueSelectivity(batch[i]), expect[i])
        << "scalar after batch, query " << i;
  }
}

TEST(BatchCrosscheck, GridIndexBatchMatchesScalar) {
  const auto objects = MakeUniformObjects(3000, 7, kStreamMs);
  auto batch = MakeQueryBatch(48, 103);
  // The grid batch kernel answers pure-spatial queries only.
  std::vector<const Query*> qs;
  std::vector<Timestamp> cutoffs;
  for (auto& q : batch) {
    if (q.HasKeywords()) continue;
    qs.push_back(&q);
    cutoffs.push_back(q.timestamp - kStreamMs / 2);
  }
  ASSERT_GE(qs.size(), 8u);
  ForEachTier([&](simd::KernelTier tier) {
    WindowStore store(kSliceMs);
    GridIndex scalar_index(&store, kBounds, 8, 8);
    GridIndex batch_index(&store, kBounds, 8, 8);
    for (const auto& obj : objects) {
      const WindowStore::Row row = store.Append(obj);
      scalar_index.Insert(row);
      batch_index.Insert(row);
    }
    std::vector<uint64_t> counts(qs.size(), ~uint64_t{0});
    batch_index.CountMatchesBatch(qs.data(), cutoffs.data(), qs.size(),
                                  counts.data());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(counts[i], scalar_index.CountMatches(*qs[i], cutoffs[i]))
          << "tier=" << simd::KernelTierName(tier) << " query=" << i;
    }
  });
}

TEST(BatchCrosscheck, TinyAndDegenerateBatches) {
  // k = 0 and k = 1 and an all-missing batch must not crash or miscount.
  const auto objects = MakeUniformObjects(500, 10, kStreamMs);
  TierGuard guard;
  ExactEvaluator eval(kBounds, kStreamMs);
  for (const auto& obj : objects) eval.Insert(obj);
  eval.TrueSelectivityBatch(nullptr, 0, nullptr);
  Query miss;
  miss.timestamp = kStreamMs;
  miss.range = geo::Rect{500, 500, 600, 600};
  uint64_t one = ~uint64_t{0};
  eval.TrueSelectivityBatch(&miss, 1, &one);
  EXPECT_EQ(one, 0u);
  Query all;
  all.timestamp = kStreamMs;
  uint64_t pop = 0;
  eval.TrueSelectivityBatch(&all, 1, &pop);
  EXPECT_EQ(pop, eval.TrueSelectivity(all));
  EXPECT_EQ(pop, 500u);
}

TEST(BatchCrosscheck, HistogramBatchInsertMatchesScalarState) {
  // Feeding the histogram via InsertBatch (vectorized cell ids) must
  // leave exactly the state of per-object Insert: identical persisted
  // bytes, at every kernel tier.
  const auto objects = testing_support::MakeClusteredObjects(3000, 12);
  auto config = testing_support::TestEstimatorConfig();

  estimators::Histogram2dEstimator scalar_est(config);
  testing_support::FeedObjects(&scalar_est, config.window, objects);
  util::BinaryWriter scalar_state;
  scalar_est.SaveState(&scalar_state);

  TierGuard guard;
  const int highest = static_cast<int>(simd::HighestSupportedTier());
  for (int t = 0; t <= highest; ++t) {
    ASSERT_TRUE(simd::SetActiveTier(static_cast<simd::KernelTier>(t)));
    estimators::Histogram2dEstimator batch_est(config);
    // Re-batch the stream at slice-rotation boundaries.
    stream::SliceClock clock(config.window);
    std::vector<GeoTextObject> pending;
    auto flush = [&] {
      batch_est.InsertBatch(pending.data(), pending.size());
      pending.clear();
    };
    for (const auto& obj : objects) {
      const uint32_t r = clock.Advance(obj.timestamp);
      if (r > 0) {
        flush();
        for (uint32_t i = 0; i < r; ++i) batch_est.OnSliceRotate();
      }
      pending.push_back(obj);
    }
    flush();
    util::BinaryWriter batch_state;
    batch_est.SaveState(&batch_state);
    EXPECT_EQ(batch_state.buffer(), scalar_state.buffer()) << "tier=" << t;
    EXPECT_EQ(batch_est.seen_population(), scalar_est.seen_population());
  }
}

}  // namespace
}  // namespace latest::exact

// Property tests of the SIMD kernel layer: every kernel is cross-checked
// against a straightforward scalar reference on randomized inputs at
// every available tier (scalar, SSE2, AVX2), including the degenerate
// shapes the batch paths feed them — empty inputs, single elements,
// vector-width boundaries, and degenerate rects.

#include "simd/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "stream/object.h"
#include "util/rng.h"

namespace latest {
namespace {

using simd::KernelTier;

/// Restores the dispatch tier on scope exit so a failing test cannot
/// leak a forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::SetActiveTier(saved_); }

 private:
  KernelTier saved_;
};

/// Runs `fn` once per tier this build + CPU can execute.
template <typename Fn>
void ForEachTier(Fn&& fn) {
  TierGuard guard;
  const int highest = static_cast<int>(simd::HighestSupportedTier());
  for (int t = 0; t <= highest; ++t) {
    const auto tier = static_cast<KernelTier>(t);
    ASSERT_TRUE(simd::SetActiveTier(tier));
    ASSERT_EQ(simd::ActiveTier(), tier);
    fn(tier);
  }
}

std::vector<geo::Point> RandomPoints(util::Rng* rng, size_t n) {
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) {
    // Deliberately includes points outside [0,100)^2 and exactly on rect
    // edges (integral coordinates collide with integral rect corners).
    if (rng->NextBool(0.3)) {
      p = {static_cast<double>(rng->NextBounded(110)) - 5,
           static_cast<double>(rng->NextBounded(110)) - 5};
    } else {
      p = {rng->NextDouble(-5, 105), rng->NextDouble(-5, 105)};
    }
  }
  return pts;
}

geo::Rect RandomRect(util::Rng* rng) {
  if (rng->NextBool(0.15)) {
    // Degenerate: zero width and/or height.
    const double x = static_cast<double>(rng->NextBounded(100));
    const double y = static_cast<double>(rng->NextBounded(100));
    if (rng->NextBool(0.5)) return {x, y, x, y};
    return {x, y, x + 10, y};
  }
  double x0 = rng->NextDouble(-10, 100);
  double y0 = rng->NextDouble(-10, 100);
  double x1 = x0 + rng->NextDouble(0, 60);
  double y1 = y0 + rng->NextDouble(0, 60);
  return {x0, y0, x1, y1};
}

/// The sizes batch scans hit: empty, sub-word, word-boundary +/- 1, and
/// multi-word with a ragged tail.
const size_t kSizes[] = {0, 1, 3, 4, 7, 8, 15, 16, 63, 64, 65, 200, 513};

TEST(SimdTier, NamesAndClamping) {
  TierGuard guard;
  EXPECT_STREQ(simd::KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(simd::KernelTierName(KernelTier::kSSE2), "sse2");
  EXPECT_STREQ(simd::KernelTierName(KernelTier::kAVX2), "avx2");
  EXPECT_GE(simd::HighestSupportedTier(), KernelTier::kScalar);
  EXPECT_LE(simd::ActiveTier(), simd::HighestSupportedTier());
  // Forcing above hardware/build support must fail and leave the tier
  // unchanged.
  if (simd::HighestSupportedTier() < KernelTier::kAVX2) {
    const KernelTier before = simd::ActiveTier();
    EXPECT_FALSE(simd::SetActiveTier(KernelTier::kAVX2));
    EXPECT_EQ(simd::ActiveTier(), before);
  }
  EXPECT_TRUE(simd::SetActiveTier(KernelTier::kScalar));
  EXPECT_EQ(simd::ActiveTier(), KernelTier::kScalar);
}

TEST(SimdRect, CountMatchesScalarReference) {
  util::Rng rng(7);
  for (size_t n : kSizes) {
    const auto pts = RandomPoints(&rng, n);
    for (int trial = 0; trial < 8; ++trial) {
      const geo::Rect r = RandomRect(&rng);
      uint64_t expect = 0;
      for (size_t i = 0; i < n; ++i) expect += r.Contains(pts[i]) ? 1 : 0;
      ForEachTier([&](KernelTier tier) {
        EXPECT_EQ(simd::RectContainCount(pts.data(), n, r), expect)
            << "tier=" << simd::KernelTierName(tier) << " n=" << n;
      });
    }
  }
}

TEST(SimdRect, EdgePointsAreClosedOpen) {
  // Points exactly on the min edges are inside, on the max edges outside
  // (whatever Rect::Contains says, the kernel must agree point for point).
  const geo::Rect r{10, 20, 30, 40};
  const std::vector<geo::Point> pts = {
      {10, 20}, {30, 40}, {10, 40}, {30, 20}, {20, 30},
      {10, 30}, {30, 30}, {20, 20}, {20, 40},
  };
  uint64_t expect = 0;
  for (const geo::Point& p : pts) expect += r.Contains(p) ? 1 : 0;
  ForEachTier([&](KernelTier tier) {
    for (const geo::Point& p : pts) {
      EXPECT_EQ(simd::RectContainCount(&p, 1, r), r.Contains(p) ? 1u : 0u)
          << "tier=" << simd::KernelTierName(tier) << " p=(" << p.x << ","
          << p.y << ")";
    }
    EXPECT_EQ(simd::RectContainCount(pts.data(), pts.size(), r), expect)
        << "tier=" << simd::KernelTierName(tier);
  });
}

TEST(SimdHistogram, CellIdsMatchGridCellOf) {
  util::Rng rng(11);
  const geo::Rect bounds{0, 0, 100, 100};
  const uint32_t dims[][2] = {{1, 1}, {3, 5}, {64, 64}, {7, 1}};
  for (const auto& d : dims) {
    const geo::Grid grid(bounds, d[0], d[1]);
    for (size_t n : kSizes) {
      const auto pts = RandomPoints(&rng, n);
      std::vector<uint32_t> expect(n);
      for (size_t i = 0; i < n; ++i) expect[i] = grid.CellOf(pts[i]);
      ForEachTier([&](KernelTier tier) {
        std::vector<uint32_t> cells(n + 1, 0xdeadbeef);
        simd::HistogramCellIdsStrided(
            pts.data(), sizeof(geo::Point), n, grid.bounds(),
            grid.cell_width(), grid.cell_height(), grid.cols(), grid.rows(),
            cells.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(cells[i], expect[i])
              << "tier=" << simd::KernelTierName(tier) << " cols=" << d[0]
              << " rows=" << d[1] << " i=" << i << " p=(" << pts[i].x << ","
              << pts[i].y << ")";
        }
        EXPECT_EQ(cells[n], 0xdeadbeef);
      });
    }
  }
}

TEST(SimdHistogram, StridedCellIdsMatchContiguous) {
  util::Rng rng(17);
  const geo::Rect bounds{-50, -50, 50, 50};
  const geo::Grid grid(bounds, 64, 64);
  // Points embedded in larger records, like GeoTextObject holds them.
  struct Record {
    uint64_t pad0;
    geo::Point loc;
    uint64_t pad1[3];
  };
  for (size_t n : kSizes) {
    std::vector<Record> recs(n);
    std::vector<geo::Point> dense(n);
    for (size_t i = 0; i < n; ++i) {
      recs[i].loc = {bounds.min_x + rng.NextDouble() * 100.0,
                     bounds.min_y + rng.NextDouble() * 100.0};
      dense[i] = recs[i].loc;
    }
    std::vector<uint32_t> expect(n);
    for (size_t i = 0; i < n; ++i) expect[i] = grid.CellOf(dense[i]);
    ForEachTier([&](KernelTier tier) {
      std::vector<uint32_t> cells(n + 1, 0xdeadbeef);
      simd::HistogramCellIdsStrided(
          n > 0 ? &recs[0].loc : nullptr, sizeof(Record), n, grid.bounds(),
          grid.cell_width(), grid.cell_height(), grid.cols(), grid.rows(),
          cells.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(cells[i], expect[i])
            << "tier=" << simd::KernelTierName(tier) << " i=" << i;
      }
      EXPECT_EQ(cells[n], 0xdeadbeef);
      // stride == sizeof(Point) degenerates to the contiguous kernel.
      std::vector<uint32_t> packed(n + 1, 0xdeadbeef);
      simd::HistogramCellIdsStrided(
          dense.data(), sizeof(geo::Point), n, grid.bounds(),
          grid.cell_width(), grid.cell_height(), grid.cols(), grid.rows(),
          packed.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(packed[i], expect[i])
            << "tier=" << simd::KernelTierName(tier) << " i=" << i;
      }
    });
  }
}

TEST(SimdTimestamp, LowerBoundMatchesStdLowerBound) {
  util::Rng rng(17);
  for (size_t n : kSizes) {
    std::vector<stream::Timestamp> ts(n);
    stream::Timestamp acc = 0;
    for (auto& t : ts) {
      acc += static_cast<stream::Timestamp>(rng.NextBounded(4));
      t = acc;
    }
    for (int trial = 0; trial < 16; ++trial) {
      const stream::Timestamp cutoff =
          static_cast<stream::Timestamp>(rng.NextBounded(acc + 3)) - 1;
      const size_t expect = static_cast<size_t>(
          std::lower_bound(ts.begin(), ts.end(), cutoff) - ts.begin());
      ForEachTier([&](KernelTier) {
        EXPECT_EQ(simd::LowerBoundTimestamp(ts.data(), n, cutoff), expect);
      });
    }
  }
}

}  // namespace
}  // namespace latest

// Unit and property tests for src/stream: objects, queries, keyword
// dictionary, and the sliding-window machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stream/keyword_dictionary.h"
#include "stream/object.h"
#include "stream/query.h"
#include "stream/sliding_window.h"
#include "util/rng.h"

namespace latest::stream {
namespace {

// --------------------------------------------------------------------
// GeoTextObject / keywords

TEST(ObjectTest, CanonicalizeSortsAndDeduplicates) {
  std::vector<KeywordId> kws = {5, 1, 5, 3, 1};
  CanonicalizeKeywords(&kws);
  EXPECT_EQ(kws, (std::vector<KeywordId>{1, 3, 5}));
}

TEST(ObjectTest, MatchesAnyKeyword) {
  GeoTextObject obj;
  obj.keywords = {2, 5, 9};
  EXPECT_TRUE(obj.MatchesAnyKeyword({5}));
  EXPECT_TRUE(obj.MatchesAnyKeyword({1, 9}));
  EXPECT_FALSE(obj.MatchesAnyKeyword({1, 3, 4}));
  EXPECT_FALSE(obj.MatchesAnyKeyword({}));
}

TEST(ObjectTest, MatchesAnyKeywordEmptyObject) {
  GeoTextObject obj;
  EXPECT_FALSE(obj.MatchesAnyKeyword({1, 2}));
}

// --------------------------------------------------------------------
// Query

TEST(QueryTest, TypeClassification) {
  Query spatial;
  spatial.range = geo::Rect{0, 0, 1, 1};
  EXPECT_EQ(spatial.Type(), QueryType::kSpatial);

  Query keyword;
  keyword.keywords = {1};
  EXPECT_EQ(keyword.Type(), QueryType::kKeyword);

  Query hybrid;
  hybrid.range = geo::Rect{0, 0, 1, 1};
  hybrid.keywords = {1};
  EXPECT_EQ(hybrid.Type(), QueryType::kHybrid);
}

TEST(QueryTest, TypeNames) {
  EXPECT_STREQ(QueryTypeName(QueryType::kSpatial), "spatial");
  EXPECT_STREQ(QueryTypeName(QueryType::kKeyword), "keyword");
  EXPECT_STREQ(QueryTypeName(QueryType::kHybrid), "hybrid");
}

TEST(QueryTest, MatchesImplementsRcDvq) {
  GeoTextObject in_both;
  in_both.loc = {0.5, 0.5};
  in_both.keywords = {3};

  Query hybrid;
  hybrid.range = geo::Rect{0, 0, 1, 1};
  hybrid.keywords = {3, 7};
  EXPECT_TRUE(hybrid.Matches(in_both));

  GeoTextObject outside = in_both;
  outside.loc = {2, 2};
  EXPECT_FALSE(hybrid.Matches(outside));

  GeoTextObject wrong_kw = in_both;
  wrong_kw.keywords = {4};
  EXPECT_FALSE(hybrid.Matches(wrong_kw));
}

TEST(QueryTest, SpatialOnlyIgnoresKeywords) {
  Query q;
  q.range = geo::Rect{0, 0, 1, 1};
  GeoTextObject obj;
  obj.loc = {0.5, 0.5};
  obj.keywords = {};  // No keywords at all.
  EXPECT_TRUE(q.Matches(obj));
}

TEST(QueryTest, KeywordOnlyIgnoresLocation) {
  Query q;
  q.keywords = {3};
  GeoTextObject obj;
  obj.loc = {1000, 1000};
  obj.keywords = {3};
  EXPECT_TRUE(q.Matches(obj));
}

// --------------------------------------------------------------------
// KeywordDictionary

TEST(KeywordDictionaryTest, InternIsIdempotent) {
  KeywordDictionary dict;
  const KeywordId a = dict.Intern("fire");
  const KeywordId b = dict.Intern("rescue");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("fire"), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(KeywordDictionaryTest, SpellingRoundTrip) {
  KeywordDictionary dict;
  const KeywordId a = dict.Intern("fire");
  EXPECT_EQ(dict.Spelling(a), "fire");
}

TEST(KeywordDictionaryTest, LookupWithoutIntern) {
  KeywordDictionary dict;
  dict.Intern("fire");
  KeywordId id;
  EXPECT_TRUE(dict.Lookup("fire", &id));
  EXPECT_FALSE(dict.Lookup("flood", &id));
  EXPECT_EQ(dict.size(), 1u);  // Lookup must not intern.
}

// --------------------------------------------------------------------
// WindowConfig / SliceClock

TEST(WindowConfigTest, Validation) {
  WindowConfig good{.window_length_ms = 1600, .num_slices = 16};
  EXPECT_TRUE(good.Validate().ok());
  EXPECT_EQ(good.SliceDuration(), 100);

  WindowConfig zero_len{.window_length_ms = 0, .num_slices = 4};
  EXPECT_FALSE(zero_len.Validate().ok());

  WindowConfig zero_slices{.window_length_ms = 100, .num_slices = 0};
  EXPECT_FALSE(zero_slices.Validate().ok());

  WindowConfig indivisible{.window_length_ms = 100, .num_slices = 3};
  EXPECT_FALSE(indivisible.Validate().ok());
}

TEST(SliceClockTest, NoRotationWithinSlice) {
  SliceClock clock(WindowConfig{.window_length_ms = 1600, .num_slices = 16});
  EXPECT_EQ(clock.Advance(0), 0u);
  EXPECT_EQ(clock.Advance(99), 0u);
  EXPECT_EQ(clock.current_slice(), 0);
}

TEST(SliceClockTest, SingleRotationOnBoundary) {
  SliceClock clock(WindowConfig{.window_length_ms = 1600, .num_slices = 16});
  EXPECT_EQ(clock.Advance(100), 1u);
  EXPECT_EQ(clock.current_slice(), 1);
}

TEST(SliceClockTest, MultipleRotationsOnJump) {
  SliceClock clock(WindowConfig{.window_length_ms = 1600, .num_slices = 16});
  EXPECT_EQ(clock.Advance(550), 5u);
  EXPECT_EQ(clock.current_slice(), 5);
  EXPECT_EQ(clock.now(), 550);
}

TEST(SliceClockTest, RotationsAccumulateAcrossCalls) {
  SliceClock clock(WindowConfig{.window_length_ms = 1000, .num_slices = 10});
  uint32_t total = 0;
  for (Timestamp t = 0; t <= 1000; t += 37) total += clock.Advance(t);
  EXPECT_EQ(total, static_cast<uint32_t>(clock.current_slice()));
}

TEST(SliceClockTest, LateTimestampClampsWithoutRotation) {
  SliceClock clock(WindowConfig{.window_length_ms = 1000, .num_slices = 10});
  EXPECT_EQ(clock.Advance(550), 5u);
  // A straggler from the past: no rotation, no rewind.
  EXPECT_EQ(clock.Advance(120), 0u);
  EXPECT_EQ(clock.now(), 550);
  EXPECT_EQ(clock.current_slice(), 5);
  // Time resumes from the clamped position, not from the straggler.
  EXPECT_EQ(clock.Advance(600), 1u);
  EXPECT_EQ(clock.now(), 600);
}

// Property: for any interleaving of in-order and late timestamps, the
// clock behaves exactly like one fed the running maximum of the stream —
// expiry only ever depends on the newest event time seen.
TEST(SliceClockTest, PropertyOutOfOrderStreamMatchesRunningMax) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    SliceClock jittered(
        WindowConfig{.window_length_ms = 1000, .num_slices = 10});
    SliceClock monotone(
        WindowConfig{.window_length_ms = 1000, .num_slices = 10});
    Timestamp t = 0;
    Timestamp running_max = 0;
    for (int i = 0; i < 500; ++i) {
      t += static_cast<Timestamp>(rng.NextBounded(40));
      // 30% of events arrive late by up to 300 ms.
      const Timestamp jitter =
          rng.NextBool(0.3) ? static_cast<Timestamp>(rng.NextBounded(300))
                            : 0;
      const Timestamp late = t > jitter ? t - jitter : 0;
      running_max = std::max(running_max, late);
      const uint32_t a = jittered.Advance(late);
      const uint32_t b = monotone.Advance(running_max);
      EXPECT_EQ(a, b) << "seed " << seed << " event " << i;
      EXPECT_EQ(jittered.now(), monotone.now());
      EXPECT_EQ(jittered.current_slice(), monotone.current_slice());
    }
  }
}

// --------------------------------------------------------------------
// SliceRing

TEST(SliceRingTest, RotateDropsOldest) {
  SliceRing<int> ring(3);
  ring.Current() = 1;
  ring.Rotate();
  ring.Current() = 2;
  ring.Rotate();
  ring.Current() = 3;
  EXPECT_EQ(ring.FromNewest(0), 3);
  EXPECT_EQ(ring.FromNewest(1), 2);
  EXPECT_EQ(ring.FromNewest(2), 1);
  ring.Rotate();  // Drops the 1.
  EXPECT_EQ(ring.FromNewest(0), 0);
  EXPECT_EQ(ring.FromNewest(1), 3);
  EXPECT_EQ(ring.FromNewest(2), 2);
}

TEST(SliceRingTest, ForEachVisitsAllSlices) {
  SliceRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    ring.Current() = i + 1;
    if (i < 3) ring.Rotate();
  }
  int sum = 0;
  ring.ForEach([&](int v) { sum += v; });
  EXPECT_EQ(sum, 10);
}

// --------------------------------------------------------------------
// WindowPopulation

TEST(WindowPopulationTest, AddsAndRotates) {
  WindowPopulation pop(4);
  for (int i = 0; i < 10; ++i) pop.Add();
  EXPECT_EQ(pop.total(), 10u);
  pop.Rotate();  // Slices: [10] -> rotation drops an empty older slice.
  EXPECT_EQ(pop.total(), 10u);
}

TEST(WindowPopulationTest, ExpiresAfterFullWindow) {
  WindowPopulation pop(4);
  // One object per slice, across 4 slices.
  for (int s = 0; s < 4; ++s) {
    pop.Add();
    pop.Rotate();
  }
  // After 4 rotations the first object's slice has been dropped... the
  // window holds the most recent 4 slices (3 full + current).
  EXPECT_EQ(pop.total(), 3u);
}

TEST(WindowPopulationTest, SteadyStateIsBounded) {
  WindowPopulation pop(8);
  // 5 objects per slice for many slices: total must stabilize at 8*5.
  for (int s = 0; s < 100; ++s) {
    for (int i = 0; i < 5; ++i) pop.Add();
    pop.Rotate();
  }
  EXPECT_EQ(pop.total(), 7u * 5u);  // 7 full past slices + empty current.
}

}  // namespace
}  // namespace latest::stream

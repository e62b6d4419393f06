// Tests for the persistence primitives: the binary reader/writer and the
// Hoeffding-tree snapshot. The module-level lifecycle round trip lives in
// persist_roundtrip_test.cc.

#include <gtest/gtest.h>

#include "ml/hoeffding_tree.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace latest {
namespace {

// --------------------------------------------------------------------
// BinaryWriter / BinaryReader

TEST(SerializationTest, RoundTripsPrimitives) {
  util::BinaryWriter writer;
  writer.WriteU32(42);
  writer.WriteU64(1ull << 40);
  writer.WriteI64(-7);
  writer.WriteDouble(3.25);
  writer.WriteBool(true);
  writer.WriteBool(false);

  util::BinaryReader reader(writer.buffer());
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  bool b1;
  bool b2;
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  ASSERT_TRUE(reader.ReadI64(&i64));
  ASSERT_TRUE(reader.ReadDouble(&d));
  ASSERT_TRUE(reader.ReadBool(&b1));
  ASSERT_TRUE(reader.ReadBool(&b2));
  EXPECT_EQ(u32, 42u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i64, -7);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(reader.exhausted());
}

TEST(SerializationTest, TruncatedReadFailsCleanly) {
  util::BinaryWriter writer;
  writer.WriteU32(1);
  util::BinaryReader reader(writer.buffer());
  uint64_t v;
  EXPECT_FALSE(reader.ReadU64(&v));  // Only 4 bytes available.
  uint32_t u;
  EXPECT_TRUE(reader.ReadU32(&u));  // The 4 bytes are still intact.
  EXPECT_EQ(u, 1u);
}

// --------------------------------------------------------------------
// HoeffdingTree snapshot

ml::FeatureSchema TreeSchema() {
  ml::FeatureSchema schema;
  schema.categorical_cardinalities = {3};
  schema.num_numeric = 2;
  schema.num_classes = 4;
  return schema;
}

ml::HoeffdingTreeConfig TreeConfig() {
  ml::HoeffdingTreeConfig config;
  config.grace_period = 50;
  config.split_confidence = 1e-3;
  config.tie_threshold = 0.1;
  return config;
}

void TrainConcept(ml::HoeffdingTree* tree, int n, uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const int cat = static_cast<int>(rng.NextBounded(3));
    const double x = rng.NextDouble();
    ml::TrainingExample ex;
    ex.features.categorical = {cat};
    ex.features.numeric = {x, rng.NextDouble()};
    ex.label = cat < 2 ? static_cast<uint32_t>(cat) : (x < 0.5 ? 2u : 3u);
    tree->Train(ex);
  }
}

TEST(TreePersistenceTest, RoundTripPreservesPredictions) {
  ml::HoeffdingTree original(TreeSchema(), TreeConfig());
  TrainConcept(&original, 8000, 1);
  ASSERT_GT(original.num_splits(), 0u);

  util::BinaryWriter writer;
  original.Serialize(&writer);

  ml::HoeffdingTree restored(TreeSchema(), TreeConfig());
  util::BinaryReader reader(writer.buffer());
  ASSERT_TRUE(restored.Restore(&reader).ok());
  EXPECT_TRUE(reader.exhausted());

  EXPECT_EQ(restored.num_trained(), original.num_trained());
  EXPECT_EQ(restored.num_leaves(), original.num_leaves());
  EXPECT_EQ(restored.num_splits(), original.num_splits());
  EXPECT_EQ(restored.depth(), original.depth());

  util::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    ml::FeatureVector f;
    f.categorical = {static_cast<int>(rng.NextBounded(3))};
    f.numeric = {rng.NextDouble(), rng.NextDouble()};
    ASSERT_EQ(restored.Predict(f), original.Predict(f));
    ASSERT_EQ(restored.PredictDistribution(f),
              original.PredictDistribution(f));
  }
}

TEST(TreePersistenceTest, RestoredTreeKeepsLearning) {
  ml::HoeffdingTree original(TreeSchema(), TreeConfig());
  TrainConcept(&original, 3000, 3);
  util::BinaryWriter writer;
  original.Serialize(&writer);

  ml::HoeffdingTree restored(TreeSchema(), TreeConfig());
  util::BinaryReader reader(writer.buffer());
  ASSERT_TRUE(restored.Restore(&reader).ok());
  // Sufficient statistics survived: further training must keep working
  // and growing the tree.
  TrainConcept(&restored, 5000, 4);
  EXPECT_EQ(restored.num_trained(), 8000u);
}

TEST(TreePersistenceTest, SchemaMismatchRejected) {
  ml::HoeffdingTree original(TreeSchema(), TreeConfig());
  TrainConcept(&original, 1000, 5);
  util::BinaryWriter writer;
  original.Serialize(&writer);

  ml::FeatureSchema other = TreeSchema();
  other.num_classes = 5;
  ml::HoeffdingTree restored(other, TreeConfig());
  util::BinaryReader reader(writer.buffer());
  EXPECT_FALSE(restored.Restore(&reader).ok());
  EXPECT_EQ(restored.num_trained(), 0u);  // Reset on failure.
}

TEST(TreePersistenceTest, TruncatedSnapshotRejected) {
  ml::HoeffdingTree original(TreeSchema(), TreeConfig());
  TrainConcept(&original, 2000, 6);
  util::BinaryWriter writer;
  original.Serialize(&writer);
  const std::string truncated =
      writer.buffer().substr(0, writer.buffer().size() / 2);

  ml::HoeffdingTree restored(TreeSchema(), TreeConfig());
  util::BinaryReader reader(truncated);
  EXPECT_FALSE(restored.Restore(&reader).ok());
  // The failed restore leaves a clean, usable stump.
  TrainConcept(&restored, 100, 7);
  EXPECT_EQ(restored.num_trained(), 100u);
}

}  // namespace
}  // namespace latest

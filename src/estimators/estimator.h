// The common interface of LATEST's selectivity-estimator portfolio
// (Section IV) and the shared configuration of all six estimators.
//
// Every estimator maintains its own window state via Insert/OnSliceRotate
// and answers RC-DVQ queries with Estimate. Estimates are always relative
// to the population the estimator has *seen* (its seen_population());
// LATEST scales pre-filled estimators that have not yet covered a full
// window by window_population / seen_population.

#ifndef LATEST_ESTIMATORS_ESTIMATOR_H_
#define LATEST_ESTIMATORS_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "geo/rect.h"
#include "stream/object.h"
#include "stream/query.h"
#include "stream/sliding_window.h"
#include "util/serialization.h"
#include "util/status.h"

namespace latest::estimators {

/// The six estimators evaluated by the paper (Section VI-A).
enum class EstimatorKind : uint32_t {
  kH4096 = 0,  // 2-D equi-width histogram, 4096 cells.
  kRsl = 1,    // Reservoir sampling list (Algorithm R).
  kRsh = 2,    // Hybrid reservoir sampling hashmap (grid-indexed sample).
  kAasp = 3,   // Augmented adaptive space partitioning tree.
  kFfn = 4,    // Workload-driven feed-forward neural network.
  kSpn = 5,    // Data-driven sum-product network.
  // Portfolio extension beyond the paper's six (disabled by default in
  // LatestConfig so the paper-reproduction experiments are unchanged):
  kCmSketch = 6,  // Count-Min sketch over keywords and (cell, keyword).
};

/// Number of estimator kinds (the paper's six + the CMS extension).
inline constexpr uint32_t kNumEstimatorKinds = 7;

/// Number of estimators the paper evaluates (the first six kinds).
inline constexpr uint32_t kNumPaperEstimatorKinds = 6;

/// Short stable display name ("H4096", "RSL", ...).
const char* EstimatorKindName(EstimatorKind kind);

/// Shared configuration for constructing estimators.
struct EstimatorConfig {
  /// Spatial domain of the stream.
  geo::Rect bounds;

  /// Shared time-window discretization.
  stream::WindowConfig window;

  /// Seed for every randomized component.
  uint64_t seed = 42;

  // --- H4096 ---
  /// Histogram cells (a square grid; must be a perfect square).
  uint32_t histogram_cells = 4096;

  // --- RSL / RSH ---
  /// Total reservoir capacity across the window. Meaningful sampling
  /// behaviour requires the capacity to be well below the window
  /// population (the paper uses 1M samples against multi-million-object
  /// windows).
  uint32_t reservoir_capacity = 2048;
  /// Grid cells indexing the RSH sample.
  uint32_t rsh_grid_cells = 4096;

  // --- AASP ---
  /// Split aggressiveness in (0, 1]; the paper uses 0.5. A leaf splits when
  /// its live count exceeds split_value * 2 * seen_population/target_leaves.
  double aasp_split_value = 0.5;
  /// Keyword-hash partitions: the AASP of [67] is a KMV synopsis plus a
  /// *set* of ASP trees. Every query aggregates across all partitions,
  /// which is what makes the structure the slowest of the portfolio.
  uint32_t aasp_partitions = 8;
  /// Upper bound on tree nodes across all partitions (memory budget knob).
  uint32_t aasp_max_nodes = 4096;
  /// KMV synopsis size for distinct-keyword estimation.
  uint32_t aasp_kmv_size = 256;
  /// Tracked keyword counters per tree node (local correlations).
  uint32_t aasp_node_keywords = 4;
  /// Tracked keyword counters at the root (global keyword statistics).
  uint32_t aasp_root_keywords = 1024;

  // --- FFN ---
  uint32_t ffn_hidden_units = 16;
  double ffn_learning_rate = 0.3;  // Paper's WEKA configuration.
  double ffn_momentum = 0.2;
  /// Replay-buffer capacity for periodic refresh epochs.
  uint32_t ffn_replay_capacity = 2048;
  /// Hashed keyword-popularity buckets feeding the FFN's keyword feature
  /// (deliberately coarse: collisions blur rare keywords).
  uint32_t ffn_keyword_buckets = 256;

  // --- CMS (portfolio extension) ---
  /// Coarse spatial grid cells backing the sketch's spatial counts.
  uint32_t cms_grid_cells = 1024;
  /// Count-Min sketch rows.
  uint32_t cms_depth = 4;
  /// Count-Min counters per row (the pair sketch uses 4x this width).
  uint32_t cms_width = 2048;

  // --- SPN ---
  uint32_t spn_clusters = 8;
  uint32_t spn_bins_per_dim = 32;
  uint32_t spn_keyword_buckets = 128;
  /// Sample buffer (per window) used to periodically refit cluster centers.
  uint32_t spn_sample_capacity = 4096;

  util::Status Validate() const;
};

/// A selectivity estimator over the sliding window.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Which portfolio member this is.
  virtual EstimatorKind kind() const = 0;

  /// Absorbs one stream object into the current window slice.
  virtual void Insert(const stream::GeoTextObject& obj) = 0;

  /// Absorbs `n` same-slice objects at once. Equivalent to n Insert
  /// calls (the default is exactly that loop); estimators with columnar
  /// state override to amortize per-object work over SIMD kernels. All
  /// objects must belong to the current slice — the caller rotates
  /// slices between batches, never inside one.
  virtual void InsertBatch(const stream::GeoTextObject* objs, size_t n) {
    for (size_t i = 0; i < n; ++i) Insert(objs[i]);
  }

  /// Drops the oldest window slice and opens a new one. Called by the
  /// owner whenever event time crosses a slice boundary.
  virtual void OnSliceRotate() = 0;

  /// Estimated RC-DVQ selectivity of q over the data this estimator has
  /// seen. Never negative.
  virtual double Estimate(const stream::Query& q) const = 0;

  /// Ground-truth feedback from the system log after the query executed on
  /// actual data. Workload-driven estimators (FFN) learn from this; others
  /// ignore it.
  virtual void OnFeedback(const stream::Query& q, double estimate,
                          uint64_t actual);

  /// Approximate heap footprint in bytes, for the memory-budget study.
  virtual size_t MemoryBytes() const = 0;

  /// Objects currently inside this estimator's window view.
  virtual uint64_t seen_population() const = 0;

  /// Persists the complete window state (synopses, samples, weights, RNG
  /// streams) so a restored instance continues bit-identically.
  virtual void SaveState(util::BinaryWriter* writer) const = 0;

  /// Restores a state persisted by SaveState on an identically configured
  /// instance. False on shape mismatch or truncation; the instance is then
  /// partly restored, so discard it.
  virtual bool LoadState(util::BinaryReader* reader) = 0;
};

/// Creates an estimator of the given kind. Returns InvalidArgument if the
/// configuration fails validation.
util::Result<std::unique_ptr<Estimator>> CreateEstimator(
    EstimatorKind kind, const EstimatorConfig& config);

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_ESTIMATOR_H_

// Shared window-population bookkeeping for estimator implementations.

#ifndef LATEST_ESTIMATORS_WINDOWED_ESTIMATOR_BASE_H_
#define LATEST_ESTIMATORS_WINDOWED_ESTIMATOR_BASE_H_

#include "estimators/estimator.h"

namespace latest::estimators {

/// Base class that tracks the per-slice population an estimator has seen,
/// so seen_population() is uniform across implementations. Subclasses
/// override the *Impl hooks.
class WindowedEstimatorBase : public Estimator {
 public:
  void Insert(const stream::GeoTextObject& obj) final {
    InsertImpl(obj);
    population_.Add();
  }

  void InsertBatch(const stream::GeoTextObject* objs, size_t n) final {
    InsertBatchImpl(objs, n);
    for (size_t i = 0; i < n; ++i) population_.Add();
  }

  void OnSliceRotate() final {
    RotateImpl();  // Runs first so the hook can inspect the expiring slice.
    population_.Rotate();
  }

  uint64_t seen_population() const final { return population_.total(); }

  void SaveState(util::BinaryWriter* writer) const final {
    population_.Save(writer);
    SaveStateImpl(writer);
  }

  bool LoadState(util::BinaryReader* reader) final {
    return population_.Load(reader) && LoadStateImpl(reader);
  }

 protected:
  explicit WindowedEstimatorBase(uint32_t num_slices)
      : population_(num_slices) {}

  /// Absorbs one object into subclass state.
  virtual void InsertImpl(const stream::GeoTextObject& obj) = 0;

  /// Absorbs a same-slice batch; must leave the same state as n
  /// InsertImpl calls. Override to vectorize.
  virtual void InsertBatchImpl(const stream::GeoTextObject* objs, size_t n) {
    for (size_t i = 0; i < n; ++i) InsertImpl(objs[i]);
  }

  /// Expires the oldest slice of subclass state.
  virtual void RotateImpl() = 0;

  /// Persists subclass state (the shared population is already written).
  virtual void SaveStateImpl(util::BinaryWriter* writer) const = 0;

  /// Restores subclass state; false on mismatch or truncation.
  virtual bool LoadStateImpl(util::BinaryReader* reader) = 0;

  const stream::WindowPopulation& population() const { return population_; }

 private:
  stream::WindowPopulation population_;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_WINDOWED_ESTIMATOR_BASE_H_

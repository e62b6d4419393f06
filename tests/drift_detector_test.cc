// Drift detection: Page-Hinkley, at the shipped constants, must flag
// abrupt steps and slow ramps within a bounded number of samples and stay
// silent on stationary series (zero false positives over long runs), and
// the DriftMonitor multiplexer must coalesce detections inside the
// cooldown, emit kDriftDetected events, and decay its active gauges once
// the series is stable again.

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "obs/drift_detector.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace latest::obs {
namespace {

/// Deterministic noisy sample around `center` (uniform +/- `amplitude`).
double Noisy(util::Rng* rng, double center, double amplitude = 0.05) {
  return center + rng->NextDouble(-amplitude, amplitude);
}

// ---------------------------------------------------------------------
// Page-Hinkley
// ---------------------------------------------------------------------

TEST(PageHinkleyTest, DetectsStepWithinBoundedSamples) {
  PageHinkley ph;
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(ph.Update(Noisy(&rng, 0.2))) << "false positive at " << i;
  }
  // Mean steps 0.2 -> 0.6; the cumulative deviation must cross lambda
  // within a bounded number of post-step samples.
  int detected_after = -1;
  for (int i = 0; i < 50; ++i) {
    if (ph.Update(Noisy(&rng, 0.6))) {
      detected_after = i;
      break;
    }
  }
  ASSERT_GE(detected_after, 0) << "step never detected";
  EXPECT_LE(detected_after, 10);
}

TEST(PageHinkleyTest, StationarySeriesNeverFires) {
  PageHinkley ph;
  util::Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_FALSE(ph.Update(Noisy(&rng, 0.5))) << "false positive at " << i;
  }
}

TEST(PageHinkleyTest, HoldsFireBeforeMinSamples) {
  PageHinkley ph;
  // A huge step immediately: nothing may fire until the detector has
  // seen its minimum sample count (30).
  for (int i = 0; i < 29; ++i) {
    EXPECT_FALSE(ph.Update(i < 5 ? 0.0 : 10.0));
  }
}

TEST(PageHinkleyTest, DetectsSlowRamp) {
  PageHinkley ph;
  util::Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(ph.Update(Noisy(&rng, 0.2))) << "false positive at " << i;
  }
  // 0.2 -> 0.8 over 300 samples: no single step exceeds the noise, but
  // the rise outpaces the slack, so the cumulative deviation crosses the
  // threshold early in the ramp.
  int detected_after = -1;
  for (int i = 0; i < 300; ++i) {
    const double level = 0.2 + 0.6 * static_cast<double>(i) / 300.0;
    if (ph.Update(Noisy(&rng, level))) {
      detected_after = i;
      break;
    }
  }
  ASSERT_GE(detected_after, 0) << "ramp never detected";
  EXPECT_LE(detected_after, 60);
}

TEST(PageHinkleyTest, ResetRearms) {
  PageHinkley ph;
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) ph.Update(Noisy(&rng, 0.1));
  bool fired = false;
  for (int i = 0; i < 50 && !fired; ++i) fired = ph.Update(Noisy(&rng, 0.7));
  ASSERT_TRUE(fired);
  ph.Reset();
  EXPECT_EQ(ph.samples(), 0u);
  // Post-reset the new level is the baseline; staying there is clean.
  for (int i = 0; i < 500; ++i) {
    ASSERT_FALSE(ph.Update(Noisy(&rng, 0.7)));
  }
}

// ---------------------------------------------------------------------
// DriftMonitor
// ---------------------------------------------------------------------

TEST(DriftMonitorTest, StepEmitsEventAndMetrics) {
  MetricsRegistry registry;
  EventLog events(64);
  DriftMonitor monitor;
  monitor.AttachMetrics(&registry);
  monitor.AttachEventLog(&events);
  const DriftMonitor::SeriesId err = monitor.AddSeries("err");

  util::Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(monitor.Observe(err, Noisy(&rng, 0.1), /*timestamp=*/i));
  }
  bool fired = false;
  int64_t now = 200;
  for (int i = 0; i < 64 && !fired; ++i, ++now) {
    fired = monitor.Observe(err, Noisy(&rng, 0.7), now, /*query_count=*/
                            static_cast<uint64_t>(now));
  }
  ASSERT_TRUE(fired);
  EXPECT_EQ(monitor.detections("err"), 1u);
  EXPECT_EQ(monitor.active_series(), 1u);

  const std::vector<Event> drift =
      events.SnapshotOfType(EventType::kDriftDetected);
  ASSERT_EQ(drift.size(), 1u);
  // The note names the series.
  EXPECT_EQ(drift[0].note, "err");

  const Counter* detections = registry.FindCounter(
      "latest_drift_detections_total", {{"series", "err"}});
  ASSERT_NE(detections, nullptr);
  EXPECT_EQ(detections->value(), 1u);
  const Gauge* active =
      registry.FindGauge("latest_drift_active", {{"series", "err"}});
  ASSERT_NE(active, nullptr);
  EXPECT_DOUBLE_EQ(active->value(), 1.0);

  const std::vector<DriftDetection> drained = monitor.Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].series, "err");
  EXPECT_TRUE(monitor.Drain().empty());
}

TEST(DriftMonitorTest, CooldownCoalescesAndDecays) {
  MetricsRegistry registry;
  EventLog events(64);
  DriftMonitor monitor;
  monitor.AttachMetrics(&registry);
  monitor.AttachEventLog(&events);
  const DriftMonitor::SeriesId s = monitor.AddSeries("s");

  util::Rng rng(43);
  for (int i = 0; i < 200; ++i) monitor.Observe(s, Noisy(&rng, 0.1));
  bool fired = false;
  for (int i = 0; i < 64 && !fired; ++i) {
    fired = monitor.Observe(s, Noisy(&rng, 0.8));
  }
  ASSERT_TRUE(fired);
  // The shift persists: further samples at the new level are coalesced
  // into the same episode, not new detections.
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(monitor.Observe(s, Noisy(&rng, 0.8)));
  }
  EXPECT_EQ(monitor.detections("s"), 1u);
  EXPECT_EQ(events.SnapshotOfType(EventType::kDriftDetected).size(), 1u);
  EXPECT_EQ(monitor.active_series(), 1u);

  // Once the detector stops firing, the cooldown drains and the series
  // re-arms: the active gauge self-recovers without manual reset.
  for (int i = 0; i < 200 && monitor.active_series() != 0; ++i) {
    monitor.Observe(s, Noisy(&rng, 0.8));
  }
  EXPECT_EQ(monitor.active_series(), 0u);
  const Gauge* active_total = registry.FindGauge("latest_drift_active_series");
  ASSERT_NE(active_total, nullptr);
  EXPECT_DOUBLE_EQ(active_total->value(), 0.0);
}

TEST(DriftMonitorTest, SeriesAreIndependent) {
  DriftMonitor monitor;
  const DriftMonitor::SeriesId stable = monitor.AddSeries("stable");
  const DriftMonitor::SeriesId shifting = monitor.AddSeries("shifting");
  EXPECT_EQ(monitor.AddSeries("stable"), stable);  // Idempotent.
  util::Rng rng(47);
  for (int i = 0; i < 200; ++i) {
    monitor.Observe(stable, Noisy(&rng, 0.5));
    monitor.Observe(shifting, Noisy(&rng, 0.1));
  }
  bool fired = false;
  for (int i = 0; i < 64 && !fired; ++i) {
    monitor.Observe(stable, Noisy(&rng, 0.5));
    fired = monitor.Observe(shifting, Noisy(&rng, 0.9));
  }
  ASSERT_TRUE(fired);
  EXPECT_EQ(monitor.detections("shifting"), 1u);
  EXPECT_EQ(monitor.detections("stable"), 0u);
}

TEST(DriftMonitorTest, StationaryNeverFiresAcrossSeries) {
  MetricsRegistry registry;
  DriftMonitor monitor;
  monitor.AttachMetrics(&registry);
  const DriftMonitor::SeriesId a = monitor.AddSeries("a");
  const DriftMonitor::SeriesId b = monitor.AddSeries("b");
  util::Rng rng(53);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_FALSE(monitor.Observe(a, Noisy(&rng, 0.3)));
    ASSERT_FALSE(monitor.Observe(b, Noisy(&rng, 0.6, 0.02)));
  }
  EXPECT_EQ(monitor.detections("a"), 0u);
  EXPECT_EQ(monitor.detections("b"), 0u);
  EXPECT_EQ(monitor.active_series(), 0u);
}

// ---------------------------------------------------------------------
// Scenario-driven detection-delay bounds
//
// The adversarial scenario library (src/workload/scenario.h) generates
// the same per-slice ingest-feature series the module observer folds
// into its drift monitor (core/module_observer.cc slice rotation):
// vocabulary churn = new/distinct keywords per sealed slice ("new" =
// absent from the whole preceding window) and centroid displacement
// against a slowly-following EWMA centroid. Replaying those series here
// pins the detector configuration end to end: each injected drift must
// be detected within a bounded number of slices of its onset, and
// series the scenario does not touch must stay silent.
// ---------------------------------------------------------------------

struct SliceDetections {
  /// Slice indices (100 ms event-time slices) of non-coalesced
  /// detections, per series.
  std::vector<int64_t> vocab;
  std::vector<int64_t> centroid;
  int64_t slices = 0;
};

/// Replays a scenario's object stream through the module's ingest
/// feature extraction and a default drift monitor: the detector every
/// entry point runs.
SliceDetections ReplayIngestFeatures(const workload::ScenarioSpec& spec) {
  // The smoke window: 1000 ms over 10 slices.
  constexpr int64_t kSliceMs = 100;
  constexpr uint64_t kNumSlices = 10;

  DriftMonitor monitor;
  const DriftMonitor::SeriesId vocab_series =
      monitor.AddSeries("ingest_vocab_churn");
  const DriftMonitor::SeriesId centroid_series =
      monitor.AddSeries("ingest_centroid");

  workload::ScenarioStream stream(spec);
  std::unordered_map<stream::KeywordId, uint64_t> vocab_last_slice;
  int64_t current_slice = 0;
  uint64_t slice_index = 0;
  uint64_t distinct = 0, fresh = 0, objects = 0;
  double sum_x = 0.0, sum_y = 0.0;
  double centroid_x = 0.0, centroid_y = 0.0;
  bool centroid_initialized = false;

  const auto seal_slices_until = [&](int64_t target_slice) {
    while (current_slice < target_slice) {
      if (objects > 0) {
        const double churn =
            distinct > 0
                ? static_cast<double>(fresh) / static_cast<double>(distinct)
                : 0.0;
        monitor.Observe(vocab_series, churn, current_slice);
        const double cx = sum_x / static_cast<double>(objects);
        const double cy = sum_y / static_cast<double>(objects);
        if (!centroid_initialized) {
          centroid_x = cx;
          centroid_y = cy;
          centroid_initialized = true;
        }
        const double dx = (cx - centroid_x) / spec.bounds.Width();
        const double dy = (cy - centroid_y) / spec.bounds.Height();
        monitor.Observe(centroid_series, std::sqrt(dx * dx + dy * dy),
                        current_slice);
        centroid_x += 0.2 * (cx - centroid_x);
        centroid_y += 0.2 * (cy - centroid_y);
      }
      distinct = fresh = objects = 0;
      sum_x = sum_y = 0.0;
      ++slice_index;
      ++current_slice;
    }
  };

  while (stream.HasNext()) {
    const workload::ScenarioEvent event = stream.Next();
    if (event.is_query) continue;
    seal_slices_until(event.object.timestamp / kSliceMs);
    for (const stream::KeywordId kw : event.object.keywords) {
      auto [it, inserted] = vocab_last_slice.try_emplace(kw, slice_index);
      if (inserted) {
        ++distinct;
        ++fresh;
      } else if (it->second != slice_index) {
        ++distinct;
        if (it->second + kNumSlices < slice_index) ++fresh;
        it->second = slice_index;
      }
    }
    sum_x += event.object.loc.x;
    sum_y += event.object.loc.y;
    ++objects;
  }
  seal_slices_until(current_slice + 1);  // Seal the final open slice.

  SliceDetections result;
  result.slices = current_slice;
  for (const DriftDetection& detection : monitor.Drain()) {
    if (detection.series == "ingest_vocab_churn") {
      result.vocab.push_back(detection.timestamp);
    } else if (detection.series == "ingest_centroid") {
      result.centroid.push_back(detection.timestamp);
    }
  }
  return result;
}

struct ScenarioDetectionCase {
  std::string scenario;
  /// Which ingest series must fire ("vocab", "centroid", or "" = none).
  std::string expect_series;
  /// Detection must land within this many slices of the injection onset.
  int64_t max_delay_slices = 0;
  /// Series that must stay completely silent.
  std::vector<std::string> silent_series;
};

class ScenarioDriftDetectionTest
    : public ::testing::TestWithParam<ScenarioDetectionCase> {};

TEST_P(ScenarioDriftDetectionTest, DetectsWithinSliceBoundOfOnset) {
  const ScenarioDetectionCase& test_case = GetParam();
  const auto entry = workload::MakeScenario(test_case.scenario);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  const SliceDetections detections = ReplayIngestFeatures(entry->spec);

  const auto slices_of = [&](const std::string& series) {
    return series == "vocab" ? detections.vocab : detections.centroid;
  };

  if (!test_case.expect_series.empty()) {
    // The matching injection's onset, in slices.
    int64_t onset_slice = -1;
    const std::string kind =
        test_case.expect_series == "vocab" ? "vocab" : "spatial";
    for (const workload::DriftInjection& injection :
         workload::InjectionsOf(entry->spec)) {
      if (injection.kind == kind) onset_slice = injection.onset_ms / 100;
    }
    ASSERT_GE(onset_slice, 0) << "scenario has no " << kind << " injection";

    const std::vector<int64_t> fired = slices_of(test_case.expect_series);
    ASSERT_FALSE(fired.empty())
        << test_case.scenario << ": " << test_case.expect_series
        << " series never fired over " << detections.slices << " slices";
    EXPECT_GE(fired.front(), onset_slice)
        << test_case.scenario << ": detection before the injection onset "
        << "is a false positive";
    EXPECT_LE(fired.front(), onset_slice + test_case.max_delay_slices)
        << test_case.scenario << ": first detection too late";
  }
  for (const std::string& series : test_case.silent_series) {
    EXPECT_TRUE(slices_of(series).empty())
        << test_case.scenario << ": untouched series " << series
        << " fired at slice " << slices_of(series).front();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ScenarioDriftDetectionTest,
    ::testing::Values(
        // Stationary stream: both ingest series must stay silent over the
        // whole run (false-positive floor).
        ScenarioDetectionCase{"baseline", "", 0, {"vocab", "centroid"}},
        // Abrupt combined flip: both series fire promptly.
        ScenarioDetectionCase{"flip", "vocab", 5, {}},
        ScenarioDetectionCase{"flip", "centroid", 5, {}},
        // Spatial-only jump: the centroid fires, the vocabulary must not.
        ScenarioDetectionCase{"flash_crowd", "centroid", 5, {"vocab"}},
        // Gradual vocabulary churn: detectable within the ramp, spatial
        // silent.
        ScenarioDetectionCase{"vocab_churn", "vocab", 10, {"centroid"}},
        // Slow centroid ramp: PH accumulates over the drift window, so
        // the bound spans most of it; vocabulary silent.
        ScenarioDetectionCase{"centroid_drift", "centroid", 30, {"vocab"}}),
    [](const auto& info) {
      return info.param.scenario +
             (info.param.expect_series.empty() ? std::string("_silent")
                                               : "_" + info.param.expect_series);
    });

}  // namespace
}  // namespace latest::obs

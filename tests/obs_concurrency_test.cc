// Concurrency stress for the observability primitives: writer threads
// hammer counters, histograms, and the event log while a reader
// concurrently scrapes the exposition formats. Totals must come out
// exact (no lost updates) and nothing may tear or crash. Run under
// ThreadSanitizer in CI — the assertions here catch lost updates, TSan
// catches the races assertions cannot see.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "obs/metrics_registry.h"

namespace latest::obs {
namespace {

constexpr int kWriters = 8;
constexpr int kOpsPerWriter = 5000;

TEST(ObsConcurrencyTest, CountersAndHistogramsUnderConcurrentWriters) {
  MetricsRegistry registry;
  // Half the writers share one instance, half get a per-writer label —
  // exercising both contended updates and concurrent registration.
  Counter* shared_counter = registry.GetCounter(
      "latest_test_ops_total", "stress ops", {{"writer", "shared"}});
  Histogram* shared_histogram = registry.GetHistogram(
      "latest_test_latency_ms", "stress latencies",
      Histogram::LatencyBucketsMs(), {{"writer", "shared"}});

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const std::string text = registry.PrometheusText();
      EXPECT_NE(text.find("latest_test_ops_total"), std::string::npos);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Counter* own = registry.GetCounter(
          "latest_test_ops_total", "stress ops",
          {{"writer", std::to_string(w)}});
      Histogram* units = registry.GetHistogram(
          "latest_test_units", "stress unit samples", {1.0});
      for (int i = 0; i < kOpsPerWriter; ++i) {
        shared_counter->Increment();
        own->Increment(2);
        units->Observe(1.0);
        shared_histogram->Observe(0.001 * (i % 100));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(shared_counter->value(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(shared_histogram->count(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    Counter* own = registry.GetCounter("latest_test_ops_total", "stress ops",
                                       {{"writer", std::to_string(w)}});
    EXPECT_EQ(own->value(), 2u * kOpsPerWriter);
  }
  // The contended double sum (AtomicAddDouble's CAS loop) loses nothing.
  const Histogram* units = registry.FindHistogram("latest_test_units");
  ASSERT_NE(units, nullptr);
  EXPECT_DOUBLE_EQ(units->sum(),
                   static_cast<double>(kWriters) * kOpsPerWriter);
  // Per-bucket counts must sum to the total observation count.
  uint64_t bucket_sum = 0;
  for (size_t i = 0; i <= shared_histogram->upper_bounds().size(); ++i) {
    bucket_sum += shared_histogram->bucket_count(i);
  }
  EXPECT_EQ(bucket_sum, shared_histogram->count());
}

TEST(ObsConcurrencyTest, EventLogUnderConcurrentAppendersAndSnapshots) {
  // Capacity below the total append volume so the ring wraps while being
  // snapshotted.
  EventLog log(256);
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const std::vector<Event> events = log.Snapshot();
      EXPECT_LE(events.size(), log.capacity());
      for (const Event& e : events) {
        // Writer w stamps query_count == detail; a torn Event would
        // break the invariant.
        EXPECT_EQ(static_cast<double>(e.query_count), e.detail);
      }
      const std::string rendered = FormatEventLog(log);
      EXPECT_LE(rendered.size(), 1u << 20);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        Event event;
        event.type = EventType::kSwitched;
        event.timestamp = w;
        event.query_count = static_cast<uint64_t>(i);
        event.detail = static_cast<double>(i);
        log.Append(event);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(log.total_appended(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(log.size(), log.capacity());
}

}  // namespace
}  // namespace latest::obs

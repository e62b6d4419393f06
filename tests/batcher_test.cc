// Batcher unit tests: group-commit dispatch (an idle consumer is woken by
// the first admission and takes it alone; work admitted while it is busy
// arrives as one in-order batch, split at max_batch queries), the
// clean-shutdown drain contract, and admission-time load shedding.

#include "net/batcher.h"

#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace latest::net {
namespace {

AdmittedEvent Ingest(uint64_t request_id) {
  AdmittedEvent event;
  event.kind = AdmittedEvent::Kind::kIngest;
  event.request_id = request_id;
  return event;
}

AdmittedEvent Query(uint64_t request_id) {
  AdmittedEvent event;
  event.kind = AdmittedEvent::Kind::kQuery;
  event.request_id = request_id;
  return event;
}

AdmitResult AdmitOne(Batcher* batcher, AdmittedEvent event,
                     bool degraded = false) {
  uint32_t backoff_ms = 0;
  return batcher->Admit(std::move(event), degraded, &backoff_ms);
}

std::vector<uint64_t> RequestIds(const std::vector<AdmittedEvent>& batch) {
  std::vector<uint64_t> ids;
  for (const AdmittedEvent& event : batch) ids.push_back(event.request_id);
  return ids;
}

TEST(BatcherTest, IdleConsumerIsWokenByOneAdmitAndTakesItAlone) {
  Batcher batcher(BatcherConfig{});
  std::promise<void> consumer_started;
  std::future<std::vector<AdmittedEvent>> taken =
      std::async(std::launch::async, [&] {
        consumer_started.set_value();
        std::vector<AdmittedEvent> batch;
        EXPECT_TRUE(batcher.WaitForBatch(&batch));
        return batch;
      });
  consumer_started.get_future().wait();
  // Give the consumer time to block on the empty queue. The assertions
  // below hold either way; the pause only makes the wakeup path the one
  // that runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(AdmitOne(&batcher, Query(7)), AdmitResult::kAdmitted);

  // No timer, no second admission and no Stop: the one Admit alone must
  // release the consumer.
  const bool woken = taken.wait_for(std::chrono::seconds(10)) ==
                     std::future_status::ready;
  if (!woken) batcher.Stop();  // Fail the test rather than hang it.
  ASSERT_TRUE(woken);
  const std::vector<AdmittedEvent> batch = taken.get();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request_id, 7u);
  EXPECT_GT(batch[0].admit_micros, 0);
  EXPECT_GE(batch[0].dequeue_micros, batch[0].admit_micros);
  EXPECT_EQ(batcher.query_depth(), 0u);
}

TEST(BatcherTest, WorkQueuedWhileBusyArrivesInOrderSplitAtMaxBatch) {
  BatcherConfig config;
  config.max_batch = 4;
  Batcher batcher(config);
  // The consumer is away (busy with an earlier batch) while these land.
  const std::vector<AdmittedEvent> admitted = {
      Ingest(1), Query(2), Query(3), Ingest(4), Query(5),
      Query(6),  Query(7), Ingest(8), Query(9)};
  for (const AdmittedEvent& event : admitted) {
    ASSERT_EQ(AdmitOne(&batcher, event), AdmitResult::kAdmitted);
  }
  EXPECT_EQ(batcher.ingest_depth(), 3u);
  EXPECT_EQ(batcher.query_depth(), 6u);

  // The first batch is the longest prefix holding max_batch queries.
  std::vector<AdmittedEvent> batch;
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  EXPECT_EQ(RequestIds(batch), (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(batcher.query_depth(), 2u);
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  EXPECT_EQ(RequestIds(batch), (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_EQ(batcher.ingest_depth(), 0u);
  EXPECT_EQ(batcher.query_depth(), 0u);
}

TEST(BatcherTest, StopDrainsQueuedWorkThenReturnsFalse) {
  Batcher batcher(BatcherConfig{});
  ASSERT_EQ(AdmitOne(&batcher, Ingest(1)), AdmitResult::kAdmitted);
  ASSERT_EQ(AdmitOne(&batcher, Query(2)), AdmitResult::kAdmitted);
  ASSERT_EQ(AdmitOne(&batcher, Ingest(3)), AdmitResult::kAdmitted);
  batcher.Stop();

  // Admissions after Stop shed, whatever the queue depth.
  EXPECT_EQ(AdmitOne(&batcher, Ingest(4)), AdmitResult::kShedIngest);
  EXPECT_EQ(AdmitOne(&batcher, Query(5)), AdmitResult::kShedQuery);

  std::vector<AdmittedEvent> batch;
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  EXPECT_EQ(RequestIds(batch), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(batcher.WaitForBatch(&batch));
  EXPECT_TRUE(batch.empty());
}

TEST(BatcherTest, StopWakesAnIdleConsumer) {
  Batcher batcher(BatcherConfig{});
  std::future<bool> result = std::async(std::launch::async, [&] {
    std::vector<AdmittedEvent> batch;
    return batcher.WaitForBatch(&batch);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  batcher.Stop();
  ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(result.get());
}

TEST(BatcherTest, QueriesShedBeforeIngestsAtTheirCaps) {
  BatcherConfig config;
  config.max_query_queue = 2;
  config.max_ingest_queue = 4;
  Batcher batcher(config);
  EXPECT_EQ(AdmitOne(&batcher, Query(1)), AdmitResult::kAdmitted);
  EXPECT_EQ(AdmitOne(&batcher, Query(2)), AdmitResult::kAdmitted);
  EXPECT_EQ(AdmitOne(&batcher, Query(3)), AdmitResult::kShedQuery);
  // The query queue is full, yet ingest keeps landing up to its own cap.
  for (uint64_t id = 10; id < 14; ++id) {
    EXPECT_EQ(AdmitOne(&batcher, Ingest(id)), AdmitResult::kAdmitted);
  }
  EXPECT_EQ(AdmitOne(&batcher, Ingest(14)), AdmitResult::kShedIngest);
  EXPECT_EQ(batcher.query_depth(), 2u);
  EXPECT_EQ(batcher.ingest_depth(), 4u);

  // Shed events never reach a batch.
  std::vector<AdmittedEvent> batch;
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  EXPECT_EQ(RequestIds(batch),
            (std::vector<uint64_t>{1, 2, 10, 11, 12, 13}));
}

TEST(BatcherTest, DegradedDivisorShrinksQueryCapacity) {
  BatcherConfig config;
  config.max_query_queue = 8;
  config.degraded_divisor = 4;
  Batcher batcher(config);
  EXPECT_EQ(AdmitOne(&batcher, Query(1), /*degraded=*/true),
            AdmitResult::kAdmitted);
  EXPECT_EQ(AdmitOne(&batcher, Query(2), /*degraded=*/true),
            AdmitResult::kAdmitted);
  // Degraded capacity is 8 / 4 = 2 ...
  EXPECT_EQ(AdmitOne(&batcher, Query(3), /*degraded=*/true),
            AdmitResult::kShedQuery);
  // ... while a healthy module still admits up to the full 8.
  for (uint64_t id = 4; id < 10; ++id) {
    EXPECT_EQ(AdmitOne(&batcher, Query(id)), AdmitResult::kAdmitted);
  }
  EXPECT_EQ(AdmitOne(&batcher, Query(10)), AdmitResult::kShedQuery);
  // Ingest capacity does not shrink with degradation.
  EXPECT_EQ(AdmitOne(&batcher, Ingest(11), /*degraded=*/true),
            AdmitResult::kAdmitted);
}

TEST(BatcherTest, BackoffHintGrowsWithQueuePressure) {
  constexpr uint32_t kCapacity = 16;
  // Shed hint for one query refused at `depth` queued queries (Stop
  // makes every admission shed, whatever the depth).
  const auto hint_at = [](uint32_t depth) {
    BatcherConfig config;
    config.max_query_queue = kCapacity;
    Batcher batcher(config);
    for (uint32_t i = 0; i < depth; ++i) {
      EXPECT_EQ(AdmitOne(&batcher, Query(i)), AdmitResult::kAdmitted);
    }
    if (depth < kCapacity) batcher.Stop();
    uint32_t backoff_ms = 0;
    EXPECT_EQ(batcher.Admit(Query(depth), false, &backoff_ms),
              AdmitResult::kShedQuery);
    return backoff_ms;
  };
  const uint32_t empty = hint_at(0);
  const uint32_t half = hint_at(kCapacity / 2);
  const uint32_t full = hint_at(kCapacity);
  EXPECT_GT(empty, 0u);
  EXPECT_LT(empty, half);
  EXPECT_LT(half, full);
}

}  // namespace
}  // namespace latest::net

// Direct unit tests for the serving layer's bounded MPMC queue
// (src/serve/queue.h): capacity/FIFO contracts, non-blocking tryPush (the
// load shedder's primitive), close-and-drain semantics, waking blocked
// producers and consumers on close, move-only payloads, and exactly-once
// delivery under concurrent producers and consumers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/serve/queue.h"

namespace parad {
namespace {

TEST(BoundedQueue, FifoWithinCapacity) {
  serve::BoundedQueue<int> q(4);
  EXPECT_EQ(q.size(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.pop().value(), i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushShedsAtCapacityAndAfterClose) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.tryPush(1));
  EXPECT_TRUE(q.tryPush(2));
  // Full: tryPush refuses immediately instead of blocking the producer —
  // exactly the semantics the service's Overload shedder relies on.
  EXPECT_FALSE(q.tryPush(3));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.tryPush(3));  // room again
  q.close();
  EXPECT_FALSE(q.tryPush(4));  // closed queues shed even with room
  EXPECT_FALSE(q.push(5));     // and refuse blocking pushes too
  // Items enqueued before close still drain in order.
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndConsumer) {
  serve::BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> producerRejected{false};
  std::atomic<bool> consumerDrained{false};
  // The producer blocks on a full queue; the consumer drains item 1, then
  // blocks on... whichever of {item 2, close} arrives. Close must unwedge
  // both without stranding the already-queued item.
  std::thread producer([&] {
    bool pushed = q.push(2);  // blocks until close (or a pop making room)
    if (!pushed) producerRejected.store(true);
  });
  std::thread consumer([&] {
    EXPECT_EQ(q.pop().value(), 1);
    while (q.pop().has_value()) {
    }
    consumerDrained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  consumer.join();
  EXPECT_TRUE(consumerDrained.load());
  // The producer either slipped item 2 in before close (consumer popped it)
  // or was rejected by the close — never left blocked.
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueue, PopForTimesOutWithQueueStillOpen) {
  serve::BoundedQueue<int> q(1);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.popFor(std::chrono::milliseconds(5)), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(4));
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.push(1));  // still fully functional
  EXPECT_EQ(q.popFor(std::chrono::milliseconds(5)).value(), 1);
}

TEST(BoundedQueue, MoveOnlyPayloads) {
  serve::BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.push(std::make_unique<int>(1)));
  EXPECT_TRUE(q.tryPush(std::make_unique<int>(2)));
  // A refused item stays with its owner: the service answers a shed job
  // through that job's own promise.
  auto shed = std::make_unique<int>(3);
  EXPECT_FALSE(q.tryPush(std::move(shed)));
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(*shed, 3);
  EXPECT_EQ(*q.pop().value(), 1);
}

TEST(BoundedQueue, ConcurrentProducersConsumersDeliverExactlyOnce) {
  // Small capacity so producers hit backpressure constantly; every pushed
  // item must be popped exactly once across all consumers.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  serve::BoundedQueue<int> q(8);

  std::vector<std::atomic<int>> seen(
      static_cast<std::size_t>(kProducers * kPerProducer));
  for (auto& s : seen) s.store(0);
  std::atomic<int> shed{0};

  std::vector<std::thread> producers, consumers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        // Mix blocking and non-blocking pushes like the real pipeline does;
        // a shed tryPush retries as a blocking push so nothing is lost.
        if (i % 3 == 0 && q.tryPush(int{v})) continue;
        if (i % 3 == 0) shed.fetch_add(1);
        ASSERT_TRUE(q.push(v));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (std::optional<int> v = q.pop())
        seen[static_cast<std::size_t>(*v)].fetch_add(1);
    });
  }
  for (std::thread& t : producers) t.join();
  q.close();
  for (std::thread& t : consumers) t.join();

  for (std::size_t i = 0; i < seen.size(); ++i)
    ASSERT_EQ(seen[i].load(), 1) << "item " << i;
  // With capacity 8 and 2000 racing pushes, at least one tryPush must have
  // observed a full queue (sanity that the race actually happened).
  EXPECT_GT(shed.load(), 0);
}

}  // namespace
}  // namespace parad

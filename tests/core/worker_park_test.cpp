// The spin -> park worker protocol under adversarial pacing: a bursty
// router against a tiny ring, workers configured to park almost
// immediately, and epoch markers injected while workers are asleep. The
// properties pinned here are liveness (no missed wakeup ever deadlocks
// the session — the tests would hang), conservation (every fed packet
// lands in exactly one epoch), and monotonicity of the progress
// counters. Run under TSan in CI (ShardScaling|WorkerPark).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/random.hpp"
#include "core/caesar_sketch.hpp"
#include "core/sharded_caesar.hpp"

namespace caesar::core {
namespace {

CaesarConfig cfg() {
  CaesarConfig c;
  c.cache_entries = 256;
  c.entry_capacity = 8;
  c.num_counters = 4096;
  c.counter_bits = 20;
  c.seed = 7;
  return c;
}

std::vector<FlowId> make_trace(std::size_t packets, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<FlowId> trace(packets);
  for (auto& f : trace) f = rng.below(500);
  return trace;
}

TEST(WorkerPark, SlowConsumerConservesEveryPacket) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kBursts = 20;
  constexpr std::size_t kBurst = 1'000;
  ShardedCaesar pipeline(cfg(), kShards);
  LiveOptions options;
  options.threads = 2;        // real concurrency even on small hosts
  options.ring_capacity = 64; // tiny: the router stalls against workers
  options.pacing.spin_iters = 1;  // park almost immediately
  pipeline.start_live(options);

  const auto trace = make_trace(kBursts * kBurst, 99);
  std::vector<std::uint64_t> epochs;
  std::uint64_t last_batches = 0;
  for (std::size_t b = 0; b < kBursts; ++b) {
    pipeline.feed(std::span<const FlowId>(trace).subspan(b * kBurst, kBurst));
    if (b % 4 == 3) {
      epochs.push_back(pipeline.rotate_live());
      // Quiesce the session the way the exporters do: wait_epoch() with
      // no feed() since the marker means every worker has drained past
      // it and gone idle, so a collection here is race-free and the
      // progress counters only ever grow across rotations.
      ASSERT_NE(pipeline.wait_epoch(epochs.back()), nullptr);
      metrics::MetricsSnapshot snap;
      pipeline.collect_metrics(snap);
      const std::uint64_t batches =
          snap.value("pipeline.worker_batches{backend=caesar}");
      EXPECT_GE(batches, last_batches);
      last_batches = batches;
      // A gap long enough for the workers to park, so the next burst
      // (and marker) hits sleeping workers.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  pipeline.stop_live();
  pipeline.flush();

  // Conservation: every fed packet is in exactly one closed epoch or in
  // the still-open one.
  Count in_epochs = 0;
  for (const std::uint64_t seq : epochs)
    in_epochs += pipeline.snapshot_epoch(seq)->packets();
  EXPECT_EQ(in_epochs + pipeline.packets(), trace.size());

  if (metrics::kEnabled) {
    metrics::MetricsSnapshot snap;
    pipeline.collect_metrics(snap);
    // spin_iters = 1 against multi-millisecond gaps: the workers parked.
    EXPECT_GT(snap.value("pipeline.worker_parks{backend=caesar}"), 0u);
    EXPECT_EQ(snap.value("pipeline.worker_parks{backend=caesar}"),
              snap.value("pipeline.worker_wakeups{backend=caesar}"));
    EXPECT_EQ(snap.value("live.packets_fed{backend=caesar}"),
              trace.size());
  }
}

// Epoch markers ride the same push + notify protocol as packets: a
// rotation against workers that are already parked (and a ring that may
// be full) must wake them rather than spin against a sleeping consumer.
// A livelock here hangs the test.
TEST(WorkerPark, MarkerInjectionWakesParkedWorkers) {
  ShardedCaesar pipeline(cfg(), 4);
  LiveOptions options;
  options.threads = 2;
  options.ring_capacity = 64;
  options.pacing.spin_iters = 1;
  pipeline.start_live(options);
  // Let every worker drain and park before each marker.
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t seq = pipeline.rotate_live();
    ASSERT_NE(pipeline.wait_epoch(seq), nullptr);
  }
  // And against a session that also carries traffic.
  const auto trace = make_trace(5'000, 3);
  pipeline.feed(trace);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t seq = pipeline.rotate_live();
  const auto snap = pipeline.wait_epoch(seq);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->packets(), trace.size());
  pipeline.stop_live();
}

// Stopping a worker set folds every ring's backpressure into
// shardN.pipeline.ring_backpressure; live.ring_backpressure counts the
// live rings alone. With only live traffic the two series agree.
TEST(WorkerPark, LiveBackpressureFoldsIntoPipelineSeries) {
  ShardedCaesar pipeline(cfg(), 4);
  LiveOptions options;
  options.threads = 2;
  options.ring_capacity = 64;  // below the staging length: pushes stall
  options.pacing.spin_iters = 1;
  pipeline.start_live(options);
  const auto trace = make_trace(20'000, 5);
  for (std::size_t b = 0; b < 20; ++b)
    pipeline.feed(std::span<const FlowId>(trace).subspan(b * 1'000, 1'000));
  pipeline.rotate_live();
  pipeline.stop_live();

  metrics::MetricsSnapshot snap;
  pipeline.collect_metrics(snap);
  if (snap.value("pipeline.router_stalls{backend=caesar}") > 0) {
    const std::uint64_t backpressure =
        snap.value("pipeline.ring_backpressure{backend=caesar}");
    EXPECT_GT(backpressure, 0u);
    EXPECT_EQ(backpressure,
              snap.value("live.ring_backpressure{backend=caesar}"));
  }
}

// Stopping a session whose workers are parked must not hang: the stop
// path notifies every eventcount after raising the done flag.
TEST(WorkerPark, StopWakesParkedWorkers) {
  ShardedCaesar pipeline(cfg(), 4);
  LiveOptions options;
  options.threads = 2;
  options.pacing.spin_iters = 1;
  pipeline.start_live(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  pipeline.stop_live();
  EXPECT_FALSE(pipeline.live());
}

}  // namespace
}  // namespace caesar::core

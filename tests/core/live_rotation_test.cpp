// Live epoch rotation: determinism against the stop-the-world baseline,
// concurrent queries during ingest, retention, and the chunked-flush
// building blocks. The determinism tests are the contract: a live
// session's published snapshots are bit-identical — every SRAM counter —
// to serial rotate() calls at the same packet boundaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/caesar_sketch.hpp"
#include "core/sharded_caesar.hpp"

namespace caesar::core {
namespace {

CaesarConfig cfg() {
  CaesarConfig c;
  c.cache_entries = 512;
  c.entry_capacity = 8;
  c.num_counters = 8192;
  c.counter_bits = 20;
  c.seed = 42;
  return c;
}

std::vector<FlowId> make_trace(std::size_t packets, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<FlowId> trace(packets);
  // Enough distinct flows to exercise replacement evictions (and thus
  // the RNG remainder stream) heavily.
  for (auto& f : trace) f = rng.below(2000);
  return trace;
}

void expect_identical(const ShardedEpochSnapshot& a,
                      const ShardedEpochSnapshot& b) {
  ASSERT_EQ(a.shards(), b.shards());
  EXPECT_EQ(a.packets(), b.packets());
  for (std::size_t s = 0; s < a.shards(); ++s) {
    EXPECT_EQ(a.shard(s).packets(), b.shard(s).packets());
    const auto& sa = a.shard(s).sram();
    const auto& sb = b.shard(s).sram();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::uint64_t i = 0; i < sa.size(); ++i)
      ASSERT_EQ(sa.peek(i), sb.peek(i))
          << "shard " << s << " counter " << i;
  }
}

struct LiveCase {
  std::size_t shards;
  std::size_t threads;  // LiveOptions::threads
};

class LiveRotationDeterminism : public ::testing::TestWithParam<LiveCase> {};

TEST_P(LiveRotationDeterminism, LiveMatchesSerialBitIdentical) {
  const auto [num_shards, threads] = GetParam();
  constexpr std::size_t kEpochs = 3;
  constexpr std::size_t kPerEpoch = 30'000;

  ShardedCaesar serial(cfg(), num_shards);
  ShardedCaesar live(cfg(), num_shards);
  LiveOptions options;
  options.threads = threads;
  options.max_epochs = 0;  // keep every epoch for the comparison
  options.flush_chunk = 97;  // non-divisor chunk: stress the stepper
  live.start_live(options);

  for (std::size_t e = 0; e < kEpochs; ++e) {
    const auto trace = make_trace(kPerEpoch, 1000 + e);
    for (FlowId f : trace) serial.add(f);
    live.feed(trace);
    serial.rotate();
    EXPECT_EQ(live.rotate_live(), e);
  }
  live.stop_live();

  ASSERT_EQ(serial.epochs_closed(), kEpochs);
  ASSERT_EQ(live.epochs_closed(), kEpochs);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    const auto a = serial.snapshot_epoch(e);
    const auto b = live.snapshot_epoch(e);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->seq(), e);
    EXPECT_EQ(b->seq(), e);
    expect_identical(*a, *b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shards, LiveRotationDeterminism,
    ::testing::Values(LiveCase{1, 0}, LiveCase{2, 0}, LiveCase{4, 0},
                      LiveCase{4, 1}, LiveCase{4, 2}),
    [](const ::testing::TestParamInfo<LiveCase>& param_info) {
      // Built via append: GCC 12's -O3 -Wrestrict misfires on the
      // char* + string&& overload.
      std::string name = "shards";
      name += std::to_string(param_info.param.shards);
      name += "threads";
      name += std::to_string(param_info.param.threads);
      return name;
    });

TEST(LiveRotation, ConcurrentQueriesDuringIngest) {
  constexpr std::size_t kRotations = 8;
  constexpr std::size_t kPerEpoch = 20'000;
  ShardedCaesar live(cfg(), 4);
  LiveOptions options;
  options.max_epochs = 0;
  live.start_live(options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries_served{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256pp rng(100 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const double est = live.query_live(rng.below(2000));
        EXPECT_GE(est, 0.0);
        if (const auto snap = live.latest_snapshot()) {
          EXPECT_EQ(snap->shards(), 4u);
          EXPECT_GE(live.epochs_closed(), snap->seq() + 1);
        }
        (void)live.snapshot_epoch(rng.below(kRotations + 2));
        queries_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A waiter blocked on an epoch that has not happened yet.
  std::thread waiter([&] {
    const auto snap = live.wait_epoch(kRotations - 1);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->seq(), kRotations - 1);
  });

  Count fed = 0;
  for (std::size_t e = 0; e < kRotations; ++e) {
    const auto trace = make_trace(kPerEpoch, 7'000 + e);
    live.feed(trace);
    fed += trace.size();
    live.rotate_live();
  }
  waiter.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  live.stop_live();

  EXPECT_GT(queries_served.load(), 0u);
  ASSERT_EQ(live.epochs_closed(), kRotations);
  Count packets_in_epochs = 0;
  for (std::uint64_t e = 0; e < kRotations; ++e) {
    const auto snap = live.snapshot_epoch(e);
    ASSERT_NE(snap, nullptr);
    packets_in_epochs += snap->packets();
  }
  EXPECT_EQ(packets_in_epochs, fed);  // no packet lost or double-counted
}

TEST(LiveRotation, RetentionEvictsOldestEpochs) {
  ShardedCaesar live(cfg(), 2);
  LiveOptions options;
  options.max_epochs = 2;
  live.start_live(options);
  for (std::size_t e = 0; e < 5; ++e) {
    live.feed(make_trace(2'000, 50 + e));
    live.rotate_live();
  }
  live.stop_live();
  EXPECT_EQ(live.epochs_closed(), 5u);
  EXPECT_EQ(live.snapshot_epoch(0), nullptr);
  EXPECT_EQ(live.snapshot_epoch(2), nullptr);
  ASSERT_NE(live.snapshot_epoch(3), nullptr);
  ASSERT_NE(live.snapshot_epoch(4), nullptr);
  const auto latest = live.latest_snapshot();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->seq(), 4u);
  // Evicted epochs also resolve to nullptr through wait() (no blocking:
  // the sequence has already passed).
  EXPECT_EQ(live.wait_epoch(1), nullptr);
}

TEST(LiveRotation, EmptyEpochsPublishCleanly) {
  ShardedCaesar live(cfg(), 2);
  LiveOptions options;
  options.max_epochs = 0;
  live.start_live(options);
  live.rotate_live();
  live.rotate_live();  // back-to-back: exercises the standby-miss path
  live.feed(make_trace(1'000, 9));
  live.rotate_live();
  live.stop_live();
  ASSERT_EQ(live.epochs_closed(), 3u);
  EXPECT_EQ(live.snapshot_epoch(0)->packets(), 0u);
  EXPECT_EQ(live.snapshot_epoch(1)->packets(), 0u);
  EXPECT_EQ(live.snapshot_epoch(2)->packets(), 1'000u);
}

TEST(LiveRotation, IngestGuardsDuringAndOutsideSessions) {
  ShardedCaesar c(cfg(), 2);
  const std::vector<FlowId> trace{1, 2, 3};
  // Outside a session, the live entry points refuse.
  EXPECT_THROW(c.feed(trace), std::logic_error);
  EXPECT_THROW(c.rotate_live(), std::logic_error);
  c.stop_live();  // no-op, must not throw

  c.start_live();
  EXPECT_THROW(c.start_live(), std::logic_error);
  // During a session, the serial entry points refuse: the shards belong
  // to the workers.
  EXPECT_THROW(c.add(7), std::logic_error);
  EXPECT_THROW(c.add_parallel(trace), std::logic_error);
  EXPECT_THROW(c.rotate(), std::logic_error);
  EXPECT_TRUE(c.live());
  c.stop_live();
  EXPECT_FALSE(c.live());
  c.add(7);  // serial mode restored
}

TEST(LiveRotation, QueryBeforeFirstEpochIsZero) {
  ShardedCaesar live(cfg(), 2);
  live.start_live();
  EXPECT_EQ(live.latest_snapshot(), nullptr);
  EXPECT_EQ(live.query_live(123), 0.0);
  live.stop_live();
}

TEST(LiveRotation, SerialAndLiveRotationsShareOneSequence) {
  ShardedCaesar c(cfg(), 2);
  const auto trace = make_trace(5'000, 3);
  for (FlowId f : trace) c.add(f);
  const auto first = c.rotate();  // stop-the-world
  EXPECT_EQ(first->seq(), 0u);

  c.start_live(LiveOptions{.threads = 0, .max_epochs = 0});
  c.feed(trace);
  EXPECT_EQ(c.rotate_live(), 1u);  // continues the sequence
  c.stop_live();

  EXPECT_EQ(c.epochs_closed(), 2u);
  ASSERT_NE(c.snapshot_epoch(0), nullptr);
  ASSERT_NE(c.snapshot_epoch(1), nullptr);
  // Identical input, identical boundaries -> identical epochs, produced
  // by the two different rotation paths.
  expect_identical(*c.snapshot_epoch(0), *c.snapshot_epoch(1));
}

// add_parallel() runs its own short-lived worker set: it publishes
// nothing, leaves the retained epochs alone and ingests bit-identically
// to a serial run.
TEST(LiveRotation, AddParallelAfterSessionLeavesStoreAlone) {
  constexpr std::size_t kShards = 4;
  ShardedCaesar c(cfg(), kShards);
  LiveOptions options;
  options.max_epochs = 0;
  c.start_live(options);
  for (int e = 0; e < 3; ++e) c.rotate_live();
  c.stop_live();

  const auto trace = make_trace(30'000, 21);
  c.add_parallel(trace, kShards);
  ShardedCaesar serial(cfg(), kShards);
  for (FlowId f : trace) serial.add(f);

  EXPECT_EQ(c.epochs_closed(), 3u);
  ASSERT_NE(c.snapshot_epoch(0), nullptr);
  c.flush();
  serial.flush();
  EXPECT_EQ(c.packets(), serial.packets());
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& a = c.shard(s).sram();
    const auto& b = serial.shard(s).sram();
    ASSERT_EQ(a.size(), b.size());
    for (std::uint64_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a.peek(i), b.peek(i)) << "shard " << s << " counter " << i;
  }
}

TEST(LiveRotation, RestartedSessionContinuesWhereItStopped) {
  ShardedCaesar c(cfg(), 2);
  c.start_live(LiveOptions{.threads = 0, .max_epochs = 0});
  c.feed(make_trace(3'000, 11));
  EXPECT_EQ(c.rotate_live(), 0u);
  c.stop_live();
  c.start_live(LiveOptions{.threads = 0, .max_epochs = 0});
  c.feed(make_trace(3'000, 12));
  EXPECT_EQ(c.rotate_live(), 1u);
  c.stop_live();
  EXPECT_EQ(c.epochs_closed(), 2u);
}

TEST(LiveRotation, UnrotatedTailSurvivesStopLive) {
  // Packets fed but never rotated stay in the shards when the session
  // ends, exactly as if they had been add()ed serially.
  const auto trace = make_trace(10'000, 21);
  ShardedCaesar serial(cfg(), 2);
  for (FlowId f : trace) serial.add(f);
  ShardedCaesar live(cfg(), 2);
  live.start_live();
  live.feed(trace);
  live.stop_live();
  EXPECT_EQ(live.packets(), serial.packets());
  serial.flush();
  live.flush();
  for (FlowId f = 0; f < 100; ++f)
    EXPECT_EQ(live.estimate_csm_raw(f), serial.estimate_csm_raw(f));
}

TEST(LiveRotation, DestructorStopsAnActiveSession) {
  ShardedCaesar live(cfg(), 2);
  live.start_live();
  live.feed(make_trace(5'000, 31));
  live.rotate_live();
  // No stop_live(): the destructor must retire workers and finalizer
  // without deadlock or leak (ASan/TSan jobs run this test).
}

// --- chunked-flush building blocks --------------------------------------

TEST(LiveRotation, FlushStepMatchesMonolithicFlush) {
  const auto trace = make_trace(40'000, 77);
  CaesarSketch whole(cfg());
  CaesarSketch stepped(cfg());
  for (FlowId f : trace) whole.add(f);
  stepped.add_batch(trace);
  whole.flush();
  std::size_t steps = 0;
  while (stepped.flush_step(61) > 0) ++steps;
  EXPECT_GT(steps, 1u);  // the budget actually chunked the flush
  ASSERT_EQ(whole.sram().size(), stepped.sram().size());
  for (std::uint64_t i = 0; i < whole.sram().size(); ++i)
    ASSERT_EQ(whole.sram().peek(i), stepped.sram().peek(i)) << i;
  EXPECT_EQ(whole.packets_in_sram(), stepped.packets_in_sram());
  // Both sketches remain usable for the next window.
  whole.add(5);
  stepped.add(5);
  EXPECT_EQ(whole.packets(), stepped.packets());
}

}  // namespace
}  // namespace caesar::core

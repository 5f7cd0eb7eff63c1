#include "core/caesar_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hpp"
#include "core/epoch_manager.hpp"

namespace caesar::core {
namespace {

CaesarConfig small_config() {
  CaesarConfig c;
  c.cache_entries = 64;
  c.entry_capacity = 10;
  c.num_counters = 500;
  c.counter_bits = 20;
  c.k = 3;
  c.seed = 2018;
  return c;
}

TEST(CaesarSketch, ConservationAfterFlush) {
  // Invariant: nothing is lost between cache and SRAM — after the flush
  // the SRAM total equals the number of packets processed.
  CaesarSketch sketch(small_config());
  Xoshiro256pp rng(1);
  constexpr Count kPackets = 50000;
  for (Count i = 0; i < kPackets; ++i)
    sketch.add(rng.below(300) + 1);
  sketch.flush();
  EXPECT_EQ(sketch.sram().total(), kPackets);
  EXPECT_EQ(sketch.packets(), kPackets);
  EXPECT_EQ(sketch.packets_in_sram(), kPackets);
  EXPECT_EQ(sketch.sram().saturations(), 0u);
}

TEST(CaesarSketch, SingleFlowEstimatesExactly) {
  // Only one flow: its k counters hold exactly x in total, and the noise
  // correction n/L is tiny, so CSM ~ x.
  CaesarSketch sketch(small_config());
  constexpr Count kX = 137;
  for (Count i = 0; i < kX; ++i) sketch.add(0xBEEF);
  sketch.flush();
  const auto w = sketch.counter_values(0xBEEF);
  Count sum = 0;
  for (Count v : w) sum += v;
  EXPECT_EQ(sum, kX);
  EXPECT_NEAR(sketch.estimate_csm(0xBEEF), static_cast<double>(kX), 1.0);
  EXPECT_NEAR(sketch.estimate_mlm(0xBEEF), static_cast<double>(kX), 2.0);
}

TEST(CaesarSketch, EvictionSplitsIntoAliquotPlusRemainder) {
  // One eviction of value 7 with k=3: counters must be a permutation of
  // {2,2,3} (p=2 to each, the remainder q=1 to one random counter).
  auto cfg = small_config();
  cfg.entry_capacity = 7;
  cfg.num_counters = 10000;  // negligible chance of self-overlap noise
  CaesarSketch sketch(cfg);
  for (int i = 0; i < 7; ++i) sketch.add(0xABCD);  // exactly one overflow
  // No flush needed: the overflow already went to SRAM.
  auto w = sketch.counter_values(0xABCD);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, (std::vector<Count>{2, 2, 3}));
}

TEST(CaesarSketch, DivisibleEvictionSplitsEvenly) {
  auto cfg = small_config();
  cfg.entry_capacity = 9;
  CaesarSketch sketch(cfg);
  for (int i = 0; i < 9; ++i) sketch.add(0x1234);
  const auto w = sketch.counter_values(0x1234);
  EXPECT_EQ(w, (std::vector<Count>{3, 3, 3}));
}

TEST(CaesarSketch, DeterministicInSeed) {
  auto run = [] {
    CaesarSketch sketch(small_config());
    Xoshiro256pp rng(9);
    for (int i = 0; i < 10000; ++i) sketch.add(rng.below(100));
    sketch.flush();
    std::vector<Count> values;
    for (std::uint64_t i = 0; i < sketch.sram().size(); ++i)
      values.push_back(sketch.sram().peek(i));
    return values;
  };
  EXPECT_EQ(run(), run());
}

TEST(CaesarSketch, FlushIsIdempotent) {
  CaesarSketch sketch(small_config());
  sketch.add(1);
  sketch.flush();
  const Count total = sketch.sram().total();
  sketch.flush();
  EXPECT_EQ(sketch.sram().total(), total);
}

TEST(CaesarSketch, AddAfterFlushKeepsCounting) {
  CaesarSketch sketch(small_config());
  sketch.add(5);
  sketch.flush();
  sketch.add(5);
  sketch.flush();
  EXPECT_NEAR(sketch.estimate_csm(5), 2.0, 0.5);
}

TEST(CaesarSketch, WeightedAddMatchesRepeatedAdd) {
  auto cfg = small_config();
  cfg.entry_capacity = 1000;
  CaesarSketch a(cfg);
  CaesarSketch b(cfg);
  a.add_weighted(77, 500);
  for (int i = 0; i < 500; ++i) b.add(77);
  a.flush();
  b.flush();
  // Same total mass lands in the same k counters (allocation of the
  // remainder may differ but the totals match).
  Count ta = 0, tb = 0;
  for (Count v : a.counter_values(77)) ta += v;
  for (Count v : b.counter_values(77)) tb += v;
  EXPECT_EQ(ta, 500u);
  EXPECT_EQ(tb, 500u);
}

TEST(CaesarSketch, QueryBeforeFlushMissesCachedResidue) {
  CaesarSketch sketch(small_config());
  for (int i = 0; i < 5; ++i) sketch.add(3);  // below y=10: all in cache
  EXPECT_EQ(sketch.packets_in_sram(), 0u);
  EXPECT_LT(sketch.estimate_csm(3), 1.0);
  sketch.flush();
  EXPECT_NEAR(sketch.estimate_csm(3), 5.0, 0.5);
}

TEST(CaesarSketch, OpCountsReflectCacheFrontEnd) {
  CaesarSketch sketch(small_config());
  Xoshiro256pp rng(4);
  constexpr Count kPackets = 20000;
  for (Count i = 0; i < kPackets; ++i) sketch.add(rng.below(500));
  sketch.flush();
  const auto ops = sketch.op_counts();
  EXPECT_GE(ops.cache_accesses, 2 * kPackets);
  // SRAM is touched at most k times per eviction, and evictions are far
  // rarer than packets with y = 10.
  EXPECT_LT(ops.sram_accesses, kPackets);
  EXPECT_GT(ops.sram_accesses, 0u);
  EXPECT_GE(ops.hashes, kPackets);
  EXPECT_EQ(ops.power_ops, 0u);
}

TEST(CaesarSketch, ConfidenceIntervalsContainEstimate) {
  CaesarSketch sketch(small_config());
  Xoshiro256pp rng(6);
  for (int i = 0; i < 30000; ++i) sketch.add(rng.below(200));
  sketch.flush();
  const auto csm = sketch.interval_csm(17, 0.95);
  const double est = sketch.estimate_csm(17);
  EXPECT_LE(csm.lo, est);
  EXPECT_GE(csm.hi, est);
  const auto mlm = sketch.interval_mlm(17, 0.95);
  const double est_mlm = sketch.estimate_mlm(17);
  EXPECT_LE(mlm.lo, est_mlm);
  EXPECT_GE(mlm.hi, est_mlm);
}

TEST(CaesarSketch, QueryApiClampsAtZeroRawKeepsSign) {
  // Flow sizes are non-negative, so estimate_csm/mlm clamp at zero while
  // the *_raw variants keep the signed de-noised value for evaluation
  // code (DESIGN.md "Clamped queries, raw evaluation"). Query flows that
  // were never inserted: their counters hold pure sharing noise, so the
  // noise-subtracted raw estimate goes negative for many of them.
  CaesarSketch sketch(small_config());
  Xoshiro256pp rng(8);
  for (int i = 0; i < 40000; ++i) sketch.add(rng.below(300));
  sketch.flush();

  int negative_raw = 0;
  for (FlowId f = 1'000'000; f < 1'000'200; ++f) {  // absent flows
    const double raw_csm = sketch.estimate_csm_raw(f);
    const double raw_mlm = sketch.estimate_mlm_raw(f);
    if (raw_csm < 0.0) ++negative_raw;
    // The clamped query is exactly max(raw, 0) — no other change.
    EXPECT_EQ(sketch.estimate_csm(f), std::max(raw_csm, 0.0));
    EXPECT_EQ(sketch.estimate_mlm(f), std::max(raw_mlm, 0.0));
    EXPECT_GE(sketch.estimate_csm(f), 0.0);
    EXPECT_GE(sketch.estimate_mlm(f), 0.0);
    const auto ci = sketch.interval_csm(f, 0.95);
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_GE(ci.hi, 0.0);
    EXPECT_LE(ci.lo, ci.hi);
    const auto mi = sketch.interval_mlm(f, 0.95);
    EXPECT_GE(mi.lo, 0.0);
    EXPECT_GE(mi.hi, 0.0);
  }
  // The clamp must actually bind somewhere, or this test checks nothing.
  EXPECT_GT(negative_raw, 0);
  // Where the raw estimate is positive the clamp is a no-op: the two
  // queries agree bit for bit.
  int positive_raw = 0;
  for (FlowId f = 0; f < 300; ++f) {
    const double raw = sketch.estimate_csm_raw(f);
    if (raw > 0.0) {
      ++positive_raw;
      EXPECT_EQ(sketch.estimate_csm(f), raw);
    }
  }
  EXPECT_GT(positive_raw, 0);
}

TEST(CaesarSketch, MemoryFootprintSumsCacheAndSram) {
  const CaesarSketch sketch(small_config());
  EXPECT_NEAR(sketch.memory_kb(),
              sketch.cache_table().memory_kb() + sketch.sram().memory_kb(),
              1e-12);
}

TEST(CaesarSketch, EstimatorParamsTrackState) {
  CaesarSketch sketch(small_config());
  for (int i = 0; i < 100; ++i) sketch.add(1);
  const auto p = sketch.estimator_params();
  EXPECT_EQ(p.k, 3u);
  EXPECT_EQ(p.entry_capacity, 10u);
  EXPECT_EQ(p.num_counters, 500u);
  EXPECT_DOUBLE_EQ(p.total_packets, 100.0);
}

TEST(CaesarSketch, FlowCountEstimateOnChunkyFlows) {
  // Every flow has >= k packets, so all k counters per flow are marked
  // and linear counting recovers Q closely.
  auto cfg = small_config();
  cfg.num_counters = 50'000;
  CaesarSketch sketch(cfg);
  constexpr FlowId kFlows = 2000;
  for (FlowId f = 1; f <= kFlows; ++f)
    for (int i = 0; i < 8; ++i) sketch.add(f);  // size 8 >= k = 3
  sketch.flush();
  EXPECT_NEAR(sketch.estimate_flow_count(), static_cast<double>(kFlows),
              0.05 * kFlows);
}

TEST(CaesarSketch, FlowCountIsLowerBoundOnMice) {
  auto cfg = small_config();
  cfg.num_counters = 50'000;
  CaesarSketch sketch(cfg);
  constexpr FlowId kFlows = 3000;
  for (FlowId f = 1; f <= kFlows; ++f) sketch.add(f);  // all size 1
  sketch.flush();
  const double est = sketch.estimate_flow_count();
  // Size-1 flows touch ~1 of their 3 counters: expect ~Q/3.
  EXPECT_LT(est, 0.5 * kFlows);
  EXPECT_NEAR(est, kFlows / 3.0, 0.1 * kFlows);
}

TEST(CaesarSketch, FlowCountInfiniteWhenSaturated) {
  auto cfg = small_config();
  cfg.num_counters = 3;  // k = 3: one flow fills every counter
  CaesarSketch sketch(cfg);
  for (int i = 0; i < 100; ++i) sketch.add(1);
  sketch.flush();
  EXPECT_TRUE(std::isinf(sketch.estimate_flow_count()));
}

TEST(CaesarSketch, RandomReplacementPolicyWorks) {
  auto cfg = small_config();
  cfg.policy = cache::ReplacementPolicy::kRandom;
  cfg.cache_entries = 8;
  CaesarSketch sketch(cfg);
  Xoshiro256pp rng(2);
  constexpr Count kPackets = 20000;
  for (Count i = 0; i < kPackets; ++i) sketch.add(rng.below(100));
  sketch.flush();
  EXPECT_EQ(sketch.sram().total(), kPackets);
}

// A closed epoch (finalize()) answers from its frozen SRAM exactly as the
// flushed sketch does.
CaesarConfig epoch_config() {
  CaesarConfig c;
  c.cache_entries = 128;
  c.entry_capacity = 20;
  c.num_counters = 5000;
  c.counter_bits = 20;
  c.seed = 3;
  return c;
}

TEST(CaesarSketch, FinalizeOnEmptySketchSnapshotsZeroPackets) {
  CaesarSketch sketch(epoch_config());
  sketch.flush();
  const EpochSnapshot snap = sketch.finalize();
  EXPECT_EQ(snap.packets(), 0u);
  EXPECT_LT(snap.estimate_csm(7), 1.0);
}

TEST(CaesarSketch, FinalizedFlowCountMatchesSketchEstimate) {
  CaesarSketch sketch(epoch_config());
  Xoshiro256pp rng(4);
  for (int i = 0; i < 20'000; ++i) sketch.add(rng.below(400));
  sketch.flush();
  const EpochSnapshot snap = sketch.finalize();
  // Every flow has ~50 >= k packets, so linear counting is in-regime.
  EXPECT_NEAR(snap.estimate_flow_count(), 400.0, 40.0);
  EXPECT_EQ(snap.estimate_flow_count(), sketch.estimate_flow_count());
}

TEST(CaesarSketch, FinalizedSnapshotAnswersMlm) {
  CaesarSketch sketch(epoch_config());
  for (int i = 0; i < 200; ++i) sketch.add(9);
  sketch.flush();
  const EpochSnapshot snap = sketch.finalize();
  EXPECT_NEAR(snap.estimate_mlm(9), 200.0, 6.0);
  EXPECT_EQ(snap.estimate_mlm(9), sketch.estimate_mlm(9));
}

}  // namespace
}  // namespace caesar::core

// Micro-benchmarks (google-benchmark): per-operation software costs of
// the hash substrate and the three schemes' update/query paths. These are
// the simulator's own costs (host CPU), complementary to the modeled FPGA
// times of fig8_processing_time.
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "baselines/braids/counter_braids.hpp"
#include "baselines/case/case_sketch.hpp"
#include "baselines/compressed/cedar.hpp"
#include "baselines/compressed/small_active_counter.hpp"
#include "baselines/rcs/rcs_sketch.hpp"
#include "baselines/vhc/virtual_hll.hpp"
#include "cache/cache_table.hpp"
#include "cache/set_probe.hpp"
#include "cache/simd_dispatch.hpp"
#include "common/aligned_buffer.hpp"
#include "common/random.hpp"
#include "core/caesar_sketch.hpp"
#include "core/topk.hpp"
#include "counters/counter_array.hpp"
#include "counters/packed_counter_array.hpp"
#include "hash/classic_hashes.hpp"
#include "hash/index_selector.hpp"
#include "hash/sha1.hpp"
#include "trace/anonymize.hpp"
#include "trace/flow_id.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace caesar;

void BM_Sha1FlowId(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto tuple = trace::synth_tuple(1, i++);
    benchmark::DoNotOptimize(trace::flow_id_of(tuple));
  }
}
BENCHMARK(BM_Sha1FlowId);

void BM_ApHash(benchmark::State& state) {
  const std::string key = "10.1.2.3:443->192.168.0.1:51234/tcp";
  for (auto _ : state) benchmark::DoNotOptimize(hash::ap_hash(key));
}
BENCHMARK(BM_ApHash);

void BM_KIndexSelect(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  hash::KIndexSelector sel(k, 50'000, 3);
  std::array<std::uint64_t, hash::KIndexSelector::kMaxK> idx{};
  std::uint64_t flow = 0;
  for (auto _ : state) {
    sel.select(++flow, std::span<std::uint64_t>(idx.data(), k));
    benchmark::DoNotOptimize(idx);
  }
}
BENCHMARK(BM_KIndexSelect)->Arg(1)->Arg(3)->Arg(8);

// --- set-probe kernel shootout --------------------------------------------
// The innermost datapath loop (set_probe.hpp), tier by tier, over the
// associativities and hit mixes that matter: record BENCH_micro_ops.json
// in CI (--benchmark_out) to track kernel regressions. Arg order:
// (tier, ways, hit_pct). Unsupported tiers skip, so the suite is
// portable across hosts and -DCAESAR_SIMD=OFF builds.
template <cache::SimdTier Tier>
void probe_shootout(benchmark::State& state, unsigned ways,
                    unsigned hit_pct) {
  const unsigned ways_padded = (ways + 7) / 8 * 8;
  constexpr std::uint32_t kSets = 512;
  AlignedBuffer<std::uint64_t> tags(kSets * ways_padded);
  // Fully occupied sets with distinct tags; key 0 never stored.
  for (std::uint32_t s = 0; s < kSets; ++s)
    for (unsigned w = 0; w < ways_padded; ++w)
      tags[s * ways_padded + w] =
          w < ways ? (std::uint64_t{s} << 32 | (w + 1)) : 1;  // pad: no match
  const std::uint32_t occ =
      ways >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << ways) - 1;

  // Precomputed (set, key) stream: hit_pct% of probes find their flow in
  // a rotating way, the rest miss after scanning every lane.
  constexpr std::size_t kStream = 4096;
  std::vector<std::uint32_t> sets(kStream);
  std::vector<std::uint64_t> keys(kStream);
  Xoshiro256pp rng(1234 + ways);
  for (std::size_t i = 0; i < kStream; ++i) {
    sets[i] = static_cast<std::uint32_t>(rng.below(kSets));
    const bool hit = rng.below(100) < hit_pct;
    keys[i] = hit ? tags[sets[i] * ways_padded + rng.below(ways)] : 0;
  }

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::kernels::probe<Tier>(
        tags.data() + std::size_t{sets[i]} * ways_padded, occ, ways_padded,
        keys[i]));
    i = (i + 1) % kStream;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SetProbe(benchmark::State& state) {
  const auto tier = static_cast<cache::SimdTier>(state.range(0));
  const auto ways = static_cast<unsigned>(state.range(1));
  const auto hit_pct = static_cast<unsigned>(state.range(2));
  if (!cache::tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host/build");
    return;
  }
  switch (tier) {
    case cache::SimdTier::kScalar:
      probe_shootout<cache::SimdTier::kScalar>(state, ways, hit_pct);
      break;
    case cache::SimdTier::kSse2:
      probe_shootout<cache::SimdTier::kSse2>(state, ways, hit_pct);
      break;
    case cache::SimdTier::kNeon:
      probe_shootout<cache::SimdTier::kNeon>(state, ways, hit_pct);
      break;
    case cache::SimdTier::kAvx2:
      probe_shootout<cache::SimdTier::kAvx2>(state, ways, hit_pct);
      break;
  }
}
BENCHMARK(BM_SetProbe)
    ->ArgNames({"tier", "ways", "hit_pct"})
    ->ArgsProduct({{0, 1, 2, 3}, {4, 8, 16}, {100, 50, 0}});

// End-to-end batched ingest per tier: the probe kernel in situ, with
// hashing, prefetch, and LRU bookkeeping around it.
void BM_CacheBatchByTier(benchmark::State& state) {
  const auto tier = static_cast<cache::SimdTier>(state.range(0));
  if (!cache::tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host/build");
    return;
  }
  cache::CacheTable::Config cfg;
  cfg.num_entries = 16'384;
  cfg.entry_capacity = 54;
  cfg.simd = tier;
  cache::CacheTable cache(cfg);
  Xoshiro256pp rng(77);
  std::vector<FlowId> batch(8192);
  for (auto& f : batch) f = rng.below(20'000) + 1;
  cache::EvictionSink sink;
  for (auto _ : state) {
    cache.process_batch(batch, sink);
    sink.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_CacheBatchByTier)
    ->ArgNames({"tier"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3);

void BM_CacheProcessHit(benchmark::State& state) {
  cache::CacheTable::Config cfg;
  cfg.num_entries = 1024;
  cfg.entry_capacity = 1'000'000'000;  // never overflow
  cache::CacheTable cache(cfg);
  cache.process(42);
  for (auto _ : state) benchmark::DoNotOptimize(cache.process(42));
}
BENCHMARK(BM_CacheProcessHit);

void BM_CacheProcessChurn(benchmark::State& state) {
  cache::CacheTable::Config cfg;
  cfg.num_entries = 1024;
  cfg.entry_capacity = 54;
  cache::CacheTable cache(cfg);
  Xoshiro256pp rng(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.process(rng.below(100'000)));
}
BENCHMARK(BM_CacheProcessChurn);

void BM_CaesarAdd(benchmark::State& state) {
  core::CaesarConfig cfg;
  cfg.cache_entries = 10'000;
  cfg.entry_capacity = 54;
  cfg.num_counters = 5'000;
  cfg.counter_bits = 15;
  core::CaesarSketch sketch(cfg);
  Xoshiro256pp rng(2);
  for (auto _ : state) sketch.add(rng.below(100'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CaesarAdd);

void BM_CaesarAddBatch(benchmark::State& state) {
  // The batched fast path (prefetch + spill queue + coalesced SRAM
  // writes); compare directly against BM_CaesarAdd per item.
  core::CaesarConfig cfg;
  cfg.cache_entries = 10'000;
  cfg.entry_capacity = 54;
  cfg.num_counters = 5'000;
  cfg.counter_bits = 15;
  core::CaesarSketch sketch(cfg);
  Xoshiro256pp rng(2);
  std::vector<FlowId> batch(8192);
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& f : batch) f = rng.below(100'000);
    state.ResumeTiming();
    sketch.add_batch(batch);
  }
  sketch.drain_spill();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_CaesarAddBatch);

void BM_RcsAdd(benchmark::State& state) {
  baselines::RcsConfig cfg;
  cfg.num_counters = 5'000;
  cfg.counter_bits = 15;
  baselines::RcsSketch sketch(cfg);
  Xoshiro256pp rng(3);
  for (auto _ : state) sketch.add(rng.below(100'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RcsAdd);

void BM_CaseAdd(benchmark::State& state) {
  baselines::CaseConfig cfg;
  cfg.cache_entries = 10'000;
  cfg.entry_capacity = 54;
  cfg.num_counters = 100'000;
  cfg.counter_bits = 10;
  baselines::CaseSketch sketch(cfg);
  Xoshiro256pp rng(4);
  for (auto _ : state) sketch.add(rng.below(100'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CaseAdd);

void BM_CaesarQueryCsm(benchmark::State& state) {
  core::CaesarConfig cfg;
  cfg.num_counters = 50'000;
  cfg.counter_bits = 15;
  core::CaesarSketch sketch(cfg);
  for (int i = 0; i < 100'000; ++i) sketch.add(static_cast<FlowId>(i % 997));
  sketch.flush();
  std::uint64_t f = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(sketch.estimate_csm(++f % 997));
}
BENCHMARK(BM_CaesarQueryCsm);

void BM_CaesarQueryMlm(benchmark::State& state) {
  core::CaesarConfig cfg;
  cfg.num_counters = 50'000;
  cfg.counter_bits = 15;
  core::CaesarSketch sketch(cfg);
  for (int i = 0; i < 100'000; ++i) sketch.add(static_cast<FlowId>(i % 997));
  sketch.flush();
  std::uint64_t f = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(sketch.estimate_mlm(++f % 997));
}
BENCHMARK(BM_CaesarQueryMlm);

void BM_CounterBraidsAdd(benchmark::State& state) {
  baselines::CounterBraidsConfig cfg;
  cfg.layer1_counters = 16'384;
  baselines::CounterBraids cb(cfg);
  Xoshiro256pp rng(5);
  for (auto _ : state) cb.add(rng.below(100'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterBraidsAdd);

void BM_VhcAdd(benchmark::State& state) {
  baselines::VhcConfig cfg;
  baselines::VirtualHyperLogLog vhc(cfg);
  Xoshiro256pp rng(6);
  for (auto _ : state) vhc.add(rng.below(100'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VhcAdd);

void BM_SacAdd(benchmark::State& state) {
  baselines::SacArray arr(65'536, baselines::SacConfig{}, 7);
  Xoshiro256pp rng(7);
  for (auto _ : state) arr.add(rng.below(100'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SacAdd);

void BM_CedarAdd(benchmark::State& state) {
  baselines::CedarArray arr(65'536, 12, 0.1, 8);
  Xoshiro256pp rng(8);
  for (auto _ : state) arr.add(rng.below(100'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CedarAdd);

void BM_SpaceSavingAdd(benchmark::State& state) {
  core::TopKTable ss(core::derive_topk(1024, false, 9));
  Xoshiro256pp rng(9);
  for (auto _ : state) ss.offer(rng.below(100'000), 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd);

void BM_CounterArrayAdd(benchmark::State& state) {
  counters::CounterArray a(1u << 20, 15);
  Xoshiro256pp rng(10);
  for (auto _ : state) a.add(rng.below(1u << 20), 1);
}
BENCHMARK(BM_CounterArrayAdd);

void BM_PackedCounterArrayAdd(benchmark::State& state) {
  counters::PackedCounterArray a(1u << 20, 15);
  Xoshiro256pp rng(11);
  for (auto _ : state) a.add(rng.below(1u << 20), 1);
}
BENCHMARK(BM_PackedCounterArrayAdd);

void BM_AnonymizeIp(benchmark::State& state) {
  const trace::PrefixPreservingAnonymizer anon(12);
  std::uint32_t ip = 0x0A000001;
  for (auto _ : state) benchmark::DoNotOptimize(anon.anonymize(++ip));
}
BENCHMARK(BM_AnonymizeIp);

void BM_RcsQueryMlm(benchmark::State& state) {
  // The iterative search the paper calls "extremely slow".
  baselines::RcsConfig cfg;
  cfg.num_counters = 50'000;
  cfg.counter_bits = 15;
  baselines::RcsSketch sketch(cfg);
  for (int i = 0; i < 100'000; ++i) sketch.add(static_cast<FlowId>(i % 997));
  std::uint64_t f = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(sketch.estimate_mlm(++f % 997));
}
BENCHMARK(BM_RcsQueryMlm);

}  // namespace

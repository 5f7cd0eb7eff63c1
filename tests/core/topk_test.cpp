// The streaming top-k sidecar: space-saving semantics, determinism of
// the private admission RNG, snapshot/merge algebra, and the JSON
// rendering served at /topk.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/metrics.hpp"
#include "core/topk.hpp"
#include "trace/synthetic.hpp"

namespace caesar {
namespace {

core::TopKConfig table_config(std::size_t capacity, bool rap = false) {
  core::TopKConfig c;
  c.capacity = capacity;
  c.randomized_admission = rap;
  c.seed = 42;
  return c;
}

TEST(TopKTable, DisabledByDefaultAndThrowsOnOffer) {
  core::TopKTable table;
  EXPECT_FALSE(table.enabled());
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_THROW(table.offer(1, 1), std::logic_error);
  EXPECT_FALSE(table.snapshot().enabled());
}

TEST(TopKTable, TracksUpToCapacityExactly) {
  core::TopKTable table(table_config(4));
  table.offer(10, 5);
  table.offer(20, 3);
  table.offer(10, 2);
  table.offer(30, 1);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.count_of(10), 7u);
  EXPECT_EQ(table.count_of(20), 3u);
  EXPECT_EQ(table.count_of(30), 1u);
  EXPECT_FALSE(table.tracked(99));
  // Under capacity every count is exact: error bound 0.
  for (const auto& e : table.sorted_entries()) EXPECT_EQ(e.error, 0u);
}

TEST(TopKTable, SortedEntriesFollowCanonicalOrder) {
  core::TopKTable table(table_config(8));
  table.offer(5, 7);
  table.offer(9, 7);   // tie with flow 5 — lower id first
  table.offer(2, 20);
  table.offer(7, 1);
  const auto entries = table.sorted_entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].flow, 2u);
  EXPECT_EQ(entries[1].flow, 5u);
  EXPECT_EQ(entries[2].flow, 9u);
  EXPECT_EQ(entries[3].flow, 7u);
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                             core::topk_order));
}

TEST(TopKTable, ReplacementInheritsMinCountAsError) {
  core::TopKTable table(table_config(2));
  table.offer(1, 10);
  table.offer(2, 4);
  // Table full; flow 3 displaces the minimum (flow 2, count 4).
  table.offer(3, 6);
  EXPECT_FALSE(table.tracked(2));
  EXPECT_EQ(table.count_of(3), 10u);  // 4 inherited + 6 offered
  const auto entries = table.sorted_entries();
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [](const auto& e) { return e.flow == 3; });
  ASSERT_NE(it, entries.end());
  EXPECT_EQ(it->error, 4u);
  // Space-Saving overcount guarantee: true count <= monitored count.
  EXPECT_GE(it->count, 6u);
}

TEST(TopKTable, SpaceSavingOvercountBoundHoldsOnHeavyTail) {
  trace::TraceConfig tc;
  tc.num_flows = 5'000;
  tc.seed = 7;
  const auto t = trace::generate_trace(tc);

  core::TopKTable table(table_config(256));
  std::map<FlowId, Count> truth;
  for (auto idx : t.arrivals()) {
    table.offer(t.id_of(idx), 1);
    ++truth[t.id_of(idx)];
  }
  for (const auto& e : table.sorted_entries()) {
    const Count actual = truth.at(e.flow);
    EXPECT_GE(e.count, actual);                 // never undercounts
    EXPECT_LE(e.count - e.error, actual);       // error bound is honest
  }
}

TEST(TopKTable, GuaranteesHeavyHittersTrackedWithoutRap) {
  // Classic Space-Saving guarantee: any flow with true count > n/m is
  // monitored.
  constexpr std::size_t kCapacity = 32;
  core::TopKTable table(table_config(kCapacity));
  trace::TraceConfig tc;
  tc.num_flows = 3000;
  tc.mean_flow_size = 10.0;
  tc.max_flow_size = 20000;
  tc.seed = 6;
  const auto t = trace::generate_trace(tc);
  for (auto idx : t.arrivals()) table.offer(t.id_of(idx), 1);
  const double threshold =
      static_cast<double>(t.num_packets()) / kCapacity;
  for (std::uint32_t i = 0; i < t.num_flows(); ++i) {
    if (static_cast<double>(t.size_of(i)) > threshold) {
      EXPECT_TRUE(table.tracked(t.id_of(i))) << "flow " << i;
    }
  }
}

TEST(TopKTable, DeterministicAcrossIdenticalReplays) {
  // Same offers, same config => bit-identical tables, with and without
  // randomized admission (the RNG is private and consumed in offer
  // order).
  for (const bool rap : {false, true}) {
    core::TopKTable a(table_config(16, rap));
    core::TopKTable b(table_config(16, rap));
    Xoshiro256pp stream(99);
    std::vector<std::pair<FlowId, Count>> offers;
    for (int i = 0; i < 5'000; ++i)
      offers.emplace_back(stream.below(500), 1 + stream.below(8));
    for (const auto& [flow, w] : offers) a.offer(flow, w);
    for (const auto& [flow, w] : offers) b.offer(flow, w);
    EXPECT_EQ(a.sorted_entries(), b.sorted_entries());
  }
}

TEST(TopKTable, RandomizedAdmissionRejectsSomeMice) {
  // A full table bombarded with one-packet mice: plain space-saving
  // churns the bottom slot on every offer; RAP rejects most of them.
  core::TopKTable rap(table_config(8, true));
  for (FlowId f = 0; f < 8; ++f) rap.offer(f, 10'000);
  metrics::MetricsSnapshot before;
  rap.collect_metrics(before, "topk.");
  for (FlowId f = 1'000; f < 2'000; ++f) rap.offer(f, 1);
  metrics::MetricsSnapshot after;
  rap.collect_metrics(after, "topk.");
  auto counter = [](const metrics::MetricsSnapshot& s,
                    const std::string& name) {
    for (const auto& c : s.counters())
      if (c.name == name) return c.value;
    return std::uint64_t{0};
  };
  EXPECT_GT(counter(after, "topk.rejections"), 900u);
  EXPECT_EQ(counter(after, "topk.offers") - counter(before, "topk.offers"),
            1'000u);
  // The heavy flows survive the mouse flood.
  for (FlowId f = 0; f < 8; ++f)
    EXPECT_TRUE(rap.tracked(f)) << "heavy flow " << f << " evicted";
}

TEST(TopKTable, MergeUnionSumsAndRequiresMatchingCapacity) {
  core::TopKTable a(table_config(4));
  core::TopKTable b(table_config(4));
  a.offer(1, 10);
  a.offer(2, 5);
  b.offer(2, 7);
  b.offer(3, 2);
  a.merge(b);
  EXPECT_EQ(a.count_of(1), 10u);
  EXPECT_EQ(a.count_of(2), 12u);
  EXPECT_EQ(a.count_of(3), 2u);
  // The merged table keeps accepting offers with a consistent index.
  a.offer(3, 4);
  EXPECT_EQ(a.count_of(3), 6u);
  const auto merged_entries = a.sorted_entries();
  EXPECT_TRUE(std::is_sorted(merged_entries.begin(), merged_entries.end(),
                             core::topk_order));

  core::TopKTable mismatched(table_config(8));
  EXPECT_THROW(a.merge(mismatched), std::invalid_argument);
}

TEST(TopKTable, MergeKeepsHeaviestAtCapacity) {
  core::TopKTable a(table_config(2));
  core::TopKTable b(table_config(2));
  a.offer(1, 10);
  a.offer(2, 20);
  b.offer(3, 15);
  b.offer(4, 1);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.count_of(2), 20u);
  EXPECT_EQ(a.count_of(3), 15u);
  EXPECT_FALSE(a.tracked(1));
  EXPECT_FALSE(a.tracked(4));
}

TEST(TopKSnapshot, TopAndMergeAlgebra) {
  core::TopKTable a(table_config(8));
  a.offer(1, 10);
  a.offer(2, 5);
  const auto snap_a = a.snapshot();
  EXPECT_TRUE(snap_a.enabled());
  ASSERT_EQ(snap_a.top(1).size(), 1u);
  EXPECT_EQ(snap_a.top(1)[0].flow, 1u);
  EXPECT_EQ(snap_a.top(100).size(), 2u);

  // Disabled merges are no-ops in either direction.
  core::TopKSnapshot disabled;
  core::TopKSnapshot lhs = snap_a;
  lhs.merge(disabled);
  EXPECT_EQ(lhs.entries(), snap_a.entries());
  disabled.merge(snap_a);
  EXPECT_TRUE(disabled.enabled());
  EXPECT_EQ(disabled.entries(), snap_a.entries());

  core::TopKTable b(table_config(8));
  b.offer(2, 7);
  core::TopKSnapshot merged = snap_a;
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.entries().size(), 2u);
  EXPECT_EQ(merged.entries()[0].flow, 2u);  // 12 > 10
  EXPECT_EQ(merged.entries()[0].count, 12u);
}

TEST(TopKJson, RendersFlowIdsAsStrings) {
  std::vector<core::TopKEntry> entries = {
      {0xFFFFFFFFFFFFFFFFULL, 100, 3}, {7, 50, 0}};
  const std::string json = core::topk_json("caesar", 9, entries);
  EXPECT_NE(json.find("\"scheme\":\"caesar\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":9"), std::string::npos);
  EXPECT_NE(json.find("\"k\":2"), std::string::npos);
  // 2^64-1 must appear quoted: it is not representable as a JSON double.
  EXPECT_NE(json.find("\"flow\":\"18446744073709551615\""),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"error\":3"), std::string::npos);

  const std::string empty = core::topk_json("rcs", 0, {});
  EXPECT_NE(empty.find("\"entries\":[]"), std::string::npos);
}

TEST(TopKDerive, TweaksSeedAwayFromBackendStream) {
  const auto cfg = core::derive_topk(32, true, 1234);
  EXPECT_EQ(cfg.capacity, 32u);
  EXPECT_TRUE(cfg.randomized_admission);
  EXPECT_NE(cfg.seed, 1234u);
}

}  // namespace
}  // namespace caesar

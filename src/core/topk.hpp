// Streaming top-k sidecar — the heavy-hitter query plane fed by cache
// evictions.
//
// CAESAR's cache front end already concentrates elephants: every packet
// that leaves the cache does so as an (flow, weight) eviction, and by
// snapshot time the flush has evicted the cache-resident remainder too,
// so the eviction stream carries each flow's full count. TopKTable
// subscribes to that stream with a weighted Space-Saving table (Metwally
// et al. 2005; with RAP off it is the classic algorithm), optionally
// hardened with RAP-style randomized admission (Ben-Basat et al. 2017):
// when the table is full, an untracked flow offering weight w displaces
// the minimum entry only with probability w / (min + w), which keeps
// one-packet mice from repeatedly laundering the error floor upward.
//
// Determinism contract: the table owns a private Xoshiro256pp (seeded
// from TopKConfig::seed) and never touches the datapath RNG, so enabling
// top-k cannot perturb counter values, and the batched / chunked-flush /
// live-rotation paths — which replay evictions in the exact per-packet
// order — reproduce the same table bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace caesar::core {

struct TopKConfig {
  /// Monitored entries. 0 disables the sidecar entirely (the default):
  /// the datapath skips the offer hook and snapshots carry no table.
  std::size_t capacity = 0;
  /// RAP-style randomized admission: a full table admits an untracked
  /// flow of weight w with probability w / (min + w) instead of always.
  bool randomized_admission = false;
  /// Seed for the private admission RNG. Backends derive this from their
  /// own seed with a distinct tweak so the datapath RNG stream is
  /// untouched.
  std::uint64_t seed = 1;
};

/// One monitored flow. Guarantee (inherited from Space-Saving): for a
/// tracked flow, true <= count and count - error <= true.
struct TopKEntry {
  FlowId flow = 0;
  Count count = 0;
  Count error = 0;

  friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

/// Canonical report order: count descending, flow id ascending on ties —
/// deterministic across shard merges and serial/live paths.
[[nodiscard]] inline bool topk_order(const TopKEntry& a,
                                     const TopKEntry& b) noexcept {
  if (a.count != b.count) return a.count > b.count;
  return a.flow < b.flow;
}

/// Frozen table contents, held by backend snapshots and merged across
/// shards / monitoring points. Entries are stored in topk_order.
class TopKSnapshot {
 public:
  TopKSnapshot() = default;
  TopKSnapshot(std::vector<TopKEntry> entries, std::size_t capacity);

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::vector<TopKEntry>& entries() const noexcept {
    return entries_;
  }
  /// The n heaviest entries (fewer if the table tracks fewer).
  [[nodiscard]] std::vector<TopKEntry> top(std::size_t n) const;

  /// Fold another snapshot in (disjoint traffic slices): counts and error
  /// bounds add for common flows, the union is re-ranked, and the result
  /// keeps the larger capacity's worth of entries. Merging a disabled
  /// snapshot is a no-op in either direction.
  void merge(const TopKSnapshot& other);

 private:
  std::vector<TopKEntry> entries_;
  std::size_t capacity_ = 0;
};

/// The live table. Value-semantic (copyable/movable) like every other
/// datapath component; a default-constructed or capacity-0 table is the
/// disabled state and must not be offered to.
class TopKTable {
 public:
  TopKTable() = default;  ///< disabled
  explicit TopKTable(const TopKConfig& config);

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Account `weight` (>= 1) evicted units of `flow`. Tracked flows
  /// accumulate; untracked flows claim a free slot, or — table full —
  /// displace the minimum entry (inheriting its count as error bound),
  /// subject to randomized admission when configured.
  void offer(FlowId flow, Count weight);

  [[nodiscard]] bool tracked(FlowId flow) const {
    return position_.find(flow) != position_.end();
  }
  /// Monitored count (0 if untracked).
  [[nodiscard]] Count count_of(FlowId flow) const;

  /// All monitored entries in topk_order.
  [[nodiscard]] std::vector<TopKEntry> sorted_entries() const;
  /// The n heaviest entries.
  [[nodiscard]] std::vector<TopKEntry> top(std::size_t n) const;
  /// Freeze for a backend snapshot.
  [[nodiscard]] TopKSnapshot snapshot() const;

  /// Fold another table in (disjoint traffic, e.g. CaesarSketch::merge):
  /// union-sum like TopKSnapshot::merge, then keep this table's capacity
  /// worth of heaviest entries. Requires matching capacity.
  void merge(const TopKTable& other);

  /// flow id + count + error per monitored slot.
  [[nodiscard]] double memory_kb() const noexcept;

  /// Append instruments under `prefix` (callers pass ".../topk."):
  /// offers / hits / admissions / replacements / rejections counters and
  /// a tracked-entries gauge. Read-only; safe mid-measurement.
  void collect_metrics(metrics::MetricsSnapshot& snapshot,
                       const std::string& prefix) const;

 private:
  void sift_down(std::size_t i);
  void sift_up(std::size_t i);
  [[nodiscard]] bool less(std::size_t a, std::size_t b) const noexcept {
    return heap_[a].count < heap_[b].count;
  }

  std::size_t capacity_ = 0;
  bool randomized_admission_ = false;
  std::vector<TopKEntry> heap_;  ///< min-heap over counts
  std::unordered_map<FlowId, std::size_t> position_;
  Xoshiro256pp rng_{0x7c0febf5u};  ///< admission randomness (private)

  // Observability — never consulted by the admission path.
  struct Instruments {
    metrics::Counter offers;        ///< offer() calls (evictions seen)
    metrics::Counter hits;          ///< offers landing on a tracked flow
    metrics::Counter admissions;    ///< untracked flows given a free slot
    metrics::Counter replacements;  ///< min-entry displacements
    metrics::Counter rejections;    ///< RAP-declined offers (table full)
    metrics::Gauge tracked;         ///< monitored entries (HWM = peak)
  };
  Instruments instruments_;
};

/// Derive the sidecar config every backend uses: the table's RNG seed is
/// the backend seed under a fixed distinct tweak, so the admission
/// stream is decorrelated from (and never shared with) the datapath RNG.
[[nodiscard]] inline TopKConfig derive_topk(std::size_t capacity, bool rap,
                                            std::uint64_t seed) noexcept {
  return TopKConfig{capacity, rap, seed ^ 0x27d4eb2f165667c5ULL};
}

/// Render a /topk.json document: scheme, epoch sequence, entry count and
/// the entries in rank order. Flow ids are rendered as decimal strings —
/// 64-bit ids do not survive JSON double precision.
[[nodiscard]] std::string topk_json(std::string_view scheme,
                                    std::uint64_t epoch_seq,
                                    std::span<const TopKEntry> entries);

}  // namespace caesar::core

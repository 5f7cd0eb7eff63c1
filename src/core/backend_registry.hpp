// Runtime backend selection — the type-erased face of ShardedPipeline<B>.
//
// The concept layer (core/backend.hpp) makes the datapath generic at
// compile time; this registry makes the *scheme* a runtime value, so a
// deployment binary (`netmon --scheme rcs`) or a bench harness can pick
// the backend from a flag without instantiating every template itself.
// AnyPipeline/AnyEpoch erase exactly the surface the generic machinery
// guarantees — ingest, live rotation, quiesced epoch queries, health
// signals, metrics — plus BackendCaps so callers gate optional features
// (flow-count queries, merging, weighted adds) instead of switching on
// scheme names.
//
// The virtual hop sits on the control plane only: add_parallel()/feed()
// cross it once per *batch*, and the per-packet work happens inside the
// concrete ShardedPipeline<B> exactly as when it is used directly, so
// erasure costs nothing measurable on the datapath (bench/throughput
// drives the concrete types; netmon drives this registry).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"
#include "core/backend.hpp"
#include "core/health.hpp"
#include "core/sharded_pipeline.hpp"

namespace caesar::core {

/// Scheme-agnostic sizing knobs, mapped onto each backend's own Config
/// by make_pipeline(). The mapping keeps the *resource budget*
/// comparable across schemes rather than forcing identical layouts:
///   caesar   — all knobs map one-to-one (cache M/y, SRAM L/l-bits, k)
///   rcs      — cache-free: num_counters/counter_bits/k only
///   case     — cache M/y plus num_counters codes of counter_bits each
///   countmin — depth rows splitting the same counter budget:
///              width = max(1, num_counters / depth)
struct SchemeTuning {
  std::uint64_t seed = 1;
  // Cache plane (cache-assisted schemes; ignored by rcs/countmin).
  std::uint32_t cache_entries = 100'000;  ///< M
  Count entry_capacity = 54;              ///< y
  // Counter plane.
  std::uint64_t num_counters = 50'000;  ///< L (total across rows)
  unsigned counter_bits = 15;           ///< log2(l) / code width
  std::size_t k = 3;      ///< mapped counters per flow (caesar/rcs)
  std::size_t depth = 3;  ///< rows (countmin)
  /// Streaming top-k sidecar: per-shard monitored entries (0 = off).
  /// Maps one-to-one onto every backend's topk_capacity/topk_rap.
  std::size_t topk_capacity = 0;
  bool topk_rap = false;
  /// Ground-truth sampling sidecar: per-shard bottom-K sample of flows
  /// tracked exactly so closed epochs can grade observed estimator
  /// error (0 = off). Maps one-to-one onto every backend's
  /// gt_sample_size.
  std::size_t gt_sample_size = 0;
};

/// A type-erased closed epoch (ShardedSnapshot<S> behind a vtable).
/// Immutable and shareable across threads, like the snapshot it wraps.
class AnyEpoch {
 public:
  virtual ~AnyEpoch() = default;

  [[nodiscard]] virtual std::uint64_t seq() const noexcept = 0;
  [[nodiscard]] virtual Count packets() const noexcept = 0;
  /// Clamped / signed point queries, routed to the owning shard.
  [[nodiscard]] virtual double estimate(FlowId flow) const = 0;
  [[nodiscard]] virtual double estimate_raw(FlowId flow) const = 0;
  [[nodiscard]] virtual CounterStats counter_stats() const = 0;
  /// Distinct-flow estimate; nullopt when the scheme has none
  /// (BackendCaps::flow_count is the compile-time-free way to check).
  [[nodiscard]] virtual std::optional<double> estimate_flow_count()
      const = 0;
  /// Per-epoch health signals (cache pressure already scaled by the
  /// backend's capabilities().cache_entries) — feed to
  /// HealthMonitor::on_signals().
  [[nodiscard]] virtual HealthSignals health_signals() const = 0;
  /// The n heaviest flows from the merged per-shard streaming top-k
  /// tables; empty when the scheme was built without the sidecar
  /// (BackendCaps::topk gates it). No counter is scanned.
  [[nodiscard]] virtual std::vector<TopKEntry> top_k(std::size_t n)
      const = 0;
  /// Observed accuracy over this epoch's ground-truth sample: exact
  /// per-flow counts vs estimate_raw(), summarized (core/ground_truth
  /// AccuracyStats). sampled_flows == 0 means no sample was carried
  /// (sidecar off — BackendCaps::ground_truth gates it).
  [[nodiscard]] virtual AccuracyStats observed_accuracy() const = 0;
};

/// A type-erased ShardedPipeline<B>. One production datapath, scheme
/// chosen at runtime; the method contracts (threading, epoch semantics,
/// bit-identity) are exactly ShardedPipeline's.
class AnyPipeline {
 public:
  virtual ~AnyPipeline() = default;

  [[nodiscard]] virtual std::string_view scheme() const noexcept = 0;
  [[nodiscard]] virtual BackendCaps capabilities() const = 0;
  [[nodiscard]] virtual std::size_t shards() const noexcept = 0;

  // Serial / batched ingest (outside a live session).
  virtual void add(FlowId flow) = 0;
  virtual void add_parallel(std::span<const FlowId> flows,
                            std::size_t threads) = 0;
  virtual void flush() = 0;

  // Live epoch rotation (see ShardedPipeline's threading contract).
  virtual void start_live(const LiveOptions& options) = 0;
  virtual void feed(std::span<const FlowId> flows) = 0;
  virtual std::uint64_t rotate_live() = 0;
  virtual void stop_live() = 0;
  [[nodiscard]] virtual bool live() const noexcept = 0;

  // Epoch management / concurrent query API.
  virtual std::shared_ptr<const AnyEpoch> rotate() = 0;
  [[nodiscard]] virtual std::shared_ptr<const AnyEpoch> snapshot_epoch(
      std::uint64_t seq) const = 0;
  [[nodiscard]] virtual std::shared_ptr<const AnyEpoch> latest_epoch()
      const = 0;
  [[nodiscard]] virtual std::shared_ptr<const AnyEpoch> wait_epoch(
      std::uint64_t seq) const = 0;
  [[nodiscard]] virtual std::uint64_t epochs_closed() const = 0;
  [[nodiscard]] virtual std::uint64_t flush_backlog() const noexcept = 0;
  [[nodiscard]] virtual double query_live(FlowId flow) const = 0;
  /// Streaming top-k from the most recent closed epoch (empty before the
  /// first rotation or without the sidecar — see AnyEpoch::top_k).
  [[nodiscard]] virtual std::vector<TopKEntry> topk_live(std::size_t n)
      const = 0;

  // Current (unrotated) state.
  [[nodiscard]] virtual double estimate(FlowId flow) const = 0;
  [[nodiscard]] virtual double estimate_raw(FlowId flow) const = 0;
  [[nodiscard]] virtual Count packets() const noexcept = 0;
  [[nodiscard]] virtual double memory_kb() const noexcept = 0;

  virtual void collect_metrics(metrics::MetricsSnapshot& snapshot,
                               const std::string& prefix = "") const = 0;
  /// assess_live() through the erasure (latest published epoch + backlog
  /// gauge; safe from any thread).
  [[nodiscard]] virtual HealthReport assess(
      const HealthThresholds& thresholds = {}) const = 0;
  /// The running scheme's full resolved geometry as one JSON object —
  /// scheme/shards/seed/sidecar sizes plus the backend-specific knobs
  /// (cache M/y/ways, SRAM L/bits, k, rows, ...). Immutable after
  /// construction, so safe from any thread; /config.json serves it.
  [[nodiscard]] virtual std::string config_json() const = 0;
};

/// The schemes this build registers, in `--scheme` spelling.
[[nodiscard]] std::span<const std::string_view> registered_schemes();

/// Build a sharded pipeline for `scheme` ("caesar", "rcs", "case",
/// "countmin"), mapping `tuning` onto the backend's Config as described
/// on SchemeTuning. Throws std::invalid_argument for an unknown scheme
/// (message lists the registered ones).
[[nodiscard]] std::unique_ptr<AnyPipeline> make_pipeline(
    std::string_view scheme, const SchemeTuning& tuning,
    std::size_t shards);

}  // namespace caesar::core

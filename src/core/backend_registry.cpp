#include "core/backend_registry.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "baselines/case/case_sketch.hpp"
#include "baselines/countmin/count_min.hpp"
#include "baselines/rcs/rcs_sketch.hpp"
#include "cache/simd_dispatch.hpp"
#include "core/caesar_sketch.hpp"
#include "core/epoch_manager.hpp"

namespace caesar::core {

namespace {

/// ShardedSnapshot<S> behind the AnyEpoch vtable. Holds a shared_ptr to
/// the published epoch, so wrapping is cheap and the underlying snapshot
/// outlives every erased handle.
template <SketchBackend B>
class EpochWrapper final : public AnyEpoch {
 public:
  using Epoch = typename ShardedPipeline<B>::Epoch;

  EpochWrapper(std::shared_ptr<const Epoch> epoch,
               std::uint64_t cache_entries)
      : epoch_(std::move(epoch)), cache_entries_(cache_entries) {}

  std::uint64_t seq() const noexcept override { return epoch_->seq(); }
  Count packets() const noexcept override { return epoch_->packets(); }
  double estimate(FlowId flow) const override {
    return epoch_->estimate(flow);
  }
  double estimate_raw(FlowId flow) const override {
    return epoch_->estimate_raw(flow);
  }
  CounterStats counter_stats() const override {
    return epoch_->counter_stats();
  }
  std::optional<double> estimate_flow_count() const override {
    if constexpr (requires { epoch_->estimate_flow_count(); })
      return epoch_->estimate_flow_count();
    else
      return std::nullopt;
  }
  HealthSignals health_signals() const override {
    return snapshot_signals(*epoch_, cache_entries_);
  }
  std::vector<TopKEntry> top_k(std::size_t n) const override {
    if constexpr (requires { epoch_->top_k(n); })
      return epoch_->top_k(n);
    else
      return {};
  }
  AccuracyStats observed_accuracy() const override {
    if constexpr (requires { grade_accuracy(*epoch_); })
      return grade_accuracy(*epoch_);
    else
      return {};
  }

 private:
  std::shared_ptr<const Epoch> epoch_;
  std::uint64_t cache_entries_;  ///< per-shard M (0 for cache-free)
};

/// Scheme-specific geometry fields of /config.json (the shared fields —
/// scheme, shards, seed, sidecar sizes — are assembled by the caller).
std::string geometry_json(const CaesarConfig& c) {
  std::string out;
  out += "\"cache_entries\": " + std::to_string(c.cache_entries);
  out += ", \"entry_capacity\": " + std::to_string(c.entry_capacity);
  out += ", \"cache_ways\": " + std::to_string(c.cache_ways);
  out += ", \"num_counters\": " + std::to_string(c.num_counters);
  out += ", \"counter_bits\": " + std::to_string(c.counter_bits);
  out += ", \"k\": " + std::to_string(c.k);
  out += ", \"simd\": \"";
  out += c.simd ? cache::tier_name(*c.simd) : std::string_view{"auto"};
  out += '"';
  return out;
}

std::string geometry_json(const baselines::RcsConfig& c) {
  std::string out;
  out += "\"num_counters\": " + std::to_string(c.num_counters);
  out += ", \"counter_bits\": " + std::to_string(c.counter_bits);
  out += ", \"k\": " + std::to_string(c.k);
  return out;
}

std::string geometry_json(const baselines::CaseConfig& c) {
  char max_flow[40];
  std::snprintf(max_flow, sizeof max_flow, "%.6g", c.max_flow_size);
  std::string out;
  out += "\"cache_entries\": " + std::to_string(c.cache_entries);
  out += ", \"entry_capacity\": " + std::to_string(c.entry_capacity);
  out += ", \"num_counters\": " + std::to_string(c.num_counters);
  out += ", \"counter_bits\": " + std::to_string(c.counter_bits);
  out += ", \"max_flow_size\": ";
  out += max_flow;
  return out;
}

std::string geometry_json(const baselines::CountMinConfig& c) {
  std::string out;
  out += "\"width\": " + std::to_string(c.width);
  out += ", \"depth\": " + std::to_string(c.depth);
  out += ", \"counter_bits\": " + std::to_string(c.counter_bits);
  out += ", \"conservative_update\": ";
  out += c.conservative_update ? "true" : "false";
  return out;
}

template <SketchBackend B>
class PipelineWrapper final : public AnyPipeline {
 public:
  PipelineWrapper(const typename B::Config& config, std::size_t shards)
      : pipeline_(config, shards) {}

  std::string_view scheme() const noexcept override {
    return ShardedPipeline<B>::scheme();
  }
  BackendCaps capabilities() const override {
    return pipeline_.capabilities();
  }
  std::size_t shards() const noexcept override {
    return pipeline_.shards();
  }

  void add(FlowId flow) override { pipeline_.add(flow); }
  void add_parallel(std::span<const FlowId> flows,
                    std::size_t threads) override {
    pipeline_.add_parallel(flows, threads);
  }
  void flush() override { pipeline_.flush(); }

  void start_live(const LiveOptions& options) override {
    pipeline_.start_live(options);
  }
  void feed(std::span<const FlowId> flows) override {
    pipeline_.feed(flows);
  }
  std::uint64_t rotate_live() override { return pipeline_.rotate_live(); }
  void stop_live() override { pipeline_.stop_live(); }
  bool live() const noexcept override { return pipeline_.live(); }

  std::shared_ptr<const AnyEpoch> rotate() override {
    return wrap(pipeline_.rotate());
  }
  std::shared_ptr<const AnyEpoch> snapshot_epoch(
      std::uint64_t seq) const override {
    return wrap(pipeline_.snapshot_epoch(seq));
  }
  std::shared_ptr<const AnyEpoch> latest_epoch() const override {
    return wrap(pipeline_.latest_snapshot());
  }
  std::shared_ptr<const AnyEpoch> wait_epoch(
      std::uint64_t seq) const override {
    return wrap(pipeline_.wait_epoch(seq));
  }
  std::uint64_t epochs_closed() const override {
    return pipeline_.epochs_closed();
  }
  std::uint64_t flush_backlog() const noexcept override {
    return pipeline_.flush_backlog();
  }
  double query_live(FlowId flow) const override {
    return pipeline_.query_live(flow);
  }
  std::vector<TopKEntry> topk_live(std::size_t n) const override {
    if constexpr (requires { pipeline_.topk_live(n); })
      return pipeline_.topk_live(n);
    else
      return {};
  }

  double estimate(FlowId flow) const override {
    return pipeline_.estimate(flow);
  }
  double estimate_raw(FlowId flow) const override {
    return pipeline_.estimate_raw(flow);
  }
  Count packets() const noexcept override { return pipeline_.packets(); }
  double memory_kb() const noexcept override {
    return pipeline_.memory_kb();
  }

  void collect_metrics(metrics::MetricsSnapshot& snapshot,
                       const std::string& prefix) const override {
    pipeline_.collect_metrics(snapshot, prefix);
  }
  HealthReport assess(const HealthThresholds& thresholds) const override {
    return assess_live(pipeline_, thresholds);
  }
  std::string config_json() const override {
    // per_shard_config() is immutable after construction, so this is
    // safe from any thread even mid-session (unlike shard(0).config()).
    const auto& cfg = pipeline_.per_shard_config();
    std::string out = "{\"scheme\": \"";
    out += scheme();
    out += "\", \"shards\": " + std::to_string(pipeline_.shards());
    out += ", \"seed\": " + std::to_string(cfg.seed);
    out += ", \"topk_capacity\": " + std::to_string(cfg.topk_capacity);
    out += ", \"gt_sample_size\": " + std::to_string(cfg.gt_sample_size);
    out += ", ";
    out += geometry_json(cfg);
    out += '}';
    return out;
  }

 private:
  std::shared_ptr<const AnyEpoch> wrap(
      std::shared_ptr<const typename ShardedPipeline<B>::Epoch> epoch)
      const {
    if (!epoch) return nullptr;
    return std::make_shared<const EpochWrapper<B>>(
        std::move(epoch), pipeline_.capabilities().cache_entries);
  }

  ShardedPipeline<B> pipeline_;
};

constexpr std::array<std::string_view, 4> kSchemes = {
    CaesarSketch::kSchemeName, baselines::RcsSketch::kSchemeName,
    baselines::CaseSketch::kSchemeName,
    baselines::CountMinSketch::kSchemeName};

}  // namespace

std::span<const std::string_view> registered_schemes() { return kSchemes; }

std::unique_ptr<AnyPipeline> make_pipeline(std::string_view scheme,
                                           const SchemeTuning& tuning,
                                           std::size_t shards) {
  if (scheme == CaesarSketch::kSchemeName) {
    CaesarConfig cfg;
    cfg.cache_entries = tuning.cache_entries;
    cfg.entry_capacity = tuning.entry_capacity;
    cfg.num_counters = tuning.num_counters;
    cfg.counter_bits = tuning.counter_bits;
    cfg.k = tuning.k;
    cfg.seed = tuning.seed;
    cfg.topk_capacity = tuning.topk_capacity;
    cfg.topk_rap = tuning.topk_rap;
    cfg.gt_sample_size = tuning.gt_sample_size;
    return std::make_unique<PipelineWrapper<CaesarSketch>>(cfg, shards);
  }
  if (scheme == baselines::RcsSketch::kSchemeName) {
    baselines::RcsConfig cfg;
    cfg.num_counters = tuning.num_counters;
    cfg.counter_bits = tuning.counter_bits;
    cfg.k = tuning.k;
    cfg.seed = tuning.seed;
    cfg.topk_capacity = tuning.topk_capacity;
    cfg.topk_rap = tuning.topk_rap;
    cfg.gt_sample_size = tuning.gt_sample_size;
    return std::make_unique<PipelineWrapper<baselines::RcsSketch>>(cfg, shards);
  }
  if (scheme == baselines::CaseSketch::kSchemeName) {
    baselines::CaseConfig cfg;
    cfg.cache_entries = tuning.cache_entries;
    cfg.entry_capacity = tuning.entry_capacity;
    cfg.num_counters = tuning.num_counters;
    cfg.counter_bits = tuning.counter_bits;
    // Stretch codes of `counter_bits` each must still cover the largest
    // flow a counter of that many plain bits would (with headroom for
    // the compression to matter).
    cfg.max_flow_size =
        tuning.counter_bits >= 40
            ? 1e12
            : static_cast<double>(Count{4} << tuning.counter_bits);
    cfg.seed = tuning.seed;
    cfg.topk_capacity = tuning.topk_capacity;
    cfg.topk_rap = tuning.topk_rap;
    cfg.gt_sample_size = tuning.gt_sample_size;
    return std::make_unique<PipelineWrapper<baselines::CaseSketch>>(
        cfg, shards);
  }
  if (scheme == baselines::CountMinSketch::kSchemeName) {
    baselines::CountMinConfig cfg;
    const std::size_t depth = tuning.depth == 0 ? 1 : tuning.depth;
    cfg.depth = depth;
    cfg.width = tuning.num_counters / depth;
    if (cfg.width == 0) cfg.width = 1;
    cfg.counter_bits = tuning.counter_bits;
    cfg.seed = tuning.seed;
    cfg.topk_capacity = tuning.topk_capacity;
    cfg.topk_rap = tuning.topk_rap;
    cfg.gt_sample_size = tuning.gt_sample_size;
    return std::make_unique<PipelineWrapper<baselines::CountMinSketch>>(
        cfg, shards);
  }
  std::string msg = "make_pipeline: unknown scheme \"";
  msg += scheme;
  msg += "\" (registered:";
  for (std::string_view s : kSchemes) {
    msg += ' ';
    msg += s;
  }
  msg += ')';
  throw std::invalid_argument(msg);
}

}  // namespace caesar::core

#include "core/epoch_manager.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "hash/murmur3.hpp"

namespace caesar::core {

EpochSnapshot::EpochSnapshot(counters::CounterArray sram,
                             EstimatorParams params,
                             const CaesarConfig& config, TopKSnapshot topk,
                             GroundTruthSample ground_truth)
    : sram_(std::move(sram)),
      params_(params),
      selector_(config.k, config.num_counters, config.seed),
      topk_(std::move(topk)),
      ground_truth_(std::move(ground_truth)) {}

std::vector<Count> EpochSnapshot::counter_values(FlowId flow) const {
  std::array<std::uint64_t, hash::KIndexSelector::kMaxK> idx{};
  selector_.select(flow, std::span<std::uint64_t>(idx.data(), params_.k));
  std::vector<Count> w(params_.k);
  for (std::size_t r = 0; r < params_.k; ++r) w[r] = sram_.peek(idx[r]);
  return w;
}

double EpochSnapshot::estimate_csm_raw(FlowId flow) const {
  return csm_estimate(counter_values(flow), params_);
}

double EpochSnapshot::estimate_mlm_raw(FlowId flow) const {
  return mlm_estimate(counter_values(flow), params_);
}

double EpochSnapshot::estimate_csm(FlowId flow) const {
  return std::max(estimate_csm_raw(flow), 0.0);
}

double EpochSnapshot::estimate_mlm(FlowId flow) const {
  return std::max(estimate_mlm_raw(flow), 0.0);
}

double EpochSnapshot::estimate_flow_count() const {
  // Same linear-counting form as CaesarSketch::estimate_flow_count, over
  // the frozen snapshot SRAM: Q_hat = ln(zeros/L) / ln(1 - k/L).
  const auto l = static_cast<double>(params_.num_counters);
  const std::uint64_t zeros = sram_.zero_count();
  if (zeros == 0) return std::numeric_limits<double>::infinity();
  const double p_untouched = 1.0 - static_cast<double>(params_.k) / l;
  return std::log(static_cast<double>(zeros) / l) / std::log(p_untouched);
}

CounterStats EpochSnapshot::counter_stats() const {
  CounterStats stats;
  stats.counters = sram_.size();
  stats.capacity = static_cast<double>(sram_.capacity());
  for (std::uint64_t c = 0; c < sram_.size(); ++c) {
    const Count v = sram_.peek(c);
    stats.total_value += v;
    if (v >= sram_.capacity()) ++stats.saturated;
  }
  return stats;
}

void EpochSnapshot::merge(const EpochSnapshot& other) {
  if (params_.k != other.params_.k ||
      params_.num_counters != other.params_.num_counters ||
      params_.entry_capacity != other.params_.entry_capacity)
    throw std::invalid_argument(
        "EpochSnapshot::merge: estimator parameters must match");
  sram_.merge(other.sram_);
  params_.total_packets += other.params_.total_packets;
  topk_.merge(other.topk_);
  ground_truth_.merge(other.ground_truth_);
}

EpochSnapshot CaesarSketch::finalize() const {
  if (cache_table().occupied() != 0 || spill_size() != 0)
    throw std::logic_error(
        "CaesarSketch::finalize: flush() the cache before finalizing");
  return EpochSnapshot(sram(), estimator_params(), config(),
                       topk().snapshot(), ground_truth().snapshot());
}

}  // namespace caesar::core

// Closed epochs — the offline-queryable artifact of a measurement
// window. The paper's construction/query split assumes one finite
// measurement ("at the end of the measurement, we dump all the cache
// entries"); real deployments measure forever and report per interval.
// Closing an epoch flushes the cache and snapshots the SRAM state
// (CaesarSketch::finalize()); ShardedPipeline::rotate()/rotate_live()
// close epochs of the sharded datapath and retain them in a
// SnapshotStore.
#pragma once

#include <cstdint>
#include <vector>

#include "core/backend.hpp"
#include "core/caesar_sketch.hpp"

namespace caesar::core {

/// A closed epoch: everything needed to run the offline query phase.
/// Models the SketchSnapshot concept (core/backend.hpp) — this is
/// CaesarSketch::Snapshot, what CaesarSketch::finalize() returns.
class EpochSnapshot {
 public:
  EpochSnapshot(counters::CounterArray sram, EstimatorParams params,
                const CaesarConfig& config, TopKSnapshot topk = {},
                GroundTruthSample ground_truth = {});

  /// Clamped-at-zero query API; the *_raw variants keep the signed
  /// values for evaluation code (see CaesarSketch's header note).
  [[nodiscard]] double estimate_csm(FlowId flow) const;
  [[nodiscard]] double estimate_mlm(FlowId flow) const;
  [[nodiscard]] double estimate_csm_raw(FlowId flow) const;
  [[nodiscard]] double estimate_mlm_raw(FlowId flow) const;
  /// Generic (SketchSnapshot) spellings — the CSM estimator.
  [[nodiscard]] double estimate(FlowId flow) const {
    return estimate_csm(flow);
  }
  [[nodiscard]] double estimate_raw(FlowId flow) const {
    return estimate_csm_raw(flow);
  }
  /// Distinct flows recorded in this epoch — linear counting over the
  /// snapshot's untouched counters (same semantics and caveats as
  /// CaesarSketch::estimate_flow_count; +inf when no counter is zero).
  [[nodiscard]] double estimate_flow_count() const;
  [[nodiscard]] Count packets() const noexcept {
    return static_cast<Count>(params_.total_packets);
  }
  [[nodiscard]] const counters::CounterArray& sram() const noexcept {
    return sram_;
  }

  /// Counter-plane aggregates for health grading: one O(L) scan.
  [[nodiscard]] CounterStats counter_stats() const;

  /// The streaming top-k table frozen at rotation (cache-resident counts
  /// already folded in by the closing flush); disabled unless
  /// CaesarConfig::topk_capacity was set.
  [[nodiscard]] const TopKSnapshot& top_k() const noexcept { return topk_; }

  /// The ground-truth sample frozen at rotation: exact counts of the
  /// bottom-K hash-sampled flows of this epoch (disabled/empty unless
  /// CaesarConfig::gt_sample_size was set). grade_accuracy()
  /// (core/backend.hpp) compares these against the estimators.
  [[nodiscard]] const GroundTruthSample& ground_truth() const noexcept {
    return ground_truth_;
  }

  /// The estimator geometry this snapshot answers queries with — lets
  /// the accuracy grader evaluate the model error bound per flow.
  [[nodiscard]] const EstimatorParams& estimator_params() const noexcept {
    return params_;
  }

  /// Merge a snapshot of a different traffic slice measured with an
  /// identical configuration (same seed — the snapshot cannot verify the
  /// seed itself; ShardedSnapshot::merge checks the routing seed, and
  /// CaesarSketch::merge the full config). Counters and totals add.
  void merge(const EpochSnapshot& other);

 private:
  [[nodiscard]] std::vector<Count> counter_values(FlowId flow) const;

  counters::CounterArray sram_;
  EstimatorParams params_;
  hash::KIndexSelector selector_;
  TopKSnapshot topk_;
  GroundTruthSample ground_truth_;
};

/// A closed epoch of a sharded CAESAR pipeline — the historical name for
/// the generic ShardedSnapshot over CAESAR's per-shard EpochSnapshot.
/// The CSM/MLM query surface survives via ShardedSnapshot's constrained
/// forwards.
using ShardedEpochSnapshot = ShardedSnapshot<EpochSnapshot>;

}  // namespace caesar::core

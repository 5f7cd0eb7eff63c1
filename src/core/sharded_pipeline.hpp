// ShardedPipeline<B> — the production datapath, generic over any
// SketchBackend (core/backend.hpp).
//
// Flows are partitioned by a hash of the flow ID into S independent
// backend shards. Because every packet of a flow lands in exactly one
// shard, per-flow queries route to a single shard and no cross-shard
// merging is needed.
//
// One worker protocol serves both ingest modes. A worker set is one SPSC
// ring per shard, one eventcount per worker, the router's per-shard
// staging buffers and the worker threads; every ring is drained by one
// worker loop. A live session (start_live/feed/rotate_live/stop_live)
// keeps a set open between start_live() and stop_live(); add_parallel()
// opens one for a single batch, routes it, and joins. The single router
// preserves the batch order within every shard, so every counter value
// is bit-identical to a sequential run (verified by the tests).
//
// Contention discipline (docs/PERFORMANCE.md "The sharded pipeline
// contention model" carries the full write-up):
//
//   * Routing is a radix-scatter stage: the router hashes a whole chunk
//     of packets in one tight pass, scatters them into per-shard staging
//     buffers, and moves them into the rings with try_push_bulk — ring
//     (and cacheline) traffic is per *batch*, never per packet.
//   * Workers run a bounded spin -> park protocol on a per-worker
//     EventCount (futex-backed): a configurable number of idle passes
//     (WorkerPacing) spin-yield, then the worker parks in the kernel.
//     The spin budget adapts — it halves after every unproductive park
//     (an idle stream converges to park-fast) and restores on work. The
//     router's notify() after a push is one relaxed load unless a worker
//     is actually parked.
//   * Epoch markers ride the same push + notify protocol, so a marker
//     can never livelock against a parked worker.
//   * On hosts without enough cores to run router and workers in
//     parallel (or for small batches), add_parallel() degrades to an
//     inline radix pass: partition once, then run each shard's slice
//     through the batched ingest fast path on the calling thread —
//     bit-identical, and strictly faster than the per-packet loop it
//     replaces.
//
// Live epoch rotation: rotate_live() injects an in-band epoch marker
// into every ring. Each worker, on popping the marker, hands its shard's
// backend to a background finalizer (which flushes it in bounded chunks,
// finalize()s it and publishes an immutable ShardedSnapshot) and swaps
// in a pre-built standby — the ingest thread stalls only for the marker
// pushes, never for the flush. Queries (query_live / snapshot_epoch /
// wait_epoch) read published snapshots through a SnapshotStore and
// never block the workers. Because markers travel the same FIFO rings
// as packets, every packet lands in exactly the epoch it was fed in,
// and each closed epoch is bit-identical to a stop-the-world rotate()
// at the same packet boundary (pinned for every backend by
// tests/core/backend_conformance_test.cpp, and exhaustively for CAESAR
// by tests/core/live_rotation_test.cpp).
//
// Retired-backend metrics: when rotation (live or stop-the-world)
// replaces a shard's backend, the outgoing backend's datapath
// instruments (cache.*, sram.*, spill.*, ...) are accumulated into a
// per-shard archive after its final flush, and collect_metrics() folds
// the archive into the live backend's tree — so shardN.cache.packets
// counts the whole session, not just the epoch currently open.
//
// CAESAR results through ShardedPipeline<CaesarSketch> match the golden
// pins bit for bit: same per-shard seed derivation, same RNG and
// eviction ordering, and FIFO routing per shard (DESIGN.md "The backend
// bit-identity contract").
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/eventcount.hpp"
#include "common/metrics.hpp"
#include "common/snapshot_store.hpp"
#include "common/spsc_ring.hpp"
#include "common/tracing.hpp"
#include "core/backend.hpp"
#include "hash/murmur3.hpp"

namespace caesar::core {

/// Spin/park and routing-granularity knobs shared by add_parallel() and
/// live sessions. Every field uses 0 as "use the default".
struct WorkerPacing {
  /// Idle drain passes a worker spin-yields before parking on its
  /// futex. 0 = 64.
  std::size_t spin_iters = 0;
  /// Adaptive floor: the spin budget halves after every unproductive
  /// park but never below this. 0 = 4.
  std::size_t spin_floor = 0;
  /// Per-shard staging buffer length — packets scattered per shard
  /// before a bulk push. 0 = 256.
  std::size_t route_chunk = 0;
};

/// Tuning knobs for a live rotation session.
struct LiveOptions {
  std::size_t threads = 0;      ///< shard workers; 0 = min(shards, cores)
  std::size_t max_epochs = 8;   ///< retained snapshots; 0 = unbounded
  std::size_t ring_capacity = 8192;   ///< per-shard SPSC ring size
  std::size_t flush_chunk = 2048;     ///< finalizer flush budget per step
  WorkerPacing pacing;          ///< spin/park + staging knobs
};

template <SketchBackend B>
class ShardedPipeline {
 public:
  using Backend = B;
  using Config = typename B::Config;
  using ShardSnapshot = typename B::Snapshot;
  /// The published epoch type: one backend Snapshot per shard.
  using Epoch = ShardedSnapshot<ShardSnapshot>;

  /// `shards` independent backends, each built from `per_shard` with a
  /// distinct derived seed.
  ShardedPipeline(const Config& per_shard, std::size_t shards) {
    if (shards == 0)
      throw std::invalid_argument(
          "ShardedPipeline: need at least one shard");
    shards_.reserve(shards);
    shard_configs_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      Config cfg = per_shard;
      cfg.seed = per_shard.seed ^ (0x9e3779b97f4a7c15ULL * (s + 1));
      shard_configs_.push_back(cfg);
      shards_.emplace_back(cfg);
    }
    ingest_metrics_ = std::vector<ShardIngestMetrics>(shards);
    retired_metrics_ = std::vector<metrics::MetricsSnapshot>(shards);
    per_shard_config_ = per_shard;
    // The routing hash must be independent of every in-shard hash;
    // derive it from the base seed with a distinct tweak.
    route_seed_ = per_shard.seed ^ 0x517cc1b727220a95ULL;
  }

  ~ShardedPipeline() { stop_live(); }

  // Worker threads hold references into this object during a live
  // session, and the snapshot store owns synchronization primitives;
  // neither copying nor moving is meaningful.
  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Scheme identity / capabilities of the configured backend.
  [[nodiscard]] static constexpr std::string_view scheme() noexcept {
    return B::kSchemeName;
  }
  [[nodiscard]] BackendCaps capabilities() const {
    return B::capabilities(per_shard_config_);
  }

  [[nodiscard]] std::size_t shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of(FlowId flow) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<__uint128_t>(hash::fmix64(flow ^ route_seed_)) *
         shards_.size()) >>
        64);
  }

  /// Default pacing for this pipeline (add_parallel always, live
  /// sessions unless LiveOptions::pacing overrides a field). Settable
  /// only between sessions/batches.
  void set_pacing(const WorkerPacing& pacing) {
    if (live_)
      throw std::logic_error(
          "ShardedPipeline::set_pacing: not during a live session");
    pacing_ = pacing;
  }
  [[nodiscard]] const WorkerPacing& pacing() const noexcept {
    return pacing_;
  }

  /// Sequential ingest of one packet.
  void add(FlowId flow) {
    if (live_)
      throw std::logic_error(
          "ShardedPipeline::add: shards are owned by live workers during "
          "a live session; use feed()");
    shards_[shard_of(flow)].ingest(flow);
  }

  /// Parallel ingest of a packet batch: this thread routes packets into
  /// the shard rings while up to `threads` workers consume them
  /// concurrently (deterministic, identical to sequential ingest). It
  /// opens one worker set — the protocol a live session runs — and joins
  /// it before returning; no finalizer runs and the snapshot store is
  /// untouched. threads == 0 picks the shard count; the effective worker
  /// count is additionally capped by the host's core count — spawning
  /// more workers than cores only adds coherence and scheduler traffic,
  /// and on a single-core host the batch runs through the inline radix
  /// path instead (bit-identical, no threads).
  void add_parallel(std::span<const FlowId> flows,
                    std::size_t threads = 0) {
    if (live_)
      throw std::logic_error(
          "ShardedPipeline::add_parallel: shards are owned by live "
          "workers during a live session; use feed()");
    const std::size_t num_shards = shards_.size();
    if (threads == 0) threads = num_shards;
    threads = std::min({threads, num_shards, useful_workers()});
    // Small batches don't amortize thread start-up, and a single worker
    // gains nothing from the ring hop; both run the inline radix path.
    if (threads <= 1 || flows.size() <= 4096) {
      add_inline(flows);
      return;
    }
    parallel_batches_.inc();
    WorkerSet workers;
    open_workers(workers, threads, LiveOptions{}.ring_capacity,
                 resolve_pacing(pacing_));
    route(workers, flows);
    stop_workers(workers);
  }

  void flush() {
    for (auto& shard : shards_) shard.flush();
  }

  // --- live epoch rotation ----------------------------------------------
  // A live session keeps a worker set open between start_live() and
  // stop_live(). feed() and rotate_live() must be called from the
  // thread that called start_live() (it is the single producer of every
  // ring); the query API below may be called from any number of other
  // threads.

  /// Start the resident pipeline: spawn shard workers, the background
  /// finalizer, and pre-build one standby backend per shard. Throws
  /// std::logic_error if a session is already active.
  void start_live(const LiveOptions& options = {}) {
    if (live_)
      throw std::logic_error(
          "ShardedPipeline: live session already active");
    if (options.ring_capacity == 0)
      throw std::invalid_argument(
          "ShardedPipeline::start_live: ring_capacity must be nonzero");
    const std::size_t num_shards = shards_.size();
    auto st = std::make_unique<LiveState>();
    st->flush_chunk = std::max<std::size_t>(options.flush_chunk, 1);
    const std::size_t threads =
        options.threads == 0 ? std::min(num_shards, useful_workers())
                             : std::min(options.threads, num_shards);
    // Session pacing: explicit LiveOptions fields win over the
    // pipeline-level defaults field by field.
    WorkerPacing merged = pacing_;
    if (options.pacing.spin_iters)
      merged.spin_iters = options.pacing.spin_iters;
    if (options.pacing.spin_floor)
      merged.spin_floor = options.pacing.spin_floor;
    if (options.pacing.route_chunk)
      merged.route_chunk = options.pacing.route_chunk;
    st->standby.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      auto slot = std::make_unique<StandbySlot>();
      slot->sketch = std::make_unique<B>(shard_configs_[s]);
      st->standby.push_back(std::move(slot));
    }
    st->next_marker_seq = store_.published();
    store_.set_retention(options.max_epochs);
    store_.open();

    LiveState& state = *st;
    live_ = std::move(st);
    try {
      state.finalizer = std::thread([this, &state] { finalizer_loop(state); });
      open_workers(state.workers, threads, options.ring_capacity,
                   resolve_pacing(merged));
    } catch (...) {
      stop_finalizer(state);
      store_.close();
      live_.reset();
      throw;
    }
  }

  /// Route a packet batch into the shard rings (non-blocking except for
  /// ring backpressure). Packets fed before a rotate_live() call belong
  /// to the epoch it closes; packets fed after belong to the next one.
  void feed(std::span<const FlowId> flows) {
    if (!live_)
      throw std::logic_error("ShardedPipeline::feed: no live session");
    live_metrics_.packets_fed.add(flows.size());
    route(live_->workers, flows);
    // route() leaves nothing staged: when feed() returns, every packet
    // is in its ring and a following rotate_live() marker cannot
    // overtake it.
  }

  /// Close the current epoch *without stopping ingest*: pushes an epoch
  /// marker into every shard ring. Each worker swaps in its standby
  /// backend at the marker; the closed backends are flushed and
  /// published by the finalizer. Returns the epoch's sequence number
  /// (pass to snapshot_epoch / wait_epoch). The caller stalls only for
  /// the marker pushes.
  std::uint64_t rotate_live() {
    if (!live_)
      throw std::logic_error(
          "ShardedPipeline::rotate_live: no live session (use rotate())");
    LiveState* st = live_.get();
    const auto t0 = clock_type::now();
    const std::uint64_t seq = st->next_marker_seq++;
    tracing::TraceSpan span("live.rotate_call");
    span.arg(seq);
    if constexpr (metrics::kEnabled || tracing::kEnabled) {
      std::lock_guard<std::mutex> lock(st->fq_mu);
      st->marker_times[seq] = t0;
    }
    // feed() leaves the staging buffers empty, so the marker is the
    // next item every shard sees after the epoch's final packet. The
    // marker rides the same push + notify protocol as packets: a full
    // ring wakes the (possibly parked) owning worker instead of bare
    // spinning against it.
    const LiveItem marker{0, seq + 1};
    for (std::size_t s = 0; s < shards_.size(); ++s)
      push_all(st->workers, s, std::span<const LiveItem>(&marker, 1));
    live_metrics_.rotate_call_us.record(elapsed_us(t0));
    return seq;
  }

  /// Drain the rings, retire the workers and finalizer (publishing any
  /// epoch still in flight), and return to serial mode. The current
  /// (unrotated) epoch stays in the shards: flush()/rotate()/queries
  /// work as usual afterwards. No-op when no session is active.
  void stop_live() {
    if (!live_) return;
    live_metrics_.ring_backpressure.add(stop_workers(live_->workers));
    stop_finalizer(*live_);
    store_.close();
    live_.reset();
  }

  [[nodiscard]] bool live() const noexcept { return live_ != nullptr; }

  /// Stop-the-world rotation (the serial baseline): flush every shard,
  /// finalize, reset, publish. Ingest is blocked for the duration —
  /// bench/rotation_pause.cpp measures exactly this pause against
  /// rotate_live(). Not callable during a live session (logic_error);
  /// snapshots published here and by live sessions share one sequence.
  std::shared_ptr<const Epoch> rotate() {
    if (live_)
      throw std::logic_error(
          "ShardedPipeline::rotate: stop-the-world rotation is not "
          "available during a live session; use rotate_live()");
    const auto t0 = clock_type::now();
    std::vector<ShardSnapshot> snaps;
    snaps.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].flush();
      snaps.push_back(shards_[s].finalize());
      retire_shard_metrics(s, shards_[s]);
      shards_[s] = B(shard_configs_[s]);
    }
    auto snap = std::make_shared<const Epoch>(store_.published(),
                                              route_seed_,
                                              std::move(snaps));
    store_.publish(snap);
    record_accuracy(*snap);
    live_metrics_.rotations.inc();
    live_metrics_.snapshots_retained.set(store_.retained());
    live_metrics_.rotate_call_us.record(elapsed_us(t0));
    return snap;
  }

  // Concurrent query API — served from published (quiesced) snapshots,
  // never from the backends the workers are writing. Safe from any
  // thread, during or outside a live session; never blocks the workers.
  /// Clamped estimate from the most recent closed epoch (0.0 before any
  /// epoch has closed).
  [[nodiscard]] double query_live(FlowId flow) const {
    live_metrics_.queries.inc();
    const auto snap = store_.latest();
    return snap ? snap->estimate(flow) : 0.0;
  }
  /// The n heaviest flows from the most recent closed epoch's merged
  /// per-shard top-k tables (empty before any epoch has closed, or when
  /// the backend config left the sidecar disabled). No counter is
  /// scanned — the cost is the rank-merge of the shard tables. Present
  /// only when the backend's snapshot carries a top-k table.
  [[nodiscard]] std::vector<TopKEntry> topk_live(std::size_t n) const
    requires requires(const Epoch& e) { e.top_k(n); }
  {
    live_metrics_.queries.inc();
    const auto snap = store_.latest();
    return snap ? snap->top_k(n) : std::vector<TopKEntry>{};
  }

  /// Snapshot of epoch `seq`; nullptr when unpublished or evicted by
  /// the retention bound.
  [[nodiscard]] std::shared_ptr<const Epoch> snapshot_epoch(
      std::uint64_t seq) const {
    return store_.get(seq);
  }
  /// Most recent closed epoch; nullptr before the first rotation.
  [[nodiscard]] std::shared_ptr<const Epoch> latest_snapshot() const {
    return store_.latest();
  }
  /// Block until epoch `seq` is published (nullptr if the session stops
  /// first or retention already evicted it).
  [[nodiscard]] std::shared_ptr<const Epoch> wait_epoch(
      std::uint64_t seq) const {
    return store_.wait(seq);
  }
  /// Epochs closed so far (live and stop-the-world combined).
  [[nodiscard]] std::uint64_t epochs_closed() const {
    return store_.published();
  }
  /// Counter-plane units awaiting a finalizer flush (the
  /// live.flush_backlog gauge; 0 outside a live session or with metrics
  /// compiled out). Relaxed-atomic read, safe from any thread.
  [[nodiscard]] std::uint64_t flush_backlog() const noexcept {
    return live_metrics_.flush_backlog.value();
  }

  // Clamped-at-zero query API; *_raw forwards keep the signed values
  // for evaluation code (see the backend contract in core/backend.hpp).
  [[nodiscard]] double estimate(FlowId flow) const {
    return shards_[shard_of(flow)].estimate(flow);
  }
  [[nodiscard]] double estimate_raw(FlowId flow) const {
    return shards_[shard_of(flow)].estimate_raw(flow);
  }

  [[nodiscard]] Count packets() const noexcept {
    Count total = 0;
    for (const auto& shard : shards_) total += shard.packets();
    return total;
  }
  [[nodiscard]] double memory_kb() const noexcept {
    double total = 0.0;
    for (const auto& shard : shards_) total += shard.memory_kb();
    return total;
  }

  [[nodiscard]] const B& shard(std::size_t index) const noexcept {
    return shards_[index];
  }

  /// The base per-shard configuration (shard seeds are derived from
  /// it). Immutable after construction, so — unlike shard() — it is
  /// safe to read from any thread during a live session.
  [[nodiscard]] const Config& per_shard_config() const noexcept {
    return per_shard_config_;
  }

  /// Append pipeline + per-shard instruments to `snapshot`: the
  /// aggregate "pipeline.*" and "live.*" series carry a
  /// {backend=<scheme>} label (rendered as a Prometheus label by the
  /// exporter) since every scheme emits them; the per-shard
  /// "shard<i>.*" trees stay scheme-shaped and unlabeled, and fold in
  /// the archived instruments of every backend that rotation has
  /// retired (so the datapath series count the whole session). Call
  /// between (not during) add_parallel() calls; during a live session,
  /// call only at quiesced points — after wait_epoch() on the newest
  /// rotation with no feed() since its marker (the exporter idiom in
  /// the examples) — because the running backends' trees are plain
  /// counters the workers write.
  void collect_metrics(metrics::MetricsSnapshot& snapshot,
                       const std::string& prefix = "") const {
    const std::string label =
        std::string("{backend=") + std::string(B::kSchemeName) + "}";
    snapshot.add_counter(prefix + "pipeline.parallel_batches" + label,
                         parallel_batches_);
    snapshot.add_counter(prefix + "pipeline.inline_batches" + label,
                         inline_batches_);
    metrics::Counter routed_total, backpressure_total, batches_total;
    metrics::Histogram batch_size_total;
    // Pipeline-level "topk.*" / "ground_truth.*" aggregates, summed from
    // the scheme-shaped per-shard trees (which carry them only when the
    // respective sidecar is on).
    std::vector<metrics::MetricsSnapshot::Sample> topk_counter_totals;
    std::uint64_t topk_tracked = 0, topk_tracked_hw = 0;
    bool topk_present = false;
    std::vector<metrics::MetricsSnapshot::Sample> gt_counter_totals;
    std::uint64_t gt_tracked = 0, gt_tracked_hw = 0;
    bool gt_present = false;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& m = ingest_metrics_[s];
      std::string shard_prefix = prefix;
      shard_prefix += "shard";
      shard_prefix += std::to_string(s);
      shard_prefix += ".";
      snapshot.add_counter(shard_prefix + "pipeline.packets_routed",
                           m.packets_routed);
      snapshot.add_counter(shard_prefix + "pipeline.ring_backpressure",
                           m.ring_backpressure);
      snapshot.add_counter(shard_prefix + "pipeline.worker_batches",
                           m.worker_batches);
      snapshot.add_histogram(shard_prefix + "pipeline.batch_size",
                             m.batch_size);
      // The scheme-shaped tree: the live backend's instruments plus the
      // archive of every rotated-away predecessor.
      metrics::MetricsSnapshot shard_tree;
      shards_[s].collect_metrics(shard_tree, "");
      if constexpr (metrics::kEnabled) {
        std::lock_guard<std::mutex> lock(retired_mu_);
        shard_tree.accumulate(retired_metrics_[s]);
      }
      const auto sum_into =
          [](std::vector<metrics::MetricsSnapshot::Sample>& totals,
             const metrics::MetricsSnapshot::Sample& c) {
            auto it = std::find_if(
                totals.begin(), totals.end(),
                [&](const auto& t) { return t.name == c.name; });
            if (it == totals.end())
              totals.push_back({c.name, c.value});
            else
              it->value += c.value;
          };
      for (const auto& c : shard_tree.counters()) {
        snapshot.add_counter(shard_prefix + c.name, c.value);
        if (c.name.starts_with("topk.")) {
          topk_present = true;
          sum_into(topk_counter_totals, c);
        } else if (c.name.starts_with("ground_truth.")) {
          gt_present = true;
          sum_into(gt_counter_totals, c);
        }
      }
      for (const auto& g : shard_tree.gauges()) {
        snapshot.add_gauge(shard_prefix + g.name, g.value, g.high_water);
        if (g.name == "topk.tracked") {
          topk_present = true;
          topk_tracked += g.value;
          topk_tracked_hw += g.high_water;
        }
        if (g.name == "ground_truth.tracked") {
          gt_present = true;
          gt_tracked += g.value;
          gt_tracked_hw += g.high_water;
        }
      }
      for (const auto& h : shard_tree.histograms())
        snapshot.add_histogram(shard_prefix + h.name, h);
      routed_total.add(m.packets_routed.value());
      backpressure_total.add(m.ring_backpressure.value());
      batches_total.add(m.worker_batches.value());
      batch_size_total.merge(m.batch_size);
    }
    snapshot.add_counter(prefix + "pipeline.packets_routed" + label,
                         routed_total);
    snapshot.add_counter(prefix + "pipeline.ring_backpressure" + label,
                         backpressure_total);
    snapshot.add_counter(prefix + "pipeline.worker_batches" + label,
                         batches_total);
    snapshot.add_histogram(prefix + "pipeline.batch_size" + label,
                           batch_size_total);
    // Sidecar series — emitted only when at least one shard runs the
    // sidecar, so schemes without the capability add no dead series.
    for (const auto& t : topk_counter_totals)
      snapshot.add_counter(prefix + t.name + label, t.value);
    if (topk_present)
      snapshot.add_gauge(prefix + "topk.tracked" + label, topk_tracked,
                         topk_tracked_hw);
    for (const auto& t : gt_counter_totals)
      snapshot.add_counter(prefix + t.name + label, t.value);
    if (gt_present)
      snapshot.add_gauge(prefix + "ground_truth.tracked" + label,
                         gt_tracked, gt_tracked_hw);
    // Observed-accuracy series, refreshed once per rotation by
    // record_accuracy(). Absent until an epoch with an enabled sample
    // has closed, so a sampling-off run's /metrics carries no
    // accuracy.* series at all.
    if (accuracy_metrics_.epochs_graded.value() > 0) {
      snapshot.add_counter(prefix + "accuracy.epochs_graded" + label,
                           accuracy_metrics_.epochs_graded);
      snapshot.add_counter(prefix + "accuracy.underestimates" + label,
                           accuracy_metrics_.underestimates);
      snapshot.add_counter(prefix + "accuracy.overestimates" + label,
                           accuracy_metrics_.overestimates);
      snapshot.add_gauge(prefix + "accuracy.sampled_flows" + label,
                         accuracy_metrics_.sampled_flows);
      snapshot.add_gauge(prefix + "accuracy.are_ppm" + label,
                         accuracy_metrics_.are_ppm);
      snapshot.add_gauge(prefix + "accuracy.p50_rel_error_ppm" + label,
                         accuracy_metrics_.p50_rel_error_ppm);
      snapshot.add_gauge(prefix + "accuracy.p95_rel_error_ppm" + label,
                         accuracy_metrics_.p95_rel_error_ppm);
      snapshot.add_gauge(prefix + "accuracy.model_are_ppm" + label,
                         accuracy_metrics_.model_are_ppm);
    }
    // Contention series (the spin/park + staged-routing evidence).
    snapshot.add_counter(prefix + "pipeline.router_stalls" + label,
                         contention_.router_stalls);
    snapshot.add_histogram(prefix + "pipeline.router_stall_us" + label,
                           contention_.router_stall_us);
    snapshot.add_counter(prefix + "pipeline.worker_parks" + label,
                         contention_.worker_parks);
    snapshot.add_counter(prefix + "pipeline.worker_wakeups" + label,
                         contention_.worker_wakeups);
    snapshot.add_histogram(prefix + "pipeline.staging_flush_size" + label,
                           contention_.staging_flush_size);
    snapshot.add_histogram(prefix + "pipeline.ring_occupancy" + label,
                           contention_.ring_occupancy);
    // Live rotation series. All instruments are relaxed atomics, so the
    // roll-up is race-free mid-session. Ring backpressure (here and in
    // pipeline.ring_backpressure) is folded in when a worker set stops,
    // so it is exact only after stop_live() or add_parallel() returns.
    snapshot.add_counter(prefix + "live.rotations" + label,
                         live_metrics_.rotations);
    snapshot.add_counter(prefix + "live.standby_miss" + label,
                         live_metrics_.standby_miss);
    snapshot.add_counter(prefix + "live.packets_fed" + label,
                         live_metrics_.packets_fed);
    snapshot.add_counter(prefix + "live.queries" + label,
                         live_metrics_.queries);
    snapshot.add_counter(prefix + "live.ring_backpressure" + label,
                         live_metrics_.ring_backpressure);
    snapshot.add_histogram(prefix + "live.rotate_call_us" + label,
                           live_metrics_.rotate_call_us);
    snapshot.add_histogram(prefix + "live.rotation_latency_us" + label,
                           live_metrics_.rotation_latency_us);
    snapshot.add_gauge(prefix + "live.flush_backlog" + label,
                       live_metrics_.flush_backlog);
    snapshot.add_gauge(prefix + "live.snapshots_retained" + label,
                       live_metrics_.snapshots_retained);
  }

 protected:
  using clock_type = std::chrono::steady_clock;

  static constexpr std::size_t kWorkerChunk = 2048;  ///< pop batch
  static constexpr std::size_t kScatterChunk = 512;  ///< router hash pass
  static constexpr std::size_t kDefaultRouteChunk = 256;
  static constexpr std::size_t kInlineStaging = 2048;  ///< inline path
  static constexpr std::size_t kDefaultSpinIters = 64;
  static constexpr std::size_t kDefaultSpinFloor = 4;

  /// Pacing with every 0 resolved to its effective value.
  struct ResolvedPacing {
    std::size_t spin_iters;
    std::size_t spin_floor;
    std::size_t route_chunk;
  };

  static ResolvedPacing resolve_pacing(const WorkerPacing& p) {
    ResolvedPacing r;
    r.spin_iters = p.spin_iters != 0 ? p.spin_iters : kDefaultSpinIters;
    r.spin_floor = p.spin_floor != 0 ? p.spin_floor : kDefaultSpinFloor;
    if (r.spin_floor > r.spin_iters) r.spin_floor = r.spin_iters;
    r.route_chunk =
        p.route_chunk != 0 ? p.route_chunk : kDefaultRouteChunk;
    return r;
  }

  /// Worker threads the host can actually run alongside the router.
  /// hardware_concurrency() is advisory and may be 0 (unknown) — treat
  /// that as "no cap".
  [[nodiscard]] std::size_t useful_workers() const noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) return shards_.size();
    return hw > 1 ? static_cast<std::size_t>(hw) : 1;
  }

  static std::uint64_t elapsed_us(clock_type::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            clock_type::now() - t0)
            .count());
  }

  /// One ring element: a packet, or an epoch marker sequencing a
  /// rotation.
  struct LiveItem {
    FlowId flow = 0;
    std::uint64_t marker_seq_plus_1 = 0;  ///< 0 = packet, else seq + 1
  };

  /// The shard workers and what they share with the router: one SPSC
  /// ring per shard, one eventcount per worker, the router-side staging
  /// buffers and the stop flag. Worker w owns shards w, w + threads, ...
  /// Opened by open_workers(), retired by stop_workers(); worker threads
  /// hold its address, so it never moves.
  struct WorkerSet {
    ResolvedPacing pace{};
    std::size_t threads = 0;
    std::vector<std::unique_ptr<SpscRing<LiveItem>>> rings;
    std::vector<std::unique_ptr<EventCount>> wakeups;  ///< per worker
    std::vector<std::vector<LiveItem>> staged;  ///< router-side staging
    std::atomic<bool> ingest_done{false};
    std::vector<std::thread> workers;
  };

  /// A shard backend handed from its worker to the finalizer at a
  /// marker.
  struct ClosedShard {
    std::uint64_t seq = 0;
    std::size_t shard = 0;
    std::unique_ptr<B> sketch;
  };

  /// Pre-built fresh backend for one shard's next epoch. The worker
  /// takes it at a marker; the finalizer refills it off the hot path.
  /// The mutex is uncontended except in the instant of a rotation.
  struct StandbySlot {
    std::mutex mu;
    std::unique_ptr<B> sketch;
  };

  /// A live session: the standby backends and the worker -> finalizer
  /// hand-off around one open worker set.
  struct LiveState {
    std::size_t flush_chunk = 1;  ///< finalizer flush budget per step
    std::vector<std::unique_ptr<StandbySlot>> standby;

    // Worker -> finalizer hand-off queue.
    std::mutex fq_mu;
    std::condition_variable fq_cv;
    std::deque<ClosedShard> fq;
    bool fq_done = false;

    /// Marker-injection timestamps for the rotation-latency series
    /// (guarded by fq_mu; only touched when metrics are enabled).
    std::map<std::uint64_t, clock_type::time_point> marker_times;

    std::uint64_t next_marker_seq = 0;  ///< router thread only

    WorkerSet workers;
    std::thread finalizer;
  };

  /// Build the rings and spawn `threads` workers running worker_loop().
  /// If a spawn fails, the workers already started are stopped and
  /// joined before the exception propagates.
  void open_workers(WorkerSet& ws, std::size_t threads,
                    std::size_t ring_capacity, const ResolvedPacing& pace) {
    const std::size_t num_shards = shards_.size();
    ws.pace = pace;
    ws.threads = threads;
    ws.rings.reserve(num_shards);
    ws.staged.resize(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      ws.rings.push_back(std::make_unique<SpscRing<LiveItem>>(ring_capacity));
      ws.staged[s].reserve(pace.route_chunk);
    }
    ws.wakeups.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      ws.wakeups.push_back(std::make_unique<EventCount>());
    ws.workers.reserve(threads);
    try {
      for (std::size_t w = 0; w < threads; ++w)
        ws.workers.emplace_back([this, &ws, w] { worker_loop(ws, w); });
    } catch (...) {
      stop_workers(ws);
      throw;
    }
  }

  /// Raise the stop flag, wake and join every worker (each drains its
  /// rings first), then fold every ring's backpressure into
  /// shardN.pipeline.ring_backpressure and its occupancy into
  /// pipeline.ring_occupancy (the threads have joined, so the reads are
  /// exact). Returns the set's total backpressure.
  std::uint64_t stop_workers(WorkerSet& ws) {
    ws.ingest_done.store(true, std::memory_order_release);
    for (auto& ec : ws.wakeups) ec->notify();
    for (auto& worker : ws.workers) worker.join();
    std::uint64_t backpressure = 0;
    for (std::size_t s = 0; s < ws.rings.size(); ++s) {
      const std::uint64_t stalled = ws.rings[s]->push_backpressure();
      ingest_metrics_[s].ring_backpressure.add(stalled);
      contention_.ring_occupancy.merge(ws.rings[s]->push_occupancy());
      backpressure += stalled;
    }
    return backpressure;
  }

  /// The one worker-thread body: drain the owned rings through the
  /// batched ingest fast path, rotating a shard at each epoch marker,
  /// until the router stops; then flush each owned shard's pending
  /// spill. Between productive passes it spin-yields for an adaptive
  /// budget, then parks on its eventcount until the router's notify.
  /// The budget halves after every unproductive park and restores to
  /// the configured value on work, so an idle stream converges to
  /// park-fast while a bursty one keeps spinning through the gaps.
  void worker_loop(WorkerSet& ws, std::size_t w) {
    const std::size_t num_shards = shards_.size();
    const ResolvedPacing& pace = ws.pace;
    EventCount& wakeup = *ws.wakeups[w];
    std::vector<LiveItem> buf(kWorkerChunk);
    std::vector<FlowId> batch;
    batch.reserve(kWorkerChunk);

    const auto process_items = [&](std::size_t s,
                                   std::span<const LiveItem> items) {
      batch.clear();
      for (const auto& item : items) {
        if (item.marker_seq_plus_1 == 0) {
          batch.push_back(item.flow);
          continue;
        }
        // Packets before the marker close out the current epoch.
        if (!batch.empty()) {
          shards_[s].ingest_batch(batch);
          batch.clear();
        }
        rotate_shard(s, item.marker_seq_plus_1 - 1);
      }
      if (!batch.empty()) shards_[s].ingest_batch(batch);
    };

    const auto drain_pass = [&] {
      bool any = false;
      for (std::size_t s = w; s < num_shards; s += ws.threads) {
        const std::size_t n =
            ws.rings[s]->try_pop_bulk(std::span<LiveItem>(buf));
        if (n > 0) {
          tracing::TraceSpan span("live.pop_batch");
          span.arg(n);
          process_items(s, std::span<const LiveItem>(buf.data(), n));
          ingest_metrics_[s].worker_batches.inc();
          ingest_metrics_[s].batch_size.record(n);
          any = true;
        }
      }
      return any;
    };
    const auto is_done = [&] {
      return ws.ingest_done.load(std::memory_order_acquire);
    };

    std::size_t budget = pace.spin_iters;
    std::size_t idle = 0;
    for (;;) {
      if (drain_pass()) {
        idle = 0;
        budget = pace.spin_iters;
        continue;
      }
      if (is_done()) {
        // The router has stopped; an empty pass after observing the
        // flag means the owned rings are drained for good.
        if (!drain_pass()) break;
        idle = 0;
        budget = pace.spin_iters;
        continue;
      }
      if (idle < budget) {
        ++idle;
        std::this_thread::yield();
        continue;
      }
      // Park. Register first, then re-check: a push (or shutdown) that
      // lands between the check and the wait is guaranteed to see the
      // registration and notify (see common/eventcount.hpp).
      const std::uint32_t ticket = wakeup.prepare_wait();
      if (is_done() || drain_pass()) {
        wakeup.cancel_wait();
        idle = 0;
        continue;
      }
      contention_.worker_parks.inc();
      {
        tracing::TraceSpan span("pipeline.worker_park");
        wakeup.commit_wait(ticket);
      }
      contention_.worker_wakeups.inc();
      idle = 0;
      budget = budget / 2 > pace.spin_floor ? budget / 2 : pace.spin_floor;
    }
    for (std::size_t s = w; s < num_shards; s += ws.threads)
      shards_[s].drain_pending();
  }

  /// At an epoch marker, on shard s's worker: hand the shard's backend
  /// to the finalizer and swap in the pre-built standby. Only
  /// rotate_live() pushes markers, so a live session is active.
  void rotate_shard(std::size_t s, std::uint64_t seq) {
    LiveState& state = *live_;
    std::unique_ptr<B> fresh;
    {
      auto& slot = *state.standby[s];
      std::lock_guard<std::mutex> lock(slot.mu);
      fresh = std::move(slot.sketch);
    }
    if (!fresh) {
      // Rotation outpaced the finalizer's refill: build inline (the
      // stall the standby_miss series flags).
      live_metrics_.standby_miss.inc();
      fresh = std::make_unique<B>(shard_configs_[s]);
    }
    auto closed = std::make_unique<B>(std::move(shards_[s]));
    shards_[s] = std::move(*fresh);
    {
      std::lock_guard<std::mutex> lock(state.fq_mu);
      state.fq.push_back(ClosedShard{seq, s, std::move(closed)});
    }
    state.fq_cv.notify_one();
  }

  /// The finalizer thread body: reassemble each epoch from the shards'
  /// closed backends, then flush every shard in bounded chunks
  /// (reporting backlog between steps), finalize, publish. Markers reach
  /// shard s in rotation order and the finalizer pops in arrival order,
  /// so epochs complete (and publish) in sequence. Returns once
  /// stop_finalizer() has raised fq_done and the queue is drained.
  void finalizer_loop(LiveState& state) {
    const std::size_t shards = shards_.size();
    std::map<std::uint64_t, std::vector<std::unique_ptr<B>>> pending;
    std::map<std::uint64_t, std::size_t> arrived;
    for (;;) {
      ClosedShard item;
      {
        std::unique_lock<std::mutex> lock(state.fq_mu);
        state.fq_cv.wait(
            lock, [&] { return !state.fq.empty() || state.fq_done; });
        if (state.fq.empty()) break;  // fq_done and drained
        item = std::move(state.fq.front());
        state.fq.pop_front();
      }
      // Refill this shard's standby first: the next rotation should
      // find a prebuilt backend even while we are still flushing this
      // one.
      {
        auto& slot = *state.standby[item.shard];
        std::lock_guard<std::mutex> lock(slot.mu);
        if (!slot.sketch)
          slot.sketch = std::make_unique<B>(shard_configs_[item.shard]);
      }
      auto& epoch_shards = pending[item.seq];
      if (epoch_shards.empty()) epoch_shards.resize(shards);
      epoch_shards[item.shard] = std::move(item.sketch);
      if (++arrived[item.seq] < shards) continue;

      // Epoch complete. The flushed backend's instruments are archived
      // before it dies — the session's shardN.* datapath metrics must
      // keep counting across rotations.
      tracing::TraceSpan finalize_span("live.finalize_epoch");
      finalize_span.arg(item.seq);
      std::vector<ShardSnapshot> snaps;
      snaps.reserve(shards);
      for (std::size_t sh = 0; sh < shards; ++sh) {
        auto& sketch = epoch_shards[sh];
        std::size_t remaining;
        do {
          remaining = sketch->flush_chunk(state.flush_chunk);
          live_metrics_.flush_backlog.set(remaining);
        } while (remaining > 0);
        snaps.push_back(sketch->finalize());
        retire_shard_metrics(sh, *sketch);
      }
      auto snap = std::make_shared<const Epoch>(item.seq, route_seed_,
                                                std::move(snaps));
      store_.publish(snap);
      record_accuracy(*snap);
      live_metrics_.rotations.inc();
      live_metrics_.snapshots_retained.set(store_.retained());
      if constexpr (metrics::kEnabled || tracing::kEnabled) {
        clock_type::time_point t0;
        {
          std::lock_guard<std::mutex> lock(state.fq_mu);
          t0 = state.marker_times[item.seq];
          state.marker_times.erase(item.seq);
        }
        const std::uint64_t us = elapsed_us(t0);
        live_metrics_.rotation_latency_us.record(us);
        if (tracing::active()) {
          // The marker was injected on the ingest thread; reconstruct
          // the span end-anchored so it lands on this (finalizer)
          // timeline.
          const std::uint64_t end = tracing::now_ns();
          tracing::emit("live.rotation_latency", end - us * 1000, end,
                        item.seq);
        }
      }
      pending.erase(item.seq);
      arrived.erase(item.seq);
    }
  }

  /// Let the finalizer drain what the workers handed it, then join it.
  void stop_finalizer(LiveState& state) {
    {
      std::lock_guard<std::mutex> lock(state.fq_mu);
      state.fq_done = true;
    }
    state.fq_cv.notify_all();
    if (state.finalizer.joinable()) state.finalizer.join();
  }

  /// Push everything in `pending` into shard s's ring, waking the owning
  /// worker's eventcount after progress. The cold path (ring full)
  /// spins with yields, re-notifying each attempt — a parked worker
  /// that raced the fill is woken, so this can never livelock — and
  /// records the stall on the contention series.
  void push_all(WorkerSet& ws, std::size_t s,
                std::span<const LiveItem> pending) {
    SpscRing<LiveItem>& ring = *ws.rings[s];
    EventCount& wakeup = *ws.wakeups[s % ws.threads];
    pending = pending.subspan(ring.try_push_bulk(pending));
    if (pending.empty()) {
      wakeup.notify();
      return;
    }
    contention_.router_stalls.inc();
    const auto t0 = clock_type::now();
    while (!pending.empty()) {
      wakeup.notify();
      std::this_thread::yield();
      pending = pending.subspan(ring.try_push_bulk(pending));
    }
    wakeup.notify();
    contention_.router_stall_us.record(elapsed_us(t0));
  }

  /// Route a packet batch into a worker set's rings: the radix-scatter
  /// stage below, each full staging buffer bulk-pushed with a wake.
  /// Leaves nothing staged.
  void route(WorkerSet& ws, std::span<const FlowId> flows) {
    route_batch(
        flows, ws.staged, ws.pace,
        [](FlowId f) { return LiveItem{f, 0}; },
        [&](std::size_t s, std::span<const LiveItem> pending) {
          push_all(ws, s, pending);
        });
  }

  /// The radix-scatter routing stage: hash a chunk of packets in one
  /// tight pass (data-independent, vectorizer- and OoO-friendly), then
  /// scatter them into per-shard staging buffers, flushing a shard's
  /// staging through `flush` (bulk push + wake) whenever it fills.
  /// Every staging buffer is flushed before returning.
  template <typename Item, typename MakeItem, typename Flush>
  void route_batch(std::span<const FlowId> flows,
                   std::vector<std::vector<Item>>& staged,
                   const ResolvedPacing& pace, MakeItem&& make,
                   Flush&& flush) {
    std::array<std::uint32_t, kScatterChunk> shard_ids;
    const auto flush_staged = [&](std::size_t s) {
      auto& buf = staged[s];
      if (buf.empty()) return;
      ingest_metrics_[s].packets_routed.add(buf.size());
      contention_.staging_flush_size.record(buf.size());
      flush(s, std::span<const Item>(buf));
      buf.clear();
    };
    for (std::size_t base = 0; base < flows.size();
         base += kScatterChunk) {
      const std::size_t chunk =
          std::min(kScatterChunk, flows.size() - base);
      for (std::size_t i = 0; i < chunk; ++i)
        shard_ids[i] = static_cast<std::uint32_t>(shard_of(flows[base + i]));
      for (std::size_t i = 0; i < chunk; ++i) {
        const std::size_t s = shard_ids[i];
        staged[s].push_back(make(flows[base + i]));
        if (staged[s].size() >= pace.route_chunk) flush_staged(s);
      }
    }
    for (std::size_t s = 0; s < staged.size(); ++s) flush_staged(s);
  }

  /// The no-worker fallback: the same radix-scatter router stage, but
  /// with the per-shard staging buffers flushed straight into the
  /// batched ingest fast path instead of a ring. The staging buffers
  /// are small and cache-hot (no O(batch) scratch, no ring hop), and
  /// per-shard packet order matches the streaming pipeline exactly, so
  /// the result is bit-identical — this is what a one-core host runs
  /// instead of an oversubscribed router/worker pair.
  void add_inline(std::span<const FlowId> flows) {
    const std::size_t num_shards = shards_.size();
    if (flows.empty()) return;
    inline_batches_.inc();
    if (num_shards == 1) {
      ingest_metrics_[0].packets_routed.add(flows.size());
      ingest_metrics_[0].worker_batches.inc();
      ingest_metrics_[0].batch_size.record(flows.size());
      shards_[0].ingest_batch(flows);
      shards_[0].drain_pending();
      return;
    }
    // With no ring to bound, bigger staging runs amortize the batched
    // kernel's setup better than the ring-sized default; an explicit
    // route_chunk still wins.
    ResolvedPacing pace = resolve_pacing(pacing_);
    if (pacing_.route_chunk == 0) pace.route_chunk = kInlineStaging;
    std::vector<std::vector<FlowId>> staged(num_shards);
    for (auto& b : staged) b.reserve(pace.route_chunk);
    route_batch(
        flows, staged, pace, [](FlowId f) { return f; },
        [&](std::size_t s, std::span<const FlowId> pending) {
          tracing::TraceSpan span("pipeline.inline_batch");
          span.arg(pending.size());
          shards_[s].ingest_batch(pending);
          ingest_metrics_[s].worker_batches.inc();
          ingest_metrics_[s].batch_size.record(pending.size());
        });
    for (auto& shard : shards_) shard.drain_pending();
  }

  /// Grade a freshly published epoch's observed accuracy and refresh the
  /// accuracy.* series. Compiled away unless the backend snapshot
  /// carries a ground-truth sample; a no-op when sampling is disabled
  /// (the series stay absent). Runs on the finalizer thread (live) or
  /// the rotating thread (stop-the-world) — instruments are relaxed
  /// atomics, so collect_metrics() may read concurrently.
  void record_accuracy(const Epoch& epoch) const {
    if constexpr (requires { grade_accuracy(epoch); }) {
      if constexpr (metrics::kEnabled) {
        const AccuracyStats stats = grade_accuracy(epoch);
        if (stats.sampled_flows == 0) return;
        const auto ppm = [](double v) -> std::uint64_t {
          if (!std::isfinite(v) || v <= 0.0) return 0;
          return static_cast<std::uint64_t>(v * 1e6);
        };
        accuracy_metrics_.epochs_graded.inc();
        accuracy_metrics_.underestimates.add(stats.underestimates);
        accuracy_metrics_.overestimates.add(stats.overestimates);
        accuracy_metrics_.sampled_flows.set(stats.sampled_flows);
        accuracy_metrics_.are_ppm.set(ppm(stats.are));
        accuracy_metrics_.p50_rel_error_ppm.set(ppm(stats.p50_rel_error));
        accuracy_metrics_.p95_rel_error_ppm.set(ppm(stats.p95_rel_error));
        accuracy_metrics_.model_are_ppm.set(ppm(stats.model_are));
      }
    } else {
      (void)epoch;
    }
  }

  /// Archive the datapath instruments of a backend that rotation is
  /// about to discard (called after its final flush/finalize), so the
  /// per-shard metric tree keeps counting across epochs.
  void retire_shard_metrics(std::size_t s, const B& backend) const {
    if constexpr (metrics::kEnabled) {
      metrics::MetricsSnapshot tree;
      backend.collect_metrics(tree, "");
      std::lock_guard<std::mutex> lock(retired_mu_);
      retired_metrics_[s].accumulate(tree);
    } else {
      (void)s;
      (void)backend;
    }
  }

  // Per-shard ingest observability, aggregated over add_parallel()
  // calls and live sessions. Worker-side instruments are sharded (each
  // shard is owned by exactly one worker per worker set) and atomic, so
  // the roll-up is race-free.
  struct ShardIngestMetrics {
    metrics::Counter packets_routed;     ///< packets staged to shard
    metrics::Counter ring_backpressure;  ///< stalled batches at the ring
    metrics::Counter worker_batches;     ///< non-empty pops by worker
    metrics::Histogram batch_size;       ///< packets per non-empty pop
  };

  // Router/worker contention observability (the spin/park protocol's
  // own instruments). Relaxed atomics, racy-read-safe like the rest.
  struct ContentionMetrics {
    metrics::Counter router_stalls;      ///< staged flushes that stalled
    metrics::Histogram router_stall_us;  ///< stall duration per event
    metrics::Counter worker_parks;       ///< futex parks entered
    metrics::Counter worker_wakeups;     ///< parks that returned
    metrics::Histogram staging_flush_size;  ///< packets per staging flush
    metrics::Histogram ring_occupancy;   ///< ring fill seen at each push
  };

  // Live rotation observability. Workers and the finalizer write these
  // through relaxed atomics, so reading them from collect_metrics() is
  // race-free at any time (values are advisory mid-session, exact after
  // stop_live()).
  struct LiveMetrics {
    metrics::Counter rotations;        ///< snapshots published
    metrics::Counter standby_miss;     ///< marker found no prebuilt one
    metrics::Counter packets_fed;      ///< packets routed by feed()
    metrics::Counter queries;          ///< query_live() calls served
    metrics::Counter ring_backpressure;  ///< stalled batches, live rings only
    metrics::Histogram rotate_call_us;   ///< ingest stall per rotate
    metrics::Histogram rotation_latency_us;  ///< marker -> publish
    metrics::Gauge flush_backlog;      ///< units awaiting flush
    metrics::Gauge snapshots_retained;
  };

  // Observed-accuracy observability: per-rotation grading of the
  // ground-truth sample against the estimators (record_accuracy). The
  // relative-error gauges publish in parts-per-million — the gauge plane
  // is integral, and ppm keeps four significant digits of a 0.01% ARE.
  struct AccuracyMetrics {
    metrics::Counter epochs_graded;   ///< epochs with a non-empty sample
    metrics::Counter underestimates;  ///< graded flows with raw < exact
    metrics::Counter overestimates;   ///< graded flows with raw > exact
    metrics::Gauge sampled_flows;     ///< flows graded last epoch
    metrics::Gauge are_ppm;           ///< observed ARE (ppm)
    metrics::Gauge p50_rel_error_ppm;
    metrics::Gauge p95_rel_error_ppm;
    metrics::Gauge model_are_ppm;     ///< model-predicted ARE (ppm)
  };

  std::vector<B> shards_;
  std::vector<Config> shard_configs_;  ///< derived per-shard configs
  std::vector<ShardIngestMetrics> ingest_metrics_;
  metrics::Counter parallel_batches_;
  metrics::Counter inline_batches_;
  WorkerPacing pacing_;
  Config per_shard_config_{};
  std::uint64_t route_seed_ = 0;

  /// Instrument archive of rotated-away backends, one snapshot per
  /// shard (bare, prefix-free names). Written by the finalizer /
  /// rotate(), read by collect_metrics(); the mutex is off every hot
  /// path.
  mutable std::mutex retired_mu_;
  mutable std::vector<metrics::MetricsSnapshot> retired_metrics_;

  /// Published epochs; retention defaults to LiveOptions::max_epochs
  /// and is re-armed by every start_live().
  SnapshotStore<const Epoch> store_{LiveOptions{}.max_epochs};
  std::unique_ptr<LiveState> live_;
  mutable LiveMetrics live_metrics_;
  mutable ContentionMetrics contention_;
  mutable AccuracyMetrics accuracy_metrics_;
};

}  // namespace caesar::core

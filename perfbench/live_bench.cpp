// Live-session benchmark driver.
//
// Drives core::make_pipeline -> start_live / feed / rotate_live /
// wait_epoch / stop_live at paper scale (trace::paper_config(true),
// geometry from analysis::tuning_for_trace, 2 shards) for one workload,
// checks every published epoch, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/NOTES.md describes the workloads and metrics.
//
//   live_bench --workload paper_uniform --seed 1 --seconds 10 --trace 0
//   live_bench --self-check            # ledger arithmetic only
//   live_bench ... --smoke             # 20 K-flow trace (self-check size)
#include <cpuid.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment_setup.hpp"
#include "baselines/rcs/rcs_sketch.hpp"
#include "cache/cache_table.hpp"
#include "common/build_info.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "core/backend_registry.hpp"
#include "core/caesar_sketch.hpp"
#include "core/epoch_manager.hpp"
#include "core/ground_truth.hpp"
#include "hash/murmur3.hpp"
#include "ledger.hpp"
#include "trace/synthetic.hpp"

namespace {

using caesar::Count;
using caesar::FlowId;
using perfbench::now_ns;
using perfbench::Span;
using perfbench::SpanLog;

// ---------------------------------------------------------------------------
// Workloads (rationale in NOTES.md).

constexpr std::size_t kShards = 2;
constexpr std::size_t kPasses = 2;          ///< timed passes per session
constexpr std::size_t kFeedChunk = 8192;    ///< packets per feed() call
constexpr std::size_t kAreFlows = 65536;    ///< epoch_are flow subset
constexpr std::size_t kTopkCapacity = 1000;
constexpr std::size_t kGtSample = 4096;
constexpr double kQueryRate = 4000.0;       ///< query_live per second
constexpr double kTopkRate = 20.0;          ///< topk_live(100) per second
constexpr std::size_t kTopkN = 100;
constexpr std::size_t kReplayChunk = 2048;  ///< the live worker's pop batch
constexpr std::uint64_t kPublishTimeoutNs = 120'000'000'000ULL;

struct Workload {
  std::string_view name;
  std::string_view scheme;
  std::size_t epochs_per_pass;
  bool sidecars;  ///< top-k kTopkCapacity + ground truth kGtSample
  bool queries;   ///< open-loop query thread
};

constexpr Workload kWorkloads[] = {
    {"paper_uniform", "caesar", 8, false, false},
    {"paper_sidecars_query", "caesar", 8, true, true},
    {"rcs_sidecars", "rcs", 8, true, false},
};

// ---------------------------------------------------------------------------
// Small helpers.

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Highest of p50/p90/p99/p99.9 that leaves at least 10 samples beyond it.
struct Tail {
  double value = std::nan("");
  const char* label = "none";
};
Tail highest_tail(const std::vector<double>& v) {
  static constexpr std::pair<double, const char*> kTails[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.90, "p90"}, {0.50, "p50"}};
  for (const auto& [q, label] : kTails) {
    const double beyond = (1.0 - q) * static_cast<double>(v.size());
    if (beyond >= 10.0) return Tail{percentile(v, q), label};
  }
  return {};
}

struct Usage {
  double cpu_s = 0.0;
  std::uint64_t minflt = 0;
  std::uint64_t ctxsw = 0;
};
Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  u.ctxsw = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// Current resident set size in bytes (/proc/self/statm).
std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t counter(const caesar::metrics::MetricsSnapshot& ms,
                      const std::string& name) {
  return ms.find(name).value_or(0);
}

/// Sum of a per-shard counter "shard<i>.<suffix>" over the shards.
std::uint64_t shard_sum(const caesar::metrics::MetricsSnapshot& ms,
                        const std::string& suffix) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s)
    total += counter(ms, "shard" + std::to_string(s) + "." + suffix);
  return total;
}

// ---------------------------------------------------------------------------
// Inputs: the trace as a flat flow-id stream, the epoch boundaries, and the
// exact per-epoch counts of a seed-derived flow subset.

struct Inputs {
  caesar::trace::TraceConfig trace_config;
  caesar::core::SchemeTuning tuning;
  std::vector<FlowId> packets;       ///< one pass, arrival order
  std::uint64_t flows = 0;
  std::uint64_t max_flow = 0;
  std::vector<std::size_t> offsets;  ///< epoch e = [offsets[e], offsets[e+1])
  std::vector<FlowId> are_flows;     ///< the epoch_are subset
  std::vector<std::vector<std::uint32_t>> are_counts;  ///< [epoch][slot]
  std::vector<FlowId> query_flows;   ///< flows the query thread asks for
  double generate_s = 0.0;
  bool smoke = false;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed, bool smoke) {
  Inputs in;
  in.smoke = smoke;
  in.trace_config = caesar::trace::paper_config(true);
  if (smoke) in.trace_config.num_flows = 20'000;
  in.trace_config.seed =
      caesar::hash::fmix64(seed ^ 0x6a09e667f3bcc909ULL) | 1;
  const std::uint64_t t0 = now_ns();
  const auto trace = caesar::trace::generate_trace(in.trace_config);
  in.flows = trace.num_flows();
  for (Count s : trace.flow_sizes())
    in.max_flow = std::max<std::uint64_t>(in.max_flow, s);
  const auto& arrivals = trace.arrivals();
  in.packets.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    in.packets[i] = trace.id_of(arrivals[i]);

  const std::size_t n = in.packets.size();
  const std::size_t epochs = w.epochs_per_pass;
  in.offsets.resize(epochs + 1);
  for (std::size_t e = 0; e <= epochs; ++e) in.offsets[e] = e * n / epochs;

  caesar::Xoshiro256pp rng(seed ^ 0x3c6ef372fe94f82bULL);
  std::vector<std::int32_t> slot_of(in.flows, -1);
  while (in.are_flows.size() < std::min<std::uint64_t>(kAreFlows, in.flows)) {
    const auto f = static_cast<std::uint32_t>(rng.below(in.flows));
    if (slot_of[f] >= 0) continue;
    slot_of[f] = static_cast<std::int32_t>(in.are_flows.size());
    in.are_flows.push_back(trace.id_of(f));
  }
  in.are_counts.assign(epochs,
                       std::vector<std::uint32_t>(in.are_flows.size(), 0));
  for (std::size_t e = 0; e < epochs; ++e)
    for (std::size_t i = in.offsets[e]; i < in.offsets[e + 1]; ++i)
      if (const auto s = slot_of[arrivals[i]]; s >= 0)
        ++in.are_counts[e][static_cast<std::size_t>(s)];
  for (std::size_t q = 0; q < 65'536; ++q)
    in.query_flows.push_back(trace.id_of(
        static_cast<std::uint32_t>(rng.below(in.flows))));

  in.tuning = caesar::analysis::tuning_for_trace(in.trace_config);
  if (w.sidecars) {
    in.tuning.topk_capacity = kTopkCapacity;
    in.tuning.gt_sample_size = kGtSample;
  }
  in.generate_s = static_cast<double>(now_ns() - t0) / 1e9;
  return in;
}

// ---------------------------------------------------------------------------
// One live session: make_pipeline .. stop_live over `passes` passes.

struct SessionResult {
  unsigned producer_cpu = 0;
  std::uint64_t packets = 0;
  std::uint64_t epochs = 0;
  double setup_s = 0.0;
  double ingest_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t minflt = 0;
  std::uint64_t ctxsw = 0;
  double rss_mb = 0.0;
  std::vector<double> publish_ms;  ///< rotate_live return -> wait_epoch
  std::vector<double> rotate_us;   ///< rotate_live call
  std::vector<double> query_us, topk_us, late_us;
  std::uint64_t queries = 0;
  std::uint64_t query_errors = 0;
  std::uint64_t missing_packets = 0;
  std::uint64_t unpublished = 0;
  double epoch_are = 0.0;
  double observed_are = std::nan("");
  bool are_finite = true;
  bool topk_ordered = true;
  double feed_self_ns = 0.0;
  caesar::metrics::MetricsSnapshot metrics;
  std::shared_ptr<const caesar::core::AnyEpoch> last_epoch;
  std::vector<Span> spans;

  [[nodiscard]] double mpps() const {
    return static_cast<double>(packets) / ingest_s / 1e6;
  }
};

SessionResult run_session(const Workload& w, const Inputs& in,
                          std::size_t passes, bool traced,
                          unsigned producer_cpu) {
  SessionResult r;
  r.producer_cpu = producer_cpu;
  const std::size_t epochs_per_pass = w.epochs_per_pass;
  const std::size_t total_epochs = epochs_per_pass * passes;
  SpanLog plog(traced, 1), olog(traced, 2), qlog(traced, 3), glog(traced, 5);

  // Hand freed heap pages back to the kernel first, so the pages this
  // session's pipeline touches show up in its resident-set growth.
  malloc_trim(0);
  const std::uint64_t rss0 = rss_bytes();
  const std::uint64_t s0 = now_ns();
  auto pipeline = caesar::core::make_pipeline(w.scheme, in.tuning, kShards);
  caesar::core::LiveOptions options;
  // Smoke-size epochs close every few hundred microseconds, faster than
  // the observer can be scheduled, so there the store keeps every epoch.
  // At paper scale the default retention of 8 is 0.16 s or more ahead.
  if (in.smoke) options.max_epochs = 0;
  pipeline->start_live(options);
  const std::uint64_t s1 = now_ns();
  r.setup_s = static_cast<double>(s1 - s0) / 1e9;
  plog.add("setup", s0, s1);
  auto& p = *pipeline;

  std::vector<std::uint64_t> published_ns(total_epochs, 0);
  std::vector<std::uint64_t> rotate_return_ns(total_epochs, 0);
  std::atomic<bool> observer_done{false};
  std::atomic<bool> stop_queries{false};
  std::uint64_t rss_peak = rss0;
  Usage u_end;
  std::uint64_t t_end = 0;

  // The observer stamps each publication and makes only the cheap checks
  // inside the timed window: packet conservation and an RSS sample. It
  // holds every epoch, so the store's retention (LiveOptions::max_epochs)
  // cannot evict one before the accuracy grading after the window.
  std::vector<std::shared_ptr<const caesar::core::AnyEpoch>> epochs(
      total_epochs);
  std::thread observer([&] {
    for (std::size_t i = 0; i < total_epochs; ++i) {
      const std::uint64_t a = now_ns();
      auto ep = p.wait_epoch(i);
      const std::uint64_t b = now_ns();
      if (!ep) {  // session stopped (or retention evicted it) first
        r.unpublished += total_epochs - i;
        break;
      }
      published_ns[i] = b;
      if (i + 1 == total_epochs) {
        u_end = usage_now();
        t_end = b;
      }
      olog.add("wait_epoch", a, b, 0, i);
      const std::size_t e = i % epochs_per_pass;
      const std::uint64_t expect = in.offsets[e + 1] - in.offsets[e];
      const std::uint64_t got = ep->packets();
      r.missing_packets += got > expect ? got - expect : expect - got;
      rss_peak = std::max(rss_peak, rss_bytes());
      epochs[i] = std::move(ep);
    }
    if (t_end == 0) {
      u_end = usage_now();
      t_end = now_ns();
    }
    observer_done.store(true, std::memory_order_release);
  });

  std::thread queries;
  if (w.queries) {
    queries = std::thread([&] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const auto q_period = static_cast<std::uint64_t>(1e9 / kQueryRate);
      const auto t_period = static_cast<std::uint64_t>(1e9 / kTopkRate);
      const std::uint64_t start = now_ns();
      std::uint64_t next_q = start + q_period, next_t = start + t_period;
      std::size_t qi = 0;
      while (!stop_queries.load(std::memory_order_acquire)) {
        const bool topk = next_t <= next_q;
        const std::uint64_t due = topk ? next_t : next_q;
        const std::uint64_t now = now_ns();
        if (due > now)
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        const std::uint64_t a = now_ns();
        try {
          if (topk) {
            const auto top = p.topk_live(kTopkN);
            if (top.size() > kTopkN ||
                !std::is_sorted(top.begin(), top.end(),
                                caesar::core::topk_order))
              r.topk_ordered = false;
          } else {
            const double est =
                p.query_live(in.query_flows[qi++ % in.query_flows.size()]);
            if (!std::isfinite(est) || est < 0) ++r.query_errors;
          }
        } catch (const std::exception&) {
          ++r.query_errors;
        }
        const std::uint64_t b = now_ns();
        ++r.queries;
        r.late_us.push_back(static_cast<double>(a - due) / 1e3);
        (topk ? r.topk_us : r.query_us)
            .push_back(static_cast<double>(b - due) / 1e3);
        qlog.add(topk ? "topk_live" : "query_live", a, b, 0, r.queries);
        (topk ? next_t : next_q) += topk ? t_period : q_period;
      }
    });
  }

  // The producer is the session's bottleneck thread, and on a shared host
  // one vCPU can run much slower than another for minutes. Each session
  // therefore gets a fresh producer thread pinned to the next allowed CPU,
  // so the medians over a run's sessions average over the vCPUs instead
  // of inheriting the one the process started on.
  const std::uint64_t session = plog.open();
  Usage u0;
  std::uint64_t t0 = 0;
  std::vector<std::uint64_t> rotate_span(total_epochs, 0);
  std::uint64_t bad_seq = 0;  // rotate_live returned an unexpected seq
  std::exception_ptr producer_error;
  std::thread producer([&] {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(producer_cpu, &cpus);
    pthread_setaffinity_np(pthread_self(), sizeof cpus, &cpus);
    u0 = usage_now();
    t0 = now_ns();
    std::size_t epoch = 0;
    try {
      for (std::size_t pass = 0; pass < passes; ++pass) {
        std::size_t pos = 0;
        for (std::size_t e = 0; e < epochs_per_pass; ++e) {
          const std::size_t end = in.offsets[e + 1];
          while (pos < end) {
            const std::size_t n = std::min(kFeedChunk, end - pos);
            const std::uint64_t a = now_ns();
            p.feed(std::span<const FlowId>(in.packets.data() + pos, n));
            plog.add("feed", a, now_ns(), session, n);
            pos += n;
          }
          const std::uint64_t a = now_ns();
          const std::uint64_t seq = p.rotate_live();
          const std::uint64_t b = now_ns();
          if (seq != epoch) ++bad_seq;
          rotate_return_ns[epoch] = b;
          r.rotate_us.push_back(static_cast<double>(b - a) / 1e3);
          rotate_span[epoch] = plog.add("rotate_live", a, b, session, seq);
          ++epoch;
        }
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
  });
  producer.join();
  if (producer_error) {
    // Unblock and join every session thread before the pipeline dies.
    stop_queries.store(true, std::memory_order_release);
    p.stop_live();
    observer.join();
    if (queries.joinable()) queries.join();
    std::rethrow_exception(producer_error);
  }
  r.packets = in.packets.size() * passes;
  r.epochs = total_epochs;

  while (!observer_done.load(std::memory_order_acquire) &&
         now_ns() - t0 < kPublishTimeoutNs)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (!observer_done.load(std::memory_order_acquire)) p.stop_live();
  observer.join();
  r.unpublished += bad_seq;
  stop_queries.store(true, std::memory_order_release);
  if (queries.joinable()) queries.join();
  const std::uint64_t t_stop = now_ns();
  p.stop_live();
  plog.close(session, "session", t0, t_stop);
  p.collect_metrics(r.metrics);

  if (t_end == 0) t_end = now_ns();
  r.ingest_s = static_cast<double>(t_end - t0) / 1e9;
  r.cpu_s = u_end.cpu_s - u0.cpu_s;
  r.minflt = u_end.minflt - u0.minflt;
  r.ctxsw = u_end.ctxsw - u0.ctxsw;
  r.rss_mb = static_cast<double>(rss_peak - rss0) / (1024.0 * 1024.0);
  for (std::size_t i = 0; i < total_epochs; ++i)
    if (published_ns[i] != 0)
      r.publish_ms.push_back((static_cast<double>(published_ns[i]) -
                              static_cast<double>(rotate_return_ns[i])) /
                             1e6);

  // Accuracy, graded after the timed window so that the bench's own
  // estimate() and grade_accuracy() calls neither compete with ingest nor
  // count in its CPU time.
  double are_sum = 0.0, obs_sum = 0.0;
  std::uint64_t are_n = 0, obs_n = 0;
  for (std::size_t i = 0; i < total_epochs; ++i) {
    const auto& ep = epochs[i];
    if (!ep) continue;
    const std::uint64_t a = now_ns();
    const std::size_t e = i % epochs_per_pass;
    for (std::size_t s = 0; s < in.are_flows.size(); ++s) {
      const double x = in.are_counts[e][s];
      if (x == 0) continue;
      are_sum += std::abs(ep->estimate(in.are_flows[s]) - x) / x;
      ++are_n;
    }
    if (w.sidecars) {
      const auto acc = ep->observed_accuracy();
      obs_sum += acc.are;
      ++obs_n;
      if (!std::isfinite(acc.are) || acc.sampled_flows == 0)
        r.are_finite = false;
    }
    glog.add("grade_epoch", a, now_ns(), 0, i);
  }
  r.epoch_are = are_n ? are_sum / static_cast<double>(are_n) : std::nan("");
  if (!std::isfinite(r.epoch_are)) r.are_finite = false;
  if (w.sidecars)
    r.observed_are = obs_n ? obs_sum / static_cast<double>(obs_n)
                           : std::nan("");
  r.last_epoch = epochs.back();
  epochs.clear();

  if (traced) {
    r.spans = plog.spans();
    // A wait_epoch span is caused by its epoch's rotate_live call on the
    // producer thread: a link, not nesting, so it stays a root.
    for (Span s : olog.spans()) {
      if (s.arg < total_epochs) s.cause = rotate_span[s.arg];
      r.spans.push_back(std::move(s));
    }
    for (const auto* log : {&qlog, &glog})
      r.spans.insert(r.spans.end(), log->spans().begin(), log->spans().end());
    const auto self = perfbench::self_times(r.spans);
    for (std::size_t i = 0; i < r.spans.size(); ++i)
      if (r.spans[i].name == "feed")
        r.feed_self_ns += static_cast<double>(self[i]);
  }
  pipeline.reset();
  return r;
}

// ---------------------------------------------------------------------------
// Single-layer replays for the traced run: one shard's stream, replayed
// single-threaded through each layer's public functions.

struct ReplayResult {
  std::uint64_t packets = 0;
  double cache_ns = 0.0;
  caesar::cache::CacheStats cache_stats;
  double ingest_off_ns = 0.0;  ///< backend ingest, sidecars off
  double ingest_on_ns = 0.0;   ///< backend ingest, sidecars on
  double gt_offer_ns = 0.0;
  std::vector<double> standby_build_ms;
  std::vector<double> flush_finalize_ms;
  caesar::metrics::MetricsSnapshot sidecar_metrics;
};

/// The shard index ShardedPipeline routes `flow` to (its shard_of()).
std::size_t shard_of(FlowId flow, std::uint64_t route_seed) {
  return static_cast<std::size_t>(
      (static_cast<__uint128_t>(caesar::hash::fmix64(flow ^ route_seed)) *
       kShards) >>
      64);
}

/// Shard 0's per-shard seed (ShardedPipeline's derivation for s = 0).
std::uint64_t shard0_seed(std::uint64_t seed) {
  return seed ^ 0x9e3779b97f4a7c15ULL;
}

caesar::core::CaesarConfig caesar_config(const caesar::core::SchemeTuning& t,
                                         bool sidecars) {
  caesar::core::CaesarConfig c;
  c.cache_entries = t.cache_entries;
  c.entry_capacity = t.entry_capacity;
  c.num_counters = t.num_counters;
  c.counter_bits = t.counter_bits;
  c.k = t.k;
  c.seed = shard0_seed(t.seed);
  c.topk_capacity = sidecars ? kTopkCapacity : 0;
  c.gt_sample_size = sidecars ? kGtSample : 0;
  return c;
}

caesar::baselines::RcsConfig rcs_config(const caesar::core::SchemeTuning& t,
                                        bool sidecars) {
  caesar::baselines::RcsConfig c;
  c.num_counters = t.num_counters;
  c.counter_bits = t.counter_bits;
  c.k = t.k;
  c.seed = shard0_seed(t.seed);
  c.topk_capacity = sidecars ? kTopkCapacity : 0;
  c.gt_sample_size = sidecars ? kGtSample : 0;
  return c;
}

using Stream = std::vector<std::vector<FlowId>>;  ///< [epoch] packets

/// Epoch-by-epoch replay of backend B over `stream`: construction
/// (standby build), ingest_batch in worker-sized chunks plus
/// drain_pending (ingest), and the flush_chunk loop plus finalize.
template <typename B>
double replay_backend(const typename B::Config& cfg, const Stream& stream,
                      SpanLog& log, std::uint64_t parent, const char* name,
                      ReplayResult* rotation,
                      caesar::metrics::MetricsSnapshot* metrics) {
  double ingest_ns = 0.0;
  for (std::size_t e = 0; e < stream.size(); ++e) {
    const std::uint64_t a = now_ns();
    B backend(cfg);
    const std::uint64_t b = now_ns();
    const auto& flows = stream[e];
    for (std::size_t pos = 0; pos < flows.size(); pos += kReplayChunk) {
      const std::size_t n = std::min(kReplayChunk, flows.size() - pos);
      backend.ingest_batch(std::span<const FlowId>(flows.data() + pos, n));
    }
    backend.drain_pending();
    const std::uint64_t c = now_ns();
    while (backend.flush_chunk(2048) > 0) {
    }
    const auto snapshot = backend.finalize();
    const std::uint64_t d = now_ns();
    if (snapshot.packets() != flows.size())
      throw std::runtime_error("replay: finalized packets mismatch");
    ingest_ns += static_cast<double>(c - b);
    log.add(name, b, c, parent, flows.size());
    if (rotation) {
      rotation->standby_build_ms.push_back(static_cast<double>(b - a) / 1e6);
      rotation->flush_finalize_ms.push_back(static_cast<double>(d - c) / 1e6);
      log.add("replay.standby_build", a, b, parent, e);
      log.add("replay.flush_finalize", c, d, parent, e);
    }
    if (metrics) {
      caesar::metrics::MetricsSnapshot ms;
      backend.collect_metrics(ms, "");
      metrics->accumulate(ms);
    }
  }
  return ingest_ns;
}

ReplayResult run_replays(const Workload& w, const Inputs& in, SpanLog& log,
                         std::uint64_t parent) {
  ReplayResult rr;
  const std::uint64_t route_seed = in.tuning.seed ^ 0x517cc1b727220a95ULL;
  Stream stream(w.epochs_per_pass);
  for (std::size_t e = 0; e < w.epochs_per_pass; ++e)
    for (std::size_t i = in.offsets[e]; i < in.offsets[e + 1]; ++i)
      if (shard_of(in.packets[i], route_seed) == 0)
        stream[e].push_back(in.packets[i]);
  for (const auto& s : stream) rr.packets += s.size();

  // Cache: the caesar cache geometry, on every workload's stream.
  caesar::cache::CacheTable::Config cc;
  cc.num_entries = in.tuning.cache_entries;
  cc.entry_capacity = in.tuning.entry_capacity;
  cc.seed = shard0_seed(in.tuning.seed);
  caesar::cache::EvictionSink sink;
  for (const auto& flows : stream) {
    caesar::cache::CacheTable table(cc);
    sink.reserve(kReplayChunk * 2);
    const std::uint64_t a = now_ns();
    for (std::size_t pos = 0; pos < flows.size(); pos += kReplayChunk) {
      const std::size_t n = std::min(kReplayChunk, flows.size() - pos);
      table.process_batch(std::span<const FlowId>(flows.data() + pos, n),
                          sink);
      sink.clear();
    }
    const std::uint64_t b = now_ns();
    rr.cache_ns += static_cast<double>(b - a);
    log.add("replay.cache", a, b, parent, flows.size());
    const auto& st = table.stats();
    rr.cache_stats.packets += st.packets;
    rr.cache_stats.hits += st.hits;
    rr.cache_stats.misses += st.misses;
    rr.cache_stats.overflow_evictions += st.overflow_evictions;
    rr.cache_stats.replacement_evictions += st.replacement_evictions;
  }

  // Backend ingest with sidecars off (counter plane) and on (sidecar tax).
  if (w.scheme == "caesar") {
    using caesar::core::CaesarSketch;
    rr.ingest_off_ns = replay_backend<CaesarSketch>(
        caesar_config(in.tuning, false), stream, log, parent,
        "replay.ingest", &rr, nullptr);
    rr.ingest_on_ns = replay_backend<CaesarSketch>(
        caesar_config(in.tuning, true), stream, log, parent,
        "replay.ingest_sidecars", nullptr, &rr.sidecar_metrics);
  } else {
    using caesar::baselines::RcsSketch;
    rr.ingest_off_ns = replay_backend<RcsSketch>(
        rcs_config(in.tuning, false), stream, log, parent, "replay.ingest",
        &rr, nullptr);
    rr.ingest_on_ns = replay_backend<RcsSketch>(
        rcs_config(in.tuning, true), stream, log, parent,
        "replay.ingest_sidecars", nullptr, &rr.sidecar_metrics);
  }

  // GroundTruthSampler::offer alone.
  for (const auto& flows : stream) {
    caesar::core::GroundTruthSampler gt(caesar::core::derive_ground_truth(
        kGtSample, shard0_seed(in.tuning.seed)));
    const std::uint64_t a = now_ns();
    for (FlowId f : flows) gt.offer(f, 1);
    const std::uint64_t b = now_ns();
    rr.gt_offer_ns += static_cast<double>(b - a);
    log.add("replay.gt_offer", a, b, parent, flows.size());
  }
  return rr;
}

// ---------------------------------------------------------------------------
// Serial replay of the last epoch (live == serial) and closed-epoch queries.

struct SerialResult {
  bool identical = true;     ///< live last epoch == serial replay
  bool closed_ok = true;     ///< finite grade and estimates
  std::uint64_t compared = 0;
  double grade_ms = 0.0;
  double estimate_ns = 0.0;
  double topk_us = 0.0;
};

std::shared_ptr<const caesar::core::AnyEpoch> serial_epoch(
    const Workload& w, const caesar::core::SchemeTuning& tuning,
    std::span<const FlowId> flows) {
  auto p = caesar::core::make_pipeline(w.scheme, tuning, kShards);
  for (FlowId f : flows) p->add(f);
  return p->rotate();
}

SerialResult run_serial(const Workload& w, const Inputs& in,
                        const caesar::core::AnyEpoch& live, SpanLog& log,
                        std::uint64_t parent) {
  SerialResult sr;
  const std::size_t last = w.epochs_per_pass - 1;
  const std::span<const FlowId> flows(
      in.packets.data() + in.offsets[last],
      in.offsets[last + 1] - in.offsets[last]);
  std::uint64_t a = now_ns();
  const auto serial = serial_epoch(w, in.tuning, flows);
  log.add("replay.serial_rotate", a, now_ns(), parent, flows.size());

  // Bit-identity of the live session's last epoch with the serial replay.
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  if (serial->packets() != live.packets()) sr.identical = false;
  const auto compare = [&](FlowId f) {
    ++sr.compared;
    if (!same(serial->estimate_raw(f), live.estimate_raw(f)))
      sr.identical = false;
  };
  for (FlowId f : in.are_flows) compare(f);
  for (std::size_t i = 0; i < 4096; ++i) compare(in.query_flows[i]);
  if (w.sidecars) {
    if (serial->top_k(kTopkN) != live.top_k(kTopkN)) sr.identical = false;
    if (!same(serial->observed_accuracy().are, live.observed_accuracy().are))
      sr.identical = false;
  }

  // Closed-epoch costs, on an epoch that carries both sidecars.
  std::shared_ptr<const caesar::core::AnyEpoch> epoch = serial;
  if (!w.sidecars) {
    auto tuning = in.tuning;
    tuning.topk_capacity = kTopkCapacity;
    tuning.gt_sample_size = kGtSample;
    epoch = serial_epoch(w, tuning, flows);
  }
  std::vector<double> grade, est, topk;
  for (int rep = 0; rep < 5; ++rep) {
    a = now_ns();
    const auto acc = epoch->observed_accuracy();
    const std::uint64_t b = now_ns();
    if (!std::isfinite(acc.are)) sr.closed_ok = false;
    grade.push_back(static_cast<double>(b - a) / 1e6);
    log.add("replay.grade", a, b, parent, acc.sampled_flows);
  }
  constexpr std::size_t kEstimates = 65'536;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    a = now_ns();
    for (std::size_t i = 0; i < kEstimates; ++i)
      sink += epoch->estimate(in.query_flows[i % in.query_flows.size()]);
    const std::uint64_t b = now_ns();
    est.push_back(static_cast<double>(b - a) / kEstimates);
    log.add("replay.estimate", a, b, parent, kEstimates);
  }
  for (int rep = 0; rep < 51; ++rep) {
    a = now_ns();
    const auto top = epoch->top_k(kTopkN);
    const std::uint64_t b = now_ns();
    sink += static_cast<double>(top.size());
    topk.push_back(static_cast<double>(b - a) / 1e3);
    log.add("replay.topk", a, b, parent, top.size());
  }
  if (!std::isfinite(sink)) sr.closed_ok = false;
  sr.grade_ms = median(grade);
  sr.estimate_ns = median(est);
  sr.topk_us = median(topk);
  return sr;
}

// ---------------------------------------------------------------------------
// The end-to-end metric and workload each per-layer metric should move
// (NOTES.md gives the reasoning).

constexpr std::pair<std::string_view, std::string_view> kMoves[] = {
    {"router.feed_ns_per_pkt", "ingest_mpps on paper_uniform"},
    {"pipeline.ring_backpressure_per_mpkt", "ingest_mpps on paper_uniform"},
    {"pipeline.router_stalls_per_mpkt", "ingest_mpps on paper_uniform"},
    {"pipeline.worker_parks_per_mpkt", "cpu_ns_per_pkt on every workload"},
    {"replay.cache_ns_per_pkt",
     "ingest_mpps, cpu_ns_per_pkt on paper_uniform; none on rcs_sidecars"},
    {"cache.hit_ratio", "ingest_mpps on paper_uniform"},
    {"cache.evictions_per_pkt", "ingest_mpps on paper_uniform"},
    {"replay.spill_sram_ns_per_pkt", "ingest_mpps on paper_uniform"},
    {"sram.writes_per_pkt", "ingest_mpps on paper_uniform"},
    {"spill.coalesce_ratio", "ingest_mpps on paper_uniform"},
    {"replay.sidecar_ns_per_pkt",
     "ingest_mpps on paper_sidecars_query, rcs_sidecars; none elsewhere"},
    {"replay.gt_offer_ns_per_pkt",
     "ingest_mpps on paper_sidecars_query, rcs_sidecars; none elsewhere"},
    {"topk.offers_per_pkt",
     "ingest_mpps on paper_sidecars_query, rcs_sidecars; none elsewhere"},
    {"ground_truth.reject_ratio",
     "ingest_mpps on paper_sidecars_query, rcs_sidecars; none elsewhere"},
    {"rotation.rotate_call_us_p50",
     "publish_ms_p50 on paper_uniform; little on ingest_mpps"},
    {"replay.standby_build_ms",
     "publish_ms_p50 on paper_uniform; little on ingest_mpps"},
    {"replay.flush_finalize_ms",
     "publish_ms_p50 on paper_uniform; little on ingest_mpps"},
    {"live.standby_miss",
     "publish_ms_p50 on paper_uniform; little on ingest_mpps"},
    {"os.minor_faults_per_epoch",
     "publish_ms_p50 on paper_uniform; little on ingest_mpps"},
    {"replay.grade_ms", "publish_ms_p50 on paper_sidecars_query"},
    {"replay.estimate_ns", "query_us_p50 on paper_sidecars_query"},
    {"replay.topk_us", "topk_query_us_p50 on paper_sidecars_query"},
    {"os.ctx_switches_per_mpkt", "cpu_ns_per_pkt on every workload"},
    {"tracing.overhead_ratio", "none (the cost of the bench's own spans)"},
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count / percentile used
};

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title);
  for (const auto& m : ms)
    std::printf("  %-36s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  return static_cast<bool>(out);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool self_check = false;
  std::string out = ".";
  std::string source_digest = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace") a.trace = std::stoi(value()) != 0;
    else if (arg == "--out") a.out = value();
    else if (arg == "--source-digest") a.source_digest = value();
    else if (arg == "--smoke") a.smoke = true;
    else if (arg == "--self-check") a.self_check = true;
    else throw std::invalid_argument("unknown argument " + std::string(arg));
  }
  return a;
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads)
    if (w.name == args.workload) wp = &w;
  if (!wp) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *wp;

  const Inputs in = make_inputs(w, args.seed, args.smoke);
  std::printf("workload %s  seed %llu  trace %d  scheme %s  shards %zu\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              std::string(w.scheme).c_str(), kShards);
  std::printf("trace: %llu flows, %zu packets/pass, mean %.3f, max %llu, "
              "generated in %.2f s; %zu epochs/pass x %zu passes\n",
              static_cast<unsigned long long>(in.flows), in.packets.size(),
              static_cast<double>(in.packets.size()) /
                  static_cast<double>(in.flows),
              static_cast<unsigned long long>(in.max_flow), in.generate_s,
              w.epochs_per_pass, kPasses);

  // Producers rotate over the CPUs this process may run on.
  std::vector<unsigned> cpus;
  {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    for (unsigned c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    if (cpus.empty()) cpus.push_back(0);
  }
  const auto cpu = [&](std::size_t i) { return cpus[i % cpus.size()]; };

  // Warm-up pass: first-session page faults and lazy set-up stay out of
  // the timed sessions.
  const SessionResult warm = run_session(w, in, 1, false, cpu(0));

  std::vector<SessionResult> timed, traced;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(
      args.seconds * 1e9);
  const std::uint64_t start = now_ns();
  do {
    timed.push_back(run_session(w, in, kPasses, false, cpu(timed.size())));
    if (args.trace)
      traced.push_back(
          run_session(w, in, kPasses, true, cpu(traced.size() + 1)));
  } while (now_ns() - start < budget_ns);

  // Correctness gate across the timed (and traced) sessions.
  std::uint64_t attempted = 0, failed = 0;
  const SessionResult& first = timed.front();
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  std::vector<std::string> problems;
  const auto fail = [&](const std::string& what) {
    if (std::find(problems.begin(), problems.end(), what) == problems.end())
      problems.push_back(what);
  };
  for (const auto* list : {&timed, &traced})
    for (const auto& s : *list) {
      attempted += s.packets + s.epochs + s.queries;
      failed += s.missing_packets + s.unpublished + s.query_errors;
      if (!s.are_finite) fail("non-finite ARE");
      if (!same(s.epoch_are, first.epoch_are))
        fail("epoch_are differs between sessions");
      if (w.sidecars && !same(s.observed_are, first.observed_are))
        fail("observed_are differs between sessions");
      if (!s.topk_ordered) fail("topk_live out of order");
      const std::string label = "{backend=" + std::string(w.scheme) + "}";
      if (counter(s.metrics, "pipeline.packets_routed" + label) != s.packets)
        fail("packets_routed != packets fed");
      // Every router stall meets a full ring, so the live rings' count of
      // stalled pushes cannot be 0 while the router counts stalls.
      if (counter(s.metrics, "pipeline.router_stalls" + label) > 0 &&
          counter(s.metrics, "live.ring_backpressure" + label) == 0)
        fail("live.ring_backpressure is 0 while router_stalls is not");
    }
  if (failed) fail("failed operations");
  if (warm.missing_packets + warm.unpublished + warm.query_errors > 0)
    fail("warm-up session failed its checks");

  const auto collect = [&](auto fn) {
    std::vector<double> v;
    for (const auto& s : timed) v.push_back(fn(s));
    return v;
  };
  const auto pool = [&](std::vector<double> SessionResult::*field,
                        const std::vector<SessionResult>& list) {
    std::vector<double> v;
    for (const auto& s : list)
      v.insert(v.end(), (s.*field).begin(), (s.*field).end());
    return v;
  };

  // --- end-to-end metrics (untraced sessions) ------------------------------
  const double mpps =
      median(collect([](const SessionResult& s) { return s.mpps(); }));
  const auto publish = pool(&SessionResult::publish_ms, timed);
  const auto count_note = [](const std::vector<double>& v,
                             const char* what) {
    return std::string(what) + ", n=" + std::to_string(v.size());
  };
  std::vector<Metric> e2e = {
      {"ingest_mpps", mpps, "Mpps",
       count_note(collect([](const auto& s) { return s.mpps(); }),
                  "median of sessions")},
      {"cpu_ns_per_pkt", median(collect([](const SessionResult& s) {
         return s.cpu_s * 1e9 / static_cast<double>(s.packets);
       })),
       "ns", "median of sessions"},
      {"publish_ms_p50", median(publish), "ms",
       count_note(publish, "pooled publishes")},
      {"epoch_are", first.epoch_are, "ratio",
       std::to_string(in.are_flows.size()) + "-flow subset, all epochs"},
      {"setup_s",
       median(collect([](const SessionResult& s) { return s.setup_s; })),
       "s", "median of sessions"},
      {"pipeline_rss_mb",
       median(collect([](const SessionResult& s) { return s.rss_mb; })),
       "MB", "median of sessions"},
  };
  // Workload-specific end-to-end metrics: printed and recorded, not part
  // of the gated set (which every workload must report).
  std::vector<Metric> extra;
  const Tail publish_tail = highest_tail(publish);
  if (publish.size() >= 100)
    extra.push_back({"publish_ms_p90", percentile(publish, 0.90), "ms",
                     count_note(publish, "pooled publishes")});
  if (publish_tail.label != std::string_view("p90") &&
      publish_tail.label != std::string_view("p50") &&
      std::isfinite(publish_tail.value))
    extra.push_back({std::string("publish_ms_") + publish_tail.label,
                     publish_tail.value, "ms",
                     count_note(publish, "highest tail with >=10 beyond")});
  if (w.queries) {
    const auto q = pool(&SessionResult::query_us, timed);
    const auto t = pool(&SessionResult::topk_us, timed);
    const auto late = pool(&SessionResult::late_us, timed);
    extra.push_back({"query_us_p50", median(q), "us", count_note(q, "pooled")});
    extra.push_back(
        {"query_us_p99", percentile(q, 0.99), "us", count_note(q, "pooled")});
    extra.push_back(
        {"topk_query_us_p50", median(t), "us", count_note(t, "pooled")});
    const Tail tt = highest_tail(t);
    if (tt.label != std::string_view("p50") && std::isfinite(tt.value))
      extra.push_back({std::string("topk_query_us_") + tt.label, tt.value,
                       "us", count_note(t, "highest tail with >=10 beyond")});
    extra.push_back({"generator_late_us_p50", median(late), "us",
                     count_note(late, "start minus due")});
    extra.push_back({"generator_late_us_p99", percentile(late, 0.99), "us",
                     count_note(late, "start minus due")});
  }
  if (w.sidecars)
    extra.push_back({"observed_are", first.observed_are, "ratio",
                     "mean of per-epoch observed_accuracy().are"});
  extra.push_back({"failed_ratio",
                   static_cast<double>(failed) /
                       static_cast<double>(std::max<std::uint64_t>(1, attempted)),
                   "ratio",
                   std::to_string(failed) + " of " + std::to_string(attempted)});
  extra.push_back({"sessions", static_cast<double>(timed.size()), "count",
                   "timed sessions of " + std::to_string(kPasses) +
                       " passes"});

  // --- provenance -----------------------------------------------------------
  std::string simd = "unknown";
  for (const auto& g : first.metrics.gauges()) {
    const auto pos = g.name.find("cache.kernel{tier=\"");
    if (pos != std::string::npos && g.value == 1) {
      simd = g.name.substr(pos + 19);
      simd = simd.substr(0, simd.find('"'));
    }
  }
  if (w.scheme != "caesar") simd = "n/a (cache-free backend)";
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::string prov = "{\"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  prov += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  prov += ", \"l2_bytes\": " + std::to_string(l2);
  prov += ", \"l3_bytes\": " + std::to_string(l3);
  prov += ", \"compiler\": \"" + json_escape(__VERSION__) + "\"";
  prov += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  prov += ", \"cxx_flags\": \"" PERFBENCH_CXX_FLAGS "\"";
  prov += ", \"simd_tier\": \"" + json_escape(simd) + "\"";
  prov += ", \"git_sha\": \"" +
          json_escape(caesar::common::build_git_sha()) + "\"";
  prov += ", \"source_digest\": \"" + json_escape(args.source_digest) +
          "\"";
  prov += ", \"version\": \"" +
          json_escape(caesar::common::build_version()) + "\"";
  prov += ", \"seed\": " + std::to_string(args.seed);
  prov += ", \"trace_seed\": " + std::to_string(in.trace_config.seed);
  prov += ", \"flows\": " + std::to_string(in.flows);
  prov += ", \"packets_per_pass\": " + std::to_string(in.packets.size());
  prov += ", \"max_flow_size\": " + std::to_string(in.max_flow);
  prov += ", \"interleaving\": \"uniform_shuffle\"";
  prov += ", \"passes\": " + std::to_string(kPasses);
  prov += ", \"epochs_per_pass\": " + std::to_string(w.epochs_per_pass);
  prov += ", \"shards\": " + std::to_string(kShards);
  prov += ", \"smoke\": " + std::string(args.smoke ? "true" : "false");
  prov += "}";
  std::printf("provenance: %s\n", prov.c_str());

  // --- per-layer metrics (traced run) --------------------------------------
  std::vector<Metric> layer;
  if (args.trace) {
    SpanLog rlog(true, 4);  // thread ids 1-3 and 5 are the session threads
    const std::uint64_t replay = rlog.open();
    const std::uint64_t r0 = now_ns();
    const ReplayResult rr = run_replays(w, in, rlog, replay);
    SerialResult sr;
    if (traced.back().last_epoch)
      sr = run_serial(w, in, *traced.back().last_epoch, rlog, replay);
    else
      sr.identical = false;  // the last epoch never published
    rlog.close(replay, "replay", r0, now_ns());
    // The replays must see exactly the stream the live shard 0 saw.
    const auto& live_ms = traced.back().metrics;
    if (counter(live_ms, "shard0.pipeline.packets_routed") !=
        rr.packets * kPasses)
      fail("replayed shard-0 stream differs from live routing");
    if (w.scheme == "caesar" &&
        counter(live_ms, "shard0.cache.hits") != rr.cache_stats.hits * kPasses)
      fail("cache replay hits differ from live shard 0");
    std::printf("live == serial on the last epoch: %s (%llu flows compared)\n",
                sr.identical ? "yes" : "NO",
                static_cast<unsigned long long>(sr.compared));
    if (!sr.identical) fail("live != serial on the last epoch");
    if (!sr.closed_ok) fail("non-finite closed-epoch query");

    const auto tmed = [&](auto fn) {
      std::vector<double> v;
      for (const auto& s : traced) v.push_back(fn(s));
      return median(v);
    };
    const auto per_mpkt = [&](const std::string& name) {
      const std::string label = "{backend=" + std::string(w.scheme) + "}";
      return tmed([&](const SessionResult& s) {
        return static_cast<double>(counter(s.metrics, name + label)) * 1e6 /
               static_cast<double>(s.packets);
      });
    };
    const double pk = static_cast<double>(rr.packets);
    const double cache_ns = rr.cache_ns / pk;
    const double ingest_ns = rr.ingest_off_ns / pk;
    const auto& sm = rr.sidecar_metrics;
    const bool cached = w.scheme == "caesar";
    const double traced_mpps =
        tmed([](const SessionResult& s) { return s.mpps(); });
    const auto rot = pool(&SessionResult::rotate_us, traced);
    layer = {
        {"router.feed_ns_per_pkt",
         tmed([](const SessionResult& s) {
           return s.feed_self_ns / static_cast<double>(s.packets);
         }),
         "ns", "self time of feed spans"},
        {"pipeline.ring_backpressure_per_mpkt",
         per_mpkt("live.ring_backpressure"), "1/Mpkt",
         "live.ring_backpressure (folded in at stop_live)"},
        {"pipeline.router_stalls_per_mpkt",
         per_mpkt("pipeline.router_stalls"), "1/Mpkt", ""},
        {"pipeline.worker_parks_per_mpkt", per_mpkt("pipeline.worker_parks"),
         "1/Mpkt", ""},
        {"replay.cache_ns_per_pkt", cache_ns, "ns",
         "CacheTable::process_batch, shard 0 stream"},
        {"cache.hit_ratio",
         static_cast<double>(rr.cache_stats.hits) /
             static_cast<double>(rr.cache_stats.packets),
         "ratio", "cache replay"},
        {"cache.evictions_per_pkt",
         static_cast<double>(rr.cache_stats.overflow_evictions +
                             rr.cache_stats.replacement_evictions) /
             static_cast<double>(rr.cache_stats.packets),
         "count", "cache replay"},
        {"replay.spill_sram_ns_per_pkt",
         cached ? ingest_ns - cache_ns : ingest_ns, "ns",
         cached ? "ingest_batch replay minus cache replay"
                : "ingest_batch replay (no cache stage)"},
        {"sram.writes_per_pkt", tmed([&](const SessionResult& s) {
           return static_cast<double>(shard_sum(s.metrics, "sram.writes")) /
                  static_cast<double>(s.packets);
         }),
         "count", ""},
        {"spill.coalesce_ratio", tmed([&](const SessionResult& s) {
           const double writes = static_cast<double>(
               cached ? shard_sum(s.metrics, "spill.coalesced_writes")
                      : shard_sum(s.metrics, "sram.writes"));
           const double raw = cached
                                  ? static_cast<double>(shard_sum(
                                        s.metrics, "spill.raw_deltas"))
                                  : static_cast<double>(s.packets);
           return writes / raw;
         }),
         "ratio",
         cached ? "coalesced writes / raw deltas"
                : "SRAM writes / packets (no spill stage)"},
        {"replay.sidecar_ns_per_pkt", (rr.ingest_on_ns - rr.ingest_off_ns) / pk,
         "ns", "ingest replay sidecars on minus off"},
        {"replay.gt_offer_ns_per_pkt", rr.gt_offer_ns / pk, "ns",
         "GroundTruthSampler::offer alone"},
        {"topk.offers_per_pkt",
         static_cast<double>(counter(sm, "topk.offers")) / pk, "count",
         "sidecars-on replay"},
        {"ground_truth.reject_ratio",
         static_cast<double>(counter(sm, "ground_truth.rejections")) /
             static_cast<double>(counter(sm, "ground_truth.offers")),
         "ratio", "sidecars-on replay"},
        {"rotation.rotate_call_us_p50", median(rot), "us",
         count_note(rot, "pooled rotate_live calls")},
        {"replay.standby_build_ms", median(rr.standby_build_ms), "ms",
         "median per epoch"},
        {"replay.flush_finalize_ms", median(rr.flush_finalize_ms), "ms",
         "median per epoch"},
        {"live.standby_miss", tmed([&](const SessionResult& s) {
           return static_cast<double>(counter(
               s.metrics, "live.standby_miss{backend=" +
                              std::string(w.scheme) + "}"));
         }),
         "count", "per session"},
        {"os.minor_faults_per_epoch", tmed([](const SessionResult& s) {
           return static_cast<double>(s.minflt) /
                  static_cast<double>(s.epochs);
         }),
         "count", ""},
        {"replay.grade_ms", sr.grade_ms, "ms", "observed_accuracy() median"},
        {"replay.estimate_ns", sr.estimate_ns, "ns", "closed epoch, no ingest"},
        {"replay.topk_us", sr.topk_us, "us", "closed epoch top_k(100)"},
        {"os.ctx_switches_per_mpkt", tmed([](const SessionResult& s) {
           return static_cast<double>(s.ctxsw) * 1e6 /
                  static_cast<double>(s.packets);
         }),
         "1/Mpkt", ""},
        {"tracing.overhead_ratio", mpps / traced_mpps, "ratio",
         "untraced / traced ingest_mpps"},
    };

    for (auto& m : layer)
      for (const auto& [name, moves] : kMoves)
        if (m.name == name) m.note += " | moves " + std::string(moves);

    std::vector<Span> all;
    for (const auto& s : traced) all.insert(all.end(), s.spans.begin(),
                                            s.spans.end());
    all.insert(all.end(), rlog.spans().begin(), rlog.spans().end());
    const auto rows = perfbench::ledger(all);
    const std::string ledger_body = perfbench::ledger_json(rows);
    std::printf("\nledger (self time over %zu traced sessions and the "
                "replays)\n",
                traced.size());
    for (const auto& [name, r] : rows)
      std::printf("  %-28s n=%-8llu total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e6);
    const std::string stem = args.out + "/" + std::string(w.name) + "-seed" +
                             std::to_string(args.seed);
    if (!write_file(stem + "-trace.json", perfbench::chrome_trace_json(all)) ||
        !write_file(stem + "-ledger.json", ledger_body))
      fail("could not write the trace files under " + args.out);
    std::printf("chrome trace: %s-trace.json  ledger: %s-ledger.json\n",
                stem.c_str(), stem.c_str());
  }

  std::printf("\nper session (untraced):\n");
  for (const auto& s : timed)
    std::printf("  cpu %u  %8.3f Mpps  %8.2f cpu ns/pkt  "
                "publish p50 %8.3f ms  setup %.6f s  rss %.2f MB\n",
                s.producer_cpu, s.mpps(),
                s.cpu_s * 1e9 / static_cast<double>(s.packets),
                median(s.publish_ms), s.setup_s, s.rss_mb);
  print_table("end-to-end (untraced sessions)", e2e);
  print_table("workload-specific and run facts", extra);
  if (args.trace) print_table("per-layer (traced run)", layer);
  const bool correct = problems.empty();
  for (const auto& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  // Full record of the run next to the trace files.
  std::vector<Metric> everything = e2e;
  everything.insert(everything.end(), extra.begin(), extra.end());
  everything.insert(everything.end(), layer.begin(), layer.end());
  const std::string record =
      "{\"workload\": \"" + std::string(w.name) + "\", \"trace\": " +
      (args.trace ? "1" : "0") + ", \"correct\": " +
      (correct ? "true" : "false") + ", \"provenance\": " + prov +
      ", \"metrics\": " + metrics_json(everything) + "}\n";
  write_file(args.out + "/" + std::string(w.name) + "-seed" +
                 std::to_string(args.seed) + "-trace" +
                 (args.trace ? "1" : "0") + "-result.json",
             record);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.self_check) {
      const int failures = perfbench::self_check_ledger();
      std::printf("ledger self-check: %s\n", failures ? "FAILED" : "ok");
      return failures ? 1 : 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "live_bench: %s\n", e.what());
    return 2;
  }
}

// netmon — a miniature measurement plane, composed from the library the
// way a deployment would use it:
//
//   * a sketch backend chosen at runtime (--scheme caesar|rcs|case|
//     countmin, via core::make_pipeline) measures per-flow sizes in
//     fixed reporting intervals without ever pausing ingest,
//   * a Space-Saving table (core::TopKTable) tracks heavy-hitter
//     *candidates* online (CAESAR's offline query needs flow IDs to ask
//     about; the top-k structure supplies them),
//   * estimate_flow_count() watches flow-cardinality spikes (scans),
//   * a monitor thread serves live queries for the current watch flow
//     while packets are still being ingested (query_live answers from
//     the latest closed interval),
//   * alerts fire on interval reports: DDoS-style volume concentration
//     and scanner-style cardinality anomalies.
//
// The traffic is synthetic: steady background plus a DDoS burst in one
// interval and a port scan in another; both must be flagged.
//
// With --listen PORT (0 = ephemeral) an HTTP exposition endpoint serves
// /metrics, /healthz, /snapshot.json and /trace.json during ingest —
// scrapes read only snapshots published between intervals, never the
// live pipeline. --linger SEC keeps the endpoint up after the last
// interval (for scraping a finished run, e.g. in CI).
//
// With --topk N the streaming top-k sidecar is enabled on the backend:
// heavy hitters come from the merged per-shard eviction-fed tables
// (epoch->top_k — zero counters scanned) instead of the Space-Saving
// re-rank, and the endpoint additionally serves /topk.json.
//
// With --sample K the ground-truth sampling sidecar tracks K hash-
// sampled flows per shard exactly, so every closed interval grades its
// own observed estimator error: /accuracy.json serves the per-epoch
// summary, accuracy.* series appear in /metrics, and /healthz flags
// intervals whose observed ARE exceeds the model bound. /config.json
// (always on with --listen) reports the running scheme's geometry.
//
// Run: ./netmon [--scheme caesar|rcs|case|countmin] [--intervals N]
//               [--flows Q] [--seed S] [--topk N] [--sample K]
//               [--listen PORT] [--linger SEC]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "cache/simd_dispatch.hpp"
#include "common/build_info.hpp"
#include "common/cli.hpp"
#include "common/metrics_server.hpp"
#include "common/table.hpp"
#include "common/random.hpp"
#include "common/tracing.hpp"
#include "core/backend_registry.hpp"
#include "core/ground_truth.hpp"
#include "core/health.hpp"
#include "core/topk.hpp"
#include "trace/flow_id.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace caesar;

struct IntervalTraffic {
  std::vector<FlowId> packets;
  FlowId injected_target = 0;  // DDoS victim flow (0 = none)
  bool scan = false;
};

IntervalTraffic make_interval(std::uint64_t seed, std::uint64_t flows,
                              bool ddos, bool scan) {
  IntervalTraffic out;
  trace::TraceConfig tc;
  tc.num_flows = flows;
  tc.mean_flow_size = 20.0;
  tc.seed = seed;
  const auto t = trace::generate_trace(tc);
  out.packets.reserve(t.num_packets() + 50'000);
  for (auto idx : t.arrivals()) out.packets.push_back(t.id_of(idx));

  Xoshiro256pp rng(seed ^ 0xAB);
  if (ddos) {
    // One victim flow receives a 30k-packet burst.
    trace::FiveTuple victim;
    victim.src_ip = 0;  // spoofed/aggregated source key
    victim.dst_ip = 0xC0A80050;
    victim.dst_port = 80;
    victim.protocol = trace::Protocol::kTcp;
    out.injected_target = trace::flow_id_of(victim);
    for (int i = 0; i < 30'000; ++i) {
      const std::uint64_t at = rng.below(out.packets.size());
      out.packets.push_back(out.packets[at]);
      out.packets[at] = out.injected_target;
    }
  }
  if (scan) {
    // 20k single-packet probe flows: a cardinality spike.
    out.scan = true;
    for (std::uint64_t p = 0; p < 20'000; ++p) {
      trace::FiveTuple probe;
      probe.src_ip = 0x0A666601;
      probe.dst_ip = static_cast<std::uint32_t>(rng());
      probe.dst_port = static_cast<std::uint16_t>(rng.below(1024));
      probe.protocol = trace::Protocol::kTcp;
      const std::uint64_t at = rng.below(out.packets.size());
      out.packets.push_back(out.packets[at]);
      out.packets[at] = trace::flow_id_of(probe);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::uint64_t intervals = args.get_u64("intervals", 5);
  const std::uint64_t flows = args.get_u64("flows", 10'000);
  const std::uint64_t seed = args.get_u64("seed", 8);
  const bool listen = args.has("listen");
  const std::uint64_t linger_sec = args.get_u64("linger", 0);
  const std::string scheme = args.get_or("scheme", "caesar");

  const std::uint64_t topk_n = args.get_u64("topk", 0);
  const std::uint64_t sample_k = args.get_u64("sample", 0);

  core::SchemeTuning tuning;
  tuning.cache_entries = 2048;
  tuning.entry_capacity = 40;
  tuning.num_counters = 3'000'000;
  tuning.counter_bits = 18;
  tuning.seed = seed;
  if (topk_n > 0) {
    // Tables a few times larger than the report size absorb the churn
    // of mid-sized flows competing for the tail slots.
    tuning.topk_capacity =
        std::max<std::size_t>(4 * static_cast<std::size_t>(topk_n), 64);
    tuning.topk_rap = true;
  }
  tuning.gt_sample_size = static_cast<std::size_t>(sample_k);
  std::unique_ptr<core::AnyPipeline> mon_ptr;
  try {
    mon_ptr = core::make_pipeline(scheme, tuning, 2);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "netmon: %s\n", e.what());
    return 2;
  }
  core::AnyPipeline& mon = *mon_ptr;
  const core::BackendCaps caps = mon.capabilities();
  std::printf("scheme: %.*s (%.*s)\n",
              static_cast<int>(caps.scheme.size()), caps.scheme.data(),
              static_cast<int>(caps.description.size()),
              caps.description.data());

  core::LiveOptions live;
  live.max_epochs = 4;  // alerts only look back a few intervals
  mon.start_live(live);

  // Exposition plane: scrapes pull from the hub (published between
  // intervals from quiesced data), never from the live pipeline.
  metrics::MetricsHub hub;
  core::HealthMonitor health;
  std::unique_ptr<metrics::MetricsServer> server;
  if (listen) {
    tracing::start();
    metrics::MetricsServer::Options opts;
    opts.port =
        static_cast<std::uint16_t>(args.get_u64("listen", 0));
    server = std::make_unique<metrics::MetricsServer>(
        opts, [&hub] { return *hub.latest(); });
    server->set_handler("/healthz", [&health] {
      return core::healthz_response(health.last());
    });
    if (topk_n > 0) {
      // Answers from the latest *published* epoch, so the handler never
      // touches live ingest state (same rule as /metrics).
      server->set_handler("/topk.json", [&mon, &caps, topk_n] {
        metrics::HttpResponse r;
        r.content_type = "application/json; charset=utf-8";
        const auto epoch = mon.latest_epoch();
        r.body = core::topk_json(
            caps.scheme, epoch ? epoch->seq() : 0,
            epoch ? epoch->top_k(static_cast<std::size_t>(topk_n))
                  : std::vector<core::TopKEntry>{});
        return r;
      });
    }
    if (sample_k > 0) {
      // Observed-error summary of the latest published epoch; same
      // quiesced-data rule as /topk.json.
      server->set_handler("/accuracy.json", [&mon, &caps] {
        metrics::HttpResponse r;
        r.content_type = "application/json; charset=utf-8";
        const auto epoch = mon.latest_epoch();
        r.body = core::accuracy_json(
            caps.scheme, epoch ? epoch->seq() : 0,
            epoch ? epoch->observed_accuracy() : core::AccuracyStats{});
        return r;
      });
    }
    // The resolved geometry is immutable after construction, so this
    // handler is trivially thread-safe.
    server->set_handler("/config.json", [&mon] {
      metrics::HttpResponse r;
      r.content_type = "application/json; charset=utf-8";
      r.body = mon.config_json();
      r.body += '\n';
      return r;
    });
    server->start();
    std::printf("serving /metrics /healthz /snapshot.json /trace.json "
                "/config.json%s%s on 127.0.0.1:%u\n",
                topk_n > 0 ? " /topk.json" : "",
                sample_k > 0 ? " /accuracy.json" : "", server->port());
    std::fflush(stdout);  // scrapers watch for this line
  }

  // The measurement plane's query side: a monitor thread re-checking the
  // current watch flow against the latest closed interval while ingest
  // runs. Swapping the watch flow is how an operator would pivot onto a
  // suspect mid-measurement.
  std::atomic<FlowId> watch_flow{0};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> live_queries{0};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)mon.query_live(watch_flow.load(std::memory_order_relaxed));
      live_queries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  double baseline_flow_count = 0.0;
  std::printf("%-9s %-10s %-12s %-22s %s\n", "interval", "packets",
              "est_flows", "top_flow(est)", "alerts");

  for (std::uint64_t e = 0; e < intervals; ++e) {
    const bool ddos = (e == intervals / 2);
    const bool scan = (e == intervals - 1);
    const auto traffic =
        make_interval(seed + 100 * (e + 1), flows, ddos, scan);

    core::TopKTable candidates(core::derive_topk(64, false, seed));
    for (FlowId f : traffic.packets) candidates.offer(f, 1);
    mon.feed(traffic.packets);
    const std::uint64_t interval_seq = mon.rotate_live();
    // Ingest could keep streaming here; the report blocks only this
    // thread until the finalizer publishes the closed interval.
    const auto epoch = mon.wait_epoch(interval_seq);
    if (listen) {
      // The epoch is published, so every worker-side write up to the
      // marker happens-before this point: the collection is quiesced.
      metrics::MetricsSnapshot snap;
      mon.collect_metrics(snap);
      common::add_build_info_metrics(
          snap, caps.scheme,
          cache::tier_name(cache::resolve_tier(std::nullopt)));
      health.on_signals(epoch->health_signals(), &snap);
      hub.publish(std::move(snap));
    }
    // Cardinality is a capability, not a given: cache-free schemes
    // without a per-flow plane (rcs, case) report no flow count, and
    // the scan alert stays off for them.
    const double est_flows = epoch->estimate_flow_count().value_or(0.0);
    const Count interval_packets = epoch->packets();

    // Heaviest flow of the interval: straight from the streaming top-k
    // tables when the sidecar is on (no counter scanned), otherwise by
    // re-ranking the Space-Saving candidates with the sketch estimates.
    double top_est = 0.0;
    FlowId top_flow = 0;
    if (caps.topk) {
      const auto heavy = epoch->top_k(1);
      if (!heavy.empty()) {
        top_flow = heavy[0].flow;
        top_est = static_cast<double>(heavy[0].count);
      }
    } else {
      for (const auto& entry : candidates.sorted_entries()) {
        const double est = epoch->estimate(entry.flow);
        if (est > top_est) {
          top_est = est;
          top_flow = entry.flow;
        }
      }
    }
    watch_flow.store(top_flow, std::memory_order_relaxed);

    // Alert strings are built via append: GCC 12's -O3 -Wrestrict
    // misfires on the char* + string&& overload.
    std::string alerts;
    // Heavy-tailed baselines routinely put ~15% of an interval into one
    // natural elephant; alert only beyond that.
    if (top_est > 0.20 * static_cast<double>(interval_packets)) {
      alerts += "[VOLUME: flow holds ";
      alerts += caesar::format_double(
          100.0 * top_est / static_cast<double>(interval_packets), 1);
      alerts += "% of interval]";
    }
    if (caps.flow_count && baseline_flow_count > 0.0 &&
        est_flows > 1.8 * baseline_flow_count) {
      alerts += "[CARDINALITY: flow count x";
      alerts += caesar::format_double(est_flows / baseline_flow_count, 1);
      alerts += "]";
    }
    if (alerts.empty()) alerts += "-";
    if (e == 0) baseline_flow_count = est_flows;

    char top_desc[32];
    std::snprintf(top_desc, sizeof top_desc, "%016llx(%.0f)",
                  static_cast<unsigned long long>(top_flow), top_est);
    std::printf("%-9llu %-10llu %-12.0f %-22s %s\n",
                static_cast<unsigned long long>(e),
                static_cast<unsigned long long>(interval_packets),
                est_flows, top_desc, alerts.c_str());

    // Validate the injected anomalies were caught.
    if (ddos) {
      const double victim_est = epoch->estimate(traffic.injected_target);
      std::printf("          -> DDoS victim estimated at %.0f packets "
                  "(injected 30000)\n",
                  victim_est);
    }
  }
  done.store(true, std::memory_order_release);
  monitor.join();
  mon.stop_live();
  if (topk_n > 0) {
    const auto last = mon.latest_epoch();
    const auto heavy =
        last ? last->top_k(static_cast<std::size_t>(topk_n))
             : std::vector<core::TopKEntry>{};
    std::printf("\nstreaming top-%llu of the last interval (0 counters "
                "scanned):\n",
                static_cast<unsigned long long>(topk_n));
    std::printf("%-5s %-18s %-10s %s\n", "rank", "flow", "count",
                "max_overcount");
    for (std::size_t i = 0; i < heavy.size(); ++i)
      std::printf("%-5zu %016llx   %-10llu %llu\n", i + 1,
                  static_cast<unsigned long long>(heavy[i].flow),
                  static_cast<unsigned long long>(heavy[i].count),
                  static_cast<unsigned long long>(heavy[i].error));
  }
  if (sample_k > 0) {
    const auto last = mon.latest_epoch();
    const auto acc =
        last ? last->observed_accuracy() : core::AccuracyStats{};
    std::printf("\nobserved accuracy of the last interval (%llu flows "
                "tracked exactly):\n",
                static_cast<unsigned long long>(acc.sampled_flows));
    std::printf("  ARE %.4f | bias %+.2f | p50 %.4f | p95 %.4f | "
                "under/over %llu/%llu",
                acc.are, acc.mean_bias, acc.p50_rel_error,
                acc.p95_rel_error,
                static_cast<unsigned long long>(acc.underestimates),
                static_cast<unsigned long long>(acc.overestimates));
    if (acc.model_are > 0.0)
      std::printf(" | model ARE %.4f (x%.2f observed/model)",
                  acc.model_are, acc.are / acc.model_are);
    std::printf("\n");
  }
  if (server) {
    // Final roll-up (exact now that all session threads joined), then
    // keep serving so an external scraper can read the finished run.
    metrics::MetricsSnapshot snap;
    mon.collect_metrics(snap);
    common::add_build_info_metrics(
        snap, caps.scheme,
        cache::tier_name(cache::resolve_tier(std::nullopt)));
    hub.publish(std::move(snap));
    if (linger_sec > 0) {
      std::printf("lingering %llus for scrapes on 127.0.0.1:%u\n",
                  static_cast<unsigned long long>(linger_sec),
                  server->port());
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::seconds(linger_sec));
    }
    std::printf("served %llu scrape(s)\n",
                static_cast<unsigned long long>(server->requests_served()));
    server->stop();
    tracing::stop();
  }
  if (caps.topk)
    std::printf("\n(top flows from the streaming eviction-fed top-k "
                "tables of %.*s; cardinality from linear counting over "
                "the sketch; %llu live queries served during ingest)\n",
                static_cast<int>(caps.scheme.size()), caps.scheme.data(),
                static_cast<unsigned long long>(live_queries.load()));
  else
    std::printf("\n(top flows re-ranked by %.*s estimates from "
                "Space-Saving candidates; cardinality from linear "
                "counting over the sketch; %llu live queries served "
                "during ingest)\n",
                static_cast<int>(caps.scheme.size()), caps.scheme.data(),
                static_cast<unsigned long long>(live_queries.load()));
  return 0;
}

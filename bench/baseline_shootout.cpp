// Baseline shootout — the §2 related-work survey as an experiment: every
// implemented scheme on one workload, reporting accuracy, memory and
// modeled hardware time. This is the quantitative version of the paper's
// qualitative comparisons (compression schemes waste resolution, sampling
// filters mice, braids/RCS pay per-packet off-chip costs, CAESAR's cache
// plus sharing wins on the combination).
#include <cmath>
#include <cstdio>

#include "baselines/braids/counter_braids.hpp"
#include "baselines/compressed/anls.hpp"
#include "baselines/compressed/cedar.hpp"
#include "baselines/compressed/small_active_counter.hpp"
#include "baselines/sampling/sampled_counting.hpp"
#include "baselines/tree/counter_tree.hpp"
#include "baselines/vhc/virtual_hll.hpp"
#include "core/topk.hpp"
#include "memsim/cost_model.hpp"
#include "support.hpp"

int main() {
  using namespace caesar;
  const auto setup = bench::setup_from_env();
  const auto t = trace::generate_trace(setup.trace_accuracy);
  bench::print_banner("Baseline shootout (§2 survey, quantified)", setup, t,
                      setup.caesar_accuracy);

  const auto model = memsim::virtex7_model();
  const auto q = t.num_flows();

  Table table({"scheme", "avg_rel_err", "err(x>=4)", "memory_kb",
               "model_ms", "notes"});
  auto add_row = [&](const char* name, const analysis::EvalResult& e,
                     double err4, double kb, double ms, const char* notes) {
    table.add_row({name,
                   format_double(100.0 * e.avg_relative_error, 1) + "%",
                   format_double(100.0 * err4, 1) + "%",
                   format_double(kb, 1), format_double(ms, 1), notes});
  };
  // Average relative error restricted to flows of size >= 4 (where the
  // 1-bit/compressed schemes can no longer hide behind exact mice).
  auto err_ge4 = [&](const analysis::EvalResult& e) {
    return bench::avg_error_at_least(e, 4);
  };

  {
    core::CaesarSketch s(setup.caesar_accuracy);
    bench::feed(t, s);
    s.flush();
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate_csm(f); });
    add_row("CAESAR (CSM)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "this paper");
  }
  {
    baselines::RcsSketch s(setup.rcs_accuracy);
    bench::feed(t, s);
    const auto e = bench::evaluate_fn(
        t, [&](FlowId f) { return s.estimate_csm_raw(f); });
    add_row("RCS (lossless)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "per-pkt off-chip");
  }
  {
    baselines::LossyRcs s(setup.rcs_accuracy, 2.0 / 3.0);
    bench::feed(t, s);
    const auto e = bench::evaluate_fn(
        t, [&](FlowId f) { return s.estimate_csm_raw(f); });
    add_row("RCS (loss 2/3)", e, err_ge4(e), s.sketch().memory_kb(),
            model.time_ms(s.sketch().op_counts()), "realistic loss");
  }
  {
    baselines::CaseSketch s(setup.case_small);
    bench::feed(t, s);
    s.flush();
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate(f); });
    add_row("CASE (1-bit)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "L>=Q squeeze");
  }
  {
    baselines::CounterBraidsConfig cfg;
    cfg.layer1_counters = 2 * q;  // above the k=3 decodability threshold
    cfg.layer1_bits = 8;
    cfg.layer2_counters = q / 4;
    cfg.seed = setup.caesar.seed ^ 0xCB;
    baselines::CounterBraids s(cfg);
    bench::feed(t, s);
    const auto est = s.decode(t.flow_ids());
    double total = 0.0;
    analysis::EvalResult e;  // assemble manually (joint decode)
    e.flows = q;
    std::vector<std::uint64_t> bin_flows;
    std::vector<double> bin_err;
    for (std::uint32_t i = 0; i < q; ++i) {
      const auto actual = static_cast<double>(t.size_of(i));
      const double rel = std::abs(std::max(est[i], 0.0) - actual) / actual;
      total += rel;
      const auto b = static_cast<std::size_t>(
          std::floor(std::log2(std::max(actual, 1.0))));
      if (b >= bin_flows.size()) {
        bin_flows.resize(b + 1, 0);
        bin_err.resize(b + 1, 0.0);
      }
      ++bin_flows[b];
      bin_err[b] += rel;
    }
    e.avg_relative_error = total / static_cast<double>(q);
    for (std::size_t b = 0; b < bin_flows.size(); ++b) {
      if (!bin_flows[b]) continue;
      analysis::ErrorBin eb;
      eb.lo = Count{1} << b;
      eb.flows = bin_flows[b];
      eb.avg_rel_error = bin_err[b] / static_cast<double>(bin_flows[b]);
      e.bins.push_back(eb);
    }
    add_row("Counter Braids", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "joint decode only");
  }
  {
    baselines::SacConfig sc;
    sc.mantissa_bits = 8;
    sc.exponent_bits = 4;
    baselines::SacArray s(q, sc, setup.caesar.seed ^ 0x5AC);
    bench::feed(t, s);
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate(f); });
    add_row("SAC (12-bit)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "1 ctr/flow, compress");
  }
  {
    auto s = baselines::AnlsArray::for_range(
        q, 12, static_cast<double>(setup.trace_accuracy.max_flow_size),
        setup.caesar.seed ^ 0xA72);
    bench::feed(t, s);
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate(f); });
    add_row("ANLS (12-bit)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "geometric stretch");
  }
  {
    baselines::CedarArray s(q, 12, 0.1, setup.caesar.seed ^ 0xCED);
    bench::feed(t, s);
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate(f); });
    add_row("CEDAR (12-bit)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "shared ladder");
  }
  {
    baselines::SampledCounting s(0.01, setup.caesar.seed ^ 0x5A);
    bench::feed(t, s);
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate(f); });
    add_row("Sampling (1%)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "mice filtered");
  }
  {
    baselines::VhcConfig vc;
    vc.physical_registers = 1u << 18;  // Q*s/M ~ 10: dense regime
    vc.virtual_registers = 128;
    vc.seed = setup.caesar.seed ^ 0x54C;
    baselines::VirtualHyperLogLog s(vc);
    bench::feed(t, s);
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate(f); });
    add_row("VHC (vHLL)", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "register sharing");
  }
  {
    baselines::CounterTreeConfig cfg;
    cfg.leaves = 4 * q;  // leaf collisions rare
    cfg.leaf_bits = 8;   // carries rare at this load -> parents stay clean
    cfg.degree = 8;
    cfg.seed = setup.caesar.seed ^ 0x7EE;
    baselines::CounterTree s(cfg);
    bench::feed(t, s);
    const auto e =
        bench::evaluate_fn(t, [&](FlowId f) { return s.estimate(f); });
    add_row("Counter Tree", e, err_ge4(e), s.memory_kb(),
            model.time_ms(s.op_counts()), "1 leaf/flow: collisions");
  }
  {
    // Space-Saving without randomized admission: one table update and
    // one hash per packet.
    core::TopKTable s(core::derive_topk(2048, false, setup.caesar.seed));
    for (auto idx : t.arrivals()) s.offer(t.id_of(idx), 1);
    const auto e = bench::evaluate_fn(
        t, [&](FlowId f) { return static_cast<double>(s.count_of(f)); });
    memsim::OpCounts ops;
    ops.sram_accesses = t.num_packets();
    ops.hashes = t.num_packets();
    add_row("SpaceSaving 2k", e, err_ge4(e), s.memory_kb(),
            model.time_ms(ops), "elephants only");
  }

  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("Single-counter schemes (SAC/CEDAR/CASE) suffer hash\n"
              "collisions or quantization once L ~ Q; sampling erases the\n"
              "mice entirely; Counter Braids matches CAESAR's accuracy but\n"
              "pays k off-chip accesses per packet and only decodes the\n"
              "whole flow set jointly.\n");
  return 0;
}

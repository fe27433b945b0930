// accel_zoo: the 8-model zoo through the cycle-level accelerator at the
// baseline and full-ToPick (out-of-order) design points, refresh off — the
// paper's Fig. 10 setup. Instances are drawn from the seed; setup is their
// generation and quantization, the timed part is accel::Engine::run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/energy_model.h"
#include "accel/engine.h"
#include "common/rng.h"
#include "core/exact_attention.h"
#include "workload/zoo.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kMinRepeats = 3;

struct ZooInstance {
  std::size_t model = 0;
  wl::Instance inst;
  accel::AccelInstance hw;
};

// Quantizes a float instance the way the accelerator stores it (as in
// bench_fig10): shared per-view K/V scales, per-query Q scale.
accel::AccelInstance make_hw_instance(const wl::Instance& inst) {
  accel::AccelInstance hw;
  fx::QuantParams base;
  hw.kv = quantize_kv(inst.view(), base);
  fx::QuantParams qp = base;
  qp.scale = fx::choose_scale(inst.q, base.total_bits);
  hw.q = fx::quantize(inst.q, qp);
  hw.score_scale = static_cast<double>(qp.scale) * hw.kv.keys[0].params.scale /
                   std::sqrt(static_cast<double>(inst.head_dim));
  return hw;
}

std::vector<ZooInstance> make_zoo(const AccelWorkload& w, std::uint64_t seed,
                                  SpanTracer* tracer) {
  Span span(tracer, "workload.gen");
  const auto zoo = wl::workload_zoo();
  std::vector<ZooInstance> out;
  for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
    const wl::Generator gen(zoo[mi].workload);
    topick::Rng rng(seed * 0x9e3779b97f4a7c15ULL + mi);
    for (int i = 0; i < w.instances_per_model; ++i) {
      ZooInstance z;
      z.model = mi;
      z.inst = gen.make_instance(rng);
      z.hw = make_hw_instance(z.inst);
      out.push_back(std::move(z));
    }
  }
  return out;
}

accel::AccelConfig design_config(const AccelWorkload& w,
                                 accel::DesignPoint design) {
  accel::AccelConfig config;
  config.design = design;
  config.estimator.threshold =
      design == accel::DesignPoint::baseline ? 0.0 : w.threshold;
  config.dram.enable_refresh = w.refresh;
  return config;
}

struct DesignRun {
  accel::SimResult base;
  accel::SimResult topick;
  double host_s = 0.0;  // both runs
};

struct Repeat {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<ZooInstance> zoo;
  std::vector<DesignRun> runs;
};

Repeat run_repeat(const AccelWorkload& w, std::uint64_t seed,
                  SpanTracer* tracer) {
  Repeat r;
  const auto t0 = Clock::now();
  r.zoo = make_zoo(w, seed, tracer);
  r.setup_s = seconds_since(t0);
  accel::Engine base_engine(design_config(w, accel::DesignPoint::baseline));
  accel::Engine topick_engine(
      design_config(w, accel::DesignPoint::topick_ooo));
  const auto t1 = Clock::now();
  for (const auto& z : r.zoo) {
    DesignRun d;
    const auto t = Clock::now();
    {
      Span span(tracer, "accel.run");
      d.base = base_engine.run(z.hw);
    }
    {
      Span span(tracer, "accel.run");
      d.topick = topick_engine.run(z.hw);
    }
    d.host_s = seconds_since(t);
    r.runs.push_back(std::move(d));
  }
  r.run_s = seconds_since(t1);
  return r;
}

// Sim-clock figures of one repeat; every repeat must agree exactly.
std::vector<std::uint64_t> sim_signature(const Repeat& r) {
  std::vector<std::uint64_t> sig;
  for (const auto& d : r.runs) {
    sig.push_back(d.base.core_cycles);
    sig.push_back(d.topick.core_cycles);
    sig.push_back(d.topick.access.total_bits_fetched());
    sig.push_back(d.topick.dram.bytes_read);
  }
  return sig;
}

// Baseline output must equal functional exact quantized attention; ToPick
// output must lie within 2 * dropped * vmax + 1e-3 of it, dropped being the
// exact softmax mass of the tokens the accelerator pruned. Returns every
// instance's dropped mass.
std::vector<double> check_outputs(const Repeat& r, Result* out) {
  std::vector<double> dropped_all;
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    const auto& z = r.zoo[i];
    const auto& d = r.runs[i];
    const auto exact = exact_attention_quantized(z.inst.q, z.inst.view());
    double kept = 0.0;
    for (std::size_t t = 0; t < d.topick.kept.size(); ++t) {
      if (d.topick.kept[t]) kept += exact.probs[t];
    }
    const double dropped = std::max(0.0, 1.0 - kept);
    dropped_all.push_back(dropped);
    float vmax = 0.0f;
    for (const float v : z.inst.values) vmax = std::max(vmax, std::abs(v));
    const double bound = 2.0 * dropped * vmax + 1e-3;
    bool ok = d.base.output.size() == exact.output.size() &&
              d.topick.output.size() == exact.output.size();
    for (std::size_t k = 0; ok && k < exact.output.size(); ++k) {
      ok = std::abs(d.base.output[k] - exact.output[k]) <= 1e-4 &&
           std::abs(d.topick.output[k] - exact.output[k]) <= bound;
    }
    ++out->attempted;
    if (!ok) {
      ++out->failed;
      out->fail("zoo model " + std::to_string(z.model) + " instance " +
                std::to_string(i) +
                ": output differs from functional attention");
    }
  }
  return dropped_all;
}

}  // namespace

Result run_accel_workload(const AccelWorkload& w, const RunOptions& opt) {
  Result out;
  out.params_json = params_json(w, opt.seed);
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;

  // The first repeat warms up (its timings are discarded) and is kept for
  // the sim-clock figures and the output check; later repeats only
  // contribute timings and must match its signature.
  const Repeat r = run_repeat(w, opt.seed, nullptr);
  const auto signature = sim_signature(r);
  std::vector<double> setup, wall;
  std::vector<std::vector<double>> runs;  // per repeat, per instance
  auto start = Clock::now();
  while (wall.size() < kMinRepeats || seconds_since(start) < budget) {
    const Repeat rep = run_repeat(w, opt.seed, nullptr);
    setup.push_back(rep.setup_s);
    wall.push_back(rep.run_s);
    runs.emplace_back();
    for (const auto& d : rep.runs) runs.back().push_back(d.host_s);
    ++out.attempted;
    if (sim_signature(rep) != signature) {
      ++out.failed;
      out.fail("accel repeat changed a sim-clock figure");
    }
  }
  const double rss = peak_rss_mib();
  const auto dropped = check_outputs(r, &out);

  // Sim-clock aggregates over the zoo.
  const accel::AccelConfig topick_cfg =
      design_config(w, accel::DesignPoint::topick_ooo);
  const double dram_per_core = topick_cfg.dram_clocks_per_core;
  std::uint64_t topick_cycles = 0, base_bits = 0, topick_bits = 0, bytes = 0;
  AccessStats topick_access;
  std::vector<double> step_cycles;
  const std::size_t n_models = wl::workload_zoo().size();
  std::vector<double> cyc_base(n_models, 0.0), cyc_topick(n_models, 0.0);
  std::vector<double> e_base(n_models, 0.0), e_topick(n_models, 0.0);
  std::uint64_t core_cycles = 0, lane_busy = 0, lane_stall = 0;
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    const auto& d = r.runs[i];
    const std::size_t m = r.zoo[i].model;
    topick_cycles += d.topick.core_cycles;
    step_cycles.push_back(static_cast<double>(d.topick.core_cycles) *
                          dram_per_core);
    base_bits += d.base.access.total_bits_fetched();
    topick_bits += d.topick.access.total_bits_fetched();
    bytes += d.topick.dram.bytes_read;
    topick_access.merge(d.topick.access);
    cyc_base[m] += static_cast<double>(d.base.core_cycles);
    cyc_topick[m] += static_cast<double>(d.topick.core_cycles);
    e_base[m] += accel::energy_of(d.base).total_pj();
    e_topick[m] += accel::energy_of(d.topick).total_pj();
    for (const auto* s : {&d.base, &d.topick}) {
      core_cycles += s->core_cycles;
      lane_busy += s->lane_busy_cycles;
      lane_stall += s->lane_stall_cycles;
    }
  }
  const double queries = static_cast<double>(r.runs.size());

  // Host throughput (simulated queries, both designs, per host second) is
  // reported with the per-layer metrics, as for the engine workloads.
  log_repeats(w.name.c_str(), wall);
  const double host_tok_s = 2.0 * queries / robust_total(runs);
  std::fprintf(stderr, "%s: host %.1f tok/s\n", w.name.c_str(), host_tok_s);

  if (!opt.trace) {
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", rss, "MiB");
    out.add("sim_tok_s",
            queries / (static_cast<double>(topick_cycles) /
                       (topick_cfg.core_clock_ghz * 1e9)),
            "tok/s");
    out.add("step_p99_cycles", pct(step_cycles, 99.0), "cycles");
    out.add("bytes_per_token", static_cast<double>(bytes) / queries, "B");
    out.add("access_reduction",
            static_cast<double>(base_bits) / static_cast<double>(topick_bits),
            "x");
    out.add("pruned_mass_p50", pct(dropped, 50.0), "frac");
    out.add("retired_frac",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "frac");
    return out;
  }

  // Traced: the untraced repeats above are the overhead baseline.
  SpanTracer tracer;
  std::vector<double> traced_wall, untraced_wall, host_ns_per_cycle;
  for (std::size_t i = 0; i < wall.size(); ++i) {
    untraced_wall.push_back(setup[i] + wall[i]);
  }
  start = Clock::now();
  std::size_t traced = 0;
  while (traced < kMinRepeats || seconds_since(start) < budget) {
    const auto t0 = Clock::now();
    tracer.open("bench.repeat");
    const Repeat tr = run_repeat(w, opt.seed, &tracer);
    tracer.close();
    traced_wall.push_back(seconds_since(t0));
    double host_s = 0.0;
    for (const auto& d : tr.runs) host_s += d.host_s;
    host_ns_per_cycle.push_back(host_s * 1e9 /
                                static_cast<double>(core_cycles));
    ++traced;
  }

  double speedup = 0.0, energy_ratio = 0.0;
  for (std::size_t m = 0; m < n_models; ++m) {
    speedup += cyc_base[m] / cyc_topick[m];
    energy_ratio += e_topick[m] / e_base[m];
  }
  out.add("accel.host_ns_per_core_cycle", lower_quartile(host_ns_per_cycle),
          "ns");
  out.add("accel.core_cycles", static_cast<double>(core_cycles), "cycles");
  out.add("accel.lane_util",
          static_cast<double>(lane_busy) /
              (static_cast<double>(core_cycles) * topick_cfg.pe_lanes),
          "frac");
  out.add("accel.lane_stall_cycles", static_cast<double>(lane_stall), "cycles");
  out.add("accel.speedup", speedup / static_cast<double>(n_models), "x");
  out.add("accel.energy_gain",
          static_cast<double>(n_models) / energy_ratio, "x");
  out.add("core.kept_frac", kept_frac(topick_access), "frac");
  out.add("core.k_chunks_per_token", k_chunks_per_token(topick_access),
          "chunks");
  out.add("core.pruning_ratio", topick_access.pruning_ratio(), "x");
  out.add("obs.host_tok_s", host_tok_s, "tok/s");
  out.add("core.pruned_mass_p99", pct(dropped, 99.0), "frac");
  out.add("core.pruned_mass_max", pct(dropped, 100.0), "frac");
  out.add("workload.gen_s", lower_quartile(setup), "s");

  finish_traced_run(tracer, traced_wall, untraced_wall, opt, &out);
  return out;
}

}  // namespace perfbench

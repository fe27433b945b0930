// The three serving workloads (serve_poisson, decode_2k, overload_faults).
//
// Untraced (--trace 0): repeat {generate trace, build engine, submit, run}
// for the time budget; host metrics are medians over the repeats, sim-clock
// metrics come from the run itself (and must repeat bit-exactly). Then an
// untimed capture pass checks every decode step against exact attention.
//
// Traced (--trace 1): half the budget untraced (the overhead baseline), half
// traced with spans around every call into the engine. The traced engine
// runs with simulate_dram off; the benchmark rebuilds each step's DRAM
// transfers from the requests' counter deltas and replays them through its
// own mem::Hbm, so memsim's host time is measured apart from the engine's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/exact_attention.h"
#include "memsim/hbm.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kMinRepeats = 3;
constexpr double kOutputTol = 5e-3;  // the serve suite's shadow-check slack

// Everything about one finished run that the sim clock or plain counting
// determines; two runs of the same seed must agree on all of it.
struct SimFigures {
  std::uint64_t tokens = 0;
  std::uint64_t steps = 0;
  std::uint64_t dram_cycles = 0;
  std::size_t submitted = 0;
  std::size_t retired = 0;
  std::size_t failed = 0;
  double sim_tok_s = 0.0;
  double step_p99_cycles = 0.0;
  double bytes_per_token = 0.0;
  double access_reduction = 0.0;
  double ttft_p50 = 0.0;
  double ttft_p90 = 0.0;
  std::size_t ttft_samples = 0;
  double slo_attain_interactive = 1.0;
  double kept_frac = 0.0;
  double k_chunks_per_token = 0.0;
  double pruning_ratio = 0.0;

  bool operator==(const SimFigures&) const = default;
};

SimFigures sim_figures(const serve::ServeEngine& engine) {
  const auto& m = engine.metrics();
  SimFigures f;
  f.tokens = m.tokens_generated;
  f.steps = m.engine_steps;
  f.dram_cycles = m.dram_cycles;
  f.submitted = m.requests_submitted;
  f.retired = m.requests_retired;
  f.failed = m.requests_failed;
  f.bytes_per_token = m.bytes_per_token();
  f.access_reduction = m.stats.total_reduction();
  f.kept_frac = kept_frac(m.stats);
  f.k_chunks_per_token = k_chunks_per_token(m.stats);
  f.pruning_ratio = m.stats.pruning_ratio();
  if (m.dram_cycles > 0) {
    f.sim_tok_s = m.tokens_per_second();
    f.step_p99_cycles = pct(m.step_cycle_samples, 99.0);
    f.ttft_p50 = pct(m.ttft_cycle_samples, 50.0);
    f.ttft_p90 = pct(m.ttft_cycle_samples, 90.0);
    f.ttft_samples = m.ttft_cycle_samples.size();
  }
  const auto& inter = m.for_class(wl::Priority::interactive);
  if (inter.slo_latency_tracked > 0 && inter.submitted > 0) {
    f.slo_attain_interactive = static_cast<double>(inter.slo_latency_met) /
                               static_cast<double>(inter.submitted);
  }
  return f;
}

// Run-level invariants every engine run must meet.
void check_invariants(const serve::ServeEngine& engine, Result* out) {
  const auto& m = engine.metrics();
  ++out->attempted;
  if (m.requests_submitted != m.requests_retired + m.requests_failed) {
    ++out->failed;
    out->fail("submitted " + std::to_string(m.requests_submitted) +
              " != retired " + std::to_string(m.requests_retired) +
              " + failed " + std::to_string(m.requests_failed));
  }
  ++out->attempted;
  if (engine.pool().pages_in_use() != 0) {
    ++out->failed;
    out->fail("pool ends with " + std::to_string(engine.pool().pages_in_use()) +
              " pages in use");
  }
}

struct Repeat {
  double setup_s = 0.0;  // trace + engine + streams
  double gen_s = 0.0;    // trace + streams only
  double run_s = 0.0;
  std::vector<double> step_s;  // every engine step, in order
  SimFigures sim;
};

serve::ServeConfig run_config(const EngineWorkload& w) {
  serve::ServeConfig c = w.config;
  c.faults = w.plan.empty() ? nullptr : &w.plan;
  return c;
}

Repeat untraced_repeat(const EngineWorkload& w, std::uint64_t seed,
                       Result* out) {
  Repeat r;
  const auto t0 = Clock::now();
  const auto trace = make_trace(w, seed);
  const double trace_s = seconds_since(t0);
  const auto t1 = Clock::now();
  serve::ServeEngine engine(run_config(w));
  const double engine_s = seconds_since(t1);
  const auto t2 = Clock::now();
  engine.submit_trace(trace);
  r.gen_s = trace_s + seconds_since(t2);
  r.setup_s = trace_s + engine_s + seconds_since(t2);
  const auto t3 = Clock::now();
  for (bool more = true; more;) {  // engine.run(), one timed step at a time
    const auto t = Clock::now();
    more = engine.step();
    r.step_s.push_back(seconds_since(t));
  }
  r.run_s = seconds_since(t3);
  r.sim = sim_figures(engine);
  check_invariants(engine, out);
  return r;
}

// A warm-up repeat (its timings discarded) fixes the reference sim figures;
// then repeats run until `budget_s` is spent, at least kMinRepeats times,
// and each must reproduce the reference exactly.
std::vector<Repeat> untraced_repeats(const EngineWorkload& w,
                                     std::uint64_t seed, double budget_s,
                                     Result* out) {
  const Repeat warm = untraced_repeat(w, seed, out);
  std::vector<Repeat> reps;
  const auto start = Clock::now();
  while (reps.size() < kMinRepeats || seconds_since(start) < budget_s) {
    reps.push_back(untraced_repeat(w, seed, out));
    ++out->attempted;
    if (!(reps.back().sim == warm.sim)) {
      ++out->failed;
      out->fail("repeat " + std::to_string(reps.size() - 1) +
                " changed a sim-clock figure");
    }
  }
  return reps;
}

// Capture pass: every decode step of every retired request must lie within
// 2 * dropped * vmax + tol of exact quantized attention over the full
// context, where dropped is the exact softmax mass of the tokens the engine
// did not keep. Returns every checked instance's dropped mass. With
// `simulate` the pass also yields the sim figures of a workload whose timed
// runs skip DRAM simulation.
std::vector<double> capture_check(const EngineWorkload& w,
                                  std::uint64_t seed, bool simulate,
                                  SimFigures* sim, Result* out) {
  serve::ServeConfig config = run_config(w);
  config.capture_outputs = true;
  config.simulate_dram = simulate;
  serve::ServeEngine engine(config);
  engine.submit_trace(make_trace(w, seed));
  engine.run();
  check_invariants(engine, out);
  if (simulate) *sim = sim_figures(engine);

  // One check unit per captured decode step, spread over the host's cores
  // (this pass is untimed); results are reduced in request order.
  struct Unit {
    std::size_t request = 0;
    std::size_t step = 0;
    std::vector<double> dropped;  // per (layer, head) instance
    bool ok = true;
  };
  std::vector<Unit> units;
  for (std::size_t i = 0; i < engine.requests().size(); ++i) {
    const auto& req = engine.requests()[i];
    if (req.state != serve::RequestState::finished) continue;
    ++out->attempted;
    if (req.outputs.size() != req.event.decode_len) {
      ++out->failed;
      out->fail("request " + std::to_string(req.event.request_id) +
                " captured " + std::to_string(req.outputs.size()) + " of " +
                std::to_string(req.event.decode_len) + " steps");
      continue;
    }
    for (std::size_t k = 0; k < req.outputs.size(); ++k) {
      units.push_back(Unit{i, k, {}, true});
    }
  }
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  pool.parallel_for(units.size(), [&](std::size_t u, std::size_t) {
    Unit& unit = units[u];
    const auto& req = engine.requests()[unit.request];
    const auto& step = req.outputs[unit.step];
    const std::size_t ctx = step.position + 1;
    const std::size_t decode_step = step.position - req.event.prompt_len;
    for (int layer = 0; layer < config.n_layer; ++layer) {
      for (int head = 0; head < config.n_head; ++head) {
        const auto inst =
            static_cast<std::size_t>(layer) * config.n_head + head;
        const auto view = req.stream.context_view(layer, head, ctx);
        const auto exact = exact_attention_quantized(
            req.stream.query(layer, head, decode_step), view,
            config.picker.quant);
        double kept = 0.0;
        for (const std::size_t t : step.kept_tokens[inst]) {
          kept += exact.probs[t];
        }
        const double dropped = std::max(0.0, 1.0 - kept);
        unit.dropped.push_back(dropped);
        float vmax = 0.0f;
        for (std::size_t t = 0; t < ctx; ++t) {
          for (const float x : view.value(t)) {
            vmax = std::max(vmax, std::abs(x));
          }
        }
        const double bound = 2.0 * dropped * vmax + kOutputTol;
        const auto& got = step.out[inst];
        if (got.size() != exact.output.size()) unit.ok = false;
        for (std::size_t d = 0; unit.ok && d < got.size(); ++d) {
          unit.ok = std::abs(got[d] - exact.output[d]) <= bound;
        }
      }
    }
  });

  std::vector<double> dropped;
  std::size_t misses = 0;
  for (const auto& unit : units) {
    dropped.insert(dropped.end(), unit.dropped.begin(), unit.dropped.end());
    ++out->attempted;
    if (unit.ok) continue;
    ++out->failed;
    if (++misses <= 3) {
      const auto& req = engine.requests()[unit.request];
      out->fail("request " + std::to_string(req.event.request_id) +
                " position " +
                std::to_string(req.outputs[unit.step].position) +
                " outside the dropped-mass bound of exact attention");
    }
  }
  return dropped;
}

// ---- traced run -------------------------------------------------------------

struct ReplayStats {
  std::uint64_t txns = 0;
  std::uint64_t refused = 0;  // enqueue attempts refused by a full queue
  double host_s = 0.0;
};

// The engine's serial replay (ServeEngine::simulate_step_dram), driven from
// outside: the step's transfers in schedule order, each streaming its
// request's next granules, one DRAM clock per loop.
void replay_step(mem::Hbm& hbm, const std::vector<std::size_t>& order,
                 const std::vector<std::uint64_t>& bits,
                 std::vector<std::uint64_t>& offset, ReplayStats* stats) {
  const auto granule =
      static_cast<std::uint64_t>(hbm.config().transaction_bytes);
  std::vector<std::uint64_t> remaining(order.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    remaining[i] = ((bits[i] + 7) / 8 + granule - 1) / granule;
    total += remaining[i];
  }
  stats->txns += total;
  while (total > 0 || hbm.pending() > 0) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (remaining[i] == 0) continue;
      const std::size_t request = order[i];
      mem::MemRequest mreq;
      mreq.addr = serve::dram_layout::stream_addr(request, offset[request],
                                                  granule);
      mreq.id = i;
      if (hbm.try_enqueue(mreq)) {
        --remaining[i];
        --total;
        ++offset[request];
      } else {
        ++stats->refused;
      }
    }
    hbm.tick();
    hbm.drain_responses();
  }
}

// Per-request counters whose step deltas are that step's DRAM transfer.
struct ReqCounters {
  std::uint64_t prefill_bits = 0;
  std::uint64_t read_bits = 0;
  std::size_t generated = 0;
};

ReqCounters counters_of(const serve::Request& r) {
  return {r.prefill_bits, r.stats.k_bits_fetched + r.stats.v_bits_fetched,
          r.generated};
}

struct TracedRepeat {
  double wall_s = 0.0;
  std::uint64_t replay_end_cycle = 0;
  ReplayStats replay;
  mem::DramStats dram;
  std::vector<double> step_us;
  serve::FleetMetrics metrics;
  std::size_t pool_peak_pages = 0;
};

TracedRepeat traced_repeat(const EngineWorkload& w, std::uint64_t seed,
                           bool replay, SpanTracer* tracer) {
  TracedRepeat out;
  const auto t0 = Clock::now();
  tracer->open("bench.repeat");
  serve::ServeConfig config = run_config(w);
  config.simulate_dram = false;
  config.collect_phase_stats = true;
  std::vector<wl::ArrivalEvent> trace;
  {
    Span span(tracer, "workload.gen");
    trace = make_trace(w, seed);
  }
  std::unique_ptr<serve::ServeEngine> engine;
  {
    Span span(tracer, "serve.setup");
    engine = std::make_unique<serve::ServeEngine>(config);
  }
  {
    Span span(tracer, "workload.gen");
    engine->submit_trace(trace);
  }

  mem::Hbm hbm(config.dram);
  for (const auto& spec : w.plan.channels) {
    hbm.set_channel_fault(static_cast<std::size_t>(spec.channel), &spec.fault);
  }
  const std::uint64_t write_bits =
      engine->requests().empty()
          ? 0
          : engine->requests()[0].stream.token_write_bits(
                config.picker.quant.total_bits);
  std::vector<std::uint64_t> offset(engine->requests().size(), 0);
  std::vector<ReqCounters> before(engine->requests().size());
  std::vector<std::uint8_t> in_r0(engine->requests().size(), 0);
  std::vector<std::size_t> order;
  std::vector<std::uint64_t> bits;

  for (;;) {
    const auto& reqs = engine->requests();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      before[i] = counters_of(reqs[i]);
    }
    const std::vector<std::size_t> r0 = engine->batcher().running();
    for (const std::size_t r : r0) in_r0[r] = 1;
    const std::uint64_t attention_before =
        engine->phase_stats().attention_wall_ns;

    const std::uint64_t step_start = tracer->now_ns();
    tracer->open("serve.step");
    const bool more = engine->step();
    const std::uint64_t attention_ns =
        engine->phase_stats().attention_wall_ns - attention_before;
    if (attention_ns > 0) {
      tracer->add_closed("core.attention", step_start, attention_ns);
    }
    tracer->close();
    out.step_us.push_back(
        static_cast<double>(tracer->now_ns() - step_start) / 1e3);
    // The step that retires the last request returns false yet did work, so
    // its transfers are replayed before the loop ends.
    if (!replay) {
      for (const std::size_t r : r0) in_r0[r] = 0;
      if (!more) break;
      continue;
    }

    // The step's schedule: the running list at step start, then requests
    // admitted during the step in the order the running list now holds them.
    order.clear();
    bits.clear();
    auto take = [&](std::size_t r) {
      const ReqCounters now = counters_of(reqs[r]);
      std::uint64_t b = 0;
      if (now.generated > before[r].generated) {
        b = now.read_bits - before[r].read_bits + write_bits;
      } else if (now.prefill_bits > before[r].prefill_bits) {
        b = now.prefill_bits - before[r].prefill_bits;
      }
      if (b > 0) {
        order.push_back(r);
        bits.push_back(b);
      }
    };
    for (const std::size_t r : r0) take(r);
    for (const std::size_t r : engine->batcher().running()) {
      if (!in_r0[r]) take(r);
    }
    for (const std::size_t r : r0) in_r0[r] = 0;
    if (!order.empty()) {
      const auto rt0 = Clock::now();
      {
        Span span(tracer, "memsim.replay");
        replay_step(hbm, order, bits, offset, &out.replay);
      }
      out.replay.host_s += seconds_since(rt0);
    }
    if (!more) break;
  }
  tracer->close();
  out.wall_s = seconds_since(t0);
  out.replay_end_cycle = hbm.cycle();
  out.dram = hbm.stats();
  out.metrics = engine->metrics();
  out.pool_peak_pages = engine->pool().peak_pages_in_use();
  return out;
}

}  // namespace

Result run_engine_workload(const EngineWorkload& w, const RunOptions& opt) {
  Result out;
  out.params_json = params_json(w, opt.seed);
  const bool simulated = w.config.simulate_dram;

  // Untraced repeats: the whole budget, or half of it before the traced ones.
  const auto reps = untraced_repeats(
      w, opt.seed, opt.trace ? opt.seconds / 2 : opt.seconds, &out);
  const double rss = peak_rss_mib();
  SimFigures sim = reps.front().sim;
  SimFigures captured;
  const auto check_start = Clock::now();
  const auto dropped = capture_check(w, opt.seed, !simulated, &captured, &out);
  const double check_s = seconds_since(check_start);
  if (!simulated) sim = captured;
  std::vector<double> wall, setup, gen, untraced_wall;
  std::vector<std::vector<double>> steps;
  for (const auto& r : reps) {
    steps.push_back(r.step_s);
    wall.push_back(r.run_s);
    setup.push_back(r.setup_s);
    gen.push_back(r.gen_s);
    untraced_wall.push_back(r.setup_s + r.run_s);
  }
  log_repeats(w.name.c_str(), wall);
  std::fprintf(stderr,
               "%s: %zu repeats, sim %.1f tok/s, %llu tokens, %zu/%zu "
               "retired, %zu failed; check pass %.2f s\n",
               w.name.c_str(), reps.size(), sim.sim_tok_s,
               static_cast<unsigned long long>(sim.tokens), sim.retired,
               sim.submitted, sim.failed, check_s);

  // Host throughput is reported with the per-layer metrics, not gated: see
  // README.md on how far host time drifts between runs on a shared VM.
  const double host_tok_s =
      static_cast<double>(sim.tokens) / robust_total(steps);
  std::fprintf(stderr, "%s: host %.1f tok/s\n", w.name.c_str(), host_tok_s);

  if (!opt.trace) {
    out.add("setup_s", median(setup), "s");
    out.add("peak_rss_mb", rss, "MiB");
    out.add("sim_tok_s", sim.sim_tok_s, "tok/s");
    out.add("step_p99_cycles", sim.step_p99_cycles, "cycles");
    out.add("bytes_per_token", sim.bytes_per_token, "B");
    out.add("access_reduction", sim.access_reduction, "x");
    out.add("pruned_mass_p50", pct(dropped, 50.0), "frac");
    out.add("retired_frac",
            sim.submitted ? static_cast<double>(sim.retired) /
                                static_cast<double>(sim.submitted)
                          : 0.0,
            "frac");
    return out;
  }

  SpanTracer tracer;
  std::vector<TracedRepeat> traced;
  const auto start = Clock::now();
  while (traced.size() < kMinRepeats ||
         seconds_since(start) < opt.seconds / 2) {
    traced.push_back(traced_repeat(w, opt.seed, simulated, &tracer));
  }
  const TracedRepeat& t = traced.front();
  ++out.attempted;
  if (simulated && t.replay_end_cycle != sim.dram_cycles) {
    ++out.failed;
    out.fail("external replay ended at cycle " +
             std::to_string(t.replay_end_cycle) + ", engine at " +
             std::to_string(sim.dram_cycles));
  }
  std::vector<double> traced_wall;
  for (const auto& r : traced) traced_wall.push_back(r.wall_s);

  const auto& m = t.metrics;
  const double tokens = static_cast<double>(m.tokens_generated);
  out.add("serve.step_us_p50", pct(t.step_us, 50.0), "us");
  out.add("serve.step_us_p99", pct(t.step_us, 99.0), "us");
  out.add("serve.decode_tokens_per_step",
          m.engine_steps ? tokens / static_cast<double>(m.engine_steps) : 0.0,
          "tok");
  const auto& waits = m.queue_wait_step_samples;
  out.add("serve.queue_wait_steps_p50", pct(waits, 50.0), "steps");
  out.add("serve.queue_wait_steps_p90", pct(waits, 90.0), "steps");
  out.add("serve.preemptions", static_cast<double>(m.preemptions), "count");
  out.add("serve.retries", static_cast<double>(m.retries), "count");
  out.add("serve.rejections", static_cast<double>(m.rejections), "count");
  out.add("serve.pages_reclaimed", static_cast<double>(m.pages_reclaimed),
          "count");
  out.add("serve.pool_peak_pages", static_cast<double>(t.pool_peak_pages),
          "pages");
  out.add("serve.prefill_bytes_per_token",
          tokens > 0 ? m.prefill_bytes() / tokens : 0.0, "B");
  out.add("serve.ttft_p50_cycles", sim.ttft_p50, "cycles");
  out.add("serve.ttft_p90_cycles", sim.ttft_p90, "cycles");
  out.add("serve.ttft_samples", static_cast<double>(sim.ttft_samples), "count");
  out.add("serve.slo_attain_interactive", sim.slo_attain_interactive, "frac");
  out.add("core.kept_frac", sim.kept_frac, "frac");
  out.add("core.k_chunks_per_token", sim.k_chunks_per_token, "chunks");
  out.add("core.pruning_ratio", sim.pruning_ratio, "x");

  const auto& r = t.replay;
  const double txns = static_cast<double>(r.txns);
  const double cycles = static_cast<double>(t.replay_end_cycle);
  out.add("memsim.txns", txns, "count");
  out.add("memsim.host_ns_per_txn", txns > 0 ? r.host_s * 1e9 / txns : 0.0,
          "ns");
  out.add("memsim.cycles_per_txn", txns > 0 ? cycles / txns : 0.0, "cycles");
  out.add("memsim.row_hit_rate", t.dram.row_hit_rate(), "frac");
  out.add("memsim.bus_util",
          cycles > 0 ? static_cast<double>(t.dram.data_bus_busy_cycles) /
                           (cycles * w.config.dram.channels)
                     : 0.0,
          "frac");
  out.add("memsim.queue_full_stalls", static_cast<double>(r.refused), "count");
  out.add("memsim.fault_stall_cycles",
          static_cast<double>(t.dram.fault_stall_cycles), "cycles");
  out.add("memsim.replay_cycle_gap",
          simulated ? std::abs(cycles - static_cast<double>(sim.dram_cycles))
                    : 0.0,
          "cycles");
  out.add("obs.host_tok_s", host_tok_s, "tok/s");
  out.add("core.pruned_mass_p99", pct(dropped, 99.0), "frac");
  out.add("core.pruned_mass_max", pct(dropped, 100.0), "frac");
  out.add("workload.gen_s", lower_quartile(gen), "s");

  finish_traced_run(tracer, traced_wall, untraced_wall, opt, &out);
  return out;
}

}  // namespace perfbench

#include "workloads.h"

#include <stdexcept>

#include "common/rng.h"

namespace perfbench {

namespace {

// Shared engine shape: the paper's operating point (Token-Picker, thr 1e-3,
// reclamation on, chunked prefill of 16) over 2 layers x 2 heads x 64 dims.
serve::ServeConfig base_config() {
  serve::ServeConfig c;
  c.n_layer = 2;
  c.n_head = 2;
  c.head_dim = 64;
  c.max_batch = 12;
  c.pool_pages = 4096;
  c.page_tokens = 8;
  c.backend = serve::BackendKind::token_picker;
  c.picker.estimator.threshold = 1e-3;
  c.persistence_window = 4;
  c.reclaim = true;
  c.prefill_chunk_tokens = 16;
  c.threads = 1;
  c.simulate_dram = true;
  return c;
}

}  // namespace

bool is_engine_workload(const std::string& name) {
  return name == "serve_poisson" || name == "decode_2k" ||
         name == "overload_faults";
}

EngineWorkload engine_workload(const std::string& name, bool tiny) {
  EngineWorkload w;
  w.name = name;
  w.config = base_config();
  if (name == "serve_poisson") {
    // Below saturation: batch 12 saturates near 0.3 arrivals per step.
    w.requests = tiny ? 12 : 240;
    w.arrivals.kind = wl::ArrivalKind::poisson;
    w.arrivals.rate = 0.2;
    w.arrivals.prompt_min = 16;
    w.arrivals.prompt_max = 80;
    w.arrivals.decode_min = 16;
    w.arrivals.decode_max = 48;
    // One layer halves each repeat's DRAM traffic, so more repeats fit a run.
    w.config.n_layer = 1;
  } else if (name == "decode_2k") {
    // A few long requests; admission reserves a whole prompt's pages, so the
    // 4096-page pool runs about four at a time. Attention dominates.
    w.requests = tiny ? 2 : 12;
    w.stratified_lengths = true;
    w.arrivals.kind = wl::ArrivalKind::poisson;
    w.arrivals.rate = 1.0;
    w.arrivals.prompt_min = tiny ? 96 : 1536;
    w.arrivals.prompt_max = tiny ? 128 : 2048;
    w.arrivals.decode_min = tiny ? 8 : 128;
    w.arrivals.decode_max = tiny ? 16 : 256;
    w.config.simulate_dram = false;
    w.config.threads = 4;
  } else if (name == "overload_faults") {
    // Bursty priority mix past saturation on a small pool with one degraded
    // channel; every resilience mechanism armed.
    w.requests = tiny ? 16 : 240;
    w.priority_mix = true;
    w.mix.arrivals.kind = wl::ArrivalKind::bursty;
    w.mix.arrivals.rate = 0.08;
    w.mix.arrivals.burst_factor = 6.0;
    w.mix.mix[0] = wl::PriorityClassMix{0.5, 16, 48, 16, 48, 40, 128};
    w.mix.mix[1] = wl::PriorityClassMix{0.3, 64, 160, 16, 48, 384, 2048};
    w.mix.mix[2] = wl::PriorityClassMix{0.2, 32, 96, 16, 48, 0, 0};
    w.config.max_batch = 8;
    w.config.pool_pages = 192;
    w.config.policy = serve::PolicyKind::cost_aware_victim;
    w.config.policy_params.aging_steps = 96;
    w.config.enforce_deadlines = true;
    w.config.retry.max_retries = 2;
    w.config.retry.backoff_base_steps = 4;
    w.config.admission.reject_best_effort_utilization = 0.95;
    w.config.degradation.enabled = true;
    w.config.degradation.evaluate_every_steps = 4;
    w.config.degradation.hold_steps = 12;
    w.config.degradation.pool_hi = 0.60;
    w.config.degradation.pool_lo = 0.40;
    fault::ChannelFaultSpec spec;
    spec.channel = 0;
    spec.fault.burst_multiplier = 3.0;
    spec.fault.stall_period = 4096;
    spec.fault.stall_cycles = 512;
    w.plan.channels.push_back(spec);
  } else {
    throw std::invalid_argument("unknown engine workload: " + name);
  }
  return w;
}

AccelWorkload accel_workload(bool tiny) {
  AccelWorkload w;
  w.instances_per_model = tiny ? 1 : 8;
  return w;
}

namespace {

// 0..n-1 in an order drawn from `rng`.
std::vector<std::size_t> shuffled_ranks(std::size_t n, topick::Rng& rng) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_u64() % i]);
  }
  return v;
}

}  // namespace

std::vector<wl::ArrivalEvent> make_trace(const EngineWorkload& w,
                                         std::uint64_t seed) {
  topick::Rng rng(seed);
  auto trace = w.priority_mix
                   ? wl::make_priority_mix_trace(w.mix, w.requests, rng)
                   : wl::make_arrival_trace(w.arrivals, w.requests, rng);
  if (w.stratified_lengths) {
    const std::vector<std::size_t> rank = shuffled_ranks(trace.size(), rng);
    const auto& a = w.arrivals;
    const std::size_t n = trace.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = rank[i];
      trace[i].prompt_len =
          n == 1 ? a.prompt_min
                 : a.prompt_min + (a.prompt_max - a.prompt_min) * k / (n - 1);
      trace[i].decode_len =
          n == 1 ? a.decode_min
                 : a.decode_min + (a.decode_max - a.decode_min) * k / (n - 1);
    }
  }
  return trace;
}

namespace {

// Builds one JSON object member by member.
class JsonObject {
 public:
  JsonObject& raw(const char* key, const std::string& json) {
    s_ += s_.empty() ? "{" : ", ";
    s_ += json_string(key);
    s_ += ": ";
    s_ += json;
    return *this;
  }
  JsonObject& num(const char* key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const char* key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& flag(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& range(const char* key, std::size_t lo, std::size_t hi) {
    std::string json = "[";
    json += std::to_string(lo);
    json += ", ";
    json += std::to_string(hi);
    json += "]";
    return raw(key, json);
  }
  std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

std::string arrivals_json(const wl::ArrivalParams& a, bool lengths) {
  JsonObject o;
  o.str("kind", a.kind == wl::ArrivalKind::poisson ? "poisson" : "bursty")
      .num("rate", a.rate);
  if (a.kind == wl::ArrivalKind::bursty) {
    o.num("burst_factor", a.burst_factor)
        .num("burst_start_prob", a.burst_start_prob)
        .num("burst_stop_prob", a.burst_stop_prob);
  }
  if (lengths) {
    o.range("prompt", a.prompt_min, a.prompt_max)
        .range("decode", a.decode_min, a.decode_max);
  }
  return o.done();
}

}  // namespace

std::string params_json(const EngineWorkload& w, std::uint64_t seed) {
  const auto& c = w.config;
  JsonObject o;
  o.str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .num("requests", static_cast<double>(w.requests))
      .str("loop", "open, arrivals in engine steps");
  if (w.priority_mix) {
    o.raw("arrivals", arrivals_json(w.mix.arrivals, false));
    std::string classes = "[";
    for (std::size_t i = 0; i < w.mix.mix.size(); ++i) {
      const auto& m = w.mix.mix[i];
      if (i > 0) classes += ", ";
      classes += JsonObject()
                     .str("class",
                          wl::priority_name(static_cast<wl::Priority>(i)))
                     .num("weight", m.weight)
                     .range("prompt", m.prompt_min, m.prompt_max)
                     .range("decode", m.decode_min, m.decode_max)
                     .num("slo_ttft_steps",
                          static_cast<double>(m.slo_ttft_steps))
                     .num("slo_latency_steps",
                          static_cast<double>(m.slo_latency_steps))
                     .done();
    }
    o.raw("classes", classes + "]");
  } else {
    o.raw("arrivals", arrivals_json(w.arrivals, true))
        .flag("stratified_lengths", w.stratified_lengths);
  }
  o.raw("engine",
        JsonObject()
            .num("n_layer", c.n_layer)
            .num("n_head", c.n_head)
            .num("head_dim", c.head_dim)
            .num("max_batch", static_cast<double>(c.max_batch))
            .num("pool_pages", static_cast<double>(c.pool_pages))
            .num("page_tokens", static_cast<double>(c.page_tokens))
            .num("threshold", c.picker.estimator.threshold)
            .num("persistence_window", c.persistence_window)
            .flag("reclaim", c.reclaim)
            .num("prefill_chunk_tokens",
                 static_cast<double>(c.prefill_chunk_tokens))
            .num("threads", static_cast<double>(c.threads))
            .flag("simulate_dram", c.simulate_dram)
            .flag("dram_refresh", c.dram.enable_refresh)
            .flag("pipeline", c.pipeline)
            .flag("shard_replay", c.shard_replay)
            .str("policy", serve::policy_kind_name(c.policy))
            .num("aging_steps",
                 static_cast<double>(c.policy_params.aging_steps))
            .flag("enforce_deadlines", c.enforce_deadlines)
            .num("max_retries", c.retry.max_retries)
            .num("backoff_base_steps",
                 static_cast<double>(c.retry.backoff_base_steps))
            .num("reject_best_effort_utilization",
                 c.admission.reject_best_effort_utilization)
            .flag("degradation", c.degradation.enabled)
            .num("degradation_pool_hi", c.degradation.pool_hi)
            .num("degradation_pool_lo", c.degradation.pool_lo)
            .done());
  std::string faults = "[";
  for (std::size_t i = 0; i < w.plan.channels.size(); ++i) {
    const auto& f = w.plan.channels[i];
    if (i > 0) faults += ", ";
    faults += JsonObject()
                  .num("channel", f.channel)
                  .num("burst_multiplier", f.fault.burst_multiplier)
                  .num("stall_period",
                       static_cast<double>(f.fault.stall_period))
                  .num("stall_cycles",
                       static_cast<double>(f.fault.stall_cycles))
                  .done();
  }
  return o.raw("channel_faults", faults + "]").done();
}

std::string params_json(const AccelWorkload& w, std::uint64_t seed) {
  return JsonObject()
      .str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .str("models", "wl::workload_zoo (8)")
      .num("instances_per_model", w.instances_per_model)
      .raw("designs", "[\"baseline\", \"topick_ooo\"]")
      .num("threshold", w.threshold)
      .flag("dram_refresh", w.refresh)
      .done();
}

}  // namespace perfbench

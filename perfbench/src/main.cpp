// perfbench: the repository's benchmark binary (run it through run.py).
//
//   perfbench --workload <serve_poisson|decode_2k|overload_faults|accel_zoo>
//             --seed N --seconds S --trace 0|1 [--tiny] [--trace-dir DIR]
//
// Prints the host fingerprint and the workload parameters as one JSON line,
// then the result as the last line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. A failed correctness check makes the exit code 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// `clock` says what a value is measured on: "host" (steady-clock wall time
// of this process), "sim" (the simulated DRAM or accelerator clock:
// deterministic for a seed) or "count" (work counted, no clock).
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* clock;
};

// Order and units of the printed metrics (BENCHMARK.json lists the same).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MiB", "host"},
    {"sim_tok_s", "tok/s", "sim"},
    {"step_p99_cycles", "cycles", "sim"},
    {"bytes_per_token", "B", "count"},
    {"access_reduction", "x", "count"},
    {"pruned_mass_p50", "frac", "count"},
    {"retired_frac", "frac", "count"},
};

// Layers a workload does not drive report 0 (no work done there).
constexpr MetricSpec kPerLayer[] = {
    {"fixedpoint.row_dot_i64.ns_per_elem", "ns", "host"},
    {"fixedpoint.row_dot_i64.vs_scalar", "x", "host"},
    {"fixedpoint.weighted_value_accum.ns_per_elem", "ns", "host"},
    {"fixedpoint.weighted_value_accum.vs_scalar", "x", "host"},
    {"fixedpoint.quantize_row_i16.ns_per_elem", "ns", "host"},
    {"fixedpoint.quantize_row_i16.vs_scalar", "x", "host"},
    {"fixedpoint.row_amax.ns_per_elem", "ns", "host"},
    {"fixedpoint.row_amax.vs_scalar", "x", "host"},
    {"fixedpoint.rescale_row_i16.ns_per_elem", "ns", "host"},
    {"fixedpoint.rescale_row_i16.vs_scalar", "x", "host"},
    {"core.attend.ns_per_ctx_token", "ns", "host"},
    {"core.append.ns_per_token", "ns", "host"},
    {"core.evict.ns_per_token", "ns", "host"},
    {"core.rescales_per_ktok", "count", "count"},
    {"core.kept_frac", "frac", "count"},
    {"core.k_chunks_per_token", "chunks", "count"},
    {"core.pruning_ratio", "x", "count"},
    {"core.kv_bytes_per_token", "B", "count"},
    {"core.pruned_mass_p99", "frac", "count"},
    {"core.pruned_mass_max", "frac", "count"},
    {"serve.step_us_p50", "us", "host"},
    {"serve.step_us_p99", "us", "host"},
    {"serve.decode_tokens_per_step", "tok", "count"},
    {"serve.queue_wait_steps_p50", "steps", "count"},
    {"serve.queue_wait_steps_p90", "steps", "count"},
    {"serve.preemptions", "count", "count"},
    {"serve.retries", "count", "count"},
    {"serve.rejections", "count", "count"},
    {"serve.pages_reclaimed", "count", "count"},
    {"serve.pool_peak_pages", "pages", "count"},
    {"serve.prefill_bytes_per_token", "B", "count"},
    {"serve.ttft_p50_cycles", "cycles", "sim"},
    {"serve.ttft_p90_cycles", "cycles", "sim"},
    {"serve.ttft_samples", "count", "count"},
    {"serve.slo_attain_interactive", "frac", "count"},
    {"memsim.txns", "count", "count"},
    {"memsim.host_ns_per_txn", "ns", "host"},
    {"memsim.cycles_per_txn", "cycles", "sim"},
    {"memsim.row_hit_rate", "frac", "sim"},
    {"memsim.bus_util", "frac", "sim"},
    {"memsim.queue_full_stalls", "count", "count"},
    {"memsim.fault_stall_cycles", "cycles", "sim"},
    {"memsim.replay_cycle_gap", "cycles", "sim"},
    {"workload.gen_s", "s", "host"},
    {"accel.host_ns_per_core_cycle", "ns", "host"},
    {"accel.core_cycles", "cycles", "sim"},
    {"accel.lane_util", "frac", "sim"},
    {"accel.lane_stall_cycles", "cycles", "sim"},
    {"accel.speedup", "x", "sim"},
    {"accel.energy_gain", "x", "sim"},
    {"workload.self_share", "frac", "host"},
    {"serve.self_share", "frac", "host"},
    {"core.self_share", "frac", "host"},
    {"memsim.self_share", "frac", "host"},
    {"accel.self_share", "frac", "host"},
    {"obs.self_share", "frac", "host"},
    {"obs.trace_overhead_frac", "frac", "host"},
    {"obs.host_tok_s", "tok/s", "host"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

// Orders `r`'s metrics by the canonical list; a missing end-to-end metric or
// a unit mismatch is a benchmark bug and fails the run.
template <std::size_t N>
std::string metrics_json(const Result& r, const MetricSpec (&specs)[N],
                         bool zero_fill, Result* verdict) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const Metric* found = nullptr;
    for (const auto& m : r.metrics) {
      if (m.name == specs[i].name) found = &m;
    }
    double value = 0.0;
    if (found != nullptr && found->unit == specs[i].unit) {
      value = found->value;
    } else if (found != nullptr || !zero_fill) {
      verdict->fail(std::string("metric ") + specs[i].name +
                    (found ? " has the wrong unit" : " was not measured"));
    }
    s += std::string(i ? ", " : "") + json_string(specs[i].name) +
         ": {\"value\": " + json_number(value) +
         ", \"unit\": " + json_string(specs[i].unit) + "}";
  }
  return s + "}";
}

template <std::size_t N>
std::string clocks_json(const MetricSpec (&specs)[N]) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    s += std::string(i ? ", " : "") + json_string(specs[i].name) + ": " +
         json_string(specs[i].clock);
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  Result result;
  try {
    if (is_engine_workload(opt.workload)) {
      result =
          run_engine_workload(engine_workload(opt.workload, opt.tiny), opt);
    } else if (opt.workload == "accel_zoo") {
      result = run_accel_workload(accel_workload(opt.tiny), opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::string metrics =
      opt.trace ? metrics_json(result, kPerLayer, true, &result)
                : metrics_json(result, kEndToEnd, false, &result);
  for (const auto& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("{\"host\": %s, \"params\": %s, \"tiny\": %s, "
              "\"clocks\": %s}\n",
              host_json(host_info()).c_str(), result.params_json.c_str(),
              opt.tiny ? "true" : "false",
              opt.trace ? clocks_json(kPerLayer).c_str()
                        : clocks_json(kEndToEnd).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}

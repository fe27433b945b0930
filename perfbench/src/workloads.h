// The benchmark's four workloads. Each is a parameter struct plus a seed; the
// same struct generates the load and is printed with the result, so the
// recorded parameters are by construction the ones that ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"

namespace perfbench {

// A serving workload: an arrival trace drawn from `arrivals` (or, with
// priority_mix, from `mix`) fed open-loop, in engine steps, to one
// ServeEngine built from `config`.
struct EngineWorkload {
  std::string name;
  std::size_t requests = 0;
  bool priority_mix = false;
  wl::ArrivalParams arrivals;
  wl::PriorityMixParams mix;
  // Stratified lengths: request k of n (in an order drawn from the seed)
  // gets the k-th of n evenly spaced points of both the prompt and the decode
  // range. With only a few requests, independent draws would move the
  // workload's work and its DRAM concurrency by more than the metrics'
  // bounds from one seed to the next; the seed still draws the arrival
  // times, the order and every K/V/query stream.
  bool stratified_lengths = false;
  serve::ServeConfig config;  // `faults` is wired to `plan` at run time
  fault::FaultPlan plan;
};

// The paper's evaluation setup: every model of the zoo through the
// cycle-level accelerator at the baseline and full-ToPick design points.
struct AccelWorkload {
  std::string name = "accel_zoo";
  int instances_per_model = 0;
  double threshold = 1e-3;
  bool refresh = false;
};

bool is_engine_workload(const std::string& name);
EngineWorkload engine_workload(const std::string& name, bool tiny);
AccelWorkload accel_workload(bool tiny);

std::vector<wl::ArrivalEvent> make_trace(const EngineWorkload& w,
                                         std::uint64_t seed);

std::string params_json(const EngineWorkload& w, std::uint64_t seed);
std::string params_json(const AccelWorkload& w, std::uint64_t seed);

Result run_engine_workload(const EngineWorkload& w, const RunOptions& opt);
Result run_accel_workload(const AccelWorkload& w, const RunOptions& opt);

// Layer harnesses shaped like decode_2k's stream, run in every traced run:
// the five dispatched fixed-point kernels against the scalar table, and the
// cached Token-Picker decode loop (cache append, attend, persistence evict).
void run_layer_harnesses(const RunOptions& opt, SpanTracer* tracer,
                         Result* out);

// Closes a traced run: runs the layer harnesses, adds each layer's self-time
// share of the traced repeats ("bench.repeat" roots) and the tracing
// overhead against the untraced repeats, and writes the span file.
void finish_traced_run(SpanTracer& tracer,
                       const std::vector<double>& traced_wall,
                       const std::vector<double>& untraced_wall,
                       const RunOptions& opt, Result* out);

}  // namespace perfbench

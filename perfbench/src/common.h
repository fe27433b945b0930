// Shared plumbing for the benchmark: the metric sink that becomes the final
// JSON line, span tracing around calls into the library's layers, host
// fingerprinting, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/access_stats.h"
#include "obs/trace.h"

namespace perfbench {

using namespace topick;

// Run settings from the command line. `tiny` shrinks every workload to a
// smoke size (the benchmark's own test); it never applies to recorded runs.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_dir;  // where the traced run writes its span file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run hands back to main(): every metric it measured (the
// end-to-end set untraced, the per-layer set traced), the correctness verdict
// with its operation counts, and the workload parameters it ran.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why `correct` is false
  std::string params_json;          // the generating structs, as JSON

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs);
double lower_quartile(std::vector<double> xs);
// Host time of one repeat, robust to contention: each repeat times the same
// sequence of units (engine steps, accelerator runs), and the estimate sums,
// over the units, the lower quartile of that unit's time across repeats.
// Contention from other tenants only ever adds time and arrives in phases of
// seconds; a unit's lower quartile comes from repeats that ran it outside
// such a phase, where a median of whole-repeat times moves with how many
// phases a run happens to catch.
double robust_total(const std::vector<std::vector<double>>& unit_seconds);
// Exact percentile (p in [0, 100]) of a non-empty sample.
double pct(std::vector<double> xs, double p);
double peak_rss_mib();
// Token-Picker access ratios: kept tokens over visited tokens, and the mean
// number of K chunks fetched per visited token.
double kept_frac(const AccessStats& s);
double k_chunks_per_token(const AccessStats& s);
// One stderr line listing a run's per-repeat host seconds (diagnostics).
void log_repeats(const char* what, const std::vector<double>& seconds);

// Spans with explicit parents, kept in memory by an obs::TraceRecorder and
// written as Chrome trace JSON at exit. Each span carries its own id and its
// parent's id as args, so self time (duration minus child coverage) can be
// computed per layer; the layer is the span name up to the first '.'.
class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Spans close in LIFO order.
  void open(const char* name);
  void close();
  // A span whose start and duration were measured elsewhere (the engine's
  // attention phase, reported by its phase stats), as a child of the open span.
  void add_closed(const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns);
  std::uint64_t now_ns() const { return recorder_.now_ns(); }

  // Self time per layer over every span below the roots named `root`.
  struct LayerTime {
    std::string layer;
    double self_s = 0.0;
  };
  std::vector<LayerTime> self_times(const char* root) const;
  double total_s(const char* root) const;
  bool write(const std::string& path, std::string* error) const;

 private:
  struct Open {
    obs::TraceEvent event;
    std::size_t id = 0;
  };
  obs::TraceRecorder recorder_{1};
  std::vector<Open> stack_;
  std::size_t next_id_ = 1;  // 0 = no parent
};

// RAII open/close around one call into a layer; a null tracer is a no-op.
class Span {
 public:
  Span(SpanTracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
};

// Host fingerprint recorded beside every result.
struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string compiler;
  std::string isa;
  bool isa_forced = false;
};
HostInfo host_info();
std::string host_json(const HostInfo& host);

std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench

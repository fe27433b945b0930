#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "common/stats.h"
#include "fixedpoint/dispatch.h"

namespace perfbench {

double median(std::vector<double> xs) { return pct(std::move(xs), 50.0); }

double lower_quartile(std::vector<double> xs) {
  return pct(std::move(xs), 25.0);
}

double robust_total(const std::vector<std::vector<double>>& unit_seconds) {
  double total = 0.0;
  std::vector<double> across;
  for (std::size_t u = 0; u < unit_seconds.front().size(); ++u) {
    across.clear();
    for (const auto& rep : unit_seconds) across.push_back(rep.at(u));
    total += lower_quartile(across);
  }
  return total;
}

double pct(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : topick::percentile(std::move(xs), p);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void log_repeats(const char* what, const std::vector<double>& seconds) {
  std::fprintf(stderr, "%s repeats (s):", what);
  for (const double s : seconds) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
}

double kept_frac(const AccessStats& s) {
  return s.tokens_total ? static_cast<double>(s.tokens_kept) /
                              static_cast<double>(s.tokens_total)
                        : 0.0;
}

double k_chunks_per_token(const AccessStats& s) {
  std::uint64_t chunks = 0, tokens = 0;
  for (std::size_t c = 0; c < s.chunk_histogram.size(); ++c) {
    chunks += (c + 1) * s.chunk_histogram[c];
    tokens += s.chunk_histogram[c];
  }
  return tokens ? static_cast<double>(chunks) / static_cast<double>(tokens)
                : 0.0;
}

void SpanTracer::open(const char* name) {
  Open span;
  span.event.name = name;
  span.event.cat = "perfbench";
  span.event.phase = 'X';
  span.event.ts = recorder_.now_ns();
  span.id = next_id_++;
  span.event.arg("id", static_cast<double>(span.id));
  span.event.arg("parent",
                 stack_.empty() ? 0.0 : static_cast<double>(stack_.back().id));
  stack_.push_back(span);
}

void SpanTracer::close() {
  Open span = stack_.back();
  stack_.pop_back();
  span.event.dur = recorder_.now_ns() - span.event.ts;
  recorder_.record(0, span.event);
}

void SpanTracer::add_closed(const char* name, std::uint64_t start_ns,
                            std::uint64_t dur_ns) {
  obs::TraceEvent event;
  event.name = name;
  event.cat = "perfbench";
  event.phase = 'X';
  event.ts = start_ns;
  event.dur = dur_ns;
  event.arg("id", static_cast<double>(next_id_++));
  event.arg("parent",
            stack_.empty() ? 0.0 : static_cast<double>(stack_.back().id));
  recorder_.record(0, event);
}

namespace {

struct SpanInfo {
  std::string name;
  std::size_t parent = 0;
  double dur_s = 0.0;
};

std::map<std::size_t, SpanInfo> span_index(const obs::TraceRecorder& rec) {
  std::map<std::size_t, SpanInfo> spans;
  for (const auto& e : rec.track_events(0)) {
    const auto id = static_cast<std::size_t>(e.args[0].value);
    spans[id] = SpanInfo{e.name, static_cast<std::size_t>(e.args[1].value),
                         static_cast<double>(e.dur) / 1e9};
  }
  return spans;
}

// The root ancestor's name of span `id`.
const std::string& root_name(const std::map<std::size_t, SpanInfo>& spans,
                             std::size_t id) {
  while (spans.at(id).parent != 0) id = spans.at(id).parent;
  return spans.at(id).name;
}

}  // namespace

std::vector<SpanTracer::LayerTime> SpanTracer::self_times(
    const char* root) const {
  const auto spans = span_index(recorder_);
  std::map<std::size_t, double> child_cover;
  for (const auto& [id, s] : spans) {
    if (s.parent != 0) child_cover[s.parent] += s.dur_s;
  }
  std::map<std::string, double> by_layer;
  for (const auto& [id, s] : spans) {
    if (root_name(spans, id) != root) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += std::max(0.0, s.dur_s - child_cover[id]);
  }
  std::vector<LayerTime> out;
  for (const auto& [layer, t] : by_layer) out.push_back(LayerTime{layer, t});
  return out;
}

double SpanTracer::total_s(const char* root) const {
  double total = 0.0;
  for (const auto& [id, s] : span_index(recorder_)) {
    if (s.parent == 0 && s.name == root) total += s.dur_s;
  }
  return total;
}

bool SpanTracer::write(const std::string& path, std::string* error) const {
  return recorder_.write_chrome_json_file(path, error);
}

HostInfo host_info() {
  HostInfo host;
  host.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.compiler = PERFBENCH_COMPILER;
  host.isa = topick::fx::kernel_isa_name();
  host.isa_forced = topick::fx::kernel_isa_forced();
  return host;
}

std::string host_json(const HostInfo& host) {
  return "{\"nproc\": " + std::to_string(host.nproc) +
         ", \"cpu_model\": " + json_string(host.cpu_model) +
         ", \"build_type\": " + json_string(host.build_type) +
         ", \"compiler\": " + json_string(host.compiler) +
         ", \"isa\": " + json_string(host.isa) +
         ", \"isa_forced\": " + (host.isa_forced ? "true" : "false") + "}";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench

// Layer harnesses run in every traced run, on inputs shaped like decode_2k's
// stream and drawn from the run's seed:
//   * fixedpoint — each of the five dispatched kernels through the active
//     table and through the scalar table, over 64-wide rows;
//   * core — one 2k-context request's decode loop over QuantizedKvCache +
//     TokenPickerAttention::attend_cached + PrunePersistence with paged
//     reclamation (bench_hotpath's cached harness at one thread), with a span
//     around every append, attend and evict call.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/quantized_kv_cache.h"
#include "core/token_picker.h"
#include "fixedpoint/dispatch.h"
#include "serve/paged_kv_pool.h"
#include "serve/paged_sequence.h"
#include "workload/decode_stream.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kDim = 64;

// Lower-quartile seconds of one pass of `fn` over `trials` timed trials.
template <class Fn>
double time_pass(int trials, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < trials; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return lower_quartile(t);
}

void fixedpoint_harness(const wl::DecodeStream& stream, bool tiny,
                        SpanTracer* tracer, Result* out) {
  const auto& hs = stream.head(0, 0);
  const std::size_t rows = hs.keys.size() / kDim;
  fx::QuantParams qp;
  qp.scale = fx::choose_scale(hs.keys, qp.total_bits);
  std::vector<std::int16_t> k16(hs.keys.size()), q16(kDim), tmp(kDim);
  for (std::size_t r = 0; r < rows; ++r) {
    fx::quantize_row_i16_scalar(hs.keys.data() + r * kDim, kDim, qp,
                                k16.data() + r * kDim);
  }
  fx::quantize_row_i16_scalar(hs.queries.data(), kDim, qp, q16.data());
  const fx::FixedRatio ratio = fx::make_fixed_ratio(1.0f, 1.3f);
  std::vector<float> acc(kDim, 0.0f);
  volatile double sink = 0.0;

  const int passes = tiny ? 2 : 40;
  const int trials = tiny ? 1 : 5;
  const double elems = static_cast<double>(rows * kDim) * passes;
  const fx::KernelTable& scalar = *fx::compiled_kernel_tables()[0];
  const fx::KernelTable& active = fx::active_kernels();

  // One pass of each kernel over every row, through a given table.
  struct Kernel {
    const char* span;  // also the metric prefix; a literal, as spans need
    std::function<void(const fx::KernelTable&)> one_pass;
  };
  const Kernel kernels[] = {
      {"fixedpoint.row_dot_i64",
       [&](const fx::KernelTable& t) {
         std::int64_t a = 0;
         for (std::size_t r = 0; r < rows; ++r) {
           a += t.row_dot_i64(q16.data(), k16.data() + r * kDim, kDim);
         }
         sink = sink + static_cast<double>(a);
       }},
      {"fixedpoint.weighted_value_accum",
       [&](const fx::KernelTable& t) {
         for (std::size_t r = 0; r < rows; ++r) {
           t.weighted_value_accum(acc.data(), k16.data() + r * kDim, 1e-3,
                                  1e-2, kDim);
         }
         sink = sink + acc[0];
       }},
      {"fixedpoint.quantize_row_i16",
       [&](const fx::KernelTable& t) {
         for (std::size_t r = 0; r < rows; ++r) {
           t.quantize_row_i16(hs.keys.data() + r * kDim, kDim, qp, tmp.data());
           sink = sink + tmp[r % kDim];
         }
       }},
      {"fixedpoint.row_amax",
       [&](const fx::KernelTable& t) {
         float m = 0.0f;
         for (std::size_t r = 0; r < rows; ++r) {
           m += t.row_amax(hs.keys.data() + r * kDim, kDim);
         }
         sink = sink + m;
       }},
      {"fixedpoint.rescale_row_i16",
       [&](const fx::KernelTable& t) {
         for (std::size_t r = 0; r < rows; ++r) {
           t.rescale_row_i16(k16.data() + r * kDim, kDim, ratio, qp.qmin(),
                             qp.qmax(), tmp.data());
           sink = sink + tmp[r % kDim];
         }
       }},
  };
  for (const auto& kernel : kernels) {
    auto timed = [&](const fx::KernelTable& table) {
      return time_pass(trials, [&] {
        for (int p = 0; p < passes; ++p) kernel.one_pass(table);
      });
    };
    const std::string prefix = kernel.span;
    double active_s = 0.0;
    {
      Span span(tracer, kernel.span);
      active_s = timed(active);
    }
    const double scalar_s = timed(scalar);
    out->add(prefix + ".ns_per_elem", active_s * 1e9 / elems, "ns");
    out->add(prefix + ".vs_scalar", scalar_s / active_s, "x");
  }
}

void core_harness(const wl::DecodeStream& stream, SpanTracer* tracer,
                  Result* out) {
  const std::size_t prompt = stream.prompt_len;
  const std::size_t decode = stream.decode_len;
  const auto n_inst =
      static_cast<std::size_t>(stream.n_layer) * stream.n_head;
  serve::PagedKvPool pool({4096, 8, kDim});
  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  config.compute_oracle_mass = false;
  std::vector<serve::PagedSequence> seqs;
  std::vector<PrunePersistence> persistence;
  std::vector<QuantizedKvCache> caches;
  std::vector<serve::PagedRescaleSource> sources;
  seqs.reserve(n_inst);
  caches.reserve(n_inst);
  sources.reserve(n_inst);
  for (std::size_t i = 0; i < n_inst; ++i) {
    seqs.emplace_back(&pool);
    persistence.emplace_back(4);
    caches.emplace_back(kDim, QuantizedKvCache::Config{config.quant, 1.0f});
    sources.emplace_back(&seqs[i]);
    caches[i].set_rescale_source(&sources[i]);
  }
  for (std::size_t i = 0; i < n_inst; ++i) {
    const int layer = static_cast<int>(i) / stream.n_head;
    const int head = static_cast<int>(i) % stream.n_head;
    for (std::size_t t = 0; t < prompt; ++t) {
      seqs[i].append(stream.key(layer, head, t), stream.value(layer, head, t));
    }
    const auto& hs = stream.head(layer, head);
    caches[i].append_rows(hs.keys.data(), hs.values.data(), prompt, 0);
  }

  TokenPickerAttention picker(config);
  TokenPickerResult result;
  std::vector<std::size_t> dead;
  double append_s = 0.0, attend_s = 0.0, evict_s = 0.0;
  std::uint64_t ctx_tokens = 0, appended = 0, evicted = 0;
  for (std::size_t step = 0; step < decode; ++step) {
    const std::size_t pos = prompt + step;
    for (std::size_t i = 0; i < n_inst; ++i) {
      const int layer = static_cast<int>(i) / stream.n_head;
      const int head = static_cast<int>(i) % stream.n_head;
      auto& cache = caches[i];
      auto t0 = Clock::now();
      {
        Span span(tracer, "core.append");
        seqs[i].append(stream.key(layer, head, pos),
                       stream.value(layer, head, pos));
        cache.append(stream.key(layer, head, pos),
                     stream.value(layer, head, pos), pos);
      }
      append_s += seconds_since(t0);
      ++appended;
      t0 = Clock::now();
      {
        Span span(tracer, "core.attend");
        picker.attend_cached(stream.query(layer, head, step), cache, &result);
      }
      attend_s += seconds_since(t0);
      ctx_tokens += cache.len();
      t0 = Clock::now();
      {
        Span span(tracer, "core.evict");
        for (const auto& d : result.decisions) {
          persistence[i].observe(cache.id_at(d.token), d.kept);
        }
        dead.clear();
        for (const std::size_t id : cache.ids()) {
          if (persistence[i].persistent(id)) {
            seqs[i].mark_dead(id);
            persistence[i].forget(id);
            dead.push_back(id);
          }
        }
        if (!dead.empty()) cache.evict_ids(dead);
        seqs[i].sweep();
      }
      evict_s += seconds_since(t0);
      evicted += dead.size();
    }
  }

  std::uint64_t rescales = 0;
  std::size_t resident_bytes = 0, resident_tokens = 0;
  for (const auto& cache : caches) {
    rescales += cache.key_rescales() + cache.value_rescales();
    resident_bytes += cache.residency().total();
    resident_tokens += cache.len();
  }
  // All-in residency: the cache arenas plus the pool's float K and V pages.
  resident_bytes += pool.pages_in_use() * pool.floats_per_page() * 2 *
                    sizeof(float);
  out->add("core.attend.ns_per_ctx_token",
           attend_s * 1e9 / static_cast<double>(ctx_tokens), "ns");
  out->add("core.append.ns_per_token",
           append_s * 1e9 / static_cast<double>(appended), "ns");
  out->add("core.evict.ns_per_token",
           evicted ? evict_s * 1e9 / static_cast<double>(evicted) : 0.0, "ns");
  out->add("core.rescales_per_ktok",
           static_cast<double>(rescales) * 1e3 /
               static_cast<double>(n_inst * (prompt + decode)),
           "count");
  out->add("core.kv_bytes_per_token",
           static_cast<double>(resident_bytes) /
               static_cast<double>(resident_tokens),
           "B");
}

}  // namespace

void run_layer_harnesses(const RunOptions& opt, SpanTracer* tracer,
                         Result* out) {
  tracer->open("bench.layers");
  wl::DecodeStreamParams params;
  params.head_dim = static_cast<int>(kDim);
  const wl::DecodeStream stream =
      wl::make_decode_stream(params, opt.tiny ? 96 : 1792, opt.tiny ? 16 : 256,
                             2, 2, opt.seed ^ 0xd2c0de);
  fixedpoint_harness(stream, opt.tiny, tracer, out);
  core_harness(stream, tracer, out);
  tracer->close();
}

void finish_traced_run(SpanTracer& tracer,
                       const std::vector<double>& traced_wall,
                       const std::vector<double>& untraced_wall,
                       const RunOptions& opt, Result* out) {
  const double total = tracer.total_s("bench.repeat");
  const auto selfs = tracer.self_times("bench.repeat");
  // "bench" is the benchmark's own bookkeeping between layer calls.
  for (const char* layer :
       {"workload", "serve", "core", "memsim", "accel", "bench"}) {
    double self = 0.0;
    for (const auto& lt : selfs) {
      if (lt.layer == layer) self = lt.self_s;
    }
    const std::string name =
        std::string(layer) == "bench" ? "obs" : std::string(layer);
    out->add(name + ".self_share", total > 0 ? self / total : 0.0, "frac");
  }
  out->add("obs.trace_overhead_frac",
           lower_quartile(traced_wall) / lower_quartile(untraced_wall) - 1.0,
           "frac");

  run_layer_harnesses(opt, &tracer, out);
  if (!opt.trace_dir.empty()) {
    std::string error;
    const std::string path = opt.trace_dir + "/" + opt.workload + "_seed" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.write(path, &error)) {
      std::fprintf(stderr, "span file not written: %s\n", error.c_str());
    }
  }
}

}  // namespace perfbench

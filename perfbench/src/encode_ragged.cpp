// encode-ragged: MT sentence encoding. A Transformer-big encoder (hidden
// 1024, ffn 4096, 16 heads, 6 layers), 2-bit greedy, runs one sentence
// at a time (closed loop, one client) on a 2-thread pool. Sentence
// lengths are seeded over 1..64 tokens and padded with zero columns to
// the next multiple of 8, one ModelPlan per bucket width compiled and
// warm-run in set-up; each trace epoch is a seeded permutation of the
// eight buckets, so every complete epoch issues the same mix of widths.
// Almost all the work is in the batch > 1 LUT tiles (the partial-lane
// widths 8, 24, 40 and 56 included), attention, the fused LayerNorm
// column barrier and the pool partitioner; the batch-1 GEMV path does
// almost none of it.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.hpp"
#include "nn/transformer.hpp"
#include "probes.hpp"
#include "threading/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using biq::nn::TransformerEncoder;

constexpr std::uint64_t kModelSeed = 2020;
constexpr unsigned kBits = 2;
/// setup_s is the median of this many complete set-ups per untraced run.
constexpr int kSetups = 3;
constexpr std::size_t kPadStep = 8;
constexpr std::size_t kTraceEpochs = 4;  // longer runs cycle the trace
constexpr unsigned kThreads = 2;
const std::vector<std::size_t> kBuckets = {8, 16, 24, 32, 40, 48, 56, 64};

const biq::nn::TransformerConfig kConfig = biq::nn::TransformerConfig::big();

biq::nn::QuantSpec spec(unsigned bits) {
  biq::nn::QuantSpec s;
  s.weight_bits = bits;
  s.method = biq::QuantMethod::kGreedy;
  return s;
}

std::size_t bucket_index(std::size_t w) {
  return static_cast<std::size_t>(
      std::find(kBuckets.begin(), kBuckets.end(), w) - kBuckets.begin());
}

/// Everything set-up builds: the quantized model and one warm plan per
/// bucket width.
struct Deployed {
  std::unique_ptr<TransformerEncoder> model;
  PlanSet plans;
  double build_s = 0.0;
  [[nodiscard]] double setup_s() const {
    return build_s + plans.plan_s + plans.warm_s;
  }
};

std::unique_ptr<Deployed> deploy(biq::ExecContext& ctx, Tracer& tracer) {
  auto d = std::make_unique<Deployed>();
  const auto t0 = Clock::now();
  {
    SpanScope span(tracer, "quant.make_encoder");
    d->model = std::make_unique<TransformerEncoder>(
        biq::nn::make_encoder(kConfig, kModelSeed, spec(kBits)));
  }
  d->build_s = seconds_between(t0, Clock::now());
  d->plans = compile_plans(*d->model, kBuckets, ctx, tracer);
  return d;
}

/// SQNR of every distinct sentence of the trace (four per bucket) over
/// their real tokens, against the fp32 twin built from the same weight
/// seed. Fewer sentences spread the figure by several per cent between
/// seeds: a 2-bit six-layer encoder's error varies much from sentence to
/// sentence.
double sampled_sqnr(const Deployed& d, const std::vector<Sample>& trace,
                    biq::ExecContext& ctx, Tracer& tracer) {
  SpanScope span(tracer, "check.sqnr");
  const TransformerEncoder fp32 =
      biq::nn::make_encoder(kConfig, kModelSeed, spec(0));
  Sqnr sqnr;
  for (const Sample& s : trace) {
    biq::Matrix yq(kConfig.hidden, s.cols), yf(kConfig.hidden, s.cols);
    d.plans.at(s.cols).run(s.x, yq);
    const biq::nn::ModelPlan ref(fp32, s.cols, ctx);
    ref.run(s.x, yf);
    sqnr.add(yf.col_block(0, s.len), yq.col_block(0, s.len));
  }
  return sqnr.db();
}

/// Layer 0's projections as one forward calls them, weighted for all
/// layers (every layer has the same shapes): Q/K/V share one prepare of
/// x; wo and the FFN up and down projections build their own.
std::vector<ProjCall> projection_calls(const TransformerEncoder& model) {
  const double layers = static_cast<double>(model.layer_count());
  const biq::nn::EncoderLayer& layer = model.layers().front();
  const biq::nn::MultiHeadAttention& a = layer.attention();
  return {{&a.wq(), layers, layers},
          {&a.wk(), 0.0, layers},
          {&a.wv(), 0.0, layers},
          {&a.wo(), layers, layers},
          {&layer.ffn().up(), layers, layers},
          {&layer.ffn().down(), layers, layers}};
}

void per_layer(const Deployed& d, const Timed& untraced, const Timed& traced,
               biq::ExecContext& pool_ctx, Tracer& tracer, Result& r) {
  r.metric("quant.build_s", d.build_s, "s");
  r.metric("engine.plan_s", d.plans.plan_s, "s");
  r.metric("engine.warm_s", d.plans.warm_s, "s");

  // Every epoch issues each bucket once, so a request's expected cost is
  // the mean over the buckets.
  const double n = static_cast<double>(kBuckets.size());
  const std::vector<ProjCall> calls = projection_calls(*d.model);
  biq::ExecContext serial_ctx;
  std::vector<GemmCost> pooled(kBuckets.size());
  GemmCost pooled_sum, serial_sum;
  {
    SpanScope span(tracer, "probe.core");
    for (std::size_t k = 0; k < kBuckets.size(); ++k) {
      pooled[k] = probe_gemm_median(calls, kBuckets[k], pool_ctx, 3, tracer);
      pooled_sum += pooled[k];
    }
  }
  {
    SpanScope span(tracer, "probe.threading");
    for (const std::size_t w : kBuckets) {
      serial_sum += probe_gemm_median(calls, w, serial_ctx, 3, tracer);
    }
  }
  r.metric("core.build_ms_per_req", pooled_sum.build_s / n * 1e3, "ms");
  r.metric("core.query_ms_per_req", pooled_sum.query_s / n * 1e3, "ms");
  r.metric("core.gemm_share",
           pooled_sum.total_s() / n / mean(untraced.latency_s), "ratio");
  r.metric("core.dense_gflops", pooled_sum.flops / pooled_sum.total_s() / 1e9,
           "GFLOP/s");
  r.metric("core.weight_gbs",
           pooled_sum.weight_bytes / pooled_sum.total_s() / 1e9, "GB/s");
  r.metric("core.cliff_ratio",
           cliff_ratio(kBuckets, query_lanes(),
                       [&](std::size_t w) {
                         return pooled[bucket_index(w)].total_s();
                       }),
           "ratio");
  r.metric("threading.pool_speedup",
           serial_sum.total_s() / pooled_sum.total_s(), "ratio");

  // Standalone sub-module plans of layer 0, scaled to all layers.
  double attention_s = 0.0, ffn_s = 0.0;
  {
    SpanScope span(tracer, "probe.nn");
    const biq::nn::EncoderLayer& layer = d.model->layers().front();
    for (const std::size_t w : kBuckets) {
      attention_s += probe_module(layer.attention(), w, pool_ctx, 3, tracer,
                                  "nn.attention.run");
      ffn_s += probe_module(layer.ffn(), w, pool_ctx, 3, tracer, "nn.ffn.run");
    }
  }
  const double layers = static_cast<double>(d.model->layer_count());
  r.metric("nn.attention_ms_per_req", attention_s * layers / n * 1e3, "ms");
  r.metric("nn.ffn_ms_per_req", ffn_s * layers / n * 1e3, "ms");
  r.metric("trace.tokens_per_s_ratio",
           traced.tokens_per_s() / untraced.tokens_per_s(), "ratio");
}

}  // namespace

Result run_encode_ragged(const Options& opt, Tracer& tracer) {
  Result r;
  std::string digest;
  const std::vector<Sample> trace = make_epochs(
      kBuckets, kPadStep, kConfig.hidden, kTraceEpochs, opt.seed, digest);
  r.note("trace: " + std::to_string(trace.size()) +
         " sentences (1..64 tokens padded to multiples of 8, buckets "
         "permuted per epoch), digest " + digest);

  biq::ThreadPool pool(kThreads);
  biq::ExecContext ctx(&pool);
  const bool traced = tracer.enabled();
  const double rss0 = vm_rss_mb();
  std::unique_ptr<Deployed> d = deploy(ctx, tracer);
  std::vector<double> setups = {d->setup_s()};

  // A traced run splits its timed budget: half untraced, half traced.
  const double seconds = traced ? opt.seconds / 2 : opt.seconds;
  tracer.set_enabled(false);
  const Timed timed =
      run_closed_loop(d->plans, trace, kBuckets.size(), seconds, tracer, r);
  const double memory_mb = vm_rss_mb() - rss0;
  tracer.set_enabled(traced);
  const double sqnr = sampled_sqnr(*d, trace, ctx, tracer);

  if (traced) {
    const Timed timed_traced =
        run_closed_loop(d->plans, trace, kBuckets.size(), seconds, tracer, r);
    per_layer(*d, timed, timed_traced, ctx, tracer, r);
    return r;
  }
  d.reset();
  for (int i = 1; i < kSetups; ++i) {
    setups.push_back(deploy(ctx, tracer)->setup_s());
  }
  report_end_to_end(r, setups, timed.latency_s, timed.tokens_per_s(), sqnr,
                    memory_mb);
  return r;
}

}  // namespace pb

// asr-bilstm: the ASR listener. A 2-layer BiLstm stack (1024-dim input
// frames, 512 units per direction), 3-bit greedy, encodes one utterance
// at a time on a serial context (closed loop, one client). Utterance
// lengths are the front end's length buckets, 50..200 frames in steps of
// 25, with one ModelPlan each, compiled and warm-run in set-up; every
// trace epoch is a seeded permutation of the seven buckets, so every
// complete epoch issues the same mix whatever the seed. Every GEMM is a
// batch-1 GEMV (LUT build + query) and one shared prepare feeds both
// directions; the tile path and the pool sit idle.
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.hpp"
#include "nn/lstm.hpp"
#include "probes.hpp"
#include "threading/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using biq::nn::BiLstm;
using biq::nn::ModelPlan;

constexpr unsigned kBits = 3;
/// setup_s is the median of this many complete set-ups per untraced run.
constexpr int kSetups = 3;
constexpr std::size_t kInput = 1024;
constexpr std::size_t kHidden = 512;  // per direction
constexpr std::size_t kLayers = 2;
constexpr std::size_t kTraceEpochs = 4;  // longer runs cycle the trace
const std::vector<std::size_t> kLengths = {50, 75, 100, 125, 150, 175, 200};

biq::nn::QuantSpec spec(unsigned bits) {
  biq::nn::QuantSpec s;
  s.weight_bits = bits;
  s.method = biq::QuantMethod::kGreedy;
  return s;
}

/// The stack with stable layer addresses (plans and probes borrow them).
struct Stack {
  biq::nn::Sequential seq;
  std::vector<const BiLstm*> layers;
};

std::unique_ptr<Stack> make_stack(unsigned bits) {
  auto stack = std::make_unique<Stack>();
  std::size_t in = kInput;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const std::uint64_t seed = 101 + 2 * l;
    auto layer = std::make_unique<BiLstm>(
        biq::nn::make_lstm_cell(in, kHidden, seed, spec(bits)),
        biq::nn::make_lstm_cell(in, kHidden, seed + 1, spec(bits)));
    stack->layers.push_back(layer.get());
    stack->seq.add(std::move(layer));
    in = 2 * kHidden;
  }
  return stack;
}

/// Everything set-up builds: the quantized stack and one warm plan per
/// length bucket.
struct Deployed {
  std::unique_ptr<Stack> model;
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
    SpanScope span(tracer, "quant.make_lstm_cell");
    d->model = make_stack(kBits);
  }
  d->build_s = seconds_between(t0, Clock::now());
  d->plans = compile_plans(d->model->seq, kLengths, ctx, tracer);
  return d;
}

/// SQNR of the sampled utterances (epoch 0, the 50- and 100-frame ones)
/// against the fp32 twin built from the same weight seeds.
double sampled_sqnr(const Deployed& d, const std::vector<Sample>& trace,
                    biq::ExecContext& ctx, Tracer& tracer) {
  SpanScope span(tracer, "check.sqnr");
  const std::unique_ptr<Stack> fp32 = make_stack(0);
  Sqnr sqnr;
  for (std::size_t k = 0; k < kLengths.size(); ++k) {
    const Sample& u = trace[k];
    if (u.cols != 50 && u.cols != 100) continue;
    biq::Matrix yq(2 * kHidden, u.cols), yf(2 * kHidden, u.cols);
    d.plans.at(u.cols).run(u.x, yq);
    const ModelPlan ref(fp32->seq, u.cols, ctx);
    ref.run(u.x, yf);
    sqnr.add(yf, yq);
  }
  return sqnr.db();
}

/// Per frame, per layer: one shared prepare of x feeds both directions'
/// input projections; each recurrent projection builds from its own h.
std::vector<ProjCall> projection_calls(const Stack& stack) {
  std::vector<ProjCall> calls;
  for (const BiLstm* layer : stack.layers) {
    const biq::nn::LstmCell& fw = layer->forward_layer().cell();
    const biq::nn::LstmCell& bw = layer->backward_layer().cell();
    calls.push_back({&fw.wx(), 1.0, 1.0});
    calls.push_back({&bw.wx(), 0.0, 1.0});
    calls.push_back({&fw.wh(), 1.0, 1.0});
    calls.push_back({&bw.wh(), 1.0, 1.0});
  }
  return calls;
}

void per_layer(const Deployed& d, const Timed& untraced, const Timed& traced,
               biq::ExecContext& ctx, Tracer& tracer, Result& r) {
  r.metric("quant.build_s", d.build_s, "s");
  r.metric("engine.plan_s", d.plans.plan_s, "s");
  r.metric("engine.warm_s", d.plans.warm_s, "s");

  const std::vector<ProjCall> calls = projection_calls(*d.model);
  const double mean_frames = static_cast<double>(untraced.tokens) /
                             static_cast<double>(untraced.latency_s.size());
  biq::ThreadPool pool(2);
  biq::ExecContext pool_ctx(&pool);
  GemmCost frame, lanes_wide, pooled;
  {
    SpanScope span(tracer, "probe.core");
    frame = probe_gemm_median(calls, 1, ctx, 25, tracer);
    lanes_wide = probe_gemm_median(calls, query_lanes(), ctx, 5, tracer);
  }
  {
    SpanScope span(tracer, "probe.threading");
    pooled = probe_gemm_median(calls, 1, pool_ctx, 25, tracer);
  }
  r.metric("core.build_ms_per_req", frame.build_s * mean_frames * 1e3, "ms");
  r.metric("core.query_ms_per_req", frame.query_s * mean_frames * 1e3, "ms");
  r.metric("core.gemm_share",
           frame.total_s() * mean_frames / mean(untraced.latency_s), "ratio");
  r.metric("core.dense_gflops", frame.flops / frame.total_s() / 1e9,
           "GFLOP/s");
  r.metric("core.weight_gbs", frame.weight_bytes / frame.total_s() / 1e9,
           "GB/s");
  r.metric("core.cliff_ratio",
           cliff_ratio({1}, query_lanes(),
                       [&](std::size_t w) {
                         return w == 1 ? frame.total_s() : lanes_wide.total_s();
                       }),
           "ratio");
  r.metric("threading.pool_speedup", frame.total_s() / pooled.total_s(),
           "ratio");

  double bilstm_s = 0.0;
  {
    SpanScope span(tracer, "probe.nn");
    for (const std::size_t frames : kLengths) {
      bilstm_s += probe_module(*d.model->layers.front(), frames, ctx, 1,
                               tracer, "nn.bilstm.run");
    }
  }
  r.metric("nn.bilstm_ms_per_req",
           bilstm_s / static_cast<double>(kLengths.size()) * 1e3, "ms");
  r.metric("trace.tokens_per_s_ratio",
           traced.tokens_per_s() / untraced.tokens_per_s(), "ratio");
}

}  // namespace

Result run_asr_bilstm(const Options& opt, Tracer& tracer) {
  Result r;
  std::string digest;
  const std::vector<Sample> trace =
      make_epochs(kLengths, 1, kInput, kTraceEpochs, opt.seed, digest);
  r.note("trace: " + std::to_string(trace.size()) +
         " utterances (50..200 frames, permuted per epoch), digest " + digest);

  biq::ExecContext ctx;  // serial
  const bool traced = tracer.enabled();
  const double rss0 = vm_rss_mb();
  std::unique_ptr<Deployed> d = deploy(ctx, tracer);
  std::vector<double> setups = {d->setup_s()};

  // A traced run splits its timed budget: half untraced, half traced.
  const double seconds = traced ? opt.seconds / 2 : opt.seconds;
  tracer.set_enabled(false);
  const Timed timed =
      run_closed_loop(d->plans, trace, kLengths.size(), seconds, tracer, r);
  const double memory_mb = vm_rss_mb() - rss0;
  tracer.set_enabled(traced);
  const double sqnr = sampled_sqnr(*d, trace, ctx, tracer);

  if (traced) {
    const Timed timed_traced =
        run_closed_loop(d->plans, trace, kLengths.size(), seconds, tracer, r);
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

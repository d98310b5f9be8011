#include "probes.hpp"

#include <memory>
#include <stdexcept>

#include "engine/dispatch.hpp"
#include "nn/model_plan.hpp"
#include "util/aligned_buffer.hpp"

namespace pb {

GemmCost& GemmCost::operator+=(const GemmCost& o) {
  build_s += o.build_s;
  query_s += o.query_s;
  flops += o.flops;
  weight_bytes += o.weight_bytes;
  return *this;
}

GemmCost probe_gemm(const std::vector<ProjCall>& calls, std::size_t width,
                    biq::ExecContext& ctx, Tracer& tracer) {
  GemmCost cost;
  for (const ProjCall& call : calls) {
    const biq::nn::LinearLayer& layer = *call.layer;
    biq::Epilogue ep;
    ep.bias = layer.bias().empty() ? nullptr : layer.bias().data();
    const std::unique_ptr<biq::GemmPlan> plan =
        layer.engine().plan(width, ctx, ep);
    biq::Matrix x(layer.in_features(), width);
    biq::Matrix y(layer.out_features(), width);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>((i * 7919u) % 17u) * 0.125f - 1.0f;
    }
    const double m = static_cast<double>(layer.out_features());
    const double n = static_cast<double>(layer.in_features());
    cost.flops += call.runs * 2.0 * m * n * static_cast<double>(width);
    cost.weight_bytes +=
        call.runs * static_cast<double>(layer.weight_bytes());
    if (!plan->has_prep()) {  // dense engines read x directly
      plan->run(x, y);
      const int id = tracer.begin("core.run");
      const auto t0 = Clock::now();
      plan->run(x, y);
      cost.query_s += call.runs * seconds_between(t0, Clock::now());
      tracer.end(id);
      continue;
    }
    biq::AlignedBuffer<float> storage(plan->prep_floats());
    biq::PrepHandle prep(storage.data(), storage.size());
    plan->prepare(x, prep);  // warm the context's scratch
    plan->run(prep, y);
    int id = tracer.begin("core.prepare");
    auto t0 = Clock::now();
    plan->prepare(x, prep);
    cost.build_s += call.prepares * seconds_between(t0, Clock::now());
    tracer.end(id);
    id = tracer.begin("core.run");
    t0 = Clock::now();
    plan->run(prep, y);
    cost.query_s += call.runs * seconds_between(t0, Clock::now());
    tracer.end(id);
  }
  return cost;
}

GemmCost probe_gemm_median(const std::vector<ProjCall>& calls,
                           std::size_t width, biq::ExecContext& ctx, int reps,
                           Tracer& tracer) {
  std::vector<double> build, query;
  GemmCost out;
  for (int i = 0; i < reps; ++i) {
    out = probe_gemm(calls, width, ctx, tracer);
    build.push_back(out.build_s);
    query.push_back(out.query_s);
  }
  out.build_s = median(build);
  out.query_s = median(query);
  return out;
}

double probe_module(const biq::nn::PlannableModule& module, std::size_t width,
                    biq::ExecContext& ctx, int reps, Tracer& tracer,
                    const char* span) {
  const biq::nn::ModelPlan plan(module, width, ctx);
  biq::Matrix x(plan.input_rows(), width);
  biq::Matrix y(plan.output_rows(), width);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>((i * 7919u) % 17u) * 0.125f - 1.0f;
  }
  plan.run(x, y);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const int id = tracer.begin(span);
    const auto t0 = Clock::now();
    plan.run(x, y);
    times.push_back(seconds_between(t0, Clock::now()));
    tracer.end(id);
  }
  if (!all_finite(y)) {
    throw std::runtime_error(std::string(span) + ": non-finite output");
  }
  return median(times);
}

std::size_t query_lanes() {
  return biq::engine::select_kernels(biq::KernelIsa::kAuto).query_lanes;
}

std::size_t next_lane_multiple(std::size_t w, std::size_t lanes) {
  return (w + lanes - 1) / lanes * lanes;
}

}  // namespace pb

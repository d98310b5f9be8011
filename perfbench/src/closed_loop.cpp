#include "closed_loop.hpp"

#include <algorithm>
#include <stdexcept>

namespace pb {

std::vector<Sample> make_epochs(const std::vector<std::size_t>& widths,
                                std::size_t pad_span, std::size_t rows,
                                std::size_t epochs, std::uint64_t seed,
                                std::string& digest_hex) {
  TraceRng rng(seed);
  Digest digest;
  std::vector<Sample> trace;
  std::vector<std::size_t> order = widths;
  for (std::size_t e = 0; e < epochs; ++e) {
    rng.shuffle(order);
    for (const std::size_t w : order) {
      const std::size_t len = w - rng.below(std::min(pad_span, w));
      trace.push_back({w, len, random_input(rows, w, len, rng, digest)});
    }
  }
  digest_hex = digest.hex();
  return trace;
}

const biq::nn::ModelPlan& PlanSet::at(std::size_t width) const {
  const auto it = std::find(widths.begin(), widths.end(), width);
  if (it == widths.end()) {
    throw std::out_of_range("no plan for width " + std::to_string(width));
  }
  return *plans[static_cast<std::size_t>(it - widths.begin())];
}

PlanSet compile_plans(const biq::nn::PlannableModule& module,
                      const std::vector<std::size_t>& widths,
                      biq::ExecContext& ctx, Tracer& tracer) {
  PlanSet set;
  set.widths = widths;
  const auto t0 = Clock::now();
  for (const std::size_t w : widths) {
    SpanScope span(tracer, "engine.model_plan");
    set.plans.push_back(std::make_unique<biq::nn::ModelPlan>(module, w, ctx));
  }
  const auto t1 = Clock::now();
  const std::size_t max_w = *std::max_element(widths.begin(), widths.end());
  biq::Matrix x(set.plans.front()->input_rows(), max_w);
  biq::Matrix y(set.plans.front()->output_rows(), max_w);
  for (std::size_t k = 0; k < widths.size(); ++k) {
    SpanScope span(tracer, "engine.warm_run");
    set.plans[k]->run(x.col_block(0, widths[k]), y.col_block(0, widths[k]));
  }
  set.plan_s = seconds_between(t0, t1);
  set.warm_s = seconds_between(t1, Clock::now());
  return set;
}

Timed run_closed_loop(const PlanSet& plans, const std::vector<Sample>& trace,
                      std::size_t epoch, double seconds, Tracer& tracer,
                      Result& r) {
  Timed t;
  const std::size_t max_w =
      *std::max_element(plans.widths.begin(), plans.widths.end());
  biq::Matrix y(plans.plans.front()->output_rows(), max_w);
  const auto start = Clock::now();
  std::size_t i = 0;
  do {
    for (std::size_t k = 0; k < epoch; ++k, ++i) {
      const Sample& s = trace[i % trace.size()];
      const biq::MatrixView yv = y.col_block(0, s.cols);
      ++r.attempted;
      const int id =
          tracer.begin("nn.model_plan.run", static_cast<long long>(i));
      const auto t0 = Clock::now();
      plans.at(s.cols).run(s.x, yv);
      const auto t1 = Clock::now();
      tracer.end(id);
      t.latency_s.push_back(seconds_between(t0, t1));
      t.tokens += s.len;
      if (!all_finite(yv)) {
        r.fail("request " + std::to_string(i) + ": non-finite output");
      }
    }
  } while (seconds_between(start, Clock::now()) < seconds);
  t.wall_s = seconds_between(start, Clock::now());
  return t;
}

}  // namespace pb

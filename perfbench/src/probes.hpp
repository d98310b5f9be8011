// Per-layer probes for the traced run. Each one calls a module's public
// API from outside — a projection's own GemmPlan, a standalone ModelPlan
// of a sub-module — so the numbers need no instrumentation inside the
// library.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common.hpp"
#include "engine/exec_context.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace pb {

/// One projection as the compiled model calls it in one forward pass:
/// how many times it builds its activation artifact (prepare; 0 when a
/// sibling's prepare is shared with it) and how many times it consumes
/// one (run).
struct ProjCall {
  const biq::nn::LinearLayer* layer = nullptr;
  double prepares = 1.0;
  double runs = 1.0;
};

/// Weighted cost of a set of projection calls at one width (seconds),
/// plus the dense-equivalent work and packed weight bytes they cover.
struct GemmCost {
  double build_s = 0.0;
  double query_s = 0.0;
  double flops = 0.0;
  double weight_bytes = 0.0;
  [[nodiscard]] double total_s() const { return build_s + query_s; }
  GemmCost& operator+=(const GemmCost& o);
};

/// Times every call's own GemmPlan at `width` on `ctx`: prepare (the LUT
/// build) and run(prep, y) (query plus the bias epilogue), once warm,
/// each weighted by its call counts. Spans go to `tracer`.
[[nodiscard]] GemmCost probe_gemm(const std::vector<ProjCall>& calls,
                                  std::size_t width, biq::ExecContext& ctx,
                                  Tracer& tracer);

/// probe_gemm repeated `reps` times; build and query are each the median
/// over the repeats, so one noisy call does not skew a GEMV's cost.
[[nodiscard]] GemmCost probe_gemm_median(const std::vector<ProjCall>& calls,
                                         std::size_t width,
                                         biq::ExecContext& ctx, int reps,
                                         Tracer& tracer);

/// Median wall time (seconds) of a standalone ModelPlan of `module` at
/// `width` on `ctx`, after one warm run.
[[nodiscard]] double probe_module(const biq::nn::PlannableModule& module,
                                  std::size_t width, biq::ExecContext& ctx,
                                  int reps, Tracer& tracer,
                                  const char* span);

/// Query lanes of the resolved kernel plane (16 on AVX-512, else 8).
[[nodiscard]] std::size_t query_lanes();

/// Smallest multiple of `lanes` that is >= w.
[[nodiscard]] std::size_t next_lane_multiple(std::size_t w, std::size_t lanes);

/// Geometric mean of (cost(w) / w) / (cost(L) / L) over the listed
/// widths w, L = next_lane_multiple(w); cost_at(w) must cover every w and
/// every L. Widths that are lane multiples are skipped.
template <typename CostAt>
double cliff_ratio(const std::vector<std::size_t>& widths, std::size_t lanes,
                   CostAt&& cost_at) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const std::size_t w : widths) {
    if (w % lanes == 0) continue;
    const std::size_t l = next_lane_multiple(w, lanes);
    const double per_col = cost_at(w) / static_cast<double>(w);
    const double per_col_full = cost_at(l) / static_cast<double>(l);
    log_sum += std::log(per_col / per_col_full);
    ++n;
  }
  return n == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace pb

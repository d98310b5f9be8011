// The closed-loop half of the benchmark, shared by asr-bilstm and
// encode-ragged: a seeded trace of length-bucketed requests, one warm
// ModelPlan per bucket width, and one client that sends a request, waits
// for it and sends the next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/exec_context.hpp"
#include "nn/model_plan.hpp"

namespace pb {

/// One request: `len` real columns (tokens or frames) padded with zero
/// columns up to its bucket width `cols`.
struct Sample {
  std::size_t cols;
  std::size_t len;
  biq::Matrix x;
};

/// `epochs` trace epochs, each a seeded permutation of the bucket
/// `widths`, so every complete epoch issues the same mix of widths
/// whatever the seed. A request of bucket w has a seeded real length in
/// (w - pad_span, w]; pad_span 1 means every request fills its bucket.
[[nodiscard]] std::vector<Sample> make_epochs(
    const std::vector<std::size_t>& widths, std::size_t pad_span,
    std::size_t rows, std::size_t epochs, std::uint64_t seed,
    std::string& digest_hex);

/// One compiled, warm-run plan per bucket width.
struct PlanSet {
  std::vector<std::size_t> widths;
  std::vector<std::unique_ptr<biq::nn::ModelPlan>> plans;
  double plan_s = 0.0;  // compile time of every plan
  double warm_s = 0.0;  // one warm run of every plan
  [[nodiscard]] const biq::nn::ModelPlan& at(std::size_t width) const;
};

[[nodiscard]] PlanSet compile_plans(const biq::nn::PlannableModule& module,
                                    const std::vector<std::size_t>& widths,
                                    biq::ExecContext& ctx, Tracer& tracer);

struct Timed {
  std::vector<double> latency_s;
  std::size_t tokens = 0;  // real columns completed
  double wall_s = 0.0;
  [[nodiscard]] double tokens_per_s() const {
    return static_cast<double>(tokens) / wall_s;
  }
};

/// Sends whole epochs of `epoch` requests until `seconds` have elapsed
/// at an epoch boundary, timing each. Every output must be finite; one
/// that is not fails its request.
[[nodiscard]] Timed run_closed_loop(const PlanSet& plans,
                                    const std::vector<Sample>& trace,
                                    std::size_t epoch, double seconds,
                                    Tracer& tracer, Result& r);

}  // namespace pb

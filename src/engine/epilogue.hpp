// The fused GEMM epilogue: bias add, element-wise activation and
// residual add folded into the engine's output write-back, applied per
// output tile/column-block while it is still hot in cache instead of
// re-streamed over Y by the nn layer afterwards (the NGEMM argument:
// epilogues belong inside the GEMM's output loop).
//
// The contract is element-wise and order-fixed:
//
//     y(i, c) = act(raw(i, c) + bias[i]) + residual(i, c)
//
// applied exactly once per output element after that element's
// accumulation is complete. Because the transform is per-element, an
// engine may apply it per tile, per panel, per column or over the whole
// output — the result is bitwise identical to one full pass, which is
// what keeps the planned-vs-eager bitwise pins meaningful: the eager
// layers compute the same `act(v + bias) + residual` scalar sequence
// through the SAME inline functions below (nn/activations.cpp forwards
// here), so fused and unfused runs agree bit for bit.
//
// The residual operand is a run-time binding: plan-time Epilogue carries
// only the *intent* (`residual = true`); the actual view arrives with
// each GemmPlan::run(x, y, residual) call. It must not overlap y —
// engines that accumulate in place would read partially-transformed
// values otherwise; GemmPlan::run enforces this.
//
// Column-granular stage (col_post): LayerNorm needs a FULL output column
// before it can normalize, so it cannot ride a row tile. A plan frozen
// with ln_gamma/ln_beta owns a per-column atomic row count; every
// apply()/apply_interleaved() call reports the rows it finished per
// column, and whichever worker retires a column's last row runs the
// normalization for that column — exactly once, with a fixed sequential
// reduction order over the column, so the result is bitwise identical
// at any thread count and tile schedule. All seven engines get this
// through the shared apply paths; no engine carries barrier code.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>

#include "matrix/view.hpp"

namespace biq {

/// Element-wise activation folded into an engine epilogue. A deliberate
/// mirror of nn::Act plus kNone; the nn layer maps between them.
enum class EpilogueAct : std::uint8_t { kNone, kRelu, kGelu, kSigmoid, kTanh };

namespace epilogue {

// The single source of truth for activation arithmetic: the eager
// apply_* passes (nn/activations.cpp) and every engine epilogue call
// these same inline functions, so fused and separate-pass execution are
// bitwise identical by construction.

[[nodiscard]] inline float relu(float v) noexcept {
  return v > 0.0f ? v : 0.0f;
}

/// tanh-approximation GELU (as used by BERT-family models).
[[nodiscard]] inline float gelu(float v) noexcept {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + std::tanh(inner));
}

[[nodiscard]] inline float sigmoid(float v) noexcept {
  return 1.0f / (1.0f + std::exp(-v));
}

[[nodiscard]] inline float tanh(float v) noexcept { return std::tanh(v); }

[[nodiscard]] inline float activate(float v, EpilogueAct act) noexcept {
  switch (act) {
    case EpilogueAct::kNone: return v;
    case EpilogueAct::kRelu: return relu(v);
    case EpilogueAct::kGelu: return gelu(v);
    case EpilogueAct::kSigmoid: return sigmoid(v);
    case EpilogueAct::kTanh: return tanh(v);
  }
  return v;
}

/// Normalize one column of length d: the single source of truth for
/// LayerNorm arithmetic. nn::LayerNorm::forward and the col_post
/// epilogue stage both call this, so eager and fused execution are
/// bitwise identical by construction. The reduction order is the fixed
/// sequential i = 0..d-1 sweep (mean, then variance, then the scaled
/// write), independent of who executes it — that is what makes the
/// column barrier's "whichever worker finishes last normalizes"
/// scheduling invisible in the output. src == dst (in-place) is fine.
inline void layernorm_col(const float* src, float* dst, std::size_t d,
                          const float* gamma, const float* beta,
                          float eps) noexcept {
  double mean = 0.0;
  for (std::size_t i = 0; i < d; ++i) mean += src[i];
  mean /= static_cast<double>(d);
  double var = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double dv = src[i] - mean;
    var += dv * dv;
  }
  var /= static_cast<double>(d);
  const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
  for (std::size_t i = 0; i < d; ++i) {
    dst[i] = gamma[i] * (static_cast<float>(src[i] - mean) * inv) + beta[i];
  }
}

}  // namespace epilogue

/// Plan-time epilogue description, frozen into a GemmPlan. `bias` is
/// borrowed (length rows(); must outlive the plan; nullptr = none).
/// `residual = true` means every run of the plan will be handed a
/// rows() x batch() operand to add after the activation — the operand
/// itself is per-call state, not plan state.
struct Epilogue {
  const float* bias = nullptr;
  EpilogueAct act = EpilogueAct::kNone;
  bool residual = false;

  // Column-granular stage: when ln_gamma/ln_beta are set, every output
  // column is LayerNorm-normalized (after bias/act/residual) the moment
  // its last row tile retires. Both pointers are borrowed, length
  // ln_dim; ln_dim must equal the plan's rows() (validated at plan
  // time, since raw pointers carry no size). ln_split_dst plans write
  // the normalized column to a separate destination handed to the
  // 4-arg run() — the run's y becomes a pre-norm staging block — which
  // is what lets a residual operand alias the final output (see
  // GemmPlan::run). ln_split_dst requires residual = true.
  const float* ln_gamma = nullptr;
  const float* ln_beta = nullptr;
  float ln_eps = 1e-5f;
  std::size_t ln_dim = 0;
  bool ln_split_dst = false;

  [[nodiscard]] bool empty() const noexcept {
    return bias == nullptr && act == EpilogueAct::kNone && !residual &&
           ln_gamma == nullptr;
  }
};

/// The per-run epilogue functor engines apply: the plan's frozen
/// Epilogue bound to this run's residual operand. Engines that
/// transform values on write-back call operator(); engines that
/// accumulate directly into y call apply() over the region they just
/// finished. Both spell the same per-element arithmetic, so the choice
/// is invisible in the output.
class EpilogueOp {
 public:
  EpilogueOp() = default;
  EpilogueOp(const Epilogue& ep, ConstMatrixView residual) noexcept
      : bias_(ep.bias), residual_(residual), act_(ep.act),
        has_residual_(ep.residual) {}

  /// Binding for a plan with a column-granular LN stage: `col_counts`
  /// points at the plan-owned per-column barrier (one atomic per output
  /// column, all zero between runs), `total_rows` is the full column
  /// height, and `ln_dst` is where normalized columns land (empty view
  /// = normalize y in place).
  EpilogueOp(const Epilogue& ep, ConstMatrixView residual,
             std::atomic<std::uint32_t>* col_counts, std::size_t total_rows,
             MatrixView ln_dst) noexcept
      : bias_(ep.bias), residual_(residual), ln_gamma_(ep.ln_gamma),
        ln_beta_(ep.ln_beta), col_counts_(col_counts), ln_dst_(ln_dst),
        total_rows_(total_rows), ln_eps_(ep.ln_eps), act_(ep.act),
        has_residual_(ep.residual) {}

  [[nodiscard]] bool empty() const noexcept {
    return bias_ == nullptr && act_ == EpilogueAct::kNone && !has_residual_ &&
           ln_gamma_ == nullptr;
  }

  /// y(row, col) = act(v + bias[row]) + residual(row, col).
  float operator()(float v, std::size_t row, std::size_t col) const noexcept {
    if (bias_ != nullptr) v += bias_[row];
    v = epilogue::activate(v, act_);
    if (has_residual_) v += residual_(row, col);
    return v;
  }

  /// In-place transform of y's rows [i0, i1) x cols [c0, c1) — the form
  /// engines that accumulate straight into y use once a region's
  /// accumulation is complete. Each column is staged: bias add, then the
  /// activation, then the residual add, each its own loop over the
  /// (cache-hot) range. The adds vectorize; the activation loop is pure
  /// libm calls with nothing serialized behind them — measurably faster
  /// than one scalar loop doing all three, because a load+add cannot
  /// overlap across a tanh/exp call boundary. Staging preserves the
  /// arithmetic order exactly (store of v+bias, act of the stored value,
  /// store of the residual sum), so the result stays bitwise identical
  /// to the single-pass `act(v + bias) + residual` form operator()
  /// computes.
  void apply(MatrixView y, std::size_t i0, std::size_t i1, std::size_t c0,
             std::size_t c1) const noexcept {
    for (std::size_t c = c0; c < c1; ++c) {
      float* yc = y.col(c);
      const float* rc = has_residual_ ? residual_.col(c) : nullptr;
      if (act_ == EpilogueAct::kNone) {
        if (bias_ != nullptr && rc != nullptr) {
          for (std::size_t i = i0; i < i1; ++i) {
            yc[i] = (yc[i] + bias_[i]) + rc[i];
          }
        } else if (bias_ != nullptr) {
          for (std::size_t i = i0; i < i1; ++i) yc[i] += bias_[i];
        } else if (rc != nullptr) {
          for (std::size_t i = i0; i < i1; ++i) yc[i] += rc[i];
        }
        continue;
      }
      if (bias_ != nullptr) {
        for (std::size_t i = i0; i < i1; ++i) yc[i] += bias_[i];
      }
      act_sweep(yc, i0, i1);
      if (rc != nullptr) {
        for (std::size_t i = i0; i < i1; ++i) yc[i] += rc[i];
      }
    }
    notify_cols(y, i0, i1, c0, c1);
  }

  /// De-interleaving write-back with the epilogue merged into the copy:
  /// `tile` holds a finished accumulator block in lane-interleaved order
  /// (tile[i * lanes + lane] is raw y(i, c0 + lane)), of which only the
  /// first `cols` lanes are real columns — a padded tile's pad lanes are
  /// neither stored nor counted by the LN column barrier. The bias add —
  /// and, when there is no activation, the residual add too — rides the
  /// de-interleave store itself, so for those terms the epilogue costs
  /// no pass over y at all; activations follow as the same staged sweeps
  /// apply() runs. Same per-element arithmetic order, so the result is
  /// bitwise identical to a plain copy followed by apply().
  void apply_interleaved(MatrixView y, const float* tile, std::size_t m,
                         std::size_t lanes, std::size_t c0,
                         std::size_t cols) const noexcept {
    for (std::size_t lane = 0; lane < cols; ++lane) {
      float* yc = y.col(c0 + lane);
      const float* src = tile + lane;
      const float* rc = has_residual_ ? residual_.col(c0 + lane) : nullptr;
      if (act_ == EpilogueAct::kNone) {
        if (bias_ != nullptr && rc != nullptr) {
          for (std::size_t i = 0; i < m; ++i) {
            yc[i] = (src[i * lanes] + bias_[i]) + rc[i];
          }
        } else if (bias_ != nullptr) {
          for (std::size_t i = 0; i < m; ++i) yc[i] = src[i * lanes] + bias_[i];
        } else if (rc != nullptr) {
          for (std::size_t i = 0; i < m; ++i) yc[i] = src[i * lanes] + rc[i];
        } else {
          for (std::size_t i = 0; i < m; ++i) yc[i] = src[i * lanes];
        }
        continue;
      }
      if (bias_ != nullptr) {
        for (std::size_t i = 0; i < m; ++i) yc[i] = src[i * lanes] + bias_[i];
      } else {
        for (std::size_t i = 0; i < m; ++i) yc[i] = src[i * lanes];
      }
      act_sweep(yc, 0, m);
      if (rc != nullptr) {
        for (std::size_t i = 0; i < m; ++i) yc[i] += rc[i];
      }
    }
    notify_cols(y, 0, m, c0, c0 + cols);
  }

 private:
  /// Column-completion barrier tick: credit [i0, i1) rows to each of
  /// columns [c0, c1); the call that brings a column to total_rows_
  /// resets its counter and runs the LN stage over the now-complete
  /// column. The acq_rel RMW chain on each column's atomic means every
  /// writer of that column happens-before the completing worker's
  /// normalize (TSan-clean), and the relaxed reset is safe across runs
  /// because plan->run joins its worker pool before returning. No-op
  /// unless the plan carries an LN stage.
  void notify_cols(MatrixView y, std::size_t i0, std::size_t i1,
                   std::size_t c0, std::size_t c1) const noexcept {
    if (ln_gamma_ == nullptr) return;
    const auto added = static_cast<std::uint32_t>(i1 - i0);
    const auto total = static_cast<std::uint32_t>(total_rows_);
    for (std::size_t c = c0; c < c1; ++c) {
      std::atomic<std::uint32_t>& count = col_counts_[c];
      if (count.fetch_add(added, std::memory_order_acq_rel) + added == total) {
        count.store(0, std::memory_order_relaxed);
        const float* src = y.col(c);
        float* dst = ln_dst_.data() != nullptr ? ln_dst_.col(c) : y.col(c);
        epilogue::layernorm_col(src, dst, total_rows_, ln_gamma_, ln_beta_,
                                ln_eps_);
      }
    }
  }

  template <typename ActFn>
  static void act_loop(float* yc, std::size_t i0, std::size_t i1,
                       ActFn act) noexcept {
    for (std::size_t i = i0; i < i1; ++i) yc[i] = act(yc[i]);
  }

  /// The pure activation sweep over one column range (see apply() on why
  /// it runs as its own loop). kNone is a no-op; callers handle the
  /// activation-free fast paths themselves.
  void act_sweep(float* yc, std::size_t i0, std::size_t i1) const noexcept {
    switch (act_) {
      case EpilogueAct::kNone: break;
      case EpilogueAct::kRelu: act_loop(yc, i0, i1, epilogue::relu); break;
      case EpilogueAct::kGelu: act_loop(yc, i0, i1, epilogue::gelu); break;
      case EpilogueAct::kSigmoid:
        act_loop(yc, i0, i1, epilogue::sigmoid);
        break;
      case EpilogueAct::kTanh: act_loop(yc, i0, i1, epilogue::tanh); break;
    }
  }

  const float* bias_ = nullptr;
  ConstMatrixView residual_;
  const float* ln_gamma_ = nullptr;
  const float* ln_beta_ = nullptr;
  std::atomic<std::uint32_t>* col_counts_ = nullptr;  // plan-owned barrier
  MatrixView ln_dst_;  // empty = normalize y in place
  std::size_t total_rows_ = 0;
  float ln_eps_ = 1e-5f;
  EpilogueAct act_ = EpilogueAct::kNone;
  bool has_residual_ = false;
};

}  // namespace biq

// Epilogue fusion parity: for EVERY registered engine, a plan frozen
// with an Epilogue (bias / activation / residual, in any combination)
// is bitwise identical to the same engine's plain plan followed by the
// equivalent separate passes in the fused arithmetic order
// (y = act(raw + bias) + residual, then the column-granular
// LayerNorm). Covers batch = 1 (the GEMV paths), wide batches, strided
// views of larger buffers, and 1-vs-N-thread contexts (the per-column
// countdown barrier must fire the normalize exactly once per column);
// plus the run-overload, residual-aliasing, split-destination and LN
// shape error contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/epilogue.hpp"
#include "engine/registry.hpp"

namespace biq {
namespace {

/// The reference seam passes, in the exact order the fused epilogue
/// applies per element: bias, then activation, then residual.
void apply_separate(MatrixView y, const Epilogue& ep, ConstMatrixView res) {
  for (std::size_t c = 0; c < y.cols(); ++c) {
    float* yc = y.col(c);
    for (std::size_t i = 0; i < y.rows(); ++i) {
      float v = yc[i];
      if (ep.bias != nullptr) v += ep.bias[i];
      v = epilogue::activate(v, ep.act);
      if (ep.residual) v += res(i, c);
      yc[i] = v;
    }
  }
}

/// The reference LN seam pass: the same shared per-column helper the
/// col_post epilogue stage runs, applied as one separate sweep.
void apply_separate_ln(MatrixView y, const Epilogue& ep) {
  for (std::size_t c = 0; c < y.cols(); ++c) {
    epilogue::layernorm_col(y.col(c), y.col(c), y.rows(), ep.ln_gamma,
                            ep.ln_beta, ep.ln_eps);
  }
}

void expect_bitwise(ConstMatrixView a, ConstMatrixView b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, c), b(i, c))
          << what << " differs at (" << i << ", " << c << ")";
    }
  }
}

struct Combo {
  const char* name;
  bool bias;
  EpilogueAct act;
  bool residual;
};

constexpr Combo kCombos[] = {
    {"bias", true, EpilogueAct::kNone, false},
    {"gelu", false, EpilogueAct::kGelu, false},
    {"bias+sigmoid", true, EpilogueAct::kSigmoid, false},
    {"bias+relu+residual", true, EpilogueAct::kRelu, true},
    {"bias+gelu+residual", true, EpilogueAct::kGelu, true},
    {"bias+tanh+residual", true, EpilogueAct::kTanh, true},
};

class EpilogueParity : public ::testing::TestWithParam<std::string> {};

TEST_P(EpilogueParity, FusedMatchesSeparatePasses) {
  const std::string name = GetParam();
  constexpr std::size_t m = 37, n = 29;
  Rng rng(0xE91 + std::hash<std::string>{}(name) % 1000);
  const Matrix w = Matrix::random_normal(m, n, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto engine = make_engine(name, w, cfg);

  std::vector<float> bias(m);
  for (std::size_t i = 0; i < m; ++i) {
    bias[i] = 0.5f * static_cast<float>(i % 7) - 1.5f;
  }

  for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
    const Matrix x = Matrix::random_normal(n, b, rng);
    const Matrix res = Matrix::random_normal(m, b, rng);
    Matrix y_fused(m, b), y_ref(m, b);
    ExecContext ctx;

    for (const Combo& combo : kCombos) {
      Epilogue ep;
      ep.bias = combo.bias ? bias.data() : nullptr;
      ep.act = combo.act;
      ep.residual = combo.residual;

      const auto fused = engine->plan(b, ctx, ep);
      if (combo.residual) {
        fused->run(x, y_fused, res);
      } else {
        fused->run(x, y_fused);
      }

      engine->plan(b, ctx)->run(x, y_ref);
      apply_separate(y_ref, ep, res);

      expect_bitwise(y_fused, y_ref,
                     (name + " b=" + std::to_string(b) + " " + combo.name)
                         .c_str());
    }
  }
}

TEST_P(EpilogueParity, StridedViewsMatchDense) {
  const std::string name = GetParam();
  constexpr std::size_t m = 21, n = 18, b = 5;
  Rng rng(0xABC);
  const Matrix w = Matrix::random_normal(m, n, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto engine = make_engine(name, w, cfg);

  std::vector<float> bias(m, 0.75f);
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kGelu;
  ep.residual = true;

  // Everything a window of a larger buffer: x, y AND the residual.
  Matrix x_big = Matrix::random_normal(n + 6, b + 4, rng);
  Matrix res_big = Matrix::random_normal(m + 5, b + 3, rng);
  Matrix y_big(m + 7, b + 2);
  const ConstMatrixView x = x_big.block(4, n, 3, b);
  const ConstMatrixView res = res_big.block(2, m, 1, b);
  const MatrixView y = y_big.block(5, m, 1, b);

  ExecContext ctx;
  engine->plan(b, ctx, ep)->run(x, y, res);

  // Dense copies through the same fused plan shape.
  Matrix xd(n, b), resd(m, b), yd(m, b);
  for (std::size_t c = 0; c < b; ++c) {
    for (std::size_t i = 0; i < n; ++i) xd(i, c) = x(i, c);
    for (std::size_t i = 0; i < m; ++i) resd(i, c) = res(i, c);
  }
  engine->plan(b, ctx, ep)->run(xd, yd, resd);

  expect_bitwise(y, yd, name.c_str());
}

TEST_P(EpilogueParity, ThreadCountInvariant) {
  const std::string name = GetParam();
  constexpr std::size_t m = 64, n = 33, b = 7;
  Rng rng(0x7EA);
  const Matrix w = Matrix::random_normal(m, n, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto engine = make_engine(name, w, cfg);

  std::vector<float> bias(m, -0.25f);
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kRelu;
  ep.residual = true;

  const Matrix x = Matrix::random_normal(n, b, rng);
  const Matrix res = Matrix::random_normal(m, b, rng);

  Matrix y_serial(m, b);
  {
    ExecContext ctx;
    engine->plan(b, ctx, ep)->run(x, y_serial, res);
  }
  Matrix y_pool(m, b);
  {
    ThreadPool pool(3);
    ExecContext ctx(&pool);
    engine->plan(b, ctx, ep)->run(x, y_pool, res);
  }
  expect_bitwise(y_serial, y_pool, name.c_str());
}

// The column-granular stage: a plan frozen with an LN epilogue (alone
// or stacked on any bias/act/residual combo) must equal the plain plan
// followed by the separate element-wise passes and then the shared
// per-column LayerNorm helper — bitwise, at batch 1 and 8, serial and
// pooled (the column barrier fires the normalize exactly once per
// column regardless of which worker retires the last row tile).
TEST_P(EpilogueParity, LayerNormFusedMatchesSeparate) {
  const std::string name = GetParam();
  constexpr std::size_t m = 37, n = 29;
  Rng rng(0x1A7 + std::hash<std::string>{}(name) % 1000);
  const Matrix w = Matrix::random_normal(m, n, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto engine = make_engine(name, w, cfg);

  std::vector<float> bias(m), gamma(m), beta(m);
  for (std::size_t i = 0; i < m; ++i) {
    bias[i] = 0.5f * static_cast<float>(i % 7) - 1.5f;
    gamma[i] = 1.0f + 0.03125f * static_cast<float>(i % 5);
    beta[i] = 0.25f * static_cast<float>(i % 3) - 0.25f;
  }

  for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
    const Matrix x = Matrix::random_normal(n, b, rng);
    const Matrix res = Matrix::random_normal(m, b, rng);
    Matrix y_fused(m, b), y_ref(m, b), y_pool(m, b);

    for (const Combo& combo : kCombos) {
      SCOPED_TRACE(std::string(combo.name) + "+ln b=" + std::to_string(b));
      Epilogue ep;
      ep.bias = combo.bias ? bias.data() : nullptr;
      ep.act = combo.act;
      ep.residual = combo.residual;
      ep.ln_gamma = gamma.data();
      ep.ln_beta = beta.data();
      ep.ln_dim = m;

      ExecContext ctx;
      const auto fused = engine->plan(b, ctx, ep);
      if (combo.residual) {
        fused->run(x, y_fused, res);
      } else {
        fused->run(x, y_fused);
      }

      engine->plan(b, ctx)->run(x, y_ref);
      apply_separate(y_ref, ep, res);
      apply_separate_ln(y_ref, ep);
      expect_bitwise(y_fused, y_ref, "serial");

      ThreadPool pool(3);
      ExecContext pctx(&pool);
      const auto pooled = engine->plan(b, pctx, ep);
      if (combo.residual) {
        pooled->run(x, y_pool, res);
      } else {
        pooled->run(x, y_pool);
      }
      expect_bitwise(y_pool, y_ref, "pooled");
    }
  }
}

// LN over strided windows: the barrier counts rows of the logical
// column, not of the backing buffer, and the normalize walks y.col(c)
// through the view's leading dimension.
TEST_P(EpilogueParity, LayerNormStridedViewsMatchDense) {
  const std::string name = GetParam();
  constexpr std::size_t m = 21, n = 18, b = 5;
  Rng rng(0xB5D);
  const Matrix w = Matrix::random_normal(m, n, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto engine = make_engine(name, w, cfg);

  std::vector<float> bias(m, 0.75f), gamma(m, 1.125f), beta(m, -0.5f);
  Epilogue ep;
  ep.bias = bias.data();
  ep.act = EpilogueAct::kGelu;
  ep.residual = true;
  ep.ln_gamma = gamma.data();
  ep.ln_beta = beta.data();
  ep.ln_dim = m;

  Matrix x_big = Matrix::random_normal(n + 6, b + 4, rng);
  Matrix res_big = Matrix::random_normal(m + 5, b + 3, rng);
  Matrix y_big(m + 7, b + 2);
  const ConstMatrixView x = x_big.block(4, n, 3, b);
  const ConstMatrixView res = res_big.block(2, m, 1, b);
  const MatrixView y = y_big.block(5, m, 1, b);

  ExecContext ctx;
  engine->plan(b, ctx, ep)->run(x, y, res);

  Matrix xd(n, b), resd(m, b), yd(m, b);
  for (std::size_t c = 0; c < b; ++c) {
    for (std::size_t i = 0; i < n; ++i) xd(i, c) = x(i, c);
    for (std::size_t i = 0; i < m; ++i) resd(i, c) = res(i, c);
  }
  engine->plan(b, ctx, ep)->run(xd, yd, resd);

  expect_bitwise(y, yd, name.c_str());
}

// Split-destination LN: the plan accumulates sublayer + bias + residual
// into the staging operand and normalizes each completed column into a
// SEPARATE ln_out — which is allowed to alias the residual (residual
// reads of a column are sequenced before that column's last-row
// countdown, hence before the normalize writes).
TEST_P(EpilogueParity, LayerNormSplitDestinationParity) {
  const std::string name = GetParam();
  constexpr std::size_t m = 24, n = 17, b = 6;
  Rng rng(0x5D1);
  const Matrix w = Matrix::random_normal(m, n, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto engine = make_engine(name, w, cfg);

  std::vector<float> bias(m), gamma(m), beta(m);
  for (std::size_t i = 0; i < m; ++i) {
    bias[i] = 0.125f * static_cast<float>(i % 4);
    gamma[i] = 0.875f + 0.0625f * static_cast<float>(i % 3);
    beta[i] = 0.5f - 0.25f * static_cast<float>(i % 2);
  }
  Epilogue ep;
  ep.bias = bias.data();
  ep.residual = true;
  ep.ln_gamma = gamma.data();
  ep.ln_beta = beta.data();
  ep.ln_dim = m;
  ep.ln_split_dst = true;

  const Matrix x = Matrix::random_normal(n, b, rng);
  const Matrix res = Matrix::random_normal(m, b, rng);

  // Reference: plain GEMM, separate bias+residual pass, separate LN.
  Matrix y_ref(m, b);
  ExecContext ctx;
  engine->plan(b, ctx)->run(x, y_ref);
  apply_separate(y_ref, ep, res);
  apply_separate_ln(y_ref, ep);

  Matrix stage(m, b), ln_out(m, b);
  engine->plan(b, ctx, ep)->run(x, stage, res, ln_out);
  expect_bitwise(ln_out, y_ref, "split-dst, distinct ln_out");

  // ln_out aliasing the residual — the encoder's second seam, where the
  // normalized output overwrites the residual branch in place.
  Matrix resbuf(m, b);
  for (std::size_t c = 0; c < b; ++c) {
    for (std::size_t i = 0; i < m; ++i) resbuf(i, c) = res(i, c);
  }
  Matrix stage2(m, b);
  engine->plan(b, ctx, ep)->run(x, stage2, resbuf, resbuf.view());
  expect_bitwise(resbuf, y_ref, "split-dst, ln_out aliases residual");
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EpilogueParity,
    ::testing::ValuesIn(EngineRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

TEST(EpilogueContract, RunOverloadMustMatchFrozenResidual) {
  constexpr std::size_t m = 8, n = 6, b = 2;
  Rng rng(11);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = make_engine("blocked", w);
  const Matrix x = Matrix::random_normal(n, b, rng);
  const Matrix res = Matrix::random_normal(m, b, rng);
  Matrix y(m, b);
  ExecContext ctx;

  Epilogue with_res;
  with_res.residual = true;
  const auto residual_plan = engine->plan(b, ctx, with_res);
  EXPECT_THROW(residual_plan->run(x, y), std::invalid_argument);
  EXPECT_NO_THROW(residual_plan->run(x, y, res));

  const auto plain_plan = engine->plan(b, ctx);
  EXPECT_THROW(plain_plan->run(x, y, res), std::invalid_argument);
  EXPECT_NO_THROW(plain_plan->run(x, y));
}

TEST(EpilogueContract, ResidualMustNotAliasOutput) {
  constexpr std::size_t m = 8, n = 6, b = 3;
  Rng rng(12);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = make_engine("blocked", w);
  const Matrix x = Matrix::random_normal(n, b, rng);
  Matrix y(m, b);
  ExecContext ctx;

  Epilogue ep;
  ep.residual = true;
  const auto plan = engine->plan(b, ctx, ep);
  // Full alias and partial overlap (a shifted window of y's storage)
  // must both be rejected — engines accumulate into y in place.
  EXPECT_THROW(plan->run(x, y, y), std::invalid_argument);
  Matrix big(m + 2, b);
  const MatrixView yv = big.block(0, m, 0, b);
  const ConstMatrixView overlapping = big.block(1, m, 0, b);
  EXPECT_THROW(plan->run(x, yv, overlapping), std::invalid_argument);
}

// apply_interleaved is the LUT engines' merged de-interleave write-back:
// for every bias/act/residual combo it must equal a plain de-interleave
// copy of the real columns followed by apply() over the same region —
// bitwise — and a padded tile's pad lanes must never reach y.
TEST(EpilogueContract, ApplyInterleavedMatchesCopyThenApply) {
  constexpr std::size_t m = 23, batch = 11, lanes = 8, cols = 5, c0 = 3;
  Rng rng(0xA11);
  const Matrix res = Matrix::random_normal(m, batch, rng);
  const Matrix raw = Matrix::random_normal(m, batch, rng);
  std::vector<float> bias(m);
  for (std::size_t i = 0; i < m; ++i) bias[i] = 0.1f * static_cast<float>(i);

  // The interleaved accumulator block for columns [c0, c0 + cols):
  // tile[i * lanes + lane] = raw(i, c0 + lane); pad lanes hold NaN.
  std::vector<float> tile(m * lanes, std::nanf(""));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t lane = 0; lane < cols; ++lane) {
      tile[i * lanes + lane] = raw(i, c0 + lane);
    }
  }

  for (const Combo& combo : kCombos) {
    SCOPED_TRACE(combo.name);
    Epilogue ep;
    ep.bias = combo.bias ? bias.data() : nullptr;
    ep.act = combo.act;
    ep.residual = combo.residual;
    const EpilogueOp op(ep, res.view());

    Matrix got(m, batch, /*zero_fill=*/true);
    op.apply_interleaved(got.view(), tile.data(), m, lanes, c0, cols);

    Matrix want(m, batch, /*zero_fill=*/true);
    for (std::size_t lane = 0; lane < cols; ++lane) {
      float* yc = want.view().col(c0 + lane);
      for (std::size_t i = 0; i < m; ++i) yc[i] = tile[i * lanes + lane];
    }
    op.apply(want.view(), 0, m, c0, c0 + cols);

    expect_bitwise(got, want, combo.name);
  }
}

// A zero-variance column (all inputs zero, no bias) normalizes to
// exactly beta: the centered values are exact zeros, so gamma * 0 /
// sqrt(0 + eps) + beta == beta bitwise — the epsilon keeps the divide
// finite and the arithmetic exact.
TEST(EpilogueContract, LayerNormZeroVarianceColumnYieldsBeta) {
  constexpr std::size_t m = 9, n = 5, b = 3;
  Rng rng(21);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = make_engine("blocked", w);

  std::vector<float> gamma(m), beta(m);
  for (std::size_t i = 0; i < m; ++i) {
    gamma[i] = 2.0f + static_cast<float>(i);
    beta[i] = 0.5f * static_cast<float>(i) - 1.0f;
  }
  Epilogue ep;
  ep.ln_gamma = gamma.data();
  ep.ln_beta = beta.data();
  ep.ln_dim = m;

  const Matrix x(n, b, /*zero_fill=*/true);
  Matrix y(m, b);
  ExecContext ctx;
  engine->plan(b, ctx, ep)->run(x, y);
  for (std::size_t c = 0; c < b; ++c) {
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(y(i, c), beta[i]) << "(" << i << ", " << c << ")";
    }
  }
}

// m = 1: every column IS its own mean, so the centered value is an
// exact zero and the output is beta[0] regardless of the input — the
// single-row epsilon path must not produce NaN/Inf.
TEST(EpilogueContract, LayerNormSingleRowColumnYieldsBeta) {
  constexpr std::size_t m = 1, n = 4, b = 5;
  Rng rng(22);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = make_engine("blocked", w);

  const std::vector<float> gamma(1, 3.0f), beta(1, -0.75f);
  Epilogue ep;
  ep.ln_gamma = gamma.data();
  ep.ln_beta = beta.data();
  ep.ln_dim = m;

  const Matrix x = Matrix::random_normal(n, b, rng);
  Matrix y(m, b);
  ExecContext ctx;
  engine->plan(b, ctx, ep)->run(x, y);
  for (std::size_t c = 0; c < b; ++c) ASSERT_EQ(y(0, c), beta[0]);
}

// LN plan-time contracts: gamma and beta travel together, ln_dim must
// match the plan's output rows, and the split-destination form needs a
// residual (it exists to let the residual alias the normalized output).
TEST(EpilogueContract, LayerNormPlanValidation) {
  constexpr std::size_t m = 8, n = 6, b = 2;
  Rng rng(23);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = make_engine("blocked", w);
  std::vector<float> gamma(m, 1.0f), beta(m, 0.0f);
  ExecContext ctx;

  {
    Epilogue ep;
    ep.ln_gamma = gamma.data();
    ep.ln_dim = m;
    EXPECT_THROW(engine->plan(b, ctx, ep), std::invalid_argument)
        << "gamma without beta";
  }
  {
    Epilogue ep;
    ep.ln_beta = beta.data();
    ep.ln_dim = m;
    EXPECT_THROW(engine->plan(b, ctx, ep), std::invalid_argument)
        << "beta without gamma";
  }
  {
    Epilogue ep;
    ep.ln_gamma = gamma.data();
    ep.ln_beta = beta.data();
    ep.ln_dim = m + 1;  // gamma/beta sized for the wrong feature dim
    EXPECT_THROW(engine->plan(b, ctx, ep), std::invalid_argument)
        << "ln_dim mismatch";
  }
  {
    Epilogue ep;
    ep.ln_gamma = gamma.data();
    ep.ln_beta = beta.data();
    ep.ln_dim = m;
    ep.ln_split_dst = true;  // split without a residual stage
    EXPECT_THROW(engine->plan(b, ctx, ep), std::invalid_argument)
        << "ln_split_dst without residual";
  }
  {
    Epilogue ep;
    ep.residual = true;
    ep.ln_split_dst = true;  // split without any LN stage at all
    EXPECT_THROW(engine->plan(b, ctx, ep), std::invalid_argument)
        << "ln_split_dst without LN";
  }
}

// Run-arity contracts around the split destination: a split plan only
// accepts the 4-operand run; a non-split plan rejects it; and ln_out
// must not overlap the staging output (the normalize reads the full
// staged column after other columns may still be accumulating).
TEST(EpilogueContract, LayerNormRunOverloadContracts) {
  constexpr std::size_t m = 8, n = 6, b = 2;
  Rng rng(24);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = make_engine("blocked", w);
  std::vector<float> gamma(m, 1.0f), beta(m, 0.0f);
  const Matrix x = Matrix::random_normal(n, b, rng);
  const Matrix res = Matrix::random_normal(m, b, rng);
  Matrix y(m, b), ln_out(m, b);
  ExecContext ctx;

  Epilogue split;
  split.residual = true;
  split.ln_gamma = gamma.data();
  split.ln_beta = beta.data();
  split.ln_dim = m;
  split.ln_split_dst = true;
  const auto split_plan = engine->plan(b, ctx, split);
  EXPECT_THROW(split_plan->run(x, y), std::invalid_argument);
  EXPECT_THROW(split_plan->run(x, y, res), std::invalid_argument);
  EXPECT_NO_THROW(split_plan->run(x, y, res, ln_out));

  Epilogue in_place;
  in_place.residual = true;
  in_place.ln_gamma = gamma.data();
  in_place.ln_beta = beta.data();
  in_place.ln_dim = m;
  const auto in_place_plan = engine->plan(b, ctx, in_place);
  EXPECT_THROW(in_place_plan->run(x, y, res, ln_out), std::invalid_argument);
  EXPECT_NO_THROW(in_place_plan->run(x, y, res));

  // ln_out shape mismatch and ln_out overlapping the staging output.
  Matrix wrong_rows(m + 1, b), wrong_cols(m, b + 1);
  EXPECT_THROW(split_plan->run(x, y, res, wrong_rows), std::invalid_argument);
  EXPECT_THROW(split_plan->run(x, y, res, wrong_cols), std::invalid_argument);
  Matrix big(m + 2, b);
  const MatrixView yv = big.block(0, m, 0, b);
  const MatrixView overlapping = big.block(1, m, 0, b);
  EXPECT_THROW(split_plan->run(x, yv, res, overlapping),
               std::invalid_argument);
}

TEST(EpilogueContract, ResidualShapeMismatchThrows) {
  constexpr std::size_t m = 8, n = 6, b = 2;
  Rng rng(13);
  const Matrix w = Matrix::random_normal(m, n, rng);
  const auto engine = make_engine("naive", w);
  const Matrix x = Matrix::random_normal(n, b, rng);
  Matrix y(m, b);
  ExecContext ctx;

  Epilogue ep;
  ep.residual = true;
  const auto plan = engine->plan(b, ctx, ep);
  const Matrix wrong_rows = Matrix::random_normal(m + 1, b, rng);
  const Matrix wrong_cols = Matrix::random_normal(m, b + 1, rng);
  EXPECT_THROW(plan->run(x, y, wrong_rows), std::invalid_argument);
  EXPECT_THROW(plan->run(x, y, wrong_cols), std::invalid_argument);
}

}  // namespace
}  // namespace biq

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/activations.hpp"
#include "nn/lstm.hpp"
#include "nn/tensor.hpp"

namespace biq::nn {
namespace {

/// Hand-rolled LSTM step used as the oracle.
void reference_step(const Matrix& wx, const Matrix& wh,
                    const std::vector<float>& bias, const float* x,
                    std::vector<float>& h, std::vector<float>& c) {
  const std::size_t hidden = h.size();
  const std::size_t in = wx.cols();
  std::vector<float> gates(4 * hidden, 0.0f);
  for (std::size_t g = 0; g < 4 * hidden; ++g) {
    double acc = bias[g];
    for (std::size_t k = 0; k < in; ++k) acc += static_cast<double>(wx(g, k)) * x[k];
    for (std::size_t k = 0; k < hidden; ++k) acc += static_cast<double>(wh(g, k)) * h[k];
    gates[g] = static_cast<float>(acc);
  }
  for (std::size_t j = 0; j < hidden; ++j) {
    const float gi = sigmoid(gates[j]);
    const float gf = sigmoid(gates[hidden + j]);
    const float gg = std::tanh(gates[2 * hidden + j]);
    const float go = sigmoid(gates[3 * hidden + j]);
    c[j] = gf * c[j] + gi * gg;
    h[j] = go * std::tanh(c[j]);
  }
}

TEST(LstmCell, StepMatchesReference) {
  const std::size_t in = 6, hidden = 5;
  Rng rng(1);
  Matrix wx = Matrix::random_normal(4 * hidden, in, rng, 0.0f, 0.5f);
  Matrix wh = Matrix::random_normal(4 * hidden, hidden, rng, 0.0f, 0.5f);
  std::vector<float> bias(4 * hidden);
  fill_normal(rng, bias.data(), bias.size(), 0.0f, 0.1f);

  LstmCell cell(std::make_unique<Linear>(wx, std::vector<float>()),
                std::make_unique<Linear>(wh, std::vector<float>()),
                bias);

  std::vector<float> h(hidden, 0.0f), c(hidden, 0.0f);
  std::vector<float> h_ref(hidden, 0.0f), c_ref(hidden, 0.0f);
  std::vector<float> x(in);
  for (int t = 0; t < 4; ++t) {
    fill_normal(rng, x.data(), in);
    cell.step(x.data(), h.data(), c.data());
    reference_step(wx, wh, bias, x.data(), h_ref, c_ref);
    for (std::size_t j = 0; j < hidden; ++j) {
      EXPECT_NEAR(h[j], h_ref[j], 1e-4f) << "t=" << t << " j=" << j;
      EXPECT_NEAR(c[j], c_ref[j], 1e-4f);
    }
  }
}

TEST(LstmCell, ValidatesShapes) {
  Rng rng(2);
  auto wx = std::make_unique<Linear>(Matrix::random_normal(20, 6, rng),
                                     std::vector<float>());
  auto wh_bad = std::make_unique<Linear>(Matrix::random_normal(16, 5, rng),
                                         std::vector<float>());
  EXPECT_THROW(LstmCell(std::move(wx), std::move(wh_bad),
                        std::vector<float>(20, 0.0f)),
               std::invalid_argument);
}

TEST(Lstm, ForwardWalksSequence) {
  const std::size_t in = 4, hidden = 3, t = 6;
  const Lstm lstm(make_lstm_cell(in, hidden, 99, {}));
  Rng rng(3);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix h(hidden, t);
  lstm.forward(x, h);
  // States must stay in tanh range and evolve over time.
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_LE(std::fabs(h(i, c)), 1.0f);
    }
  }
  EXPECT_GT(max_abs_diff(h, Matrix(hidden, t)), 0.0f);
}

TEST(Lstm, ReverseEqualsForwardOnReversedInput) {
  const std::size_t in = 4, hidden = 3, t = 5;
  Rng rng(4);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix x_rev(in, t);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < in; ++i) x_rev(i, c) = x(i, t - 1 - c);
  }
  LstmCell cell_a = make_lstm_cell(in, hidden, 5, {});
  LstmCell cell_b = make_lstm_cell(in, hidden, 5, {});
  const Lstm fwd(std::move(cell_a));
  const Lstm rev(std::move(cell_b));

  Matrix hf(hidden, t), hr(hidden, t);
  fwd.forward(x_rev, hf);
  rev.forward_reverse(x, hr);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_NEAR(hr(i, c), hf(i, t - 1 - c), 1e-5f);
    }
  }
}

TEST(BiLstm, ConcatenatesDirections) {
  const std::size_t in = 4, hidden = 3, t = 5;
  BiLstm bi(make_lstm_cell(in, hidden, 21, {}), make_lstm_cell(in, hidden, 22, {}));
  Rng rng(6);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix h(2 * hidden, t);
  bi.forward(x, h);

  const Lstm fwd(make_lstm_cell(in, hidden, 21, {}));
  const Lstm bwd(make_lstm_cell(in, hidden, 22, {}));
  Matrix hf(hidden, t), hb(hidden, t);
  fwd.forward(x, hf);
  bwd.forward_reverse(x, hb);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_EQ(h(i, c), hf(i, c));
      EXPECT_EQ(h(hidden + i, c), hb(i, c));
    }
  }
}

TEST(Lstm, QuantizedCellTracksFloatCell) {
  const std::size_t in = 24, hidden = 16, t = 8;
  QuantSpec q3;
  q3.weight_bits = 3;
  const Lstm fp(make_lstm_cell(in, hidden, 77, {}));
  const Lstm quant(make_lstm_cell(in, hidden, 77, q3));

  Rng rng(7);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix h_fp(hidden, t), h_q(hidden, t);
  fp.forward(x, h_fp);
  quant.forward(x, h_q);
  EXPECT_LT(rel_fro_error(h_q, h_fp), 0.35);
}

TEST(Lstm, QuantizedWeightsCompress) {
  QuantSpec q2;
  q2.weight_bits = 2;
  const LstmCell fp = make_lstm_cell(64, 64, 88, {});
  const LstmCell quant = make_lstm_cell(64, 64, 88, q2);
  EXPECT_LT(quant.weight_bytes() * 10, fp.weight_bytes());
}

TEST(Lstm, ForgetGateBiasInitializedToOne) {
  const LstmCell cell = make_lstm_cell(4, 3, 1, {});
  // Behavioural check: with zero input and a pre-set cell state, the
  // forget bias of 1 keeps most of the state (sigmoid(1) ~ 0.73).
  std::vector<float> h(3, 0.0f), c{1.0f, 1.0f, 1.0f};
  std::vector<float> x(4, 0.0f);
  cell.step(x.data(), h.data(), c.data());
  for (float v : c) EXPECT_GT(v, 0.5f);
}

TEST(Lstm, ModuleInterfaceShapes) {
  const Lstm lstm(make_lstm_cell(10, 6, 9, {}));
  EXPECT_EQ(lstm.in_rows(), 10u);
  EXPECT_EQ(lstm.out_shape({10, 7}).rows, 6u);
  EXPECT_EQ(lstm.out_shape({10, 7}).cols, 7u);
  EXPECT_THROW((void)lstm.out_shape({9, 7}), std::invalid_argument);

  const BiLstm bi(make_lstm_cell(10, 6, 9, {}), make_lstm_cell(10, 6, 10, {}));
  EXPECT_EQ(bi.in_rows(), 10u);
  EXPECT_EQ(bi.out_shape({10, 7}).rows, 12u);
  EXPECT_THROW((void)bi.out_shape({12, 7}), std::invalid_argument);
}

TEST(Lstm, ScanPlanReplaysTheEagerScan) {
  // The cell's frozen scan (the piece Lstm/BiLstm module steps replay)
  // is bitwise identical to the eager sequence walk, both directions, at
  // frame counts whose input-projection chunks end in every shape: one
  // chunk (1, 5), a 1-frame tail joined into a 17-frame chunk (17, 33),
  // and 2- and 15-frame last chunks (18, 31).
  const std::size_t in = 10, hidden = 6;
  QuantSpec q2;
  q2.weight_bits = 2;
  for (const QuantSpec& spec : {QuantSpec{}, q2}) {
    ExecContext ctx;
    const Lstm lstm(make_lstm_cell(in, hidden, 9, spec, &ctx));
    for (const std::size_t frames : {1u, 5u, 17u, 18u, 31u, 33u}) {
      Rng rng(5 + frames);
      const Matrix x = Matrix::random_normal(in, frames, rng);

      ModelPlanner planner;
      ModulePlanContext mpc(planner, ctx, frames);
      const LstmCell::ScanPlan scan = lstm.cell().plan_scan(mpc);
      scan.release(mpc);
      std::vector<float> arena(planner.peak_floats(), 0.0f);

      Matrix eager(hidden, frames), planned(hidden, frames);
      lstm.forward(x, eager);
      scan.run(arena.data(), x, planned, /*reverse=*/false);
      EXPECT_EQ(max_abs_diff(planned, eager), 0.0f)
          << "bits=" << spec.weight_bits << " frames=" << frames;

      lstm.forward_reverse(x, eager);
      scan.run(arena.data(), x, planned, /*reverse=*/true);
      EXPECT_EQ(max_abs_diff(planned, eager), 0.0f)
          << "bits=" << spec.weight_bits << " frames=" << frames
          << " reverse";
    }
  }
}

TEST(Lstm, ChunkedScanTracksThePerFrameStep) {
  // The chunked input projection computes the same recurrence as the
  // single-frame step (only the projection's batch width differs), so a
  // multi-chunk scan stays within fp32 rounding of step-by-step walking.
  const std::size_t in = 10, hidden = 6, frames = 35;
  const Lstm lstm(make_lstm_cell(in, hidden, 9, {}));
  Rng rng(8);
  const Matrix x = Matrix::random_normal(in, frames, rng);
  Matrix scanned(hidden, frames);
  lstm.forward(x, scanned);
  std::vector<float> h(hidden, 0.0f), c(hidden, 0.0f);
  for (std::size_t t = 0; t < frames; ++t) {
    lstm.cell().step(x.col(t), h.data(), c.data());
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_NEAR(scanned(i, t), h[i], 1e-5f) << "t=" << t << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace biq::nn

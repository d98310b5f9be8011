#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "nn/transformer.hpp"

namespace biq::nn {
namespace {

TransformerConfig tiny() {
  TransformerConfig cfg;
  cfg.hidden = 32;
  cfg.ffn = 64;
  cfg.heads = 4;
  cfg.layers = 2;
  return cfg;
}

TEST(Transformer, ConfigPresets) {
  const TransformerConfig base = TransformerConfig::base();
  EXPECT_EQ(base.hidden, 512u);
  EXPECT_EQ(base.ffn, 2048u);
  EXPECT_EQ(base.layers, 6u);
  const TransformerConfig big = TransformerConfig::big();
  EXPECT_EQ(big.hidden, 1024u);
}

TEST(Transformer, ForwardPreservesShapeAndIsFinite) {
  const TransformerEncoder enc = make_encoder(tiny(), 42, {});
  Rng rng(1);
  Matrix x = Matrix::random_normal(32, 6, rng);
  enc.forward(x);
  EXPECT_EQ(x.rows(), 32u);
  EXPECT_EQ(x.cols(), 6u);
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t i = 0; i < 32; ++i) {
      EXPECT_TRUE(std::isfinite(x(i, c)));
    }
  }
}

TEST(Transformer, SameSeedSameOutput) {
  const TransformerEncoder a = make_encoder(tiny(), 7, {});
  const TransformerEncoder b = make_encoder(tiny(), 7, {});
  Rng rng(2);
  Matrix xa = Matrix::random_normal(32, 4, rng);
  Matrix xb = xa;
  a.forward(xa);
  b.forward(xb);
  EXPECT_EQ(max_abs_diff(xa, xb), 0.0f);
}

TEST(Transformer, DifferentSeedDifferentModel) {
  const TransformerEncoder a = make_encoder(tiny(), 7, {});
  const TransformerEncoder b = make_encoder(tiny(), 8, {});
  Rng rng(3);
  Matrix xa = Matrix::random_normal(32, 4, rng);
  Matrix xb = xa;
  a.forward(xa);
  b.forward(xb);
  EXPECT_GT(max_abs_diff(xa, xb), 1e-3f);
}

TEST(Transformer, QuantizedTracksFloatAndImprovesWithBits) {
  const TransformerEncoder fp = make_encoder(tiny(), 11, {});
  Rng rng(4);
  Matrix x_ref = Matrix::random_normal(32, 5, rng);

  double prev_err = 1e18;
  for (unsigned bits : {1u, 2u, 3u}) {
    QuantSpec spec;
    spec.weight_bits = bits;
    const TransformerEncoder q = make_encoder(tiny(), 11, spec);
    Matrix x_fp = x_ref;
    Matrix x_q = x_ref;
    fp.forward(x_fp);
    q.forward(x_q);
    const double err = rel_fro_error(x_q, x_fp);
    EXPECT_LT(err, prev_err * 1.05) << "bits=" << bits;  // allow fp noise
    prev_err = err;
  }
  // 3-bit should track the float model reasonably (LayerNorm keeps
  // activations bounded; the paper's claim is <=0.5 BLEU at 3 bits).
  EXPECT_LT(prev_err, 0.6);
}

TEST(Transformer, QuantizedWeightsCompressStorage) {
  QuantSpec spec;
  spec.weight_bits = 2;
  const TransformerEncoder fp = make_encoder(tiny(), 13, {});
  const TransformerEncoder q = make_encoder(tiny(), 13, spec);
  EXPECT_EQ(q.layer_count(), 2u);
  // 2-bit packing compresses ~16x; per-row scales cost a bit of that on
  // these deliberately tiny layers (hidden=32), leaving >= 8x.
  EXPECT_LT(q.weight_bytes() * 8, fp.weight_bytes());
}

TEST(FeedForward, RejectsNonTransposedShapes) {
  Rng rng(5);
  auto up = std::make_unique<Linear>(Matrix::random_normal(16, 8, rng),
                                     std::vector<float>());
  auto down_bad = std::make_unique<Linear>(Matrix::random_normal(8, 12, rng),
                                           std::vector<float>());
  EXPECT_THROW(FeedForward(std::move(up), std::move(down_bad)),
               std::invalid_argument);
}

TEST(EncoderLayer, RejectsSubBlocksOfAnotherWidth) {
  // The planned layer folds both LayerNorms into the sub-blocks' output
  // projections, which needs attention and FFN to be `hidden` wide.
  Rng rng(6);
  const auto square = [&](std::size_t n) {
    return std::make_unique<Linear>(Matrix::random_normal(n, n, rng),
                                    std::vector<float>());
  };
  const auto ffn = [&](std::size_t n) {
    return FeedForward(
        std::make_unique<Linear>(Matrix::random_normal(2 * n, n, rng),
                                 std::vector<float>()),
        std::make_unique<Linear>(Matrix::random_normal(n, 2 * n, rng),
                                 std::vector<float>()));
  };
  const auto attention = [&](std::size_t n) {
    return MultiHeadAttention(square(n), square(n), square(n), square(n), 2);
  };
  EXPECT_THROW(EncoderLayer(attention(8), ffn(8), 16), std::invalid_argument);
  EXPECT_THROW(EncoderLayer(attention(16), ffn(8), 16), std::invalid_argument);
  EXPECT_NO_THROW(EncoderLayer(attention(16), ffn(16), 16));
}

TEST(FeedForward, AppliesActivationBetweenLayers) {
  // up = I, down = I, relu in between: negative inputs clamp to 0.
  const std::size_t d = 4;
  Matrix ident(d, d);
  for (std::size_t i = 0; i < d; ++i) ident(i, i) = 1.0f;
  FeedForward ffn(std::make_unique<Linear>(ident, std::vector<float>()),
                  std::make_unique<Linear>(ident, std::vector<float>()),
                  Act::kRelu);
  Matrix x(d, 1);
  x(0, 0) = -5.0f;
  x(1, 0) = 2.0f;
  Matrix y(d, 1);
  ffn.forward(x, y);
  EXPECT_NEAR(y(0, 0), 0.0f, 1e-5f);
  EXPECT_NEAR(y(1, 0), 2.0f, 1e-5f);
}

TEST(Transformer, ModuleInterfaceShapes) {
  const TransformerEncoder enc = make_encoder(tiny(), 3, {});
  EXPECT_EQ(enc.in_rows(), 32u);
  EXPECT_EQ(enc.out_shape({32, 6}).rows, 32u);
  EXPECT_THROW((void)enc.out_shape({16, 6}), std::invalid_argument);

  const EncoderLayer& layer = enc.layers().front();
  EXPECT_EQ(layer.in_rows(), 32u);
  EXPECT_EQ(layer.out_shape({32, 6}).rows, 32u);

  const FeedForward& ffn = layer.ffn();
  EXPECT_EQ(ffn.in_rows(), 32u);
  EXPECT_EQ(ffn.out_shape({32, 6}).rows, 32u);
  EXPECT_THROW((void)ffn.out_shape({64, 6}), std::invalid_argument);
}

TEST(Transformer, TwoArgForwardMatchesInPlaceForward) {
  // The PlannableModule eager form (x -> y) must match the historical
  // in-place form bitwise, for the stack and for a single layer.
  const TransformerEncoder enc = make_encoder(tiny(), 42, {});
  Rng rng(2);
  const Matrix x = Matrix::random_normal(32, 6, rng);

  Matrix in_place = x;
  enc.forward(in_place);
  Matrix out(32, 6);
  enc.forward(x, out);
  EXPECT_EQ(max_abs_diff(out, in_place), 0.0f);

  Matrix layer_in_place = x;
  enc.layers().front().forward(layer_in_place);
  Matrix layer_out(32, 6);
  enc.layers().front().forward(x, layer_out);
  EXPECT_EQ(max_abs_diff(layer_out, layer_in_place), 0.0f);
}

}  // namespace
}  // namespace biq::nn

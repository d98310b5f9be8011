#include "nn/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/tensor.hpp"

namespace biq::nn {
namespace {

/// The one chunk walk every scan, eager or planned, runs over a
/// `frames`-long sequence: chunk k covers frames [16k, 16k + width),
/// width kScanChunk except the last, which takes the remainder (a
/// 1-frame remainder joins the chunk before it). In scan order —
/// chunks and the frames inside them last to first when `reverse` —
/// it calls project(first frame, width) once per chunk, then
/// step(frame, column of the frame within its chunk) per frame.
template <typename Project, typename Step>
void scan_chunks(std::size_t frames, bool reverse, Project&& project,
                 Step&& step) {
  const std::size_t nchunks =
      frames == 0 ? 0
                  : std::max<std::size_t>(
                        1, (frames + kScanChunk - 2) / kScanChunk);
  for (std::size_t i = 0; i < nchunks; ++i) {
    const std::size_t k = reverse ? nchunks - 1 - i : i;
    const std::size_t s0 = k * kScanChunk;
    const std::size_t width = k + 1 == nchunks ? frames - s0 : kScanChunk;
    project(s0, width);
    for (std::size_t j = 0; j < width; ++j) {
      const std::size_t col = reverse ? width - 1 - j : j;
      step(s0 + col, col);
    }
  }
}

/// Widest chunk scan_chunks cuts a `frames`-long sequence into.
std::size_t widest_chunk(std::size_t frames) {
  std::size_t widest = 0;
  scan_chunks(frames, false,
              [&](std::size_t, std::size_t w) { widest = std::max(widest, w); },
              [](std::size_t, std::size_t) {});
  return widest;
}

/// Eager scan of a whole sequence, x: in x T -> h_out: h x T, from zero
/// state; reverse runs t = T-1 .. 0. The reference the frozen ScanPlan
/// replays bitwise: same chunks, same arithmetic, through the layers'
/// own eager forwards.
void eager_scan(const LstmCell& cell, ConstMatrixView x, MatrixView h_out,
                bool reverse) {
  const std::size_t hidden = cell.hidden_size();
  const std::size_t frames = x.cols();
  Matrix gx(4 * hidden, widest_chunk(frames), /*zero_fill=*/false);
  Matrix gh(4 * hidden, 1, /*zero_fill=*/false);
  std::vector<float> h(hidden, 0.0f), c(hidden, 0.0f);
  const ConstMatrixView hin(h.data(), hidden, 1, hidden);
  scan_chunks(
      frames, reverse,
      [&](std::size_t s0, std::size_t width) {
        cell.wx().forward(x.col_block(s0, width), gx.col_block(0, width));
      },
      [&](std::size_t t, std::size_t col) {
        cell.wh().forward(hin, gh);
        cell.combine_preactivations(gx.col(col), gh.col(0));
        cell.apply_gates(gh.col(0), h.data(), c.data());
        float* out = h_out.col(t);
        for (std::size_t i = 0; i < hidden; ++i) out[i] = h[i];
      });
}

}  // namespace

LstmCell::LstmCell(std::unique_ptr<LinearLayer> input_proj,
                   std::unique_ptr<LinearLayer> recurrent_proj,
                   std::vector<float> bias)
    : in_(input_proj->in_features()),
      hidden_(recurrent_proj->in_features()),
      wx_(std::move(input_proj)), wh_(std::move(recurrent_proj)),
      bias_(std::move(bias)) {
  if (wx_->out_features() != 4 * hidden_ || wh_->out_features() != 4 * hidden_) {
    throw std::invalid_argument("LstmCell: projections must output 4*hidden");
  }
  if (bias_.size() != 4 * hidden_) {
    throw std::invalid_argument("LstmCell: bias must have length 4*hidden");
  }
}

void LstmCell::step(const float* x_t, float* h, float* c) const {
  // Single-column matmuls: the b == 1 (GEMV) path of the engines. The
  // caller's buffers are viewed in place — no staging copies — and
  // bound-context projections run their cached single-column plan.
  const ConstMatrixView xin(x_t, in_, 1, in_);
  const ConstMatrixView hin(h, hidden_, 1, hidden_);

  Matrix gx(4 * hidden_, 1, /*zero_fill=*/false);
  Matrix gh(4 * hidden_, 1, /*zero_fill=*/false);
  wx_->forward(xin, gx);
  wh_->forward(hin, gh);
  combine_preactivations(gx.col(0), gh.col(0));
  apply_gates(gh.col(0), h, c);
}

void LstmCell::combine_preactivations(const float* px,
                                      float* ph) const noexcept {
  // (ph + bias) + px, NOT px + ph + bias: the planned scan's recurrent
  // GEMV epilogue adds the bias first and the px residual second.
  for (std::size_t j = 0; j < 4 * hidden_; ++j) {
    ph[j] = (ph[j] + bias_[j]) + px[j];
  }
}

void LstmCell::apply_gates(const float* pre, float* h,
                           float* c) const noexcept {
  for (std::size_t j = 0; j < hidden_; ++j) {
    const float gi = sigmoid(pre[j]);
    const float gf = sigmoid(pre[hidden_ + j]);
    const float gg = std::tanh(pre[2 * hidden_ + j]);
    const float go = sigmoid(pre[3 * hidden_ + j]);
    c[j] = gf * c[j] + gi * gg;
    h[j] = go * std::tanh(c[j]);
  }
}

LstmCell::ScanPlan LstmCell::plan_scan(ModulePlanContext& mpc) const {
  const std::size_t frames = mpc.batch();
  ScanPlan p;
  p.cell_ = this;
  p.sgx_ = mpc.acquire(4 * hidden_, widest_chunk(frames));
  p.sgh_ = mpc.acquire(4 * hidden_, 1);
  p.sh_ = mpc.acquire(hidden_, 1);
  p.sc_ = mpc.acquire(hidden_, 1);
  scan_chunks(
      frames, false,
      [&](std::size_t, std::size_t width) {
        LinearPlan& plan = width == kScanChunk ? p.wx_chunk_ : p.wx_tail_;
        if (plan.batch() != width) plan = LinearPlan(*wx_, width, mpc.exec());
      },
      [](std::size_t, std::size_t) {});
  // The recurrent layer carries no bias of its own, so the cell's gate
  // bias rides its plan as an override, and the frame's column of the
  // chunk projection arrives as the run-time residual:
  // gh = (Wh.h + bias) + gx in the GEMV's epilogue.
  LinearFusion fusion;
  fusion.residual = true;
  fusion.bias = &bias_;
  p.wh_ = LinearPlan(*wh_, 1, mpc.exec(), fusion);
  return p;
}

void LstmCell::ScanPlan::release(ModulePlanContext& mpc) const {
  mpc.release(sgx_);
  mpc.release(sgh_);
  mpc.release(sh_);
  mpc.release(sc_);
}

void LstmCell::ScanPlan::run(float* base, ConstMatrixView x, MatrixView y,
                             bool reverse) const {
  const MatrixView gx = sgx_.view(base);
  const MatrixView gh = sgh_.view(base);
  const MatrixView h = sh_.view(base);
  const MatrixView c = sc_.view(base);
  h.set_zero();
  c.set_zero();
  const std::size_t hidden = cell_->hidden_size();
  scan_chunks(
      x.cols(), reverse,
      [&](std::size_t s0, std::size_t width) {
        wx_for(width).run(x.col_block(s0, width), gx.col_block(0, width));
      },
      [&](std::size_t t, std::size_t col) {
        // gh = (Wh.h + bias) + gx(:, col), one fused pass
        wh_.run(h, gh, gx.col_block(col, 1));
        cell_->apply_gates(gh.col(0), h.col(0), c.col(0));
        float* out = y.col(t);
        const float* hp = h.col(0);
        for (std::size_t i = 0; i < hidden; ++i) out[i] = hp[i];
      });
}

namespace {

class LstmStep final : public ModuleStep {
 public:
  explicit LstmStep(LstmCell::ScanPlan scan) : scan_(std::move(scan)) {}

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    scan_.run(base, x, y, /*reverse=*/false);
  }

 private:
  LstmCell::ScanPlan scan_;
};

class BiLstmStep final : public ModuleStep {
 public:
  BiLstmStep(LstmCell::ScanPlan fw, LstmCell::ScanPlan bw, std::size_t hidden)
      : fw_(std::move(fw)), bw_(std::move(bw)), hidden_(hidden) {}

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    fw_.run(base, x, y.block(0, hidden_, 0, y.cols()), /*reverse=*/false);
    bw_.run(base, x, y.block(hidden_, hidden_, 0, y.cols()), /*reverse=*/true);
  }

 private:
  LstmCell::ScanPlan fw_, bw_;
  std::size_t hidden_;
};

}  // namespace

Shape Lstm::out_shape(Shape in) const {
  check_in_rows(in, "Lstm");
  return {cell_.hidden_size(), in.cols};
}

std::unique_ptr<ModuleStep> Lstm::plan_into(ModulePlanContext& mpc) const {
  LstmCell::ScanPlan scan = cell_.plan_scan(mpc);
  scan.release(mpc);  // state slots live only while this step runs
  return std::make_unique<LstmStep>(std::move(scan));
}

Shape BiLstm::out_shape(Shape in) const {
  check_in_rows(in, "BiLstm");
  return {2 * hidden_size(), in.cols};
}

std::unique_ptr<ModuleStep> BiLstm::plan_into(ModulePlanContext& mpc) const {
  // The directions run sequentially, so the backward scan's slots reuse
  // the forward scan's released storage.
  LstmCell::ScanPlan fw = fw_.cell().plan_scan(mpc);
  fw.release(mpc);
  LstmCell::ScanPlan bw = bw_.cell().plan_scan(mpc);
  bw.release(mpc);
  return std::make_unique<BiLstmStep>(std::move(fw), std::move(bw),
                                      hidden_size());
}

void Lstm::forward(ConstMatrixView x, MatrixView h_out) const {
  const std::size_t hidden = cell_.hidden_size();
  if (x.rows() != cell_.input_size() || h_out.rows() != hidden ||
      h_out.cols() != x.cols()) {
    throw std::invalid_argument("Lstm::forward: shape mismatch");
  }
  eager_scan(cell_, x, h_out, /*reverse=*/false);
}

void Lstm::forward_reverse(ConstMatrixView x, MatrixView h_out) const {
  const std::size_t hidden = cell_.hidden_size();
  if (x.rows() != cell_.input_size() || h_out.rows() != hidden ||
      h_out.cols() != x.cols()) {
    throw std::invalid_argument("Lstm::forward_reverse: shape mismatch");
  }
  eager_scan(cell_, x, h_out, /*reverse=*/true);
}

BiLstm::BiLstm(LstmCell forward_cell, LstmCell backward_cell)
    : fw_(std::move(forward_cell)), bw_(std::move(backward_cell)) {
  if (fw_.cell().hidden_size() != bw_.cell().hidden_size() ||
      fw_.cell().input_size() != bw_.cell().input_size()) {
    throw std::invalid_argument("BiLstm: direction shape mismatch");
  }
}

void BiLstm::forward(ConstMatrixView x, MatrixView h_out) const {
  const std::size_t hidden = hidden_size();
  if (h_out.rows() != 2 * hidden || h_out.cols() != x.cols()) {
    throw std::invalid_argument("BiLstm::forward: shape mismatch");
  }
  Matrix hf(hidden, x.cols(), /*zero_fill=*/false);
  Matrix hb(hidden, x.cols(), /*zero_fill=*/false);
  fw_.forward(x, hf);
  bw_.forward_reverse(x, hb);
  for (std::size_t t = 0; t < x.cols(); ++t) {
    float* out = h_out.col(t);
    const float* f = hf.col(t);
    const float* b = hb.col(t);
    for (std::size_t i = 0; i < hidden; ++i) out[i] = f[i];
    for (std::size_t i = 0; i < hidden; ++i) out[hidden + i] = b[i];
  }
}

LstmCell make_lstm_cell(std::size_t input, std::size_t hidden,
                        std::uint64_t seed, const QuantSpec& spec,
                        ExecContext* ctx) {
  Rng rng(seed);
  Matrix wx = xavier_uniform(4 * hidden, input, rng);
  Matrix wh = xavier_uniform(4 * hidden, hidden, rng);
  std::vector<float> bias(4 * hidden, 0.0f);
  // Standard trick: forget-gate bias starts at 1 for stable gradients —
  // kept here so float and quantized cells match common checkpoints.
  for (std::size_t j = 0; j < hidden; ++j) bias[hidden + j] = 1.0f;

  auto wx_layer = make_linear(wx, std::vector<float>(), spec.weight_bits,
                              spec.method, spec.kernel, ctx);
  auto wh_layer = make_linear(wh, std::vector<float>(), spec.weight_bits,
                              spec.method, spec.kernel, ctx);
  return LstmCell(std::move(wx_layer), std::move(wh_layer), std::move(bias));
}

}  // namespace biq::nn

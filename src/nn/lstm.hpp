// LSTM with pluggable projection engines — the ASR workload of the
// paper's Sec. II-C (LAS-style bi-directional encoders with (2.5K x 5K)
// weight matrices). Both projections of all four gates run through
// LinearLayer, i.e. as BiQGEMM when quantized; gate non-linearities stay
// fp32. The input projection does not depend on the recurrence, so a
// scan runs it as a batched GEMM over chunks of kScanChunk frames; only
// the recurrent projection is a per-frame GEMV.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "matrix/matrix.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace biq::nn {

/// Frames per input-projection chunk of a scan: one AVX-512 batch tile
/// or two AVX2 ones, so the chunk GEMM runs full-width LUT tiles. A
/// 1-frame tail joins the previous chunk (a 17-frame last chunk), so no
/// frame of a sequence longer than one frame is projected alone by a
/// GEMV. A constant, not an option: every scan, eager or planned,
/// chunks the same way.
inline constexpr std::size_t kScanChunk = 16;

/// Single LSTM cell. Gate layout along the 4h output rows: input i,
/// forget f, candidate g, output o (rows [0,h), [h,2h), [2h,3h), [3h,4h)).
class LstmCell {
 public:
  /// One direction's frozen scan over a sequence: the input-projection
  /// chunk plans (kScanChunk frames wide, plus the last chunk's width),
  /// the recurrent GEMV plan, and planner slots for one chunk's gate
  /// input projections (4h x widest chunk), the recurrent
  /// pre-activations and the h/c state. Built by plan_scan(); the
  /// Lstm/BiLstm module steps replay it (reverse scans run
  /// t = T-1 .. 0, chunks last to first).
  class ScanPlan {
   public:
    ScanPlan() = default;

    /// Returns the scan's slots to the planner (they are live only
    /// while the owning module's step runs).
    void release(ModulePlanContext& mpc) const;

    /// x: in x T -> y: h x T, through the frozen plans and the same
    /// apply_gates() tail as the eager scan; per chunk, one GEMM
    /// projects the chunk's frames, then each frame's column of it rides
    /// the recurrent GEMV's epilogue as the residual, after the gate
    /// bias.
    void run(float* base, ConstMatrixView x, MatrixView y,
             bool reverse) const;

   private:
    friend class LstmCell;
    [[nodiscard]] const LinearPlan& wx_for(std::size_t width) const noexcept {
      return width == kScanChunk ? wx_chunk_ : wx_tail_;
    }

    const LstmCell* cell_ = nullptr;
    LinearPlan wx_chunk_;  // kScanChunk-frame chunks
    LinearPlan wx_tail_;   // a last chunk of any other width
    LinearPlan wh_;
    ModelSlot sgx_;        // 4h x widest chunk: input projections
    ModelSlot sgh_;        // 4h x 1 recurrent pre-activations
    ModelSlot sh_, sc_;    // h x 1 hidden / cell state
  };

  /// input_proj: (4h x in), recurrent_proj: (4h x h), bias length 4h.
  LstmCell(std::unique_ptr<LinearLayer> input_proj,
           std::unique_ptr<LinearLayer> recurrent_proj,
           std::vector<float> bias);

  [[nodiscard]] std::size_t input_size() const noexcept { return in_; }
  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_; }
  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    return wx_->weight_bytes() + wh_->weight_bytes();
  }

  /// One time step: consumes x_t (length in), updates h and c (length h)
  /// in place. (Sequence scans — Lstm::forward and the planned
  /// ScanPlan — project their input in kScanChunk-frame chunks instead.)
  void step(const float* x_t, float* h, float* c) const;

  /// Combines the two projections into the gate pre-activations, in
  /// place on ph: ph[j] = (ph[j] + bias[j]) + px[j] — the exact
  /// arithmetic order of the planned scan, where the gate bias and the
  /// px residual ride the recurrent GEMV's epilogue, so the eager step
  /// and the planned scan are bitwise identical.
  void combine_preactivations(const float* px, float* ph) const noexcept;

  /// The gate non-linearities over the COMBINED pre-activations
  /// pre = (Wh.h + bias) + Wx.x_t (length 4h), updating h and c in
  /// place — the shared tail of the eager step and the planned scan.
  void apply_gates(const float* pre, float* h, float* c) const noexcept;

  /// Projection layers and bias, for planners freezing the step.
  [[nodiscard]] const LinearLayer& wx() const noexcept { return *wx_; }
  [[nodiscard]] const LinearLayer& wh() const noexcept { return *wh_; }
  [[nodiscard]] const std::vector<float>& gate_bias() const noexcept {
    return bias_;
  }

  /// Freezes one direction's scan over mpc.batch() frames: acquires the
  /// gate/state slots, the input-projection chunk plans and the
  /// recurrent GEMV plan. The slots are left LIVE — the caller releases
  /// via ScanPlan::release() once dependent layouts are done.
  [[nodiscard]] ScanPlan plan_scan(ModulePlanContext& mpc) const;

 private:
  std::size_t in_, hidden_;
  std::unique_ptr<LinearLayer> wx_, wh_;
  std::vector<float> bias_;
};

/// Unidirectional layer: runs the cell over a sequence.
class Lstm final : public PlannableModule {
 public:
  explicit Lstm(LstmCell cell) : cell_(std::move(cell)) {}

  /// x: in x T, h_out: hidden x T (overwritten; h_out[:, t] is the
  /// hidden state after step t). Initial h, c are zero. Strided views —
  /// a window of a longer sequence buffer forwards without copies
  /// (matching LinearLayer); Matrix arguments convert implicitly.
  void forward(ConstMatrixView x, MatrixView h_out) const override;

  /// Reverse-time variant (scans t = T-1 .. 0).
  void forward_reverse(ConstMatrixView x, MatrixView h_out) const;

  [[nodiscard]] const LstmCell& cell() const noexcept { return cell_; }

  /// PlannableModule: the frozen step is one cell scan (internal slots:
  /// one chunk's input projections, the recurrent pre-activations and
  /// the h/c state, reused across all T steps).
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return cell_.input_size();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;
  [[nodiscard]] std::unique_ptr<ModuleStep> plan_into(
      ModulePlanContext& mpc) const override;

 private:
  LstmCell cell_;
};

/// Bidirectional layer: concatenates forward and backward hidden states
/// to 2h x T (the LAS encoder building block).
class BiLstm final : public PlannableModule {
 public:
  BiLstm(LstmCell forward_cell, LstmCell backward_cell);

  /// x: in x T, h_out: 2h x T (overwritten). Strided views; Matrix
  /// arguments convert implicitly.
  void forward(ConstMatrixView x, MatrixView h_out) const override;

  /// PlannableModule: two cell scans run sequentially, so the backward
  /// scan's slots reuse the forward scan's released storage — the arena
  /// is one scan's chunk, gate and state slots, bounded by the chunk
  /// width whatever the frame count.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return fw_.cell().input_size();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;
  [[nodiscard]] std::unique_ptr<ModuleStep> plan_into(
      ModulePlanContext& mpc) const override;

  [[nodiscard]] std::size_t hidden_size() const noexcept {
    return fw_.cell().hidden_size();
  }
  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    return fw_.cell().weight_bytes() + bw_.cell().weight_bytes();
  }

  /// Per-direction layers, for planners freezing the whole pass.
  [[nodiscard]] const Lstm& forward_layer() const noexcept { return fw_; }
  [[nodiscard]] const Lstm& backward_layer() const noexcept { return bw_; }

 private:
  Lstm fw_, bw_;
};

/// Deterministic factory (same convention as make_encoder): identical
/// fp32 weights for any spec with the same seed. `ctx` (not owned, may
/// be nullptr) binds both projections' execution context, so the cell's
/// GEMVs thread and reuse scratch through one shared context.
[[nodiscard]] LstmCell make_lstm_cell(std::size_t input, std::size_t hidden,
                                      std::uint64_t seed, const QuantSpec& spec,
                                      ExecContext* ctx = nullptr);

}  // namespace biq::nn

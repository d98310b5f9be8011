#include "core/biqgemm_grouped.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "engine/dispatch.hpp"
#include "engine/partition.hpp"
#include "engine/plan_driver.hpp"

namespace biq {
namespace {

/// Stages x rows [t0*mu, (t0+tcount)*mu) x columns [c0, c0+cols) into
/// the interleaved layout, zero-padded past n and in the pad lanes
/// [cols, lanes) of a partial batch tile.
void stage_x(ConstMatrixView x, std::size_t c0, std::size_t cols,
             std::size_t lanes, std::size_t t0, std::size_t tcount,
             unsigned mu, float* xt) {
  const std::size_t n = x.rows();
  for (std::size_t g = 0; g < tcount; ++g) {
    for (unsigned j = 0; j < mu; ++j) {
      const std::size_t row = (t0 + g) * mu + j;
      float* dst = xt + (g * mu + j) * lanes;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        dst[lane] = row < n && lane < cols ? x(row, c0 + lane) : 0.0f;
      }
    }
  }
}

}  // namespace

BiqGemmGrouped::BiqGemmGrouped(const GroupedBinaryCodes& codes,
                               const BiqGemmOptions& opt)
    : m_(codes.rows), n_(codes.cols), bits_(codes.bits),
      group_size_(codes.group_size), num_groups_(codes.num_groups),
      opt_(opt), kernels_(&engine::select_kernels(opt.isa)),
      alphas_(codes.alphas) {
  if (bits_ == 0 || codes.planes.size() != bits_) {
    throw std::invalid_argument("BiqGemmGrouped: malformed codes");
  }
  if (opt_.mu == 0 || opt_.mu > kMaxLutUnit) {
    throw std::invalid_argument("BiqGemmGrouped: mu must be in [1, 16]");
  }
  if (group_size_ % opt_.mu != 0) {
    throw std::invalid_argument(
        "BiqGemmGrouped: group_size must be a multiple of mu");
  }
  tables_per_group_ = group_size_ / opt_.mu;
  keys_.reserve(bits_);
  for (unsigned q = 0; q < bits_; ++q) {
    keys_.emplace_back(codes.planes[q], opt_.mu);
  }
}

std::string_view BiqGemmGrouped::isa() const noexcept { return kernels_->isa; }

std::size_t BiqGemmGrouped::packed_weight_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const KeyMatrix& k : keys_) bytes += k.storage_bytes();
  for (const auto& a : alphas_) bytes += a.size() * sizeof(float);
  return bytes;
}

namespace {

/// Frozen geometry of one (batch, context) grouped execution. One LUT
/// tile per scale group: the group's tables are accumulated and scaled
/// in a single query_tile invocation — the per-(row, group) scale rides
/// in through QueryTileArgs::alpha_stride / alpha_offset.
class GroupedPlan final : public GemmPlan {
 public:
  GroupedPlan(const BiqGemmGrouped& engine, const std::vector<KeyMatrix>& keys,
              const std::vector<std::vector<float>>& alphas, unsigned bits,
              std::size_t num_groups, std::size_t tables_per_group,
              const BiqGemmOptions& opt, const engine::BiqKernels& kernels,
              std::size_t batch, ExecContext& ctx, const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        keys_(&keys), alphas_(&alphas), kernels_(&kernels), bits_(bits),
        num_groups_(num_groups), tables_per_group_(tables_per_group),
        mu_(opt.mu), row_block_(opt.row_block),
        ntables_(table_count(engine.cols(), opt.mu)),
        entries_(std::size_t{1} << opt.mu), lanes_(kernels.query_lanes),
        ntiles_((batch + lanes_ - 1) / lanes_) {}

 private:
  // One scratch layout shared by the real tiles and the arena pre-warm,
  // so the warm-path guarantee can't drift out of sync with the sizes.
  struct Scratch {
    float* xt;
    float* lut;
    float* ytile;
  };

  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    run_body(x, nullptr, y, ep);
  }

  [[nodiscard]] PrepKey do_prep_key() const noexcept override {
    // Same "biq-lut" artifact family (and tile/table layout) as the
    // plain engine's batched path: interleaved build_dp tables over
    // full-width (padded) batch tiles. A plain dp-builder plan with equal
    // mu/lanes/plane therefore shares preps with a grouped plan — the
    // group structure only changes how tables are CHUNKED at query
    // time, never their contents or placement.
    PrepKey key;
    key.kind = "biq-lut";
    key.cols = cols();
    key.batch = batch();
    key.p0 = mu_;
    key.p1 = static_cast<std::uint32_t>(lanes_);
    key.p2 = 2u;  // interleaved kernel build_dp
    key.plane = kernels_;
    return key;
  }

  [[nodiscard]] std::size_t do_prep_floats() const noexcept override {
    return ntables_ * entries_ * ntiles_ * lanes_;
  }

  void do_prepare(ConstMatrixView x, float* prep) const override {
    const std::size_t b = batch();
    struct PrepScratch {
      float* xt;
    };
    engine::drive_batch_tiles(
        context(), ntiles_,
        [&](ScratchArena& arena) {
          return PrepScratch{
              arena.alloc<float>(tables_per_group_ * mu_ * lanes_)};
        },
        [&](PrepScratch& s, std::size_t t, ExecContext* /*row_ctx*/) {
          const std::size_t c0 = t * lanes_;
          const std::size_t cols = std::min(lanes_, b - c0);
          float* block = prep + t * ntables_ * entries_ * lanes_;
          for (std::size_t group = 0; group < num_groups_; ++group) {
            const std::size_t t0 = group * tables_per_group_;
            if (t0 >= ntables_) break;
            const std::size_t tcount = std::min(tables_per_group_,
                                                ntables_ - t0);
            stage_x(x, c0, cols, lanes_, t0, tcount, mu_, s.xt);
            for (std::size_t g = 0; g < tcount; ++g) {
              kernels_->build_dp(s.xt + g * mu_ * lanes_, mu_, lanes_,
                                 block + (t0 + g) * entries_ * lanes_);
            }
          }
        });
  }

  void do_consume(const float* prep, MatrixView y,
                  const EpilogueOp& ep) const override {
    run_body(ConstMatrixView(), prep, y, ep);
  }

  void run_body(ConstMatrixView x, const float* prep, MatrixView y,
                const EpilogueOp& ep) const {
    const std::size_t b = batch();
    const std::size_t m = rows();
    const auto query_fn =
        mu_ > 8 ? kernels_->query_tile_u16 : kernels_->query_tile_u8;

    engine::drive_batch_tiles(
        context(), ntiles_,
        [&](ScratchArena& arena) {
          return Scratch{
              prep == nullptr
                  ? arena.alloc<float>(tables_per_group_ * mu_ * lanes_)
                  : nullptr,
              prep == nullptr
                  ? arena.alloc<float>(tables_per_group_ * entries_ * lanes_)
                  : nullptr,
              arena.alloc<float>(m * lanes_)};
        },
        [&](Scratch& s, std::size_t t, ExecContext* row_ctx) {
          const std::size_t c0 = t * lanes_;
          const std::size_t cols = std::min(lanes_, b - c0);
          const float* block =
              prep == nullptr ? nullptr
                              : prep + t * ntables_ * entries_ * lanes_;
          std::fill(s.ytile, s.ytile + m * lanes_, 0.0f);

          engine::QueryTileArgs q;
          q.keys = keys_->data();
          q.num_planes = bits_;
          q.alphas = alphas_->data();
          q.alpha_stride = num_groups_;
          q.mu = mu_;
          q.lut = s.lut;
          q.ytile = s.ytile;

          for (std::size_t group = 0; group < num_groups_; ++group) {
            const std::size_t t0 = group * tables_per_group_;
            if (t0 >= ntables_) break;
            const std::size_t tcount = std::min(tables_per_group_,
                                                ntables_ - t0);

            if (prep == nullptr) {
              stage_x(x, c0, cols, lanes_, t0, tcount, mu_, s.xt);
              for (std::size_t g = 0; g < tcount; ++g) {
                kernels_->build_dp(s.xt + g * mu_ * lanes_, mu_, lanes_,
                                   s.lut + g * entries_ * lanes_);
              }
            } else {
              q.lut = block + t0 * entries_ * lanes_;
            }

            q.t0 = t0;
            q.tcount = tcount;
            q.alpha_offset = group;
            if (row_ctx != nullptr && row_ctx->worker_count() > 1) {
              engine::for_each_tile(*row_ctx, m, row_block_,
                                    [&](unsigned /*worker*/, std::size_t lo,
                                        std::size_t hi) {
                                      engine::QueryTileArgs part = q;
                                      part.i0 = lo;
                                      part.i1 = hi;
                                      query_fn(part);
                                    });
            } else {
              q.i0 = 0;
              q.i1 = m;
              query_fn(q);
            }
          }

          // Write-back of the real columns (pad lanes dropped) — the
          // fused epilogue merges into the de-interleave itself (see
          // EpilogueOp::apply_interleaved), so fusion costs no extra pass
          // over y.
          if (ep.empty()) {
            for (std::size_t lane = 0; lane < cols; ++lane) {
              float* ycol = y.col(c0 + lane);
              for (std::size_t i = 0; i < m; ++i) {
                ycol[i] = s.ytile[i * lanes_ + lane];
              }
            }
          } else {
            ep.apply_interleaved(y, s.ytile, m, lanes_, c0, cols);
          }
        });
  }

  const std::vector<KeyMatrix>* keys_;
  const std::vector<std::vector<float>>* alphas_;
  const engine::BiqKernels* kernels_;
  unsigned bits_;
  std::size_t num_groups_;
  std::size_t tables_per_group_;
  unsigned mu_;
  std::size_t row_block_;
  std::size_t ntables_;
  std::size_t entries_;
  std::size_t lanes_;   // every batch tile is full width (pad lanes zero)
  std::size_t ntiles_;
};

}  // namespace

std::unique_ptr<GemmPlan> BiqGemmGrouped::plan(std::size_t batch,
                                               ExecContext& ctx,
                                               const Epilogue& epilogue) const {
  const engine::BiqKernels& kernels =
      ctx.isa() == KernelIsa::kAuto ? *kernels_
                                    : engine::select_kernels(ctx.isa());
  return std::make_unique<GroupedPlan>(*this, keys_, alphas_, bits_,
                                       num_groups_, tables_per_group_, opt_,
                                       kernels, batch, ctx, epilogue);
}

}  // namespace biq

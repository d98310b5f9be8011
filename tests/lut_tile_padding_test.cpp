// The LUT engines' padding contract: every batch tile is the kernel
// plane's full query width, a partial last tile is staged with zero pad
// columns, and only real columns are written back. Lanes never mix, so
// a column's result is a function of that column alone — not of the
// batch width, its position in the tile, or what its neighbours hold.
// Checked for biqgemm and biqgemm-grouped on every plane this host runs,
// serial and on two threads, at b = 2..40, through strided windows and
// with empty, bias+GELU+residual and LayerNorm epilogues, and through
// the prepare/consume artifact the two engines share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "threading/thread_pool.hpp"

namespace biq {
namespace {

constexpr std::size_t kRows = 37;  // not a row-block multiple
constexpr std::size_t kCols = 70;  // ragged against mu and the scale groups
constexpr std::size_t kRefWidth = 16;
constexpr std::size_t kMinBatch = 2;
constexpr std::size_t kMaxBatch = 40;

enum class EpKind { kNone, kBiasGeluResidual, kLayerNorm };

struct Fixture {
  std::vector<float> bias, gamma, beta;

  Fixture() : bias(kRows), gamma(kRows), beta(kRows) {
    Rng rng(0xBEEF);
    fill_normal(rng, bias.data(), kRows);
    fill_normal(rng, gamma.data(), kRows);
    fill_normal(rng, beta.data(), kRows);
  }

  [[nodiscard]] Epilogue epilogue(EpKind kind) const {
    Epilogue ep;
    if (kind == EpKind::kBiasGeluResidual) {
      ep.bias = bias.data();
      ep.act = EpilogueAct::kGelu;
      ep.residual = true;
    } else if (kind == EpKind::kLayerNorm) {
      ep.bias = bias.data();
      ep.ln_gamma = gamma.data();
      ep.ln_beta = beta.data();
      ep.ln_dim = kRows;
    }
    return ep;
  }
};

const char* name_of(EpKind kind) {
  switch (kind) {
    case EpKind::kNone: return "no epilogue";
    case EpKind::kBiasGeluResidual: return "bias+gelu+residual";
    case EpKind::kLayerNorm: return "layernorm";
  }
  return "";
}

std::vector<KernelIsa> host_planes() {
  std::vector<KernelIsa> planes;
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (engine::isa_available(isa)) planes.push_back(isa);
  }
  return planes;
}

void run_plan(const GemmPlan& plan, ConstMatrixView x, MatrixView y,
              ConstMatrixView residual) {
  if (plan.epilogue().residual) {
    plan.run(x, y, residual);
  } else {
    plan.run(x, y);
  }
}

bool same_bits(const float* a, const float* b) {
  return std::memcmp(a, b, kRows * sizeof(float)) == 0;
}

/// A rows x cols random operand stored as a window of a larger buffer
/// (row offset 3, column offset 2, leading dimension rows + 5) — engines
/// must honour the stride on the staging and write-back sides alike.
struct Window {
  Matrix storage;
  MatrixView view;
  Window(std::size_t rows, std::size_t cols, Rng& rng)
      : storage(Matrix::random_normal(rows + 5, cols + 4, rng)),
        view(storage.view().block(3, rows, 2, cols)) {}
};

class LutTilePadding : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Rng rng(0x51DE);
    w_ = Matrix::random_normal(kRows, kCols, rng);
    EngineConfig cfg;
    cfg.weight_bits = 2;
    engine_ = make_engine(GetParam(), w_, cfg);
  }

  Matrix w_;
  std::unique_ptr<GemmEngine> engine_;
  Fixture fx_;
};

TEST_P(LutTilePadding, EveryColumnEqualsItsWidth16Twin) {
  ThreadPool pool(2);
  Rng rng(0xC0105);
  for (const KernelIsa isa : host_planes()) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ExecContext ctx(p, isa);
      for (const EpKind kind :
           {EpKind::kNone, EpKind::kBiasGeluResidual, EpKind::kLayerNorm}) {
        const Epilogue ep = fx_.epilogue(kind);
        const auto ref_plan = engine_->plan(kRefWidth, ctx, ep);
        for (std::size_t b = kMinBatch; b <= kMaxBatch; ++b) {
          SCOPED_TRACE(std::string(name_of(kind)) + " b=" +
                       std::to_string(b) + " threads=" +
                       std::to_string(ctx.worker_count()) +
                       " plane=" + std::to_string(static_cast<int>(isa)));
          Window x(kCols, b, rng), res(kRows, b, rng), y(kRows, b, rng);
          run_plan(*engine_->plan(b, ctx, ep), x.view, y.view, res.view);

          // Each block of up to 16 columns reruns inside a width-16 call,
          // rotated by `shift` so columns change tile position, with
          // random filler in the slots no real column takes.
          const std::size_t shift = b % kRefWidth;
          for (std::size_t c0 = 0; c0 < b; c0 += kRefWidth) {
            Matrix xr = Matrix::random_normal(kCols, kRefWidth, rng);
            Matrix rr = Matrix::random_normal(kRows, kRefWidth, rng);
            Matrix yr(kRows, kRefWidth);
            const auto slot = [&](std::size_t c) {
              return (c - c0 + shift) % kRefWidth;
            };
            const std::size_t c1 = std::min(b, c0 + kRefWidth);
            for (std::size_t c = c0; c < c1; ++c) {
              std::memcpy(xr.col(slot(c)), x.view.col(c),
                          kCols * sizeof(float));
              std::memcpy(rr.col(slot(c)), res.view.col(c),
                          kRows * sizeof(float));
            }
            run_plan(*ref_plan, xr, yr, rr);
            for (std::size_t c = c0; c < c1; ++c) {
              EXPECT_TRUE(same_bits(y.view.col(c), yr.col(slot(c))))
                  << "column " << c;
            }
          }
        }
      }
    }
  }
}

TEST_P(LutTilePadding, PoisonedColumnLeavesEveryNeighbourBitwiseClean) {
  // A NaN entry, or a column of +-3e38 (its LUT sums overflow), may
  // wreck its own column but no other: the server batches independent
  // requests side by side on exactly this guarantee.
  ThreadPool pool(2);
  Rng rng(0xBAD);
  const float kHuge = 3e38f;
  for (const KernelIsa isa : host_planes()) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ExecContext ctx(p, isa);
      for (const EpKind kind :
           {EpKind::kNone, EpKind::kBiasGeluResidual, EpKind::kLayerNorm}) {
        const Epilogue ep = fx_.epilogue(kind);
        for (std::size_t b = kMinBatch; b <= kMaxBatch; ++b) {
          const std::size_t bad = b * 2 / 3;  // moves through the tile
          SCOPED_TRACE(std::string(name_of(kind)) + " b=" +
                       std::to_string(b) + " bad column " +
                       std::to_string(bad));
          const auto plan = engine_->plan(b, ctx, ep);
          Window x(kCols, b, rng), res(kRows, b, rng), clean(kRows, b, rng),
              y(kRows, b, rng);
          run_plan(*plan, x.view, clean.view, res.view);

          std::vector<float> saved(x.view.col(bad), x.view.col(bad) + kCols);
          for (int poison = 0; poison < 2; ++poison) {
            float* xc = x.view.col(bad);
            if (poison == 0) {
              xc[kCols / 2] = std::numeric_limits<float>::quiet_NaN();
            } else {
              for (std::size_t i = 0; i < kCols; ++i) {
                xc[i] = i % 2 == 0 ? kHuge : -kHuge;
              }
            }
            run_plan(*plan, x.view, y.view, res.view);
            const float* yb = y.view.col(bad);
            EXPECT_FALSE(std::all_of(yb, yb + kRows,
                                     [](float v) { return std::isfinite(v); }))
                << "the poison did not reach its own column";
            for (std::size_t c = 0; c < b; ++c) {
              if (c == bad) continue;
              EXPECT_TRUE(same_bits(y.view.col(c), clean.view.col(c)))
                  << (poison == 0 ? "NaN" : "+-3e38") << " column " << c;
            }
            std::memcpy(xc, saved.data(), kCols * sizeof(float));
          }
        }
      }
    }
  }
}

TEST(LutPrepSharing, PlainAndGroupedPlansSharePaddedPreps) {
  // Both engines lay the prepared LUT artifact out as full-width,
  // zero-padded batch tiles, so at every width their keys agree and a
  // grouped plan consumes the plain plan's artifact bit for bit.
  Rng rng(0x5EED);
  const Matrix w = Matrix::random_normal(kRows, kCols, rng);
  EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto plain = make_engine("biqgemm", w, cfg);
  const auto grouped = make_engine("biqgemm-grouped", w, cfg);
  ExecContext ctx;
  for (std::size_t b = kMinBatch; b <= kMaxBatch; ++b) {
    SCOPED_TRACE("b=" + std::to_string(b));
    const auto producer = plain->plan(b, ctx);
    const auto consumer = grouped->plan(b, ctx);
    ASSERT_EQ(producer->prep_key(), consumer->prep_key());
    ASSERT_EQ(producer->prep_floats(), consumer->prep_floats());

    const Window x(kCols, b, rng);
    Matrix fused(kRows, b), shared(kRows, b);
    consumer->run(x.view, fused);
    AlignedBuffer<float> storage(producer->prep_floats());
    PrepHandle prep(storage.data(), storage.size());
    producer->prepare(x.view, prep);
    consumer->run(prep, shared);
    for (std::size_t c = 0; c < b; ++c) {
      EXPECT_TRUE(same_bits(shared.col(c), fused.col(c))) << "column " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, LutTilePadding,
                         ::testing::Values("biqgemm", "biqgemm-grouped"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param) == "biqgemm"
                                      ? std::string("biqgemm")
                                      : std::string("grouped");
                         });

}  // namespace
}  // namespace biq

// Tests for the GemmEngine / EngineRegistry layer and the runtime ISA
// dispatch: every registered engine approximates the fp32 reference on
// random shapes (including the b == 1 GEMV path), the exact-arithmetic
// engines agree with each other, and the scalar and AVX2 kernel planes
// produce bitwise-consistent LUT keys and tables from one binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/biqgemm.hpp"
#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "gemm/gemm_blocked.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/quantize.hpp"

namespace biq {
namespace {

constexpr const char* kBuiltins[] = {
    "biqgemm", "biqgemm-grouped", "blocked", "naive",
    "int8",    "unpack",          "xnor",    "tmac-lut"};

TEST(EngineRegistry, ListsAllBuiltinEngines) {
  EngineRegistry& reg = EngineRegistry::instance();
  EXPECT_GE(reg.size(), std::size(kBuiltins));
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(reg.contains(name)) << name;
    const EngineSpec* spec = reg.find(name);
    ASSERT_NE(spec, nullptr);
    EXPECT_FALSE(spec->summary.empty());
    EXPECT_TRUE(spec->make != nullptr);
  }
  EXPECT_FALSE(reg.contains("no-such-engine"));
}

TEST(EngineRegistry, MakeUnknownEngineThrowsWithLineup) {
  Rng rng(1);
  const Matrix w = Matrix::random_normal(8, 8, rng);
  try {
    (void)make_engine("no-such-engine", w);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message should help: it lists what IS registered.
    EXPECT_NE(std::string(e.what()).find("biqgemm"), std::string::npos);
  }
}

/// Output tolerance (relative Frobenius) per engine at the test config:
/// 4-bit weights for the quantized engines, 4-bit activations for xnor.
/// Dense engines must match the oracle to float rounding; quantized
/// engines to their quantization error.
double tolerance_for(const std::string& name) {
  static const std::map<std::string, double> tol = {
      {"naive", 1e-5},   {"blocked", 1e-5},        {"int8", 0.05},
      {"biqgemm", 0.30}, {"biqgemm-grouped", 0.30}, {"unpack", 0.30},
      {"xnor", 0.60},    {"tmac-lut", 0.30}};
  const auto it = tol.find(name);
  return it != tol.end() ? it->second : 0.30;
}

TEST(EngineRegistry, EveryEngineMatchesReferenceAcrossShapes) {
  EngineConfig cfg;
  cfg.weight_bits = 4;
  cfg.activation_bits = 4;

  for (const auto& [m, n] :
       {std::tuple{33, 17}, std::tuple{64, 64}, std::tuple{96, 48}}) {
    Rng rng(static_cast<std::uint64_t>(m * 131 + n));
    const Matrix w = Matrix::random_normal(m, n, rng, 0.0f, 0.5f);

    for (const std::string& name : EngineRegistry::instance().names()) {
      const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
      EXPECT_EQ(engine->rows(), static_cast<std::size_t>(m));
      EXPECT_EQ(engine->cols(), static_cast<std::size_t>(n));
      EXPECT_EQ(engine->name(), name);
      EXPECT_GT(engine->weight_bytes(), 0u);

      // b == 1 exercises kernel-specific GEMV fast paths.
      for (const std::size_t b : {std::size_t{1}, std::size_t{5},
                                  std::size_t{8}, std::size_t{17}}) {
        Matrix x = Matrix::random_normal(n, b, rng);
        Matrix expected(m, b), actual(m, b);
        gemm_ref(w, x, expected);
        engine->run(x, actual);
        EXPECT_LT(rel_fro_error(actual, expected), tolerance_for(name))
            << name << " m=" << m << " n=" << n << " b=" << b;
      }
    }
  }
}

TEST(EngineRegistry, ExactQuantizedEnginesAgreeWithEachOther) {
  // biqgemm and unpack both compute sum_q alpha_q o (B_q . X) exactly
  // (same deterministic greedy codes), just through different data
  // paths: lookups vs Algorithm-3 unpack. Their outputs must agree to
  // accumulation rounding, far tighter than the quantization error.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  Rng rng(7);
  const Matrix w = Matrix::random_normal(70, 41, rng);
  const auto lut_engine = make_engine("biqgemm", w, cfg);
  const auto unpack_engine = make_engine("unpack", w, cfg);

  for (const std::size_t b : {std::size_t{1}, std::size_t{9}}) {
    Matrix x = Matrix::random_normal(41, b, rng);
    Matrix y_lut(70, b), y_unpack(70, b);
    lut_engine->run(x, y_lut);
    unpack_engine->run(x, y_unpack);
    EXPECT_TRUE(allclose(y_lut, y_unpack, 1e-4f, 1e-4f)) << "b=" << b;
  }
}

TEST(EngineRegistry, PrequantizedCodesSkipFactoryQuantization) {
  Rng rng(11);
  const Matrix w = Matrix::random_normal(48, 40, rng);
  EngineConfig from_w;
  from_w.weight_bits = 3;
  const BinaryCodes codes = quantize(w, 3, QuantMethod::kGreedy);
  EngineConfig from_codes;
  from_codes.codes = &codes;

  Matrix x = Matrix::random_normal(40, 6, rng);
  for (const char* name : {"biqgemm", "unpack", "xnor"}) {
    Matrix y_w(48, 6), y_codes(48, 6);
    make_engine(name, w, from_w)->run(x, y_w);
    make_engine(name, w, from_codes)->run(x, y_codes);
    // Same deterministic codes either way => identical engines.
    EXPECT_TRUE(allclose(y_w, y_codes, 0.0f, 0.0f)) << name;
  }
}

TEST(EngineRegistry, GemvPathMatchesBatchedColumn) {
  EngineConfig cfg;
  cfg.weight_bits = 2;
  Rng rng(19);
  const Matrix w = Matrix::random_normal(64, 56, rng);
  const auto engine = make_engine("biqgemm", w, cfg);

  Matrix x = Matrix::random_normal(56, 8, rng);
  Matrix y_batched(64, 8);
  engine->run(x, y_batched);

  Matrix x0(56, 1), y0(64, 1);
  for (std::size_t i = 0; i < 56; ++i) x0(i, 0) = x(i, 0);
  engine->run(x0, y0);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(y0(i, 0), y_batched(i, 0), 1e-4f) << "row " << i;
  }
}

TEST(EngineRegistry, OneRegistrationAddsABackendEverywhere) {
  EngineRegistry& reg = EngineRegistry::instance();
  if (!reg.contains("naive-alias")) {
    reg.add({"naive-alias", "test-only alias backend", /*quantized=*/false,
             [](const Matrix& w, const EngineConfig&) {
               return std::make_unique<NaiveGemm>(w);
             }});
  }
  Rng rng(3);
  const Matrix w = Matrix::random_normal(20, 12, rng);
  Matrix x = Matrix::random_normal(12, 4, rng);
  Matrix expected(20, 4), actual(20, 4);
  gemm_ref(w, x, expected);
  make_engine("naive-alias", w)->run(x, actual);
  EXPECT_TRUE(allclose(actual, expected, 1e-4f, 1e-5f));

  EXPECT_THROW(reg.add({"naive-alias", "dup", false,
                        [](const Matrix& w2, const EngineConfig&) {
                          return std::make_unique<NaiveGemm>(w2);
                        }}),
               std::invalid_argument);
}

TEST(EngineRegistry, EveryEngineIsBitwiseDeterministicAcrossThreadCounts) {
  // The tile partitioner hands every engine units of identical
  // arithmetic, so output must not depend on the worker count — 1-thread
  // and N-thread runs of the same engine instance are bitwise equal.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  cfg.activation_bits = 2;
  Rng rng(41);
  const Matrix w = Matrix::random_normal(97, 83, rng, 0.0f, 0.5f);

  for (const std::string& name : EngineRegistry::instance().names()) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    // b == 1 exercises the GEMV/row-parallel splits, the larger batches
    // the batch-tile splits.
    for (const std::size_t b : {std::size_t{1}, std::size_t{7},
                                std::size_t{33}}) {
      Matrix x = Matrix::random_normal(83, b, rng);
      Matrix y_one(97, b);
      {
        ThreadPool pool(1);
        ExecContext ctx(&pool);
        engine->run(x, y_one, ctx);
      }
      for (unsigned threads : {2u, 4u}) {
        ThreadPool pool(threads);
        ExecContext ctx(&pool);
        Matrix y_n(97, b);
        y_n.fill(-123.0f);
        engine->run(x, y_n, ctx);
        EXPECT_EQ(max_abs_diff(y_one, y_n), 0.0f)
            << name << " b=" << b << " threads=" << threads;
      }
    }
  }
}

// ----------------------------------------------------- planned execution

TEST(GemmPlan, ExistsForEveryEngineAndMatchesLegacyRunBitwise) {
  // plan() -> plan->run() is the prepared hot path; the legacy
  // run(x, y, ctx) adapter must stay bitwise identical to it for every
  // registered engine, at 1 and N workers, across the GEMV and batched
  // regimes — reusing one plan across repeated runs included.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  cfg.activation_bits = 2;
  Rng rng(61);
  const Matrix w = Matrix::random_normal(71, 58, rng, 0.0f, 0.5f);

  for (const std::string& name : EngineRegistry::instance().names()) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    for (const std::size_t b : {std::size_t{1}, std::size_t{9},
                                std::size_t{24}}) {
      Matrix x = Matrix::random_normal(58, b, rng);
      for (unsigned threads : {1u, 3u}) {
        ThreadPool legacy_pool(threads);
        ExecContext legacy_ctx(&legacy_pool);
        Matrix y_legacy(71, b);
        engine->run(x, y_legacy, legacy_ctx);

        ThreadPool plan_pool(threads);
        ExecContext plan_ctx(&plan_pool);
        const std::unique_ptr<GemmPlan> plan = engine->plan(b, plan_ctx);
        EXPECT_EQ(plan->rows(), 71u);
        EXPECT_EQ(plan->cols(), 58u);
        EXPECT_EQ(plan->batch(), b);
        EXPECT_EQ(plan->engine_name(), engine->name());
        EXPECT_EQ(&plan->context(), &plan_ctx);

        Matrix y_planned(71, b);
        for (int rep = 0; rep < 3; ++rep) {
          y_planned.fill(-321.0f);
          plan->run(x, y_planned);
          EXPECT_EQ(max_abs_diff(y_legacy, y_planned), 0.0f)
              << name << " b=" << b << " threads=" << threads
              << " rep=" << rep;
        }
      }
    }
  }
}

TEST(GemmPlan, RunRejectsShapeAndLdMismatchesWithDims) {
  // Shape/ld errors at the API boundary must throw std::invalid_argument
  // and name the offending dims (they used to be silent UB for strided
  // callers who got the window wrong).
  EngineConfig cfg;
  cfg.weight_bits = 2;
  Rng rng(67);
  const Matrix w = Matrix::random_normal(24, 16, rng);
  const auto engine = make_engine("biqgemm", w, cfg);
  ExecContext ctx;
  const std::unique_ptr<GemmPlan> plan = engine->plan(4, ctx);

  Matrix x(16, 4), y(24, 4);
  plan->run(x, y);  // correct shapes pass

  const auto expect_throw_with = [&](ConstMatrixView bad_x, MatrixView bad_y,
                                     const char* needle) {
    try {
      plan->run(bad_x, bad_y);
      FAIL() << "expected std::invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("biqgemm"), std::string::npos)
          << e.what();
    }
  };

  Matrix x_short(15, 4), x_wide(16, 5), y_short(23, 4);
  expect_throw_with(x_short, y, "15x4");        // wrong input features
  expect_throw_with(x_wide, y, "16x5");         // batch != planned batch
  expect_throw_with(x, y_short, "23x4");        // wrong output features
  // Malformed leading dimensions (ld < rows) can address out of bounds.
  expect_throw_with(ConstMatrixView(x.data(), 16, 4, 8), y, "ld 8");
  expect_throw_with(x, MatrixView(y.data(), 24, 4, 11), "ld 11");

  // The legacy adapter goes through the same gate.
  EXPECT_THROW(engine->run(x_short, y, ctx), std::invalid_argument);
  EXPECT_THROW(engine->run(x, y_short, ctx), std::invalid_argument);
}

TEST(GemmPlan, StridedViewsMatchDenseBitwiseAndRespectWindowBounds) {
  // Engines consume {data, rows, cols, ld} views end to end: a window of
  // a larger buffer must produce bitwise the dense result and never
  // touch memory outside its window.
  EngineConfig cfg;
  cfg.weight_bits = 3;
  cfg.activation_bits = 2;
  Rng rng(71);
  const std::size_t m = 37, n = 29, b = 9;
  const Matrix w = Matrix::random_normal(m, n, rng, 0.0f, 0.5f);
  const Matrix x = Matrix::random_normal(n, b, rng);

  // Embed x and y as interior windows of larger buffers.
  Matrix x_big(n + 13, b + 3, /*zero_fill=*/false);
  x_big.fill(77.0f);
  for (std::size_t c = 0; c < b; ++c) {
    for (std::size_t i = 0; i < n; ++i) x_big(5 + i, 2 + c) = x(i, c);
  }
  const ConstMatrixView xv = x_big.block(5, n, 2, b);

  for (const std::string& name : EngineRegistry::instance().names()) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    Matrix y_dense(m, b);
    engine->run(x, y_dense);

    Matrix y_big(m + 11, b + 4, /*zero_fill=*/false);
    y_big.fill(-55.0f);
    const MatrixView yv = y_big.block(3, m, 1, b);
    ExecContext ctx;
    engine->plan(b, ctx)->run(xv, yv);

    for (std::size_t c = 0; c < b; ++c) {
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(yv(i, c), y_dense(i, c)) << name << " (" << i << "," << c
                                           << ")";
      }
    }
    // Guard band: everything outside the window is untouched.
    for (std::size_t c = 0; c < y_big.cols(); ++c) {
      for (std::size_t i = 0; i < y_big.rows(); ++i) {
        const bool inside = i >= 3 && i < 3 + m && c >= 1 && c < 1 + b;
        if (!inside) {
          ASSERT_EQ(y_big(i, c), -55.0f)
              << name << " wrote outside its window at (" << i << "," << c
              << ")";
        }
      }
    }
  }
}

// ------------------------------------------------------- runtime dispatch

TEST(Dispatch, ScalarPlaneAlwaysAvailable) {
  EXPECT_TRUE(engine::isa_compiled(KernelIsa::kScalar));
  EXPECT_TRUE(engine::isa_available(KernelIsa::kScalar));
  EXPECT_STREQ(engine::select_kernels(KernelIsa::kScalar).isa, "scalar");
  // Auto always resolves to something runnable.
  const engine::BiqKernels& k = engine::select_kernels(KernelIsa::kAuto);
  EXPECT_GT(k.query_lanes, 0u);
}

TEST(Dispatch, UnavailablePlaneThrowsInsteadOfCrashing) {
  if (engine::isa_available(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 plane available here; nothing to refuse";
  }
  EXPECT_THROW((void)engine::select_kernels(KernelIsa::kAvx2),
               std::runtime_error);
  BiqGemmOptions opt;
  opt.isa = KernelIsa::kAvx2;
  Rng rng(5);
  const BinaryCodes codes = quantize(Matrix::random_normal(16, 16, rng), 1,
                                     QuantMethod::kGreedy);
  EXPECT_THROW(BiqGemm(codes, opt), std::runtime_error);
}

TEST(Dispatch, PlanTilesLanesComeFromDispatchedPlane) {
  BiqGemmOptions opt;
  const std::size_t lanes = engine::select_kernels(opt.isa).query_lanes;
  // Never clamped to the batch: partial batch tiles are padded.
  EXPECT_EQ(plan_tiles(128, opt).lanes, lanes);
  EXPECT_EQ(plan_tiles(128, opt, 16).lanes, 16u);
}

TEST(Dispatch, ScalarAndAvx2PlanesAreBitwiseConsistent) {
  if (!engine::isa_available(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 plane not available on this host/build";
  }
  const engine::BiqKernels& scalar = engine::select_kernels(KernelIsa::kScalar);
  const engine::BiqKernels& avx2 = engine::select_kernels(KernelIsa::kAvx2);
  EXPECT_STREQ(scalar.isa, "scalar");
  EXPECT_STREQ(avx2.isa, "avx2");
  EXPECT_EQ(scalar.query_lanes, avx2.query_lanes);

  // Bitwise-identical interleaved LUTs: both planes run the Algorithm-1
  // recurrence in the same per-lane order, so every table entry must
  // match bit for bit (adds/negates only — no FMA in the builders).
  constexpr unsigned mu = 8;
  const std::size_t lanes = scalar.query_lanes;
  Rng rng(23);
  std::vector<float> xt(mu * lanes);
  fill_normal(rng, xt.data(), xt.size());
  std::vector<float> lut_scalar((std::size_t{1} << mu) * lanes);
  std::vector<float> lut_avx2(lut_scalar.size());
  scalar.build_dp(xt.data(), mu, lanes, lut_scalar.data());
  avx2.build_dp(xt.data(), mu, lanes, lut_avx2.data());
  EXPECT_EQ(std::memcmp(lut_scalar.data(), lut_avx2.data(),
                        lut_scalar.size() * sizeof(float)),
            0);
  scalar.build_mm(xt.data(), mu, lanes, lut_scalar.data());
  avx2.build_mm(xt.data(), mu, lanes, lut_avx2.data());
  EXPECT_EQ(std::memcmp(lut_scalar.data(), lut_avx2.data(),
                        lut_scalar.size() * sizeof(float)),
            0);
}

TEST(Dispatch, OneBinaryServesBothPlanesWithConsistentResults) {
  if (!engine::isa_available(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "avx2 plane not available on this host/build";
  }
  Rng rng(31);
  const Matrix w = Matrix::random_normal(80, 72, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);

  BiqGemmOptions opt_scalar;
  opt_scalar.isa = KernelIsa::kScalar;
  BiqGemmOptions opt_avx2;
  opt_avx2.isa = KernelIsa::kAvx2;
  const BiqGemm scalar_engine(codes, opt_scalar);
  const BiqGemm avx2_engine(codes, opt_avx2);
  EXPECT_EQ(scalar_engine.isa(), "scalar");
  EXPECT_EQ(avx2_engine.isa(), "avx2");

  // LUT keys are packed by shared scalar code and must be bitwise equal
  // regardless of the plane the engine dispatched to.
  for (unsigned q = 0; q < 2; ++q) {
    const KeyMatrix& ks = scalar_engine.keys(q);
    const KeyMatrix& ka = avx2_engine.keys(q);
    ASSERT_EQ(ks.rows(), ka.rows());
    ASSERT_EQ(ks.tables(), ka.tables());
    EXPECT_EQ(std::memcmp(ks.row8(0), ka.row8(0), ks.rows() * ks.tables()), 0)
        << "plane " << q;
  }

  // Outputs agree to rounding (the avx2 query fuses multiply-add) on the
  // batched path, a padded partial tile, and the GEMV path.
  for (const std::size_t b : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
    Matrix x = Matrix::random_normal(72, b, rng);
    Matrix y_scalar(80, b), y_avx2(80, b);
    scalar_engine.run(x, y_scalar);
    avx2_engine.run(x, y_avx2);
    EXPECT_TRUE(allclose(y_scalar, y_avx2, 1e-5f, 1e-5f)) << "b=" << b;
  }
}

TEST(Dispatch, ScalarAndAvx512PlanesAreBitwiseConsistent) {
  if (!engine::isa_available(KernelIsa::kAvx512)) {
    GTEST_SKIP() << "avx512 plane not available on this host/build";
  }
  const engine::BiqKernels& scalar = engine::select_kernels(KernelIsa::kScalar);
  const engine::BiqKernels& avx512 =
      engine::select_kernels(KernelIsa::kAvx512);
  EXPECT_STREQ(avx512.isa, "avx512");
  EXPECT_EQ(avx512.query_lanes, 16u);

  // At 16 lanes the scalar plane runs its generic per-lane loops and the
  // AVX-512 plane its V16 fast path; the DP recurrence (adds/negates
  // only, same per-lane order) must produce bit-for-bit equal tables.
  constexpr unsigned mu = 8;
  const std::size_t lanes = avx512.query_lanes;
  Rng rng(29);
  std::vector<float> xt(mu * lanes);
  fill_normal(rng, xt.data(), xt.size());
  std::vector<float> lut_scalar((std::size_t{1} << mu) * lanes);
  std::vector<float> lut_avx512(lut_scalar.size());
  scalar.build_dp(xt.data(), mu, lanes, lut_scalar.data());
  avx512.build_dp(xt.data(), mu, lanes, lut_avx512.data());
  EXPECT_EQ(std::memcmp(lut_scalar.data(), lut_avx512.data(),
                        lut_scalar.size() * sizeof(float)),
            0);
  scalar.build_mm(xt.data(), mu, lanes, lut_scalar.data());
  avx512.build_mm(xt.data(), mu, lanes, lut_avx512.data());
  EXPECT_EQ(std::memcmp(lut_scalar.data(), lut_avx512.data(),
                        lut_scalar.size() * sizeof(float)),
            0);

  // Engine outputs across the 16-lane batched path, a padded tile and
  // the GEMV path agree with the scalar plane to rounding.
  const Matrix w = Matrix::random_normal(72, 64, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  BiqGemmOptions opt_scalar;
  opt_scalar.isa = KernelIsa::kScalar;
  BiqGemmOptions opt_avx512;
  opt_avx512.isa = KernelIsa::kAvx512;
  const BiqGemm scalar_engine(codes, opt_scalar);
  const BiqGemm avx512_engine(codes, opt_avx512);
  EXPECT_EQ(avx512_engine.isa(), "avx512");
  for (const std::size_t b :
       {std::size_t{1}, std::size_t{11}, std::size_t{32}}) {
    Matrix x = Matrix::random_normal(64, b, rng);
    Matrix y_scalar(72, b), y_avx512(72, b);
    scalar_engine.run(x, y_scalar);
    avx512_engine.run(x, y_avx512);
    EXPECT_TRUE(allclose(y_scalar, y_avx512, 1e-5f, 1e-5f)) << "b=" << b;
  }
}

TEST(Dispatch, BlockedMicrokernelPlanesAgreeAcrossIsas) {
  Rng rng(37);
  const Matrix w = Matrix::random_normal(61, 90, rng);
  Matrix x = Matrix::random_normal(90, 6, rng);
  Matrix y_scalar(61, 6), expected(61, 6);
  gemm_ref(w, x, expected);

  const BlockedGemm scalar_engine(w, KernelIsa::kScalar);
  EXPECT_EQ(scalar_engine.isa(), "scalar");
  scalar_engine.run(x, y_scalar);
  EXPECT_LT(rel_fro_error(y_scalar, expected), 1e-5);

  for (const KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!engine::isa_available(isa)) continue;
    const BlockedGemm vec_engine(w, isa);
    Matrix y_vec(61, 6);
    vec_engine.run(x, y_vec);
    // FMA contraction differs from the scalar mul+add, so compare to
    // rounding, not bitwise.
    EXPECT_TRUE(allclose(y_scalar, y_vec, 1e-5f, 1e-5f));
  }
}

}  // namespace
}  // namespace biq

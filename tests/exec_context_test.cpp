// ExecContext subsystem tests: ScratchArena reuse semantics, the shared
// tile partitioner, the warm-path zero-allocation guarantee of the
// BiQGEMM hot loop, threading determinism for every registered engine's
// building blocks, and engine thread-safety under concurrent run()
// calls with distinct contexts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/biqgemm.hpp"
#include "engine/exec_context.hpp"
#include "engine/partition.hpp"
#include "engine/registry.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/quantize.hpp"

// Binary-wide instrumented operator new: counts every scalar/array heap
// allocation so the warm-plan zero-allocation guarantee can be asserted
// directly (ScratchArena growth is separately visible through
// heap_allocations(), since arenas allocate via std::aligned_alloc).
namespace {
std::atomic<std::size_t> g_new_calls{0};

void* counted_alloc(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace biq {
namespace {

// ------------------------------------------------------------ ScratchArena

TEST(ScratchArena, AllocationsAreAlignedAndDisjoint) {
  ScratchArena arena;
  arena.reset();
  float* a = arena.alloc<float>(100);
  std::int32_t* b = arena.alloc<std::int32_t>(7);
  unsigned char* c = arena.alloc<unsigned char>(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kDefaultAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % kDefaultAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % kDefaultAlignment, 0u);
  // Writing the full extents must not overlap (would corrupt b/c).
  for (int i = 0; i < 100; ++i) a[i] = 1.0f;
  for (int i = 0; i < 7; ++i) b[i] = -5;
  *c = 9;
  EXPECT_EQ(b[0], -5);
  EXPECT_EQ(*c, 9);
  EXPECT_FLOAT_EQ(a[99], 1.0f);
}

TEST(ScratchArena, WarmFramesDoNotTouchTheHeap) {
  ScratchArena arena;
  for (int warmup = 0; warmup < 2; ++warmup) {
    arena.reset();
    (void)arena.alloc<float>(1000);
    (void)arena.alloc<float>(500);
  }
  const std::size_t warm = arena.heap_allocations();
  EXPECT_GT(warm, 0u);
  for (int frame = 0; frame < 10; ++frame) {
    arena.reset();
    float* a = arena.alloc<float>(1000);
    float* b = arena.alloc<float>(500);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
  }
  EXPECT_EQ(arena.heap_allocations(), warm);
}

TEST(ScratchArena, GrowsAcrossFramesAndRestabilizes) {
  ScratchArena arena;
  arena.reset();
  (void)arena.alloc<float>(10);
  // A bigger frame spills, then the arena consolidates and goes quiet.
  arena.reset();
  float* big = arena.alloc<float>(10000);
  big[9999] = 3.0f;  // spill block must be writable end to end
  arena.reset();
  const std::size_t after_growth = arena.heap_allocations();
  EXPECT_GE(arena.capacity_bytes(), 10000 * sizeof(float));
  for (int frame = 0; frame < 5; ++frame) {
    arena.reset();
    (void)arena.alloc<float>(10000);
  }
  EXPECT_EQ(arena.heap_allocations(), after_growth);
}

TEST(ExecContext, ModelBlockIsTheMaxOfAttachedPlansAndGoesWithTheLast) {
  // The shared model block behind nn::ModelPlan: attaching grows it to
  // the largest request (max, not sum), a smaller plan leaves it as is,
  // and it is released when the last plan detaches.
  ExecContext ctx;
  EXPECT_EQ(ctx.model_block_bytes(), 0u);
  EXPECT_EQ(ctx.model_block(), nullptr);
  ctx.attach_model_plan(100);
  EXPECT_EQ(ctx.model_block_bytes(), 100 * sizeof(float));
  ctx.attach_model_plan(200);
  EXPECT_EQ(ctx.model_block_bytes(), 200 * sizeof(float));
  ctx.attach_model_plan(50);
  EXPECT_EQ(ctx.model_block_bytes(), 200 * sizeof(float));
  ASSERT_NE(ctx.model_block(), nullptr);
  ctx.model_block()[199] = 1.0f;  // the whole block is usable
  ctx.attach_model_plan(0);       // a plan without an arena still counts
  ctx.detach_model_plan();
  ctx.detach_model_plan();
  ctx.detach_model_plan();
  EXPECT_EQ(ctx.model_block_bytes(), 200 * sizeof(float));
  ctx.detach_model_plan();
  EXPECT_EQ(ctx.model_block_bytes(), 0u);
  EXPECT_EQ(ctx.model_block(), nullptr);
}

// ------------------------------------------------------------- partitioner

TEST(Partitioner, CoversRangeExactlyOnceAtAnyWorkerCount) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    std::vector<std::atomic<int>> hits(1003);
    engine::for_each_tile(ctx, hits.size(), 7,
                          [&](unsigned, std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Partitioner, WorkerIdsAreValidArenaKeys) {
  ThreadPool pool(4);
  ExecContext ctx(&pool);
  std::atomic<unsigned> max_worker{0};
  engine::for_each_tile(ctx, 64, 1,
                        [&](unsigned worker, std::size_t, std::size_t) {
                          unsigned seen = max_worker.load();
                          while (worker > seen &&
                                 !max_worker.compare_exchange_weak(seen,
                                                                   worker)) {
                          }
                          // Touching the worker's own arena must be safe.
                          ctx.scratch(worker).reset();
                          (void)ctx.scratch(worker).alloc<float>(16);
                        });
  EXPECT_LT(max_worker.load(), ctx.worker_count());
}

TEST(Partitioner, SerialContextRunsInlineAsWorkerZero) {
  ExecContext ctx;  // no pool
  int calls = 0;
  engine::for_each_tile(ctx, 10, 3,
                        [&](unsigned worker, std::size_t lo, std::size_t hi) {
                          ++calls;
                          EXPECT_EQ(worker, 0u);
                          EXPECT_EQ(lo, 0u);
                          EXPECT_EQ(hi, 10u);
                        });
  EXPECT_EQ(calls, 1);
}

// --------------------------------------------- warm-path zero allocation

TEST(ExecContext, WarmBiqGemmRunsServeScratchFromTheArena) {
  Rng rng(11);
  const Matrix w = Matrix::random_normal(96, 128, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  const BiqGemm engine(codes);
  Matrix x = Matrix::random_normal(128, 32, rng);
  Matrix y(96, 32);

  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ExecContext ctx(&pool);
    // Warm the arenas: first runs may grow them.
    engine.run(x, y, ctx);
    engine.run(x, y, ctx);
    const std::size_t warm = ctx.scratch_heap_allocations();
    for (int rep = 0; rep < 8; ++rep) engine.run(x, y, ctx);
    EXPECT_EQ(ctx.scratch_heap_allocations(), warm)
        << "threads=" << threads
        << ": warm-context run() touched the heap for scratch";
  }
}

TEST(ExecContext, WarmGemvRunsServeScratchFromTheArena) {
  Rng rng(12);
  const Matrix w = Matrix::random_normal(256, 160, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  const BiqGemm engine(codes);
  Matrix x = Matrix::random_normal(160, 1, rng);
  Matrix y(256, 1);

  ExecContext ctx;
  // Two warm-up runs: the first spills into an overflow block, the
  // second's reset() consolidates the arena to its high-water mark.
  engine.run(x, y, ctx);
  engine.run(x, y, ctx);
  const std::size_t warm = ctx.scratch_heap_allocations();
  for (int rep = 0; rep < 8; ++rep) engine.run(x, y, ctx);
  EXPECT_EQ(ctx.scratch_heap_allocations(), warm);
}

TEST(ExecContext, WarmPlanRunsPerformZeroHeapAllocations) {
  // The planned hot path must be allocation-free once warm, in the
  // GEMV, serial-batched and tile-parallel regimes: no scratch-arena
  // growth AND no operator-new traffic of any kind (plan-per-call
  // adapters, hidden std::function boxing, ...). Covers both LUT
  // engines AND the two engines with transient activation-quantization
  // phases — int8 sizes its arena frame and xnor its bit-plane
  // workspace at plan time, so their quantize phases prewarm too.
  EngineConfig cfg;
  cfg.weight_bits = 2;
  Rng rng(17);
  const Matrix w = Matrix::random_normal(96, 112, rng, 0.0f, 0.5f);

  for (const char* name : {"biqgemm", "biqgemm-grouped", "int8", "xnor"}) {
    const std::unique_ptr<GemmEngine> engine = make_engine(name, w, cfg);
    struct Regime {
      std::size_t batch;
      unsigned threads;
    };
    // 48 columns at 3 workers lands in the tile-parallel regime on every
    // kernel plane (>= 3 batch tiles at 8 or 16 query lanes).
    for (const Regime r : {Regime{1, 1}, Regime{24, 1}, Regime{48, 3}}) {
      ThreadPool pool(r.threads);
      ExecContext ctx(&pool);
      const std::unique_ptr<GemmPlan> plan = engine->plan(r.batch, ctx);
      Matrix x = Matrix::random_normal(112, r.batch, rng);
      Matrix y(96, r.batch);

      plan->run(x, y);  // first run grows the arenas
      plan->run(x, y);  // second consolidates overflow blocks
      const std::size_t arena_warm = ctx.scratch_heap_allocations();
      const std::size_t new_warm = g_new_calls.load();
      for (int rep = 0; rep < 8; ++rep) plan->run(x, y);
      const std::size_t new_after = g_new_calls.load();
      const std::size_t arena_after = ctx.scratch_heap_allocations();
      EXPECT_EQ(arena_after, arena_warm)
          << name << " batch=" << r.batch << " threads=" << r.threads
          << ": warm plan.run grew a scratch arena";
      EXPECT_EQ(new_after, new_warm)
          << name << " batch=" << r.batch << " threads=" << r.threads
          << ": warm plan.run allocated on the heap";
    }
  }
}

TEST(ExecContext, ThreadDefaultIsPerThreadAndSerial) {
  ExecContext& main_ctx = ExecContext::thread_default();
  EXPECT_EQ(main_ctx.pool(), nullptr);
  EXPECT_EQ(main_ctx.worker_count(), 1u);
  EXPECT_EQ(&main_ctx, &ExecContext::thread_default());

  ExecContext* other = nullptr;
  std::thread t([&] { other = &ExecContext::thread_default(); });
  t.join();
  EXPECT_NE(other, &main_ctx);
}

// ------------------------------------------------- concurrent engine use

TEST(ExecContext, OneEngineIsSafeUnderConcurrentRunsWithDistinctContexts) {
  Rng rng(13);
  const Matrix w = Matrix::random_normal(64, 80, rng);
  const BinaryCodes codes = quantize(w, 3, QuantMethod::kGreedy);
  const BiqGemm engine(codes);

  Matrix x = Matrix::random_normal(80, 24, rng);
  Matrix expected(64, 24);
  engine.run(x, expected);  // serial reference

  constexpr int kThreads = 4;
  std::vector<Matrix> outputs;
  outputs.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) outputs.emplace_back(64, 24);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Each caller brings its own context (and half bring a pool).
      if (i % 2 == 0) {
        ExecContext ctx;
        for (int rep = 0; rep < 5; ++rep) engine.run(x, outputs[i], ctx);
      } else {
        ThreadPool pool(2);
        ExecContext ctx(&pool);
        for (int rep = 0; rep < 5; ++rep) engine.run(x, outputs[i], ctx);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(max_abs_diff(outputs[i], expected), 0.0f) << "caller " << i;
  }
}

// ---------------------------------------------- ISA override at call time

TEST(ExecContext, IsaOverrideReroutesOneCall) {
  Rng rng(14);
  const Matrix w = Matrix::random_normal(40, 48, rng);
  const BinaryCodes codes = quantize(w, 2, QuantMethod::kGreedy);
  const BiqGemm engine(codes);  // auto plane
  Matrix x = Matrix::random_normal(48, 8, rng);
  Matrix y_auto(40, 8), y_scalar(40, 8);
  engine.run(x, y_auto);

  ExecContext scalar_ctx(nullptr, KernelIsa::kScalar);
  engine.run(x, y_scalar, scalar_ctx);
  EXPECT_TRUE(allclose(y_auto, y_scalar, 1e-5f, 1e-5f));
}

}  // namespace
}  // namespace biq

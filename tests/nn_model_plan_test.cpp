// ModelPlan tests: the liveness planner's aliasing discipline, bitwise
// eager-vs-planned equivalence for every supported model class,
// replan-on-batch-change through ModelPlanCache, arena-packing savings,
// and the zero-allocation warm whole-model forward.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"

// Binary-wide instrumented operator new (same harness as
// exec_context_test): counts every scalar/array heap allocation so the
// warm whole-model zero-allocation guarantee can be asserted directly.
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

QuantSpec quant2() {
  QuantSpec spec;
  spec.weight_bits = 2;
  return spec;
}

// ------------------------------------------------------------ ModelPlanner

TEST(ModelPlanner, OverlappingLifetimesNeverShareMemory) {
  ModelPlanner planner;
  const ModelSlot a = planner.acquire(10, 3);
  const ModelSlot b = planner.acquire(7, 7);
  const ModelSlot c = planner.acquire(100, 1);
  // All three live: pairwise-disjoint [offset, offset+extent) intervals.
  const auto disjoint = [](const ModelSlot& s, const ModelSlot& t) {
    return s.offset() + s.extent() <= t.offset() ||
           t.offset() + t.extent() <= s.offset();
  };
  EXPECT_TRUE(disjoint(a, b));
  EXPECT_TRUE(disjoint(a, c));
  EXPECT_TRUE(disjoint(b, c));

  // Release a; a same-size acquire reuses its storage, and stays
  // disjoint from everything still live.
  planner.release(a);
  const ModelSlot d = planner.acquire(10, 3);
  EXPECT_EQ(d.offset(), a.offset());
  EXPECT_TRUE(disjoint(d, b));
  EXPECT_TRUE(disjoint(d, c));
  EXPECT_EQ(planner.peak_floats(), a.extent() + b.extent() + c.extent());
}

TEST(ModelPlanner, ReleasedNeighborsCoalesce) {
  ModelPlanner planner;
  ModelSlot a = planner.acquire(16, 1);
  ModelSlot b = planner.acquire(16, 1);
  ModelSlot c = planner.acquire(16, 1);
  const std::size_t peak = planner.peak_floats();
  planner.release(a);
  planner.release(c);
  planner.release(b);  // middle release must merge all three
  const ModelSlot big = planner.acquire(48, 1);
  EXPECT_EQ(big.offset(), 0u);
  EXPECT_EQ(planner.peak_floats(), peak);
}

TEST(ModelPlanner, BestFitPrefersSmallestHole) {
  ModelPlanner planner;
  ModelSlot big = planner.acquire(64, 1);
  const ModelSlot keep1 = planner.acquire(16, 1);
  ModelSlot small = planner.acquire(16, 1);
  const ModelSlot keep2 = planner.acquire(16, 1);
  planner.release(big);
  planner.release(small);
  // A 16-float tensor should land in the 16-float hole, not the 64.
  const ModelSlot fit = planner.acquire(16, 1);
  EXPECT_EQ(fit.offset(), small.offset());
  (void)keep1;
  (void)keep2;
}

TEST(ModelPlanner, FuzzedAcquireReleaseKeepsLiveSlotsDisjoint) {
  // Randomized lifetime sequences: at every step, no two live slots may
  // overlap, every offset is alignment-granular, and peak_floats() must
  // cover every live high-water mark. After a full drain, the free list
  // must have coalesced back to one interval spanning the whole layout.
  Rng rng(2020);
  for (int round = 0; round < 40; ++round) {
    ModelPlanner planner;
    std::vector<ModelSlot> live;
    std::size_t live_floats = 0;
    std::size_t high_water = 0;
    for (int op = 0; op < 200; ++op) {
      if (live.empty() || rng.next_below(3) != 0) {
        const std::size_t rows = 1 + rng.next_below(40);
        const std::size_t cols = 1 + rng.next_below(12);
        const ModelSlot slot = planner.acquire(rows, cols);
        ASSERT_EQ(slot.offset() % (kDefaultAlignment / sizeof(float)), 0u);
        ASSERT_GE(slot.extent(), rows * cols);
        for (const ModelSlot& other : live) {
          const bool disjoint =
              slot.offset() + slot.extent() <= other.offset() ||
              other.offset() + other.extent() <= slot.offset();
          ASSERT_TRUE(disjoint)
              << "round " << round << " op " << op << ": live slots overlap "
              << "([" << slot.offset() << ", " << slot.offset() + slot.extent()
              << ") vs [" << other.offset() << ", "
              << other.offset() + other.extent() << "))";
        }
        live.push_back(slot);
        live_floats += slot.extent();
        high_water = std::max(high_water, live_floats);
      } else {
        const std::size_t idx = rng.next_below(live.size());
        live_floats -= live[idx].extent();
        planner.release(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
      ASSERT_GE(planner.peak_floats(), live_floats);
    }
    EXPECT_GE(planner.peak_floats(), high_water);
    for (const ModelSlot& slot : live) planner.release(slot);
    // Drained: one acquire of the whole peak must fit at offset 0
    // without growing the layout — anything else means the free list
    // failed to coalesce somewhere in the sequence.
    const std::size_t peak = planner.peak_floats();
    const ModelSlot all = planner.acquire(peak, 1);
    EXPECT_EQ(all.offset(), 0u);
    EXPECT_EQ(planner.peak_floats(), peak);
  }
}

// ------------------------------------------- planned vs eager (bitwise)

TEST(ModelPlan, EncoderPlannedMatchesEagerBitwise) {
  // Every bias, residual add and LayerNorm rides a GEMM epilogue in the
  // planned program, in the eager arithmetic order (the LN column math
  // is one shared helper on both paths), so equality is bitwise — for
  // fp32 and quantized weights, serial and tile-parallel alike.
  Rng rng(3);
  const Matrix input = Matrix::random_normal(32, 6, rng);
  ThreadPool pool(3);
  for (const bool quantized : {false, true}) {
    for (const bool pooled : {false, true}) {
      ExecContext ctx(pooled ? &pool : nullptr);
      const TransformerEncoder enc =
          make_encoder(tiny(), 42, quantized ? quant2() : QuantSpec{}, &ctx);

      Matrix eager = input;
      enc.forward(eager);

      const ModelPlan plan(enc, input.cols(), ctx);
      EXPECT_EQ(plan.batch(), 6u);
      EXPECT_EQ(plan.input_rows(), 32u);
      EXPECT_EQ(plan.output_rows(), 32u);
      Matrix planned(32, 6);
      plan.run(input, planned);
      EXPECT_EQ(max_abs_diff(planned, eager), 0.0f)
          << (quantized ? "quantized" : "fp32")
          << (pooled ? " pooled" : " serial");
    }
  }
}

TEST(ModelPlan, BiLstmPlannedMatchesEagerBitwise) {
  // Frame counts cover one chunk (1, 7), a 1-frame tail joined into a
  // 17-frame chunk (17) and multi-chunk scans with 2- and 15-frame last
  // chunks (34, 47): both paths cut the same chunks.
  const std::size_t in = 12, hidden = 8;
  ThreadPool pool(3);
  for (const std::size_t frames : {1u, 7u, 17u, 34u, 47u}) {
    Rng rng(4 + frames);
    const Matrix audio = Matrix::random_normal(in, frames, rng);
    for (const bool quantized : {false, true}) {
      for (const bool pooled : {false, true}) {
        ExecContext ctx(pooled ? &pool : nullptr);
        const QuantSpec spec = quantized ? quant2() : QuantSpec{};
        const BiLstm model(make_lstm_cell(in, hidden, 31, spec, &ctx),
                           make_lstm_cell(in, hidden, 32, spec, &ctx));

        Matrix eager(2 * hidden, frames);
        model.forward(audio, eager);

        const ModelPlan plan(model, frames, ctx);
        EXPECT_EQ(plan.output_rows(), 2 * hidden);
        Matrix planned(2 * hidden, frames);
        plan.run(audio, planned);
        EXPECT_EQ(max_abs_diff(planned, eager), 0.0f)
            << (quantized ? "quantized" : "fp32")
            << (pooled ? " pooled" : " serial") << " frames=" << frames;
      }
    }
  }
}

TEST(ModelPlan, LstmPlannedMatchesEagerBitwise) {
  const std::size_t in = 10, hidden = 6, frames = 5;
  ExecContext ctx;
  const Lstm model(make_lstm_cell(in, hidden, 9, quant2(), &ctx));
  Rng rng(5);
  const Matrix x = Matrix::random_normal(in, frames, rng);

  Matrix eager(hidden, frames);
  model.forward(x, eager);

  const ModelPlan plan(model, frames, ctx);
  Matrix planned(hidden, frames);
  plan.run(x, planned);
  EXPECT_EQ(max_abs_diff(planned, eager), 0.0f);
}

TEST(ModelPlan, AttentionPlannedMatchesEagerBitwise) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 17, quant2(), &ctx);
  const MultiHeadAttention& attn = enc.layers().front().attention();
  Rng rng(6);
  const Matrix x = Matrix::random_normal(32, 5, rng);

  Matrix eager(32, 5);
  attn.forward(x, eager);

  const ModelPlan plan(attn, 5, ctx);
  Matrix planned(32, 5);
  plan.run(x, planned);
  EXPECT_EQ(max_abs_diff(planned, eager), 0.0f);
}

// ------------------------------------------------- exact arena layout

/// A slot's arena extent: its float count rounded up to the planner's
/// 64-byte (16-float) alignment.
std::size_t aligned(std::size_t floats) { return (floats + 15) / 16 * 16; }

TEST(ModelPlan, EncoderArenaIsOneChainSlotPlusTheAttentionWorkingSet) {
  // A 2-layer encoder at T tokens: the chain slot between the layers
  // (hidden x T) is live while the second layer plans, and inside each
  // layer the attention scratch (q, k, v, context: hidden x T each; the
  // T x T scores) is released before the FFN intermediate (ffn x T)
  // and its LN staging block (hidden x T) reuse it. Both residual→LN
  // seams ride the output projections, so no layer-wide residual slot
  // exists: the arena is exactly chain slot + the larger working set.
  const TransformerConfig cfg = tiny();
  const std::size_t t = 8;
  const std::size_t chain = aligned(cfg.hidden * t);
  const std::size_t attention = 4 * aligned(cfg.hidden * t) + aligned(t * t);
  const std::size_t ffn = aligned(cfg.ffn * t) + aligned(cfg.hidden * t);
  ASSERT_GT(attention, ffn);  // the shape this pin is written for
  for (const bool quantized : {false, true}) {
    ExecContext ctx;
    const TransformerEncoder enc =
        make_encoder(cfg, 42, quantized ? quant2() : QuantSpec{}, &ctx);
    const ModelPlan plan(enc, t, ctx);
    EXPECT_EQ(plan.arena_floats(), chain + attention)
        << (quantized ? "quantized" : "fp32");
    EXPECT_EQ(plan.unpacked_floats(), chain + 2 * (attention + ffn))
        << (quantized ? "quantized" : "fp32");
  }
}

TEST(ModelPlan, QuantizedEncoderPacksToItsFp32TwinsArena) {
  // Each projection builds its activation artifact in its engine's own
  // scratch, so quantizing the weights adds nothing to the activation
  // arena: the 2-bit program packs exactly like the fp32 one.
  for (const std::size_t t : {1u, 8u, 33u}) {
    ExecContext ctx;
    const TransformerEncoder fp32 = make_encoder(tiny(), 42, {}, &ctx);
    const TransformerEncoder two_bit = make_encoder(tiny(), 42, quant2(), &ctx);
    const ModelPlan a(fp32, t, ctx);
    const ModelPlan b(two_bit, t, ctx);
    EXPECT_EQ(b.arena_floats(), a.arena_floats()) << "tokens=" << t;
    EXPECT_EQ(b.unpacked_floats(), a.unpacked_floats()) << "tokens=" << t;
  }
}

TEST(ModelPlan, BiLstmArenaIsOneScansSlotsAtAnyFrameCount) {
  // The two directional scans run one after the other, so the backward
  // scan reuses the forward scan's storage: the arena is one scan's
  // chunk slot (4h x the widest input-projection chunk: the frame count
  // up to 17, then 16 — or 17 when a 1-frame tail joins the last
  // chunk), its recurrent pre-activations (4h) and h/c state (2 x h),
  // bounded whatever the frame count, for fp32 and quantized weights
  // alike.
  const std::size_t in = 12, hidden = 8;
  const auto scan = [&](std::size_t widest) {
    return aligned(4 * hidden * widest) + aligned(4 * hidden) +
           2 * aligned(hidden);
  };
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1, 1}, {7, 7}, {16, 16}, {17, 17}, {18, 16}, {33, 17}, {50, 16}};
  for (const bool quantized : {false, true}) {
    ExecContext ctx;
    const QuantSpec spec = quantized ? quant2() : QuantSpec{};
    const BiLstm model(make_lstm_cell(in, hidden, 31, spec, &ctx),
                       make_lstm_cell(in, hidden, 32, spec, &ctx));
    for (const auto& [frames, widest] : cases) {
      const ModelPlan plan(model, frames, ctx);
      EXPECT_EQ(plan.arena_floats(), scan(widest))
          << (quantized ? "quantized" : "fp32") << " frames=" << frames;
    }
  }
}

TEST(ModelPlan, ChainFoldsLinearActivationAndDropsTheSlot) {
  // Sequential{Linear, Activation, Linear}: the peephole folds the
  // Activation into the first Linear's GEMM epilogue, so the
  // intermediate between them never exists — the pair is one stage and
  // exactly one chain slot remains — and the output still matches eager
  // bitwise.
  const std::size_t in = 20, mid = 24, out = 16, batch = 5;
  Rng rng(33), wrng(34);
  const Matrix x = Matrix::random_normal(in, batch, rng);
  for (const bool quantized : {false, true}) {
    ExecContext ctx;
    const QuantSpec spec = quantized ? quant2() : QuantSpec{};
    Sequential seq;
    seq.add(make_linear(xavier_uniform(mid, in, wrng),
                        std::vector<float>(mid, 0.25f), spec.weight_bits,
                        spec.method, spec.kernel, &ctx));
    seq.add(std::make_unique<Activation>(mid, Act::kGelu));
    seq.add(make_linear(xavier_uniform(out, mid, wrng),
                        std::vector<float>(out, -0.5f), spec.weight_bits,
                        spec.method, spec.kernel, &ctx));

    Matrix eager(out, batch);
    seq.forward(x, eager);

    const ModelPlan plan(seq, batch, ctx);
    Matrix planned(out, batch);
    plan.run(x, planned);
    EXPECT_EQ(max_abs_diff(planned, eager), 0.0f)
        << (quantized ? "quantized" : "fp32");
    EXPECT_EQ(plan.arena_floats(), aligned(mid * batch));
    EXPECT_EQ(plan.unpacked_floats(), aligned(mid * batch));
  }
}

// --------------------------------------------------- shapes and replan

TEST(ModelPlan, RejectsMismatchedShapes) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 1, {}, &ctx);
  const ModelPlan plan(enc, 4, ctx);
  Matrix x(32, 4), y(32, 4);
  Matrix wrong_batch(32, 5), wrong_rows(16, 4);
  EXPECT_THROW(plan.run(wrong_batch, y), std::invalid_argument);
  EXPECT_THROW(plan.run(x, wrong_batch), std::invalid_argument);
  EXPECT_THROW(plan.run(wrong_rows, y), std::invalid_argument);
  EXPECT_NO_THROW(plan.run(x, y));
}

TEST(ModelPlanCache, ReplansOnBatchChangeOnly) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 23, quant2(), &ctx);
  ModelPlanCache<TransformerEncoder> cache;

  Rng rng(7);
  for (const std::size_t tokens : {4u, 4u, 9u, 4u}) {
    const Matrix x = Matrix::random_normal(32, tokens, rng);
    Matrix eager = x;
    enc.forward(eager);
    Matrix planned(32, tokens);
    cache.run(enc, x, planned, ctx);
    ASSERT_NE(cache.plan(), nullptr);
    EXPECT_EQ(cache.plan()->batch(), tokens);
    EXPECT_EQ(max_abs_diff(planned, eager), 0.0f) << "tokens=" << tokens;
  }
}

TEST(ModelPlanCache, ReplansWhenTheModelChanges) {
  // Two models with the same shapes and batch: the cache must key on
  // the model identity, not just (batch, context).
  ExecContext ctx;
  const TransformerEncoder a = make_encoder(tiny(), 7, {}, &ctx);
  const TransformerEncoder b = make_encoder(tiny(), 8, {}, &ctx);
  ModelPlanCache<TransformerEncoder> cache;

  Rng rng(14);
  const Matrix x = Matrix::random_normal(32, 4, rng);
  Matrix ya(32, 4), yb(32, 4);
  cache.run(a, x, ya, ctx);
  cache.run(b, x, yb, ctx);

  Matrix eager_b = x;
  b.forward(eager_b);
  EXPECT_EQ(max_abs_diff(yb, eager_b), 0.0f)
      << "cache served model a's stale plan for model b";
  EXPECT_GT(max_abs_diff(ya, yb), 1e-3f);
}

TEST(ModelPlanCache, SamePlanServesRepeatedBatches) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 23, {}, &ctx);
  ModelPlanCache<TransformerEncoder> cache;
  Rng rng(8);
  const Matrix x = Matrix::random_normal(32, 3, rng);
  Matrix y(32, 3);
  cache.run(enc, x, y, ctx);
  const ModelPlan* first = cache.plan();
  cache.run(enc, x, y, ctx);
  EXPECT_EQ(cache.plan(), first);  // no replan on a repeated batch width
}

// ------------------------------------------------------- arena packing

TEST(ModelPlan, LivenessPackingBeatsUnpackedLayout) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 51, {}, &ctx);
  const ModelPlan plan(enc, 8, ctx);
  // Two layers' tensors fold into one layer's working set (plus: within
  // a layer the FFN intermediate reuses the attention scratch).
  EXPECT_LT(plan.arena_floats(), plan.unpacked_floats() / 2);
  EXPECT_GT(plan.arena_floats(), 0u);
  EXPECT_EQ(plan.arena_bytes(), plan.arena_floats() * sizeof(float));
}

/// Runs `make_model(ctx)`'s plans for two batch widths interleaved on ONE
/// context — the smaller compiled first, so the larger one grows the
/// shared block under it — and checks every run against the same plan
/// compiled alone on its own context.
template <typename MakeModel>
void expect_interleaved_plans_match_solo(MakeModel make_model,
                                         std::size_t small, std::size_t large,
                                         std::uint64_t seed) {
  ExecContext ctx, solo_small_ctx, solo_large_ctx;
  const auto model = make_model(ctx);
  const std::size_t in = model.in_rows();
  const std::size_t out = model.out_shape({in, 1}).rows;
  Rng rng(seed);
  const Matrix xs = Matrix::random_normal(in, small, rng);
  const Matrix xl = Matrix::random_normal(in, large, rng);

  Matrix want_small(out, small), want_large(out, large);
  ModelPlan(model, small, solo_small_ctx).run(xs, want_small);
  ModelPlan(model, large, solo_large_ctx).run(xl, want_large);

  const ModelPlan plan_small(model, small, ctx);
  Matrix got(out, small);
  plan_small.run(xs, got);
  EXPECT_EQ(max_abs_diff(got, want_small), 0.0f) << "before growth";
  const std::size_t before = ctx.model_block_bytes();

  const ModelPlan plan_large(model, large, ctx);
  EXPECT_GT(ctx.model_block_bytes(), before);
  EXPECT_EQ(ctx.model_block_bytes(),
            std::max(plan_small.arena_bytes(), plan_large.arena_bytes()));
  Matrix got_large(out, large);
  for (int rep = 0; rep < 2; ++rep) {
    plan_small.run(xs, got);  // the block moved under the earlier plan
    EXPECT_EQ(max_abs_diff(got, want_small), 0.0f) << "rep " << rep;
    plan_large.run(xl, got_large);
    EXPECT_EQ(max_abs_diff(got_large, want_large), 0.0f) << "rep " << rep;
  }
}

TEST(ModelPlan, InterleavedPlansOnOneContextMatchPlansOnTheirOwn) {
  // Every plan on a context runs on its one shared model block: a later,
  // larger plan grows it, and runs of either plan, interleaved, equal
  // that plan run alone on its own context — a plan's arena carries
  // nothing between runs.
  expect_interleaved_plans_match_solo(
      [](ExecContext& ctx) { return make_encoder(tiny(), 77, quant2(), &ctx); },
      4, 12, 9);
  expect_interleaved_plans_match_solo(
      [](ExecContext& ctx) {
        return BiLstm(make_lstm_cell(12, 8, 31, quant2(), &ctx),
                      make_lstm_cell(12, 8, 32, quant2(), &ctx));
      },
      5, 40, 10);
}

TEST(ModelPlan, PlansShareOneBlockSizedToTheLargestArena) {
  // The context's model block is the max of its plans' arenas, not
  // their sum, and goes with the last plan: replanning on shape changes
  // never grows the footprint past the largest plan.
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 5, {}, &ctx);
  EXPECT_EQ(ctx.model_block_bytes(), 0u);
  {
    const ModelPlan plan_a(enc, 4, ctx);
    EXPECT_EQ(ctx.model_block_bytes(), plan_a.arena_bytes());
    const ModelPlan plan_b(enc, 9, ctx);
    ASSERT_GT(plan_b.arena_bytes(), plan_a.arena_bytes());
    EXPECT_EQ(ctx.model_block_bytes(), plan_b.arena_bytes());
    const ModelPlan plan_c(enc, 2, ctx);
    EXPECT_EQ(ctx.model_block_bytes(), plan_b.arena_bytes());
  }
  EXPECT_EQ(ctx.model_block_bytes(), 0u);

  // LRU cache, capacity 1: every batch flip evicts the previous plan
  // (the last one on the context, so the block goes with it) before the
  // next compiles, so the flip sequence ends with a block sized to the
  // one live plan.
  ModelPlanCache<TransformerEncoder> cache(1);
  Rng rng(15);
  for (const std::size_t tokens : {4u, 9u, 4u, 9u, 4u}) {
    const Matrix x = Matrix::random_normal(32, tokens, rng);
    Matrix y(32, tokens);
    cache.run(enc, x, y, ctx);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(ctx.model_block_bytes(), cache.plan()->arena_bytes());
}

TEST(ModelPlanCache, KeepsAPlanPerBatchWidthUpToCapacity) {
  // The default capacity retains every width seen so far: batch flips
  // stop replanning once each width's plan exists, and the context's
  // footprint is the largest cached plan's arena.
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 5, {}, &ctx);
  ModelPlanCache<TransformerEncoder> cache;
  Rng rng(16);
  for (const std::size_t tokens : {4u, 9u, 4u, 9u, 4u}) {
    const Matrix x = Matrix::random_normal(32, tokens, rng);
    Matrix y(32, tokens);
    cache.run(enc, x, y, ctx);
  }
  EXPECT_EQ(cache.size(), 2u);
  const ModelPlan* plan4 = cache.plan();  // MRU: last run was batch 4
  ASSERT_NE(plan4, nullptr);
  EXPECT_EQ(plan4->batch(), 4u);
  const ModelPlan& plan9 = cache.plan_for(enc, 9, ctx);
  EXPECT_EQ(cache.size(), 2u);  // a hit, not a third plan
  EXPECT_EQ(ctx.model_block_bytes(),
            std::max(plan4->arena_bytes(), plan9.arena_bytes()));
  // Re-requesting a cached width serves the identical plan object.
  EXPECT_EQ(&cache.plan_for(enc, 4, ctx), plan4);
}

TEST(ModelPlanCache, EvictsTheLeastRecentlyUsedPlanAtCapacity) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 5, {}, &ctx);
  ModelPlanCache<TransformerEncoder> cache(2);
  EXPECT_EQ(cache.capacity(), 2u);

  const ModelPlan* plan3 = &cache.plan_for(enc, 3, ctx);
  const ModelPlan* plan5 = &cache.plan_for(enc, 5, ctx);
  // Touch batch 3 so batch 5 becomes the LRU victim.
  EXPECT_EQ(&cache.plan_for(enc, 3, ctx), plan3);
  const ModelPlan* plan7 = &cache.plan_for(enc, 7, ctx);
  EXPECT_EQ(cache.size(), 2u);
  // Batch 3 must have survived (identical object); batch 5 was evicted.
  // The shared block is the largest arena attached while plans lived —
  // batch 7's, the largest of the three.
  EXPECT_EQ(&cache.plan_for(enc, 3, ctx), plan3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(ctx.model_block_bytes(), plan7->arena_bytes());
  EXPECT_GT(plan7->arena_bytes(), plan3->arena_bytes());
  (void)plan5;  // dangling after eviction; only its identity mattered
}

// ------------------------------------------- zero-alloc warm forward

TEST(ModelPlan, WarmEncoderForwardPerformsZeroHeapAllocations) {
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(tiny(), 42, quant2(), &ctx);
  Rng rng(10);
  const Matrix x = Matrix::random_normal(32, 6, rng);
  Matrix y(32, 6);

  const ModelPlan plan(enc, 6, ctx);
  plan.run(x, y);  // first run grows the engines' scratch arenas
  plan.run(x, y);  // second consolidates overflow blocks
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 8; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
      << "warm ModelPlan::run grew a scratch arena";
  EXPECT_EQ(g_new_calls.load(), new_warm)
      << "warm ModelPlan::run allocated on the heap";
}

TEST(ModelPlan, WarmBiLstmForwardPerformsZeroHeapAllocations) {
  // 6 frames: one input-projection chunk; 33 frames: a 16-frame chunk
  // and a 17-frame one, two chunk plans per scan.
  const std::size_t in = 24, hidden = 16;
  for (const std::size_t frames : {6u, 33u}) {
    ExecContext ctx;
    const BiLstm model(make_lstm_cell(in, hidden, 61, quant2(), &ctx),
                       make_lstm_cell(in, hidden, 62, quant2(), &ctx));
    Rng rng(11);
    const Matrix x = Matrix::random_normal(in, frames, rng);
    Matrix y(2 * hidden, frames);

    const ModelPlan plan(model, frames, ctx);
    plan.run(x, y);
    plan.run(x, y);
    const std::size_t arena_warm = ctx.scratch_heap_allocations();
    const std::size_t new_warm = g_new_calls.load();
    for (int rep = 0; rep < 8; ++rep) plan.run(x, y);
    EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
        << "warm BiLSTM ModelPlan::run grew a scratch arena, frames="
        << frames;
    EXPECT_EQ(g_new_calls.load(), new_warm)
        << "warm BiLSTM ModelPlan::run allocated on the heap, frames="
        << frames;
  }
}

// ------------------------------------- hybrid / stacked module trees

/// Encoder stack -> BiLSTM -> Linear head: the 3-level hybrid that only
/// the generic module walker can compile (no per-model walkers remain).
Sequential make_hybrid(const QuantSpec& spec, ExecContext& ctx,
                       std::size_t classes) {
  const std::size_t hidden = tiny().hidden, lstm_hidden = 8;
  Sequential hybrid;
  hybrid.add(std::make_unique<TransformerEncoder>(
      make_encoder(tiny(), 42, spec, &ctx)));
  hybrid.add(std::make_unique<BiLstm>(
      make_lstm_cell(hidden, lstm_hidden, 31, spec, &ctx),
      make_lstm_cell(hidden, lstm_hidden, 32, spec, &ctx)));
  Rng wrng(13);
  const Matrix head_w = xavier_uniform(classes, 2 * lstm_hidden, wrng);
  hybrid.add(make_linear(head_w, std::vector<float>(classes, 0.1f),
                         spec.weight_bits, spec.method, spec.kernel, &ctx));
  return hybrid;
}

TEST(ModelPlan, SequentialHybridPlannedMatchesEagerBitwise) {
  const std::size_t tokens = 6, classes = 10;
  Rng rng(21);
  const Matrix x = Matrix::random_normal(tiny().hidden, tokens, rng);
  for (const bool quantized : {false, true}) {
    ExecContext ctx;
    const Sequential hybrid =
        make_hybrid(quantized ? quant2() : QuantSpec{}, ctx, classes);
    EXPECT_EQ(hybrid.size(), 3u);
    EXPECT_EQ(hybrid.in_rows(), tiny().hidden);
    EXPECT_EQ(hybrid.out_shape({tiny().hidden, tokens}).rows, classes);

    Matrix eager(classes, tokens);
    hybrid.forward(x, eager);

    const ModelPlan plan(hybrid, tokens, ctx);
    EXPECT_EQ(plan.input_rows(), tiny().hidden);
    EXPECT_EQ(plan.output_rows(), classes);
    Matrix planned(classes, tokens);
    plan.run(x, planned);
    EXPECT_EQ(max_abs_diff(planned, eager), 0.0f)
        << (quantized ? "quantized" : "fp32");
  }
}

TEST(ModelPlan, WarmSequentialHybridForwardPerformsZeroHeapAllocations) {
  const std::size_t tokens = 6, classes = 10;
  ExecContext ctx;
  const Sequential hybrid = make_hybrid(quant2(), ctx, classes);
  Rng rng(22);
  const Matrix x = Matrix::random_normal(tiny().hidden, tokens, rng);
  Matrix y(classes, tokens);

  const ModelPlan plan(hybrid, tokens, ctx);
  plan.run(x, y);  // first run grows the engines' scratch arenas
  plan.run(x, y);  // second consolidates overflow blocks
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 8; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
      << "warm hybrid ModelPlan::run grew a scratch arena";
  EXPECT_EQ(g_new_calls.load(), new_warm)
      << "warm hybrid ModelPlan::run allocated on the heap";
}

TEST(ModelPlan, BiLstmPyramidCompilesThroughTheGenericWalker) {
  // 4-deep stacked BiLSTM pyramid (the LAS encoder shape): each level's
  // 2h output feeds the next level's input through chain slots.
  const std::size_t in = 12, frames = 7;
  const std::size_t widths[] = {8, 6, 4, 3};
  Rng rng(23);
  const Matrix audio = Matrix::random_normal(in, frames, rng);
  for (const bool quantized : {false, true}) {
    ExecContext ctx;
    const QuantSpec spec = quantized ? quant2() : QuantSpec{};
    Sequential pyramid;
    std::size_t rows = in;
    std::uint64_t seed = 100;
    for (const std::size_t h : widths) {
      pyramid.add(std::make_unique<BiLstm>(
          make_lstm_cell(rows, h, seed, spec, &ctx),
          make_lstm_cell(rows, h, seed + 1, spec, &ctx)));
      seed += 2;
      rows = 2 * h;
    }
    EXPECT_EQ(pyramid.out_shape({in, frames}).rows, rows);

    Matrix eager(rows, frames);
    pyramid.forward(audio, eager);

    const ModelPlan plan(pyramid, frames, ctx);
    Matrix planned(rows, frames);
    plan.run(audio, planned);
    EXPECT_EQ(max_abs_diff(planned, eager), 0.0f)
        << (quantized ? "quantized" : "fp32");
    // Chain slots and scan state reuse storage across the levels.
    EXPECT_LT(plan.arena_floats(), plan.unpacked_floats());
  }
}

TEST(ModelPlan, ZeroLayerEncoderCompilesToTheIdentityCopy) {
  // An empty chain is the identity map, planned and eager alike.
  TransformerConfig cfg = tiny();
  cfg.layers = 0;
  ExecContext ctx;
  const TransformerEncoder enc = make_encoder(cfg, 1, {}, &ctx);
  Rng rng(24);
  const Matrix x = Matrix::random_normal(32, 4, rng);
  Matrix eager(32, 4), planned(32, 4);
  enc.forward(x, eager);
  const ModelPlan plan(enc, 4, ctx);
  plan.run(x, planned);
  EXPECT_EQ(max_abs_diff(planned, eager), 0.0f);
  EXPECT_EQ(max_abs_diff(planned, x), 0.0f);
}

TEST(Sequential, RejectsMismatchedSeams) {
  ExecContext ctx;
  Sequential seq;
  seq.add(std::make_unique<BiLstm>(make_lstm_cell(12, 8, 1, {}, &ctx),
                                   make_lstm_cell(12, 8, 2, {}, &ctx)));
  // Tail produces 16 rows; a 12-row consumer must be rejected at add().
  EXPECT_THROW(
      seq.add(std::make_unique<BiLstm>(make_lstm_cell(12, 8, 3, {}, &ctx),
                                       make_lstm_cell(12, 8, 4, {}, &ctx))),
      std::invalid_argument);
  // And an empty pipeline cannot be compiled.
  Sequential empty;
  EXPECT_THROW(ModelPlan(empty, 4, ctx), std::invalid_argument);
}

// ------------------------------------------- zero-alloc (tile-parallel)

TEST(ModelPlan, WarmTileParallelEncoderForwardPerformsZeroHeapAllocations) {
  // Same pin with a pool bound to the context: the partitioner's
  // dispatch and every engine's tile path must stay allocation-free
  // inside the whole-model plan too — the column-granular LN stage
  // included (its barrier counters live in the frozen plan and the
  // normalize runs in whichever worker retires a column's last tile).
  ThreadPool pool(3);
  ExecContext ctx(&pool);
  const TransformerEncoder enc = make_encoder(tiny(), 42, quant2(), &ctx);
  Rng rng(12);
  const Matrix x = Matrix::random_normal(32, 48, rng);
  Matrix y(32, 48);

  const ModelPlan plan(enc, 48, ctx);
  plan.run(x, y);
  plan.run(x, y);
  const std::size_t arena_warm = ctx.scratch_heap_allocations();
  const std::size_t new_warm = g_new_calls.load();
  for (int rep = 0; rep < 4; ++rep) plan.run(x, y);
  EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm);
  EXPECT_EQ(g_new_calls.load(), new_warm);
}

}  // namespace
}  // namespace biq::nn

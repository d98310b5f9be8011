// serve-frames: per-frame acoustic scoring through InferenceServer. A
// column-independent MLP scorer, 1024 -> 4096 (GELU) -> 1024 + LayerNorm,
// 1-bit greedy, behind a server with max_batch 16 and 2 serial workers.
// One generator thread submits requests of 1..8 frames open loop at a
// fixed rate (kOfferedRate, about half the sustainable rate measured on
// the reference host), so latency is timed from each request's due time
// and a stall shows as lateness, not as a slower offered load. That rate
// pins frames per wall second, so tokens_per_s is frames per second of
// the process's CPU time. It is the only workload that runs src/serve/
// (queue, batcher, bucket padding, plan pool); its buckets {1, 2, 4, 8,
// 16} put the batch-width cliff on the latency path. Threads: generator +
// batcher + 2 workers.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "nn/activations.hpp"
#include "nn/layernorm.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "nn/transformer.hpp"
#include "probes.hpp"
#include "serve/server.hpp"
#include "threading/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using biq::nn::ModelPlan;
using biq::serve::InferenceServer;
using biq::serve::ServeTicket;

constexpr std::uint64_t kModelSeed = 2024;
constexpr unsigned kBits = 1;
/// setup_s is the median of this many complete set-ups per untraced run.
constexpr int kSetups = 7;
constexpr std::size_t kHidden = 1024;
constexpr std::size_t kFfn = 4096;
constexpr std::size_t kMaxFrames = 8;  // per request
constexpr std::size_t kMaxBatch = 16;
/// Offered load, requests per second. Fixed here, never derived in-run:
/// about half the sustainable rate on the reference host (4-vCPU Xeon,
/// AVX-512), where 1000 req/s held p50 5.9 ms and 1500 req/s built a
/// growing backlog (p50 518 ms).
constexpr double kOfferedRate = 600.0;
/// A run whose generator submits any request later than this after its
/// due time is reported as failed: the offered load was not delivered.
constexpr double kLagBoundS = 0.050;
/// Every kCheckStride-th request is re-run serially for the bitwise and
/// SQNR checks.
constexpr std::size_t kCheckStride = 32;
/// Distinct seeded requests (inputs and widths); longer traces cycle them.
constexpr std::size_t kPool = 1024;
/// Output slots in flight; the generator retires slot i - kRing (long
/// complete at the offered rate) before reusing it for request i.
constexpr std::size_t kRing = 512;

const std::vector<std::size_t> kBuckets = {1, 2, 4, 8, 16};

/// Position of bucket width b in kBuckets (kBuckets.size() if absent).
std::size_t bucket_index(std::size_t b) {
  return static_cast<std::size_t>(
      std::find(kBuckets.begin(), kBuckets.end(), b) - kBuckets.begin());
}

biq::serve::ServeConfig server_config() {
  biq::serve::ServeConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.workers = 2;
  cfg.threads_per_worker = 1;
  return cfg;
}

/// The scorer with a stable address (server, plans and probes borrow it).
struct Scorer {
  biq::nn::Sequential seq;
  const biq::nn::FeedForward* ffn = nullptr;
};

std::unique_ptr<Scorer> make_scorer(unsigned bits) {
  biq::Rng wrng(kModelSeed);
  auto up = biq::nn::make_linear(biq::nn::xavier_uniform(kFfn, kHidden, wrng),
                                 std::vector<float>(kFfn, 0.01f), bits);
  auto down =
      biq::nn::make_linear(biq::nn::xavier_uniform(kHidden, kFfn, wrng),
                           std::vector<float>(kHidden, 0.0f), bits);
  auto ffn = std::make_unique<biq::nn::FeedForward>(std::move(up),
                                                    std::move(down),
                                                    biq::nn::Act::kGelu);
  auto scorer = std::make_unique<Scorer>();
  scorer->ffn = ffn.get();
  scorer->seq.add(std::move(ffn));
  scorer->seq.add(std::make_unique<biq::nn::LayerNorm>(kHidden));
  return scorer;
}

/// The seeded request trace: kPool distinct requests (each block of 8 a
/// permutation of 1..8 frames) cycled over N = rate x seconds arrivals,
/// rounded up to whole blocks. Request i is due at (i + u_i) / rate with
/// u_i uniform in [0, 1): the offered rate is exact and the gaps are
/// seeded.
struct Trace {
  std::vector<biq::Matrix> inputs;
  std::vector<double> due_s;  // offsets from the start of the timed phase
  [[nodiscard]] std::size_t size() const { return due_s.size(); }
  [[nodiscard]] const biq::Matrix& x(std::size_t i) const {
    return inputs[i % inputs.size()];
  }
};

Trace make_trace(std::uint64_t seed, double seconds, std::string& digest_hex) {
  TraceRng rng(seed);
  Digest digest;
  Trace t;
  std::vector<std::size_t> widths(kMaxFrames);
  std::iota(widths.begin(), widths.end(), std::size_t{1});
  while (t.inputs.size() < kPool) {
    rng.shuffle(widths);
    for (const std::size_t w : widths) {
      t.inputs.push_back(random_input(kHidden, w, w, rng, digest));
    }
  }
  const std::size_t n =
      static_cast<std::size_t>(std::ceil(kOfferedRate * seconds / kMaxFrames)) *
      kMaxFrames;
  for (std::size_t i = 0; i < n; ++i) {
    t.due_s.push_back((static_cast<double>(i) + rng.uniform()) / kOfferedRate);
  }
  digest.add(t.due_s.data(), n * sizeof(double));
  digest_hex = digest.hex();
  return t;
}

struct Deployed {
  std::unique_ptr<Scorer> model;
  std::unique_ptr<InferenceServer> server;
  double build_s = 0.0;
  double server_s = 0.0;
  [[nodiscard]] double setup_s() const { return build_s + server_s; }
};

Deployed deploy(Tracer& tracer) {
  Deployed d;
  const auto t0 = Clock::now();
  {
    SpanScope span(tracer, "quant.make_linear");
    d.model = make_scorer(kBits);
  }
  const auto t1 = Clock::now();
  {
    SpanScope span(tracer, "serve.construct");
    d.server = std::make_unique<InferenceServer>(d.model->seq, server_config());
  }
  d.build_s = seconds_between(t0, t1);
  d.server_s = seconds_between(t1, Clock::now());
  return d;
}

/// One request in flight: its ticket and output buffer.
struct Slot {
  ServeTicket ticket;
  biq::Matrix y{kHidden, kMaxFrames};
  std::size_t request = 0;
  bool armed = false;
};

/// A served output kept for the post-run bitwise and SQNR checks.
struct Kept {
  std::size_t request = 0;
  std::size_t bucket = 0;
  biq::Matrix y{kHidden, kMaxFrames};  // the first cols(request) columns
};

/// The benchmark's own output storage: the in-flight slots and the kept
/// outputs of one timed phase of `n` requests. Allocated (zero-filled, so
/// resident) before set-up, so memory_mb counts only the program.
struct Buffers {
  std::vector<Slot> slots;
  std::vector<Kept> kept;
  explicit Buffers(std::size_t n) : slots(kRing), kept(n / kCheckStride + 1) {}
};

/// On every exit path, waits for each request still armed, so no worker
/// writes into a slot after the phase that armed it has returned.
struct Drain {
  std::vector<Slot>& slots;
  ~Drain() {
    for (Slot& s : slots) {
      if (!s.armed) continue;
      s.armed = false;
      try {
        s.ticket.wait();
      } catch (...) {  // only reached while unwinding: the run is failing
      }
    }
  }
};

/// Waits for a slot's request and checks its output is finite. Returns
/// the request's frame count, or 0 if it failed.
std::size_t finish(Slot& s, const Trace& trace, Result& r) {
  s.armed = false;
  const std::size_t c = trace.x(s.request).cols();
  try {
    s.ticket.wait();
  } catch (const std::exception& e) {
    r.fail("request " + std::to_string(s.request) + ": " + e.what());
    return 0;
  }
  if (!all_finite(s.y.col_block(0, c))) {
    r.fail("request " + std::to_string(s.request) + ": non-finite output");
    return 0;
  }
  return c;
}

struct Timed {
  std::vector<double> latency_s;  // due -> completion
  std::vector<double> lag_s;      // due -> submit
  std::vector<double> submit_s;   // time inside submit()
  std::vector<std::size_t> bucket;  // per request; 0 = not served
  std::size_t kept = 0;             // outputs kept in Buffers::kept
  std::size_t frames = 0;           // frames served
  double cpu_s = 0.0;               // process CPU time of the phase
  InferenceServer::Stats stats;     // deltas over the phase
  /// Frames served per second of busy time: the offered rate fixes
  /// frames per wall second, so the program's speed shows in the CPU
  /// time it spends on them (server threads block when idle).
  [[nodiscard]] double frames_per_cpu_s() const {
    return static_cast<double>(frames) / cpu_s;
  }
};

/// Open loop: the generator (this thread) submits request i at its due
/// time whatever the server's state. Each output is checked (finiteness)
/// when its slot is retired; every kCheckStride-th is kept.
Timed run_timed(InferenceServer& server, const Trace& trace, Buffers& buf,
                Tracer& tracer, Result& r) {
  Timed t;
  const std::size_t n = trace.size();
  Drain drain{buf.slots};
  t.bucket.assign(n, 0);
  const InferenceServer::Stats before = server.stats();
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(trace.due_s[i]));
  };
  const auto retire = [&](Slot& s) {
    if (!s.armed) return;
    const std::size_t i = s.request;
    const std::size_t c = finish(s, trace, r);
    if (c == 0) return;
    t.latency_s.push_back(seconds_between(due_at(i), s.ticket.completed_at()));
    t.bucket[i] = s.ticket.served_bucket();
    t.frames += c;
    if (i % kCheckStride == 0) {
      Kept& k = buf.kept[t.kept++];
      k.request = i;
      k.bucket = t.bucket[i];
      std::copy(s.y.data(), s.y.data() + kHidden * c, k.y.data());
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = buf.slots[i % kRing];
    retire(s);
    ++r.attempted;
    std::this_thread::sleep_until(due_at(i));
    const int id = tracer.begin("serve.submit", static_cast<long long>(i));
    const auto t0 = Clock::now();
    try {
      server.submit(trace.x(i), s.y.col_block(0, trace.x(i).cols()), s.ticket);
      s.request = i;
      s.armed = true;
    } catch (const std::exception& e) {
      r.fail("request " + std::to_string(i) + ": submit threw: " + e.what());
    }
    const auto t1 = Clock::now();
    tracer.end(id);
    t.lag_s.push_back(seconds_between(due_at(i), t0));
    t.submit_s.push_back(seconds_between(t0, t1));
  }
  for (std::size_t i = n < kRing ? 0 : n - kRing; i < n; ++i) {
    retire(buf.slots[i % kRing]);
  }
  t.cpu_s = cpu_seconds() - cpu0;
  const InferenceServer::Stats after = server.stats();
  t.stats.requests = after.requests - before.requests;
  t.stats.batches = after.batches - before.batches;
  t.stats.columns = after.columns - before.columns;
  t.stats.padded_columns = after.padded_columns - before.padded_columns;
  const double max_lag = *std::max_element(t.lag_s.begin(), t.lag_s.end());
  r.note("generator lag p99 " + std::to_string(quantile(t.lag_s, 0.99) * 1e3) +
         " ms, max " + std::to_string(max_lag * 1e3) + " ms");
  if (max_lag > kLagBoundS) {
    r.note("generator fell behind schedule by more than " +
           std::to_string(kLagBoundS * 1e3) + " ms: run reported as failed");
    r.correct = false;
    r.failed = r.attempted;
  }
  return t;
}

/// After the timed phase: every kept output must be bitwise equal to a
/// serial run of its served bucket's plan (the server's contract); the
/// kept outputs also give the SQNR against the fp32 twin.
double check_outputs(const Scorer& scorer, const Trace& trace,
                     const Buffers& buf, const Timed& t, Tracer& tracer,
                     Result& r) {
  SpanScope span(tracer, "check.outputs");
  biq::ExecContext ctx;
  std::vector<std::unique_ptr<ModelPlan>> plans;
  for (const std::size_t b : kBuckets) {
    plans.push_back(std::make_unique<ModelPlan>(scorer.seq, b, ctx));
  }
  const std::unique_ptr<Scorer> fp32 = make_scorer(0);
  biq::Matrix stage(kHidden, kMaxBatch), out(kHidden, kMaxBatch);
  Sqnr sqnr;
  for (std::size_t j = 0; j < t.kept; ++j) {
    const Kept& k = buf.kept[j];
    const biq::Matrix& x = trace.x(k.request);
    const std::size_t c = x.cols();
    const biq::ConstMatrixView y = k.y.col_block(0, c);
    const std::size_t b = bucket_index(k.bucket);
    if (b == kBuckets.size() || k.bucket < c) {
      r.fail("request " + std::to_string(k.request) + ": served bucket " +
             std::to_string(k.bucket));
      continue;
    }
    stage.set_zero();
    std::copy(x.data(), x.data() + x.size(), stage.data());
    plans[b]->run(stage.col_block(0, k.bucket), out.col_block(0, k.bucket));
    if (!bitwise_equal(y, out.col_block(0, c))) {
      r.fail("request " + std::to_string(k.request) +
             ": served output differs from a serial bucket run");
      continue;
    }
    biq::Matrix ref(kHidden, c);
    fp32->seq.forward(x, ref);
    sqnr.add(ref, y);
  }
  return sqnr.db();
}

/// Apportions a per-bucket cost to requests by their share of the
/// bucket's columns, averaged over the served requests.
template <typename CostAt>
double per_request(const Trace& trace, const Timed& t,
                   CostAt&& cost_at) {
  double total = 0.0;
  std::size_t served = 0;
  for (std::size_t i = 0; i < t.bucket.size(); ++i) {
    if (t.bucket[i] == 0) continue;
    total += cost_at(t.bucket[i]) * static_cast<double>(trace.x(i).cols()) /
             static_cast<double>(t.bucket[i]);
    ++served;
  }
  return total / static_cast<double>(served);
}

void per_layer(const Deployed& d, const Trace& trace,
               const Timed& untraced, const Timed& traced, Tracer& tracer,
               Result& r) {
  const Scorer& scorer = *d.model;
  r.metric("quant.build_s", d.build_s, "s");
  r.metric("engine.plan_s", d.server_s, "s");
  biq::ExecContext ctx;
  {
    // What the server's prewarm does per worker: compile and warm-run
    // every bucket plan; only the warm runs are timed.
    SpanScope span(tracer, "engine.warm");
    double warm_s = 0.0;
    for (const std::size_t b : kBuckets) {
      const ModelPlan plan(scorer.seq, b, ctx);
      biq::Matrix x(kHidden, b), y(kHidden, b);
      const auto t0 = Clock::now();
      plan.run(x, y);
      warm_s += seconds_between(t0, Clock::now());
    }
    r.metric("engine.warm_s", warm_s, "s");
  }

  const InferenceServer::Stats& s = untraced.stats;
  r.metric("serve.batches", static_cast<double>(s.batches), "count");
  r.metric("serve.cols_per_batch",
           static_cast<double>(s.columns) / static_cast<double>(s.batches),
           "count");
  r.metric("serve.pad_share",
           static_cast<double>(s.padded_columns) /
               static_cast<double>(s.columns + s.padded_columns),
           "ratio");
  r.metric("serve.submit_us_p99", quantile(untraced.submit_s, 0.99) * 1e6, "us");
  r.metric("serve.gen_lag_ms_p99", quantile(untraced.lag_s, 0.99) * 1e3, "ms");

  std::vector<double> bucket_s(kBuckets.size()), ffn_s(kBuckets.size());
  {
    SpanScope span(tracer, "probe.nn");
    for (std::size_t k = 0; k < kBuckets.size(); ++k) {
      bucket_s[k] = probe_module(scorer.seq, kBuckets[k], ctx, 5, tracer,
                                 "serve.bucket_plan.run");
      ffn_s[k] = probe_module(*scorer.ffn, kBuckets[k], ctx, 5, tracer,
                              "nn.ffn.run");
      r.metric("serve.bucket_ms.b" + std::to_string(kBuckets[k]),
               bucket_s[k] * 1e3, "ms");
    }
  }
  r.metric("nn.ffn_ms_per_req",
           per_request(trace, untraced,
                       [&](std::size_t b) { return ffn_s[bucket_index(b)]; }) *
               1e3,
           "ms");

  const std::vector<ProjCall> calls = {{&scorer.ffn->up(), 1.0, 1.0},
                                       {&scorer.ffn->down(), 1.0, 1.0}};
  biq::ThreadPool pool(2);
  biq::ExecContext pool_ctx(&pool);
  std::vector<GemmCost> serial(kBuckets.size());
  GemmCost serial_sum, pooled_sum;
  {
    SpanScope span(tracer, "probe.core");
    for (std::size_t k = 0; k < kBuckets.size(); ++k) {
      serial[k] = probe_gemm_median(calls, kBuckets[k], ctx, 5, tracer);
      serial_sum += serial[k];
    }
  }
  {
    SpanScope span(tracer, "probe.threading");
    for (const std::size_t b : kBuckets) {
      pooled_sum += probe_gemm(calls, b, pool_ctx, tracer);
    }
  }
  const double build = per_request(trace, untraced, [&](std::size_t b) {
    return serial[bucket_index(b)].build_s;
  });
  const double query = per_request(trace, untraced, [&](std::size_t b) {
    return serial[bucket_index(b)].query_s;
  });
  r.metric("core.build_ms_per_req", build * 1e3, "ms");
  r.metric("core.query_ms_per_req", query * 1e3, "ms");
  r.metric("core.gemm_share", (build + query) / mean(untraced.latency_s),
           "ratio");
  r.metric("core.dense_gflops", serial_sum.flops / serial_sum.total_s() / 1e9,
           "GFLOP/s");
  r.metric("core.weight_gbs",
           serial_sum.weight_bytes / serial_sum.total_s() / 1e9, "GB/s");
  r.metric("core.cliff_ratio",
           cliff_ratio(kBuckets, query_lanes(),
                       [&](std::size_t w) {
                         return serial[bucket_index(w)].total_s();
                       }),
           "ratio");
  r.metric("threading.pool_speedup",
           serial_sum.total_s() / pooled_sum.total_s(), "ratio");
  r.metric("trace.tokens_per_s_ratio",
           traced.frames_per_cpu_s() / untraced.frames_per_cpu_s(), "ratio");
}

}  // namespace

Result run_serve_frames(const Options& opt, Tracer& tracer) {
  Result r;
  const bool traced = tracer.enabled();
  // A traced run splits its timed budget: half untraced, half traced.
  const double seconds = traced ? opt.seconds / 2 : opt.seconds;
  std::string digest;
  const Trace trace = make_trace(opt.seed, seconds, digest);
  r.note("trace: " + std::to_string(trace.size()) +
         " requests (1..8 frames) open loop at " +
         std::to_string(kOfferedRate) + " req/s, digest " + digest);
  Buffers buf(trace.size());

  const double rss0 = vm_rss_mb();
  Deployed d = deploy(tracer);
  std::vector<double> setups = {d.setup_s()};

  tracer.set_enabled(false);
  const Timed timed = run_timed(*d.server, trace, buf, tracer, r);
  const double memory_mb = vm_rss_mb() - rss0;
  tracer.set_enabled(traced);
  const double sqnr = check_outputs(*d.model, trace, buf, timed, tracer, r);

  if (traced) {
    const Timed timed_traced = run_timed(*d.server, trace, buf, tracer, r);
    d.server.reset();
    per_layer(d, trace, timed, timed_traced, tracer, r);
    return r;
  }
  d.server.reset();
  d.model.reset();
  for (int i = 1; i < kSetups; ++i) {
    setups.push_back(deploy(tracer).setup_s());
  }
  report_end_to_end(r, setups, timed.latency_s, timed.frames_per_cpu_s(), sqnr,
                    memory_mb);
  return r;
}

}  // namespace pb

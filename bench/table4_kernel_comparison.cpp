// Table IV — kernel-vs-kernel runtimes on square 1-bit-quantized weight
// matrices, n in {512, 1K, 2K, 4K}, batch in {1, 32, 128, 256}.
//
// SUBSTITUTION: the paper's Table IV runs on a
// V100 against kGpu / cuBLAS / xnor. No GPU here, so each baseline is
// replaced by its CPU role-equivalent:
//   kGpu  (unoptimized reference kernel) -> "naive" registry engine
//   cublas (vendor-optimized library)    -> "blocked" registry engine
//   xnor  (both sides binarized)         -> "xnor" registry engine
// plus the multi-bit grouped-LUT engine ("tmac-lut", 2-bit codes here)
// as the LUT-family alternative the paper era did not have.
// Every kernel is obtained from the EngineRegistry by name — the bench
// has no compile-time knowledge of concrete kernel types, so swapping a
// contender is a one-string change. --engines a,b,c restricts the sweep
// (CI times just the LUT family this way).
// Shape expectations carried over: BiQGEMM dominates at batch 1 and large
// matrices; the optimized dense library catches up as batch grows; xnor
// is the only rival at large batch (at the cost of quantized
// activations).
//
// A second section times the LUT family head-to-head at matched weight
// bits (BiQGEMM's q binary planes vs tmac-lut's q-bit integer codes)
// with the interleaved A/B harness, so the weight-bits x batch
// crossover between the two table constructions is measured, not
// asserted.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/registry.hpp"
#include "quant/quantize.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  biq::bench::check_args(argc, argv);
  biq::bench::print_header(
      "table4_kernel_comparison — BiQGEMM vs baseline kernels (1-bit)",
      "paper Table IV on CPU stand-ins: naive=kGpu, blocked=cublas, "
      "xnor=xnor; runtimes in microseconds");
  biq::bench::print_engine_lineup();
  biq::bench::BenchJson json(argc, argv, "table4_kernel_comparison");
  const std::size_t repeats = biq::bench::parse_repeats(argc, argv);
  const std::vector<std::string> filter = biq::bench::parse_engines(argc, argv);

  std::vector<std::string> contenders;
  for (const char* name : {"biqgemm", "naive", "blocked", "xnor", "tmac-lut"}) {
    if (biq::bench::engine_enabled(filter, name)) contenders.emplace_back(name);
  }
  const auto idx = [&](const char* name) {
    return static_cast<std::size_t>(
        std::find(contenders.begin(), contenders.end(), name) -
        contenders.begin());
  };
  const std::size_t subject = idx("biqgemm");
  const std::size_t vs_naive = idx("naive");
  const std::size_t vs_blocked = idx("blocked");
  const bool ratios = subject < contenders.size() &&
                      vs_naive < contenders.size() &&
                      vs_blocked < contenders.size();

  if (!contenders.empty()) {
    std::vector<std::string> cols = {"n (square)", "batch"};
    for (const std::string& name : contenders) {
      cols.push_back(biq::bench::engine_col(name));
    }
    if (ratios) {
      cols.push_back("vs naive");
      cols.push_back("vs blocked");
    }
    biq::TablePrinter table(cols);

    biq::EngineConfig cfg;
    cfg.weight_bits = 1;

    for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
      biq::Rng rng(n);
      biq::Matrix w = biq::Matrix::random_normal(n, n, rng, 0.0f, 0.05f);
      // Quantize once; the packed engines share the codes via cfg.codes,
      // and the dense kernels multiply the same 1-bit weights stored as
      // fp32 (the paper's containers-without-packing arrangement), so
      // every contender sees the quantized operand. tmac-lut quantizes
      // its own integer codes from w — at 2 bits, its headline layout.
      const biq::BinaryCodes codes =
          biq::quantize(w, 1, biq::QuantMethod::kGreedy);
      cfg.codes = &codes;
      const biq::Matrix w_pm1 =
          codes.planes[0].to_float_rowmajor_as_colmajor();
      std::vector<std::unique_ptr<biq::GemmEngine>> engines;
      engines.reserve(contenders.size());
      for (const std::string& name : contenders) {
        const bool dense = name == "naive" || name == "blocked";
        biq::EngineConfig ecfg = cfg;
        if (name == "tmac-lut") {
          ecfg.codes = nullptr;
          ecfg.weight_bits = 2;
        }
        engines.push_back(biq::make_engine(name, dense ? w_pm1 : w, ecfg));
      }

      for (std::size_t b : {1u, 32u, 128u, 256u}) {
        biq::Matrix x = biq::Matrix::random_normal(n, b, rng);
        biq::Matrix y(n, b);

        std::vector<double> times;
        times.reserve(engines.size());
        for (const auto& engine : engines) {
          // The batch is fixed per row, so each contender runs its held
          // plan — the serving hot path — not the plan-per-call adapter.
          biq::ExecContext ctx;
          const std::unique_ptr<biq::GemmPlan> plan = engine->plan(b, ctx);
          // The naive kernel is slow at the largest shapes; one timed rep
          // is plenty there (it is the reference point, not the subject).
          const bool big =
              engine->name() == "naive" && n * n * b > (std::size_t{1} << 28);
          times.push_back(
              repeats != 0
                  ? biq::bench::bench_seconds([&] { plan->run(x, y); }, repeats)
                  : biq::bench::median_seconds([&] { plan->run(x, y); },
                                               big ? 1 : 3, big ? 0.0 : 0.05));
          json.record({biq::bench::jstr("engine", std::string(engine->name())),
                       biq::bench::jint("n", static_cast<long long>(n)),
                       biq::bench::jint("batch", static_cast<long long>(b)),
                       biq::bench::jnum("us", times.back() * 1e6)});
        }

        std::vector<std::string> row = {std::to_string(n), std::to_string(b)};
        for (double t : times) row.push_back(biq::bench::us(t, 0));
        if (ratios) {
          row.push_back(
              biq::TablePrinter::fmt(times[vs_naive] / times[subject], 1) +
              "x");
          row.push_back(
              biq::TablePrinter::fmt(times[vs_blocked] / times[subject], 2) +
              "x");
        }
        table.add_row(row);
      }
    }
    std::printf("%s\n", table.to_markdown().c_str());
    if (ratios) {
      std::printf(
          "Paper Table IV shape check: 'vs naive' grows with n and\n"
          "shrinks with batch (paper: 1.08x..30.42x); BiQGEMM leads\n"
          "'vs blocked' at batch 1 for every n.\n");
    }
  }

  // ---- LUT family head-to-head: BiQGEMM q binary planes vs tmac-lut
  // q-bit integer codes, interleaved A/B so frequency drift cancels.
  if (biq::bench::engine_enabled(filter, "biqgemm") &&
      biq::bench::engine_enabled(filter, "tmac-lut")) {
    biq::TablePrinter ab({"n (square)", "weight bits", "batch", "biqgemm us",
                          "tmac-lut us", "tmac vs biq"});
    for (std::size_t n : {512u, 1024u, 2048u}) {
      biq::Rng rng(0xAB00 + n);
      biq::Matrix w = biq::Matrix::random_normal(n, n, rng, 0.0f, 0.05f);
      for (unsigned bits : {2u, 4u}) {
        biq::EngineConfig cfg;
        cfg.weight_bits = bits;
        const auto biqgemm = biq::make_engine("biqgemm", w, cfg);
        const auto tmac = biq::make_engine("tmac-lut", w, cfg);
        for (std::size_t b : {1u, 32u, 256u}) {
          biq::Matrix x = biq::Matrix::random_normal(n, b, rng);
          biq::Matrix ya(n, b), yb(n, b);
          biq::ExecContext ctx_a, ctx_b;
          const auto plan_a = biqgemm->plan(b, ctx_a);
          const auto plan_b = tmac->plan(b, ctx_b);
          const auto [ta, tb] = biq::bench::interleaved_ab_seconds(
              [&] { plan_a->run(x, ya); }, [&] { plan_b->run(x, yb); },
              repeats);
          for (const auto& [name, t] :
               {std::pair<const char*, double>{"biqgemm", ta},
                {"tmac-lut", tb}}) {
            json.record(
                {biq::bench::jstr("engine", name),
                 biq::bench::jstr("section", "lut-family-ab"),
                 biq::bench::jint("n", static_cast<long long>(n)),
                 biq::bench::jint("weight_bits", static_cast<long long>(bits)),
                 biq::bench::jint("batch", static_cast<long long>(b)),
                 biq::bench::jnum("us", t * 1e6)});
          }
          ab.add_row({std::to_string(n), std::to_string(bits),
                      std::to_string(b), biq::bench::us(ta, 0),
                      biq::bench::us(tb, 0),
                      biq::TablePrinter::fmt(ta / tb, 2) + "x"});
        }
      }
    }
    std::printf("\nLUT family at matched weight bits (interleaved A/B):\n%s\n",
                ab.to_markdown().c_str());
    std::printf(
        "tmac vs biq > 1 means the grouped-LUT engine is faster. BiQGEMM's\n"
        "query cost scales with the number of binary planes (= weight\n"
        "bits); tmac-lut's lookup count is fixed by the packed nibble\n"
        "count, so its advantage should widen from 2-bit to 4-bit.\n");
  }
  return 0;
}

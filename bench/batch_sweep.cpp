// Batch-width sweep: per-call time of one planned GEMM at every batch
// width b = 1..64, for the two LUT-tile engines (biqgemm,
// biqgemm-grouped) and the dense (blocked) and grouped-LUT (tmac-lut)
// baselines, on square n x n 2-bit weights, serial context.
//
// The LUT-tile engines run their batch in tiles of the kernel plane's
// query lanes (8 on AVX2, 16 on AVX-512) and pad a partial last tile
// with zero columns, so a width should never cost more than the next
// lane multiple. The bench checks that in-run, for every b >= 2:
//
//     t(b) <= 1.15 x t(next lane multiple >= b)
//
// with each such pair timed interleaved rep by rep, so host drift hits
// both sides alike; it exits 1 on any violation. The check is a ratio
// inside one run, so it holds on any machine. blocked and tmac-lut are
// reported only.
//
//   $ ./batch_sweep [n ...] [--json] [--repeats N] [--engines a,b,c]
//
// n defaults to 512 and 1024 (pass 4096 for the paper's shape); --json
// writes BENCH_batch_sweep.json with one record per (engine, n, b).
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/dispatch.hpp"
#include "util/table_printer.hpp"

namespace {

constexpr std::size_t kMaxBatch = 64;
constexpr double kCliffBound = 1.15;

bool is_lut_tile_engine(const std::string& name) {
  return name == "biqgemm" || name == "biqgemm-grouped";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes = biq::bench::check_args(argc, argv);
  if (sizes.empty()) sizes = {512, 1024};
  const std::size_t repeats = biq::bench::parse_repeats(argc, argv);
  const std::vector<std::string> filter = biq::bench::parse_engines(argc, argv);
  const std::size_t lanes =
      biq::engine::select_kernels(biq::KernelIsa::kAuto).query_lanes;

  biq::bench::BenchJson json(argc, argv, "batch_sweep");
  biq::bench::print_header(
      "Batch-width sweep: no width may cost more than the next lane multiple",
      "BiQGEMM batched query across batch columns (Sec. III-B, Fig. 7)");
  std::printf("kernel plane %s, %zu query lanes; 2-bit weights, serial "
              "context; check: t(b) <= %.2f x t(next lane multiple) for the "
              "LUT-tile engines\n\n",
              biq::engine::select_kernels(biq::KernelIsa::kAuto).isa, lanes,
              kCliffBound);

  std::vector<std::string> engines;
  for (const char* name : {"biqgemm", "biqgemm-grouped", "blocked", "tmac-lut"}) {
    if (biq::bench::engine_enabled(filter, name)) engines.emplace_back(name);
  }

  std::vector<std::string> headers = {"b"};
  for (const std::size_t n : sizes) {
    for (const std::string& e : engines) {
      headers.push_back(e + "@" + std::to_string(n) + " us");
    }
  }
  std::vector<std::vector<std::string>> rows(
      kMaxBatch, std::vector<std::string>(headers.size()));
  for (std::size_t b = 1; b <= kMaxBatch; ++b) rows[b - 1][0] = std::to_string(b);

  biq::EngineConfig cfg;
  cfg.weight_bits = 2;
  biq::Rng rng(17);
  int violations = 0;
  std::size_t col = 1;
  for (const std::size_t n : sizes) {
    const biq::Matrix w = biq::Matrix::random_normal(n, n, rng);
    const biq::Matrix x = biq::Matrix::random_normal(n, kMaxBatch, rng);
    biq::Matrix y(n, kMaxBatch);
    for (const std::string& name : engines) {
      const auto engine = biq::make_engine(name, w, cfg);
      biq::ExecContext ctx;
      std::map<std::size_t, std::unique_ptr<biq::GemmPlan>> plans;
      const auto run = [&](std::size_t b) {
        std::unique_ptr<biq::GemmPlan>& plan = plans[b];
        if (plan == nullptr) plan = engine->plan(b, ctx);
        return [&, b, p = plan.get()] {
          p->run(x.col_block(0, b), y.col_block(0, b));
        };
      };
      const bool checked = is_lut_tile_engine(name);
      for (std::size_t b = 1; b <= kMaxBatch; ++b) {
        const std::size_t ref = (b + lanes - 1) / lanes * lanes;
        double t = 0.0, t_ref = 0.0;
        if (checked && b >= 2 && ref != b) {
          const auto [tb, tr] =
              biq::bench::interleaved_ab_seconds(run(b), run(ref), repeats);
          t = tb;
          t_ref = tr;
        } else {
          t = biq::bench::bench_seconds(run(b), repeats);
          t_ref = t;
        }
        const double ratio = t / t_ref;
        const bool pass = !checked || b < 2 || ratio <= kCliffBound;
        if (!pass) {
          ++violations;
          std::fprintf(stderr,
                       "CLIFF %s n=%zu b=%zu: %.1f us vs %.1f us at b=%zu "
                       "(%.2fx > %.2fx)\n",
                       name.c_str(), n, b, t * 1e6, t_ref * 1e6, ref, ratio,
                       kCliffBound);
        }
        rows[b - 1][col] = biq::bench::us(t, 1) + (pass ? "" : " !");
        json.record({biq::bench::jstr("engine", name),
                     biq::bench::jint("n", static_cast<long long>(n)),
                     biq::bench::jint("batch", static_cast<long long>(b)),
                     biq::bench::jnum("us", t * 1e6),
                     biq::bench::jnum("us_per_col",
                                      t * 1e6 / static_cast<double>(b)),
                     biq::bench::jint("ref_batch", static_cast<long long>(ref)),
                     biq::bench::jnum("ratio_to_ref", ratio),
                     biq::bench::jint("checked", checked && b >= 2 ? 1 : 0),
                     biq::bench::jint("pass", pass ? 1 : 0)});
      }
      ++col;
    }
  }

  biq::TablePrinter table(headers);
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  std::printf("%s\n", table.to_markdown().c_str());
  if (violations != 0) {
    std::printf("FAIL: %d width(s) cost more than %.2fx the next lane "
                "multiple (marked '!')\n",
                violations, kCliffBound);
    return 1;
  }
  std::printf("PASS: no LUT-tile width costs more than %.2fx the next lane "
              "multiple\n",
              kCliffBound);
  return 0;
}

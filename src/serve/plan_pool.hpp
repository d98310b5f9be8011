// PlanPool — the per-worker compiled-plan and staging state behind the
// inference server: for each worker it owns one ExecContext (optionally
// with its own ThreadPool), one LRU-bounded ModelPlanCache holding a
// frozen ModelPlan per batch bucket (1, 2, 4, ..., max), and dense
// staging matrices sized for the largest bucket. Requests scatter their
// columns into the staging input, run the bucket's warm plan, and
// gather their columns back out — so replans NEVER happen on the
// request path (every bucket is compiled and warm-run up front) and the
// warm path allocates nothing.
//
// Two workers = two ExecContexts = the planner-aware double buffering:
// two ModelPlan::run calls over the same module weights pipeline on
// distinct contexts (engines are immutable after construction; all
// mutable run state lives in the context), race-free and bitwise equal
// to serial execution.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/exec_context.hpp"
#include "matrix/matrix.hpp"
#include "nn/model_plan.hpp"
#include "nn/module.hpp"
#include "serve/serve_config.hpp"
#include "threading/thread_pool.hpp"

namespace biq::serve {

class PlanPool {
 public:
  /// Compiles nothing yet (see warm()). The module must outlive the
  /// pool; its weights are shared read-only by every worker.
  PlanPool(const nn::PlannableModule& module, const ServeConfig& cfg);

  PlanPool(const PlanPool&) = delete;
  PlanPool& operator=(const PlanPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept {
    return workers_.size();
  }
  /// Largest bucket (max_batch rounded up to a power of two).
  [[nodiscard]] std::size_t max_bucket() const noexcept { return max_bucket_; }
  [[nodiscard]] std::size_t in_rows() const noexcept { return in_rows_; }
  [[nodiscard]] std::size_t out_rows() const noexcept { return out_rows_; }

  /// The worker's frozen plan for `bucket` — compiled on first use,
  /// cached thereafter (the cache capacity covers every bucket, so a
  /// warmed pool never replans or evicts).
  [[nodiscard]] const nn::ModelPlan& plan(std::size_t worker,
                                          std::size_t bucket) {
    Worker& w = *workers_[worker];
    return w.plans.plan_for(*module_, bucket, w.ctx);
  }

  /// The worker's staging windows for a `bucket`-wide batch. Only this
  /// worker may touch them, and only while it owns the dispatch.
  [[nodiscard]] MatrixView staging_in(std::size_t worker,
                                      std::size_t bucket) noexcept {
    return workers_[worker]->in.col_block(0, bucket);
  }
  [[nodiscard]] MatrixView staging_out(std::size_t worker,
                                       std::size_t bucket) noexcept {
    return workers_[worker]->out.col_block(0, bucket);
  }

  [[nodiscard]] ExecContext& context(std::size_t worker) noexcept {
    return workers_[worker]->ctx;
  }

  /// Compiles every (worker, bucket) plan and runs each twice over the
  /// zeroed staging buffers: the first run grows the engines' scratch
  /// arenas, the second consolidates overflow — after warm() the
  /// request path performs zero heap allocations and zero replans.
  void warm();

 private:
  struct Worker {
    Worker(unsigned threads, std::size_t plan_capacity, std::size_t in_rows,
           std::size_t out_rows, std::size_t max_bucket)
        : pool(threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr),
          ctx(pool.get()),
          plans(plan_capacity),
          in(in_rows, max_bucket),
          out(out_rows, max_bucket) {}

    // Declaration order is the teardown contract: plans (attached to
    // the ctx's model block) die before the ctx they bind to, the ctx
    // before the pool it borrows.
    std::unique_ptr<ThreadPool> pool;
    ExecContext ctx;
    nn::ModelPlanCache<nn::PlannableModule> plans;
    Matrix in, out;  // staging, in_rows/out_rows x max_bucket
  };

  const nn::PlannableModule* module_;
  std::size_t max_bucket_;
  std::size_t in_rows_;
  std::size_t out_rows_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace biq::serve

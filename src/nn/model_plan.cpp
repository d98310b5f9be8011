#include "nn/model_plan.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace biq::nn {

/// The compiled recipe: shape metadata, the arena layout's size, and
/// the module tree's frozen root step. The arena itself is the
/// context's shared model block, attached for the plan's lifetime.
struct ModelPlan::Impl {
  Impl(std::size_t batch, std::size_t in_rows, std::size_t out_rows,
       ExecContext& ctx) noexcept
      : batch(batch), in_rows(in_rows), out_rows(out_rows), ctx(&ctx) {}
  ~Impl() {
    if (attached) ctx->detach_model_plan();
  }
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  std::size_t batch;
  std::size_t in_rows;
  std::size_t out_rows;
  std::size_t arena_floats = 0;
  std::size_t unpacked_floats = 0;
  bool attached = false;
  ExecContext* ctx;
  std::unique_ptr<ModuleStep> step;
};

ModelPlan::ModelPlan(const PlannableModule& module, std::size_t batch,
                     ExecContext& ctx) {
  const std::size_t in_rows = module.in_rows();
  const Shape out = module.out_shape({in_rows, batch});
  impl_ = std::make_unique<Impl>(batch, in_rows, out.rows, ctx);

  // The one generic compile path: the module tree lays out its own
  // GemmPlans and activation slots; the context's shared block grows to
  // the packed high-water mark if it is smaller — the only plan-time
  // heap cost of the layout.
  ModelPlanner planner;
  ModulePlanContext mpc(planner, ctx, batch);
  impl_->step = module.plan_into(mpc);
  impl_->arena_floats = planner.peak_floats();
  impl_->unpacked_floats = planner.total_acquired_floats();
  ctx.attach_model_plan(impl_->arena_floats);
  impl_->attached = true;
}

ModelPlan::~ModelPlan() = default;
ModelPlan::ModelPlan(ModelPlan&&) noexcept = default;
ModelPlan& ModelPlan::operator=(ModelPlan&&) noexcept = default;

void ModelPlan::run(ConstMatrixView x, MatrixView y) const {
  if (x.rows() != impl_->in_rows || x.cols() != impl_->batch ||
      y.rows() != impl_->out_rows || y.cols() != impl_->batch ||
      x.ld() < x.rows() || y.ld() < y.rows()) {
    throw std::invalid_argument(
        "ModelPlan::run: x is " + std::to_string(x.rows()) + "x" +
        std::to_string(x.cols()) + " (ld " + std::to_string(x.ld()) +
        "), y is " + std::to_string(y.rows()) + "x" + std::to_string(y.cols()) +
        " (ld " + std::to_string(y.ld()) + "); plan expects x " +
        std::to_string(impl_->in_rows) + "x" + std::to_string(impl_->batch) +
        ", y " + std::to_string(impl_->out_rows) + "x" +
        std::to_string(impl_->batch));
  }
  impl_->step->run_step(impl_->ctx->model_block(), x, y);
}

std::size_t ModelPlan::batch() const noexcept { return impl_->batch; }
std::size_t ModelPlan::input_rows() const noexcept { return impl_->in_rows; }
std::size_t ModelPlan::output_rows() const noexcept { return impl_->out_rows; }
std::size_t ModelPlan::arena_floats() const noexcept {
  return impl_->arena_floats;
}
std::size_t ModelPlan::unpacked_floats() const noexcept {
  return impl_->unpacked_floats;
}
ExecContext& ModelPlan::context() const noexcept { return *impl_->ctx; }

}  // namespace biq::nn

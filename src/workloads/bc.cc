/**
 * @file
 * Betweenness centrality (Brandes, single source) in two phases:
 * level-synchronous forward BFS accumulating shortest-path counts
 * (sigma), then a backward sweep accumulating dependencies (delta).
 * Warp-centric edge processing, as in GraphBIG's GPU implementation.
 */

#include <algorithm>
#include <cmath>
#include <string>

#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

class BcWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "BC"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        const VertexId v = graph_->numVertices();
        d_level_ = DeviceArray<std::uint32_t>(alloc_, v, "bc_level");
        d_sigma_ = DeviceArray<double>(alloc_, v, "bc_sigma");
        d_delta_ = DeviceArray<double>(alloc_, v, "bc_delta");
        d_level_.fill(kInf);
        d_sigma_.fill(0.0);
        d_delta_.fill(0.0);
        d_level_[source_] = 0;
        d_sigma_[source_] = 1.0;
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        BcWorkload *self = this;
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 60;
        out->num_blocks = warpPerVertexBlocks();

        if (phase_ == Phase::Forward) {
            if (level_ > 0 && !changed_) {
                // Forward done; deepest level is level_.
                max_level_ = level_;
                phase_ = Phase::Backward;
                back_level_ = max_level_ > 0 ? max_level_ - 1 : 0;
            } else {
                changed_ = false;
                const std::uint32_t level = level_;
                out->name = "BC-fwd-level" + std::to_string(level);
                out->make_program = [self, level](WarpCtx ctx) {
                    return forwardWarp(ctx, self, level);
                };
                ++level_;
                return true;
            }
        }

        if (phase_ == Phase::Backward) {
            if (done_)
                return false;
            const std::uint32_t level = back_level_;
            out->name = "BC-bwd-level" + std::to_string(level);
            out->make_program = [self, level](WarpCtx ctx) {
                return backwardWarp(ctx, self, level);
            };
            if (back_level_ == 0) {
                done_ = true;
            } else {
                --back_level_;
            }
            return true;
        }
        return false;
    }

    void
    validate() const override
    {
        const auto ref = reference::bcFromSource(*graph_, source_);
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            if (v == source_)
                continue; // Brandes excludes the source itself
            const double got = d_delta_[v];
            const double want = ref[v];
            const double err =
                std::abs(got - want) / std::max(1.0, std::abs(want));
            if (err > 1e-9) {
                panic("BC: delta mismatch at %u (got %f want %f)", v,
                      got, want);
            }
        }
    }

    static WarpProgram
    forwardWarp(WarpCtx ctx, BcWorkload *self, std::uint32_t level)
    {
        const std::uint32_t wpb = ctx.threads_per_block / ctx.warp_size;
        const VertexId v = ctx.block_id * wpb + ctx.warp_in_block;
        if (v >= self->graph_->numVertices())
            co_return;

        co_yield loadOf(self->d_level_.addr(v));
        if (self->d_level_[v] != level)
            co_return;
        co_yield loadOf(self->d_row_.addr(v),
                               self->d_row_.addr(v + 1),
                               self->d_sigma_.addr(v));
        const double sigma_v = self->d_sigma_[v];

        const std::uint64_t begin = self->graph_->rowOffsets()[v];
        const std::uint64_t end = self->graph_->rowOffsets()[v + 1];
        for (std::uint64_t e = begin; e < end; e += ctx.warp_size) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(ctx.warp_size, end - e);
            LaneVec ea;
            for (std::uint64_t i = 0; i < chunk; ++i)
                ea.push_back(self->d_col_.addr(e + i));
            co_yield WarpOp::load(ea);

            LaneVec la;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                la.push_back(
                    self->d_level_.addr(self->d_col_[e + i]));
            }
            co_yield WarpOp::load(la);

            LaneVec sa;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                const VertexId nb = self->d_col_[e + i];
                if (self->d_level_[nb] == kInf) {
                    self->d_level_[nb] = level + 1;
                    self->changed_ = true;
                    sa.push_back(self->d_level_.addr(nb));
                }
                if (self->d_level_[nb] == level + 1) {
                    self->d_sigma_[nb] += sigma_v;
                    sa.push_back(self->d_sigma_.addr(nb));
                }
            }
            if (!sa.empty())
                co_yield WarpOp::atomic(sa);
        }
    }

    static WarpProgram
    backwardWarp(WarpCtx ctx, BcWorkload *self, std::uint32_t level)
    {
        const std::uint32_t wpb = ctx.threads_per_block / ctx.warp_size;
        const VertexId v = ctx.block_id * wpb + ctx.warp_in_block;
        if (v >= self->graph_->numVertices())
            co_return;

        co_yield loadOf(self->d_level_.addr(v));
        if (self->d_level_[v] != level)
            co_return;
        co_yield loadOf(self->d_row_.addr(v),
                               self->d_row_.addr(v + 1),
                               self->d_sigma_.addr(v));
        const double sigma_v = self->d_sigma_[v];
        double delta_v = 0.0;

        const std::uint64_t begin = self->graph_->rowOffsets()[v];
        const std::uint64_t end = self->graph_->rowOffsets()[v + 1];
        for (std::uint64_t e = begin; e < end; e += ctx.warp_size) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(ctx.warp_size, end - e);
            LaneVec ea;
            for (std::uint64_t i = 0; i < chunk; ++i)
                ea.push_back(self->d_col_.addr(e + i));
            co_yield WarpOp::load(ea);

            LaneVec la;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                la.push_back(
                    self->d_level_.addr(self->d_col_[e + i]));
            }
            co_yield WarpOp::load(la);

            LaneVec da;
            bool any = false;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                const VertexId nb = self->d_col_[e + i];
                if (self->d_level_[nb] == level + 1) {
                    da.push_back(self->d_sigma_.addr(nb));
                    da.push_back(self->d_delta_.addr(nb));
                    any = true;
                }
            }
            if (any)
                co_yield WarpOp::load(da);
            for (std::uint64_t i = 0; i < chunk; ++i) {
                const VertexId nb = self->d_col_[e + i];
                if (self->d_level_[nb] == level + 1 &&
                    self->d_sigma_[nb] > 0.0) {
                    delta_v += sigma_v / self->d_sigma_[nb] *
                               (1.0 + self->d_delta_[nb]);
                }
            }
        }
        if (v != self->source_) {
            self->d_delta_[v] = delta_v;
            co_yield storeOf(self->d_delta_.addr(v));
        }
    }

  private:
    enum class Phase { Forward, Backward };

    DeviceArray<std::uint32_t> d_level_;
    DeviceArray<double> d_sigma_;
    DeviceArray<double> d_delta_;
    Phase phase_ = Phase::Forward;
    std::uint32_t level_ = 0;
    std::uint32_t back_level_ = 0;
    std::uint32_t max_level_ = 0;
    bool changed_ = false;
    bool done_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeBcWorkload()
{
    return std::make_unique<BcWorkload>();
}

} // namespace bauvm

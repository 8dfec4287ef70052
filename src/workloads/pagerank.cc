/**
 * @file
 * PageRank by synchronous power iteration, two kernels per iteration as
 * in GraphBIG: (1) a contribution kernel computing rank/degree per
 * vertex, (2) a pull kernel where each warp owns a vertex and gathers
 * the contributions of its neighbours in coalesced chunks.
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

constexpr double kDamping = 0.85;

class PageRankWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "PR"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        iterations_ = graphScale(scale).pr_iterations;
        const VertexId v = graph_->numVertices();
        d_rank_ = DeviceArray<double>(alloc_, v, "pr_rank");
        d_contrib_ = DeviceArray<double>(alloc_, v, "pr_contrib");
        d_rank_.fill(1.0 / v);
        d_contrib_.fill(0.0);
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (iteration_ >= iterations_)
            return false;
        PageRankWorkload *self = this;
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 56;
        if (next_is_contrib_) {
            out->name = "PR-contrib-i" + std::to_string(iteration_);
            out->num_blocks = vertexBlocks();
            out->make_program = [self](WarpCtx ctx) {
                return contribWarp(ctx, self);
            };
            next_is_contrib_ = false;
        } else {
            out->name = "PR-pull-i" + std::to_string(iteration_);
            out->num_blocks = warpPerVertexBlocks();
            out->make_program = [self](WarpCtx ctx) {
                return pullWarp(ctx, self);
            };
            next_is_contrib_ = true;
            ++iteration_;
        }
        return true;
    }

    void
    validate() const override
    {
        const auto ref =
            reference::pageRank(*graph_, iterations_, kDamping);
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            const double got = d_rank_[v];
            const double want = ref[v];
            const double err =
                std::abs(got - want) / std::max(1e-12, std::abs(want));
            if (err > 1e-9) {
                panic("PR: rank mismatch at %u (got %.12f want %.12f)",
                      v, got, want);
            }
        }
    }

    /** Kernel 1: contrib[v] = rank[v] / degree(v). */
    static WarpProgram
    contribWarp(WarpCtx ctx, PageRankWorkload *self)
    {
        const VertexId v_count = self->graph_->numVertices();
        PerLane<VertexId> owned;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const VertexId v = ctx.globalThread(lane);
            if (v < v_count) {
                owned.push_back(v);
                a.push_back(self->d_rank_.addr(v));
                a.push_back(self->d_row_.addr(v));
                a.push_back(self->d_row_.addr(v + 1));
            }
        }
        if (owned.empty())
            co_return;
        co_yield WarpOp::load(a);

        LaneVec sa;
        for (VertexId v : owned) {
            const auto deg = self->graph_->degree(v);
            self->d_contrib_[v] =
                deg == 0 ? 0.0
                         : self->d_rank_[v] / static_cast<double>(deg);
            sa.push_back(self->d_contrib_.addr(v));
        }
        co_yield WarpOp::store(sa);
    }

    /** Kernel 2: rank[v] = (1-d)/N + d * sum contrib[neighbours]. */
    static WarpProgram
    pullWarp(WarpCtx ctx, PageRankWorkload *self)
    {
        const std::uint32_t wpb = ctx.threads_per_block / ctx.warp_size;
        const VertexId v = ctx.block_id * wpb + ctx.warp_in_block;
        const VertexId v_count = self->graph_->numVertices();
        if (v >= v_count)
            co_return;

        co_yield loadOf(self->d_row_.addr(v), self->d_row_.addr(v + 1));

        double sum = 0.0;
        const std::uint64_t begin = self->graph_->rowOffsets()[v];
        const std::uint64_t end = self->graph_->rowOffsets()[v + 1];
        for (std::uint64_t e = begin; e < end; e += ctx.warp_size) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(ctx.warp_size, end - e);
            LaneVec ea;
            for (std::uint64_t i = 0; i < chunk; ++i)
                ea.push_back(self->d_col_.addr(e + i));
            co_yield WarpOp::load(ea);

            LaneVec ca;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                ca.push_back(
                    self->d_contrib_.addr(self->d_col_[e + i]));
            }
            co_yield WarpOp::load(ca);
            for (std::uint64_t i = 0; i < chunk; ++i)
                sum += self->d_contrib_[self->d_col_[e + i]];
        }

        self->d_rank_[v] =
            (1.0 - kDamping) / v_count + kDamping * sum;
        co_yield storeOf(self->d_rank_.addr(v));
    }

  private:
    DeviceArray<double> d_rank_;
    DeviceArray<double> d_contrib_;
    std::uint32_t iterations_ = 2;
    std::uint32_t iteration_ = 0;
    bool next_is_contrib_ = true;
};

} // namespace

std::unique_ptr<Workload>
makePageRankWorkload()
{
    return std::make_unique<PageRankWorkload>();
}

} // namespace bauvm

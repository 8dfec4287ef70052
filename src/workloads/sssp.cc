/**
 * @file
 * Single-source shortest paths, topological-warp-centric (SSSP-TWC):
 * Bellman-Ford-style frontier relaxation. One warp per vertex; a warp
 * whose vertex is in the frontier streams its edge list in coalesced
 * chunks, relaxing distances with atomicMin and flagging the next
 * frontier. The frontier flag is cleared in place by the owning warp,
 * so no separate memset kernel is needed.
 */

#include <algorithm>
#include <string>

#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

class SsspWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "SSSP-TWC"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, /*weighted=*/true);
        const VertexId v = graph_->numVertices();
        d_dist_ = DeviceArray<std::uint32_t>(alloc_, v, "sssp_dist");
        d_in_frontier_ =
            DeviceArray<std::uint32_t>(alloc_, v, "sssp_frontier");
        d_in_next_ =
            DeviceArray<std::uint32_t>(alloc_, v, "sssp_next");
        d_dist_.fill(kInf);
        d_in_frontier_.fill(0);
        d_in_next_.fill(0);
        d_dist_[source_] = 0;
        d_in_frontier_[source_] = 1;
        frontier_count_ = 1;
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (iteration_ > 0) {
            std::swap(d_in_frontier_, d_in_next_);
            frontier_count_ = next_count_;
            next_count_ = 0;
        }
        if (frontier_count_ == 0)
            return false;

        SsspWorkload *self = this;
        out->name = "SSSP-iter" + std::to_string(iteration_);
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 64;
        out->num_blocks = warpPerVertexBlocks();
        out->make_program = [self](WarpCtx ctx) {
            return relaxWarp(ctx, self);
        };
        ++iteration_;
        return true;
    }

    void
    validate() const override
    {
        const auto ref = reference::ssspDistances(*graph_, source_);
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            const std::uint32_t want =
                ref[v] == reference::kInfinity ? kInf : ref[v];
            if (d_dist_[v] != want) {
                panic("SSSP: distance mismatch at %u (got %u want %u)",
                      v, d_dist_[v], want);
            }
        }
    }

    static WarpProgram
    relaxWarp(WarpCtx ctx, SsspWorkload *self)
    {
        const std::uint32_t wpb = ctx.threads_per_block / ctx.warp_size;
        const VertexId v = ctx.block_id * wpb + ctx.warp_in_block;
        if (v >= self->graph_->numVertices())
            co_return;

        co_yield loadOf(self->d_in_frontier_.addr(v));
        if (self->d_in_frontier_[v] == 0)
            co_return;
        // Consume the flag in place.
        self->d_in_frontier_[v] = 0;
        co_yield storeOf(self->d_in_frontier_.addr(v));

        co_yield loadOf(self->d_row_.addr(v),
                               self->d_row_.addr(v + 1),
                               self->d_dist_.addr(v));
        const std::uint32_t dist_v = self->d_dist_[v];

        const std::uint64_t begin = self->graph_->rowOffsets()[v];
        const std::uint64_t end = self->graph_->rowOffsets()[v + 1];
        for (std::uint64_t e = begin; e < end; e += ctx.warp_size) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(ctx.warp_size, end - e);
            LaneVec ea;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                ea.push_back(self->d_col_.addr(e + i));
                ea.push_back(self->d_weight_.addr(e + i));
            }
            co_yield WarpOp::load(ea);

            LaneVec da;
            for (std::uint64_t i = 0; i < chunk; ++i)
                da.push_back(self->d_dist_.addr(self->d_col_[e + i]));
            co_yield WarpOp::load(da);

            LaneVec ua;
            for (std::uint64_t i = 0; i < chunk; ++i) {
                const VertexId nb = self->d_col_[e + i];
                const std::uint32_t w = self->graph_->weights()[e + i];
                const std::uint32_t cand = dist_v + w;
                if (cand < self->d_dist_[nb]) {
                    self->d_dist_[nb] = cand; // atomicMin
                    ua.push_back(self->d_dist_.addr(nb));
                    if (self->d_in_next_[nb] == 0) {
                        self->d_in_next_[nb] = 1;
                        ++self->next_count_;
                    }
                    ua.push_back(self->d_in_next_.addr(nb));
                }
            }
            if (!ua.empty())
                co_yield WarpOp::atomic(ua);
        }
    }

  private:
    DeviceArray<std::uint32_t> d_dist_;
    DeviceArray<std::uint32_t> d_in_frontier_;
    DeviceArray<std::uint32_t> d_in_next_;
    std::uint32_t iteration_ = 0;
    std::uint32_t frontier_count_ = 0;
    std::uint32_t next_count_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSsspWorkload()
{
    return std::make_unique<SsspWorkload>();
}

} // namespace bauvm

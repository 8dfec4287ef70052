/**
 * @file
 * Label-propagation connected components with an explicit push
 * worklist: every vertex starts as its own label; an active vertex
 * pushes its label to any neighbour with a larger one, and only
 * vertices whose label improved join the next round's worklist (a
 * round-stamp array deduplicates enqueues). The worklist collapses
 * from all of V to the shrinking boundary between merging components —
 * frontier-phase behaviour on the opposite trajectory from BFS, which
 * grows before it shrinks. Converges to the minimum vertex id per
 * component.
 */

#include <string>
#include <utility>

#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

class ComponentsWorkload : public GraphWorkloadBase
{
  public:
    std::string name() const override { return "CC"; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false);
        const VertexId v = graph_->numVertices();
        d_label_ = DeviceArray<std::uint64_t>(alloc_, v, "cc_label");
        d_frontier_ = DeviceArray<std::uint64_t>(alloc_, v, "cc_frontier");
        d_next_frontier_ =
            DeviceArray<std::uint64_t>(alloc_, v, "cc_next_frontier");
        d_mark_ = DeviceArray<std::uint32_t>(alloc_, v, "cc_mark");
        d_counter_ = DeviceArray<std::uint32_t>(alloc_, 1, "cc_counter");
        d_mark_.fill(0);
        for (VertexId u = 0; u < v; ++u) {
            d_label_[u] = u;
            d_frontier_[u] = u; // round 0: everyone is active
        }
        frontier_size_ = v;
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (round_ > 0) {
            std::swap(d_frontier_, d_next_frontier_);
            frontier_size_ = next_size_;
            next_size_ = 0;
        }
        if (frontier_size_ == 0)
            return false;

        ComponentsWorkload *self = this;
        const std::uint32_t round = round_;
        const std::uint32_t fsize = frontier_size_;
        out->name = name() + "-round" + std::to_string(round);
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 52;
        out->num_blocks = (fsize + kGraphTpb - 1) / kGraphTpb;
        out->make_program = [self, round, fsize](WarpCtx ctx) {
            return pushWarp(ctx, self, round, fsize);
        };
        ++round_;
        return true;
    }

    void
    validate() const override
    {
        const auto ref = reference::componentLabels(*graph_);
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            if (d_label_[v] != ref[v]) {
                panic("CC: label mismatch at vertex %u "
                      "(got %llu want %u)",
                      v,
                      static_cast<unsigned long long>(d_label_[v]),
                      ref[v]);
            }
        }
    }

    /** One thread per worklist entry pushing its label outward. */
    static WarpProgram
    pushWarp(WarpCtx ctx, ComponentsWorkload *self, std::uint32_t round,
             std::uint32_t fsize)
    {
        PerLane<std::uint32_t> slots;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const std::uint32_t idx = ctx.globalThread(lane);
            if (idx < fsize) {
                slots.push_back(idx);
                a.push_back(self->d_frontier_.addr(idx));
            }
        }
        if (slots.empty())
            co_return;
        co_yield WarpOp::load(a);

        PerLane<VertexId> active;
        a.clear();
        for (std::uint32_t idx : slots) {
            const auto v =
                static_cast<VertexId>(self->d_frontier_[idx]);
            active.push_back(v);
            a.push_back(self->d_label_.addr(v));
        }
        co_yield WarpOp::load(a);

        a.clear();
        for (VertexId v : active) {
            a.push_back(self->d_row_.addr(v));
            a.push_back(self->d_row_.addr(v + 1));
        }
        co_yield WarpOp::load(a);

        PerLane<std::uint64_t> pos, end;
        for (VertexId v : active) {
            pos.push_back(self->graph_->rowOffsets()[v]);
            end.push_back(self->graph_->rowOffsets()[v + 1]);
        }

        while (true) {
            LaneVec ea;
            PerLane<std::size_t> who;
            for (std::size_t i = 0; i < active.size(); ++i) {
                if (pos[i] < end[i]) {
                    ea.push_back(self->d_col_.addr(pos[i]));
                    who.push_back(i);
                }
            }
            if (who.empty())
                break;
            co_yield WarpOp::load(ea);

            LaneVec la;
            PerLane<std::pair<std::size_t, VertexId>> probes;
            for (std::size_t i : who) {
                const VertexId nb = self->d_col_[pos[i]];
                ++pos[i];
                probes.push_back({i, nb});
                la.push_back(self->d_label_.addr(nb));
            }
            co_yield WarpOp::load(la);

            LaneVec sa;
            for (const auto &[i, nb] : probes) {
                const std::uint64_t mine =
                    self->d_label_[active[i]];
                if (self->d_label_[nb] > mine) {
                    // atomicMin on the neighbour's label, plus a
                    // stamped enqueue so a vertex improved by several
                    // pushers joins the next round once.
                    self->d_label_[nb] = mine;
                    sa.push_back(self->d_label_.addr(nb));
                    if (self->d_mark_[nb] != round + 1) {
                        self->d_mark_[nb] = round + 1;
                        const std::uint32_t slot = self->next_size_++;
                        self->d_next_frontier_[slot] = nb;
                        sa.push_back(self->d_mark_.addr(nb));
                        sa.push_back(self->d_counter_.addr(0));
                        sa.push_back(
                            self->d_next_frontier_.addr(slot));
                    }
                }
            }
            if (!sa.empty())
                co_yield WarpOp::atomic(sa);
        }
    }

  private:
    DeviceArray<std::uint64_t> d_label_;
    DeviceArray<std::uint64_t> d_frontier_;
    DeviceArray<std::uint64_t> d_next_frontier_;
    DeviceArray<std::uint32_t> d_mark_;
    DeviceArray<std::uint32_t> d_counter_;
    std::uint32_t round_ = 0;
    std::uint32_t frontier_size_ = 0;
    std::uint32_t next_size_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeComponentsWorkload()
{
    return std::make_unique<ComponentsWorkload>();
}

} // namespace bauvm

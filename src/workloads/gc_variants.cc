/**
 * @file
 * Graph coloring via speculative assignment plus conflict resolution
 * (the scheme GraphBIG's GPU coloring uses): each round, every
 * uncolored vertex tentatively takes the smallest color unused by its
 * colored neighbours; conflicts between uncolored neighbours that chose
 * the same color are resolved in favour of the higher vertex id.
 *
 * Two traversal variants, as in the paper:
 *  - DTC (data-thread-centric): threads own vertices in data order.
 *  - TTC (topological-thread-centric): threads own vertices in
 *    degree-descending (topological priority) order through an
 *    indirection array, which changes the access pattern.
 */

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <vector>

#include "src/graph/reference_algorithms.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

class GcWorkload : public GraphWorkloadBase
{
  public:
    explicit GcWorkload(std::string variant)
        : variant_(std::move(variant)), ttc_(variant_ == "TTC")
    {
    }

    std::string name() const override { return "GC-" + variant_; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        buildGraph(scale, seed, false, /*edge_factor=*/0.5);
        const VertexId v = graph_->numVertices();
        d_color_ = DeviceArray<std::uint32_t>(alloc_, v, "gc_color");
        d_tentative_ =
            DeviceArray<std::uint32_t>(alloc_, v, "gc_tentative");
        d_color_.fill(kInf);
        d_tentative_.fill(kInf);
        stamp_.assign(v, 0);
        if (ttc_) {
            // Topological order: vertices in BFS-traversal order from
            // the high-degree source (unreached vertices appended in id
            // order), as a topological-thread-centric kernel would
            // consume them.
            d_order_ = DeviceArray<VertexId>(alloc_, v, "gc_order");
            const auto levels = reference::bfsLevels(*graph_, source_);
            std::vector<VertexId> order(v);
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(order.begin(), order.end(),
                             [&levels](VertexId a, VertexId b) {
                                 return levels[a] < levels[b];
                             });
            for (VertexId i = 0; i < v; ++i)
                d_order_[i] = order[i];
        }
        uncolored_ = v;
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (uncolored_ == 0)
            return false;
        GcWorkload *self = this;
        out->threads_per_block = kGraphTpb;
        out->regs_per_thread = 52;
        out->num_blocks = vertexBlocks();

        const std::uint32_t round = round_;
        if (next_is_assign_) {
            out->name = name() + "-assign-r" + std::to_string(round);
            out->make_program = [self, round](WarpCtx ctx) {
                return assignWarp(ctx, self, round);
            };
            next_is_assign_ = false;
        } else {
            out->name = name() + "-resolve-r" + std::to_string(round);
            out->make_program = [self, round](WarpCtx ctx) {
                return resolveWarp(ctx, self, round);
            };
            next_is_assign_ = true;
            ++round_;
        }
        return true;
    }

    void
    validate() const override
    {
        std::vector<std::uint32_t> colors(graph_->numVertices());
        for (VertexId v = 0; v < graph_->numVertices(); ++v) {
            colors[v] = d_color_[v];
            if (colors[v] == kInf)
                panic("GC: vertex %u left uncolored", v);
        }
        if (!reference::isProperColoring(*graph_, colors))
            panic("GC: produced an improper coloring");
    }

    /**
     * Jones-Plassmann random priority: the winner among same-color
     * speculators is the neighbour with the larger hashed priority
     * (ties broken by id). Random priorities bound the expected round
     * count at O(log V); raw ids create long losing chains.
     */
    static bool
    outranks(VertexId a, VertexId b)
    {
        auto mix = [](std::uint64_t x) {
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            return x ^ (x >> 31);
        };
        const std::uint64_t pa = mix(a), pb = mix(b);
        return pa != pb ? pa > pb : a > b;
    }

    /** Maps a thread id to the vertex it owns, per variant. */
    VertexId
    ownedVertex(std::uint32_t tid) const
    {
        return ttc_ ? d_order_[tid] : tid;
    }

    /** The extra load address for the TTC indirection, if any. */
    void
    appendOwnerLoads(std::uint32_t tid, LaneVec *a) const
    {
        if (ttc_)
            a->push_back(d_order_.addr(tid));
    }

    /**
     * Smallest colour >= @p from held by no neighbour of @p v. It reads
     * d_color_ functionally: the assign kernel never writes d_color_,
     * so this sees the colours the timed neighbour scan loaded.
     */
    std::uint32_t
    smallestFreeColor(VertexId v, std::uint32_t from) const
    {
        const auto &row = graph_->rowOffsets();
        for (std::uint32_t base = from;; base += 64) {
            std::uint64_t mask = 0;
            for (std::uint64_t e = row[v]; e < row[v + 1]; ++e) {
                const std::uint32_t c = d_color_[d_col_[e]];
                if (c != kInf && c >= base && c - base < 64)
                    mask |= std::uint64_t{1} << (c - base);
            }
            if (mask != ~std::uint64_t{0})
                return base + std::countr_one(mask);
        }
    }

    static WarpProgram
    assignWarp(WarpCtx ctx, GcWorkload *self, std::uint32_t round)
    {
        const VertexId v_count = self->graph_->numVertices();
        PerLane<VertexId> owned;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const std::uint32_t tid = ctx.globalThread(lane);
            if (tid < v_count) {
                self->appendOwnerLoads(tid, &a);
                const VertexId v = self->ownedVertex(tid);
                owned.push_back(v);
                a.push_back(self->d_color_.addr(v));
            }
        }
        if (owned.empty())
            co_return;
        co_yield WarpOp::load(a);

        PerLane<VertexId> active;
        for (VertexId v : owned) {
            if (self->d_color_[v] == kInf)
                active.push_back(v);
        }
        if (active.empty())
            co_return;

        a.clear();
        for (VertexId v : active) {
            a.push_back(self->d_row_.addr(v));
            a.push_back(self->d_row_.addr(v + 1));
        }
        co_yield WarpOp::load(a);

        // Divergent lockstep neighbour scan gathering used colors.
        PerLane<std::uint64_t> pos, end;
        // Bit c of used[i]: a neighbour of active[i] holds colour c < 64.
        // Past 64 colours, smallestFreeColor() rescans the neighbours.
        PerLane<std::uint64_t> used(active.size(), 0);
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

            LaneVec ca;
            PerLane<std::pair<std::size_t, VertexId>> nbrs;
            for (std::size_t i : who) {
                const VertexId nb = self->d_col_[pos[i]];
                ++pos[i];
                nbrs.push_back({i, nb});
                ca.push_back(self->d_color_.addr(nb));
            }
            co_yield WarpOp::load(ca);
            for (const auto &[i, nb] : nbrs) {
                const std::uint32_t c = self->d_color_[nb];
                if (c < 64)
                    used[i] |= std::uint64_t{1} << c;
            }
        }

        LaneVec sa;
        for (std::size_t i = 0; i < active.size(); ++i) {
            const std::uint32_t c =
                used[i] == ~std::uint64_t{0}
                    ? self->smallestFreeColor(active[i], 64)
                    : std::countr_one(used[i]);
            self->d_tentative_[active[i]] = c;
            // Round stamp (bookkeeping the hardware would keep in the
            // tentative word itself): lets the resolve phase decide
            // from round-start state, independent of warp order.
            self->stamp_[active[i]] = round + 1;
            sa.push_back(self->d_tentative_.addr(active[i]));
        }
        co_yield WarpOp::store(sa);
    }

    static WarpProgram
    resolveWarp(WarpCtx ctx, GcWorkload *self, std::uint32_t round)
    {
        const VertexId v_count = self->graph_->numVertices();
        PerLane<VertexId> owned;
        LaneVec a;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            const std::uint32_t tid = ctx.globalThread(lane);
            if (tid < v_count) {
                self->appendOwnerLoads(tid, &a);
                const VertexId v = self->ownedVertex(tid);
                owned.push_back(v);
                a.push_back(self->d_color_.addr(v));
                a.push_back(self->d_tentative_.addr(v));
            }
        }
        if (owned.empty())
            co_return;
        co_yield WarpOp::load(a);

        PerLane<VertexId> active;
        for (VertexId v : owned) {
            if (self->d_color_[v] == kInf)
                active.push_back(v);
        }
        if (active.empty())
            co_return;

        a.clear();
        for (VertexId v : active) {
            a.push_back(self->d_row_.addr(v));
            a.push_back(self->d_row_.addr(v + 1));
        }
        co_yield WarpOp::load(a);

        PerLane<std::uint64_t> pos, end;
        PerLane<bool> loses(active.size(), false);
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

            LaneVec ta;
            PerLane<std::pair<std::size_t, VertexId>> nbrs;
            for (std::size_t i : who) {
                const VertexId nb = self->d_col_[pos[i]];
                ++pos[i];
                nbrs.push_back({i, nb});
                ta.push_back(self->d_color_.addr(nb));
                ta.push_back(self->d_tentative_.addr(nb));
            }
            co_yield WarpOp::load(ta);
            for (const auto &[i, nb] : nbrs) {
                const VertexId v = active[i];
                // Conflict iff the neighbour also speculated in this
                // round (fresh stamp) with the same color and outranks
                // us; using the stamp rather than d_color_ keeps the
                // decision independent of intra-round write order.
                if (self->stamp_[nb] == round + 1 &&
                    self->d_tentative_[nb] ==
                        self->d_tentative_[v] &&
                    outranks(nb, v)) {
                    loses[i] = true;
                }
            }
        }

        LaneVec sa;
        for (std::size_t i = 0; i < active.size(); ++i) {
            if (!loses[i]) {
                self->d_color_[active[i]] =
                    self->d_tentative_[active[i]];
                --self->uncolored_;
                sa.push_back(self->d_color_.addr(active[i]));
            }
        }
        if (!sa.empty())
            co_yield WarpOp::store(sa);
    }

  private:
    std::string variant_;
    bool ttc_; //!< TTC indirection through d_order_
    DeviceArray<std::uint32_t> d_color_;
    DeviceArray<std::uint32_t> d_tentative_;
    DeviceArray<VertexId> d_order_;
    std::vector<std::uint32_t> stamp_; //!< host-side round freshness
    VertexId uncolored_ = 0;
    std::uint32_t round_ = 0;
    bool next_is_assign_ = true;
};

} // namespace

std::unique_ptr<Workload>
makeGcWorkload(const std::string &variant)
{
    return std::make_unique<GcWorkload>(variant);
}

} // namespace bauvm

/**
 * @file
 * Regular (Rodinia-style) workload stand-ins for Fig 1: CFD, DWT, GM,
 * H3D, HS, LUD.
 *
 * Each is a block-partitioned streaming/stencil kernel: thread block b
 * exclusively owns tile b of every array, so the pages touched by k
 * concurrently-running blocks grow linearly with k — the property Fig 1
 * contrasts against the irregular graph workloads, whose CSR pages are
 * shared across every SM. The variants differ in array count, pass
 * count, access stride and compute intensity, mimicking the flavour of
 * their namesakes (flux update, wavelet halving, map, 3-point stencil,
 * heat diffusion, in-place elimination passes).
 */

#include <cmath>
#include <string>
#include <vector>

#include "src/sim/log.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factories.h"

namespace bauvm
{
namespace
{

/** Per-variant shape of the computation. */
struct RegularSpec {
    std::uint32_t arrays;   //!< unified-memory arrays (>= 2)
    std::uint32_t passes;   //!< kernel launches
    std::uint32_t stride;   //!< neighbour distance inside the tile
    Cycle compute_cycles;   //!< per-element compute weight
};

RegularSpec
specFor(const std::string &name)
{
    if (name == "CFD")
        return {3, 2, 1, 8};
    if (name == "DWT")
        return {2, 2, 2, 4};
    if (name == "GM")
        return {2, 1, 1, 2};
    if (name == "H3D")
        return {2, 3, 1, 6};
    if (name == "HS")
        return {2, 2, 1, 10};
    if (name == "LUD")
        return {2, 2, 4, 12};
    fatal("RegularWorkload: unknown variant '%s'", name.c_str());
}

std::size_t
elementsFor(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Tiny:
        return 1 << 14;
      case WorkloadScale::Small:
        return 1 << 17;
      case WorkloadScale::Medium:
        return 1 << 20;
      case WorkloadScale::Large:
        return 1 << 22;
      case WorkloadScale::Huge:
        return 1 << 24;
    }
    fatal("RegularWorkload: bad scale");
}

constexpr std::uint32_t kRegTpb = 256;
/** One full wave on the Table 1 machine: 16 SMs x 4 blocks. */
constexpr std::uint32_t kRegBlocks = 64;

class RegularWorkload : public Workload
{
  public:
    explicit RegularWorkload(std::string name)
        : name_(std::move(name)), spec_(specFor(name_))
    {
    }

    std::string name() const override { return name_; }

    void
    build(WorkloadScale scale, std::uint64_t seed) override
    {
        elements_ = elementsFor(scale);
        arrays_.resize(spec_.arrays);
        for (std::uint32_t a = 0; a < spec_.arrays; ++a) {
            arrays_[a] = DeviceArray<float>(
                alloc_, elements_, name_ + "_arr" + std::to_string(a));
        }
        // Deterministic pseudo-input.
        for (std::size_t i = 0; i < elements_; ++i) {
            arrays_[0][i] =
                static_cast<float>((i * 2654435761u + seed) % 1024) /
                1024.0f;
        }
        initial_ = arrays_[0].host();
    }

    bool
    nextKernel(KernelInfo *out) override
    {
        if (pass_ >= spec_.passes)
            return false;
        RegularWorkload *self = this;
        const std::uint32_t pass = pass_;
        out->name = name_ + "-pass" + std::to_string(pass);
        out->threads_per_block = kRegTpb;
        out->regs_per_thread = 32;
        out->num_blocks = kRegBlocks;
        out->make_program = [self, pass](WarpCtx ctx) {
            return passWarp(ctx, self, pass);
        };
        ++pass_;
        return true;
    }

    void
    validate() const override
    {
        // CPU replay of the same recurrence.
        std::vector<float> in = initial_;
        std::vector<float> out(elements_);
        for (std::uint32_t p = 0; p < spec_.passes; ++p) {
            const std::size_t tile = elements_ / kRegBlocks;
            for (std::uint32_t b = 0; b < kRegBlocks; ++b) {
                const std::size_t base = b * tile;
                for (std::size_t i = 0; i < tile; ++i) {
                    const std::size_t j =
                        base + (i + spec_.stride) % tile;
                    out[base + i] = step(in[base + i], in[j]);
                }
            }
            in.swap(out);
        }
        const auto &result =
            spec_.passes % 2 == 1 ? arrays_[1] : arrays_[0];
        for (std::size_t i = 0; i < elements_; ++i) {
            if (std::abs(result[i] - in[i]) > 1e-5f) {
                panic("%s: mismatch at %zu (got %f want %f)",
                      name_.c_str(), i, result[i], in[i]);
            }
        }
    }

    static float
    step(float a, float b)
    {
        return 0.7f * a + 0.3f * b;
    }

    static WarpProgram
    passWarp(WarpCtx ctx, RegularWorkload *self, std::uint32_t pass)
    {
        // Ping-pong between array 0 and 1; extra arrays are read-only
        // ballast touched alongside (more footprint, as their
        // namesakes' auxiliary fields).
        auto &in = self->arrays_[pass % 2];
        auto &out = self->arrays_[(pass + 1) % 2];
        const std::size_t tile = self->elements_ / kRegBlocks;
        const std::size_t base = ctx.block_id * tile;
        const std::size_t per_thread =
            (tile + ctx.threads_per_block - 1) / ctx.threads_per_block;

        for (std::size_t step_i = 0; step_i < per_thread; ++step_i) {
            LaneVec la;
            PerLane<std::size_t> idxs;
            for (std::uint32_t lane = 0; lane < ctx.laneCount();
                 ++lane) {
                const std::size_t local =
                    (ctx.warp_in_block * ctx.warp_size + lane) +
                    step_i * ctx.threads_per_block;
                if (local >= tile)
                    continue;
                const std::size_t i = base + local;
                const std::size_t j =
                    base + (local + self->spec_.stride) % tile;
                idxs.push_back(i);
                la.push_back(in.addr(i));
                la.push_back(in.addr(j));
                for (std::uint32_t a = 2; a < self->spec_.arrays; ++a)
                    la.push_back(self->arrays_[a].addr(i));
            }
            if (idxs.empty())
                co_return;
            co_yield WarpOp::load(la);
            if (self->spec_.compute_cycles > 0)
                co_yield WarpOp::compute(self->spec_.compute_cycles);

            LaneVec sa;
            for (std::size_t i : idxs) {
                const std::size_t local = i - base;
                const std::size_t j =
                    base + (local + self->spec_.stride) % tile;
                out[i] = step(in[i], in[j]);
                sa.push_back(out.addr(i));
            }
            co_yield WarpOp::store(sa);
        }
    }

  private:
    std::string name_;
    RegularSpec spec_;
    std::size_t elements_ = 0;
    std::vector<DeviceArray<float>> arrays_;
    std::vector<float> initial_;
    std::uint32_t pass_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeRegularWorkload(const std::string &name)
{
    return std::make_unique<RegularWorkload>(name);
}

} // namespace bauvm

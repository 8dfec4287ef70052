/**
 * @file
 * Unit tests for the GPU-side building blocks: coalescer, occupancy,
 * warp coroutines.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/gpu/coalescer.h"
#include "src/gpu/occupancy.h"
#include "src/gpu/warp_program.h"

namespace bauvm
{
namespace
{

TEST(Coalescer, FullyCoalescedWarpIsOneTransaction)
{
    Coalescer c(128);
    std::vector<VAddr> addrs;
    for (int lane = 0; lane < 32; ++lane)
        addrs.push_back(0x1000 + lane * 4);
    const auto lines = c.coalesce(addrs);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u);
}

TEST(Coalescer, StridedAccessSplits)
{
    Coalescer c(128);
    std::vector<VAddr> addrs;
    for (int lane = 0; lane < 32; ++lane)
        addrs.push_back(lane * 128);
    EXPECT_EQ(c.coalesce(addrs).size(), 32u);
}

TEST(Coalescer, DuplicateAddressesMerge)
{
    Coalescer c(128);
    std::vector<VAddr> addrs(32, 0x2000);
    EXPECT_EQ(c.coalesce(addrs).size(), 1u);
}

TEST(Coalescer, OutputSortedLineBases)
{
    Coalescer c(128);
    const auto lines = c.coalesce({1000, 5, 300});
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], 0u);
    EXPECT_EQ(lines[1], 256u);
    EXPECT_EQ(lines[2], 896u);
}

TEST(Coalescer, DivergenceStatistic)
{
    Coalescer c(128);
    c.coalesce({0, 4, 8});       // 1 transaction
    c.coalesce({0, 128, 256});   // 3 transactions
    EXPECT_EQ(c.memoryInstructions(), 2u);
    EXPECT_EQ(c.transactions(), 4u);
    EXPECT_DOUBLE_EQ(c.transactionsPerInstruction(), 2.0);
}

KernelInfo
kernelWith(std::uint32_t tpb, std::uint32_t regs, std::uint32_t smem = 0)
{
    KernelInfo k;
    k.name = "test";
    k.threads_per_block = tpb;
    k.regs_per_thread = regs;
    k.smem_bytes_per_block = smem;
    return k;
}

TEST(Occupancy, ThreadLimited)
{
    GpuConfig g;
    const Occupancy occ = computeOccupancy(g, kernelWith(256, 8));
    EXPECT_EQ(occ.thread_limit, 4u);
    EXPECT_EQ(occ.blocks_per_sm, 4u);
    EXPECT_TRUE(occ.sparseCapacityForExtraBlock());
}

TEST(Occupancy, RegisterLimited)
{
    GpuConfig g; // 256 KB regfile
    // 128 threads x 200 regs x 4B = 100 KB per block -> 2 blocks.
    const Occupancy occ = computeOccupancy(g, kernelWith(128, 200));
    EXPECT_EQ(occ.register_limit, 2u);
    EXPECT_EQ(occ.blocks_per_sm, 2u);
}

TEST(Occupancy, GraphKernelHasNoSpareCapacity)
{
    // The paper's argument: at 256 threads x 56 regs, thread and
    // register limits are both ~4: baseline VT cannot host an extra
    // block for free.
    GpuConfig g;
    const Occupancy occ = computeOccupancy(g, kernelWith(256, 56));
    EXPECT_EQ(occ.blocks_per_sm, 4u);
    EXPECT_FALSE(occ.sparseCapacityForExtraBlock());
}

TEST(Occupancy, SharedMemoryLimited)
{
    GpuConfig g;
    const Occupancy occ = computeOccupancy(g, kernelWith(64, 8, 40000));
    EXPECT_EQ(occ.smem_limit, 1u);
    EXPECT_EQ(occ.blocks_per_sm, 1u);
}

TEST(Occupancy, ContextBytesCountRegistersPlusState)
{
    const KernelInfo k = kernelWith(256, 56);
    EXPECT_EQ(contextBytes(k, 5 * 1024), 256u * 56 * 4 + 5 * 1024);
}

WarpProgram
threeOps(WarpCtx)
{
    co_yield WarpOp::compute(5);
    co_yield loadOf(VAddr{0x100}, VAddr{0x200});
    co_yield WarpOp::sync();
}

TEST(WarpProgram, GeneratorYieldsOpsInOrder)
{
    WarpProgram p = threeOps(WarpCtx{});
    ASSERT_TRUE(p.advance());
    EXPECT_EQ(p.current().kind, WarpOp::Kind::Compute);
    EXPECT_EQ(p.current().cycles, 5u);
    ASSERT_TRUE(p.advance());
    EXPECT_EQ(p.current().kind, WarpOp::Kind::Load);
    EXPECT_EQ(p.current().addrs.size(), 2u);
    ASSERT_TRUE(p.advance());
    EXPECT_EQ(p.current().kind, WarpOp::Kind::Sync);
    EXPECT_FALSE(p.advance());
}

// A memory op is a view of addresses the kernel owns; it must stay a
// small value the promise can store without copying any address.
static_assert(sizeof(WarpOp) <= 32);

/** Yields through every kind of address owner a kernel uses. */
WarpProgram
addressOwners(WarpCtx)
{
    LaneVec local; // frame local, inline storage
    for (VAddr i = 0; i < 3; ++i)
        local.push_back(0x1000 + i * 8);
    co_yield WarpOp::load(local);

    LaneVec spilled; // frame local past its inline capacity
    for (VAddr i = 0; i < 2 * LaneVec::kInline; ++i)
        spilled.push_back(0x2000 + i * 4);
    co_yield WarpOp::store(spilled);

    co_yield loadOf(VAddr{0x3000}, VAddr{0x3008}, VAddr{0x3010});

    std::vector<VAddr> vec; // the std::vector overload
    vec.push_back(0x4000);
    vec.push_back(0x4100);
    co_yield WarpOp::atomic(vec);

    co_yield storeOf(VAddr{0x5000});
}

/** Overwrites a stretch of the caller's stack below it, so an address
 *  list left on the stack of the resume call would read back wrong. */
[[gnu::noinline]] VAddr
clobberStack()
{
    volatile VAddr junk[4096];
    for (std::size_t i = 0; i < 4096; ++i)
        junk[i] = ~static_cast<VAddr>(i);
    return junk[4095];
}

TEST(WarpProgram, YieldedAddressesStayValidUntilResume)
{
    auto expect_op = [](const WarpProgram &p, WarpOp::Kind kind,
                        VAddr base, VAddr stride, std::size_t n) {
        const WarpOp &op = p.current();
        EXPECT_EQ(op.kind, kind);
        ASSERT_EQ(op.addrs.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(op.addrs[i], base + i * stride) << "lane " << i;
    };

    WarpProgram p = addressOwners(WarpCtx{});
    ASSERT_TRUE(p.advance());
    EXPECT_EQ(clobberStack(), ~VAddr{4095});
    expect_op(p, WarpOp::Kind::Load, 0x1000, 8, 3);

    ASSERT_TRUE(p.advance());
    EXPECT_EQ(clobberStack(), ~VAddr{4095});
    expect_op(p, WarpOp::Kind::Store, 0x2000, 4, 2 * LaneVec::kInline);

    ASSERT_TRUE(p.advance());
    EXPECT_EQ(clobberStack(), ~VAddr{4095});
    expect_op(p, WarpOp::Kind::Load, 0x3000, 8, 3);

    ASSERT_TRUE(p.advance());
    EXPECT_EQ(clobberStack(), ~VAddr{4095});
    expect_op(p, WarpOp::Kind::Atomic, 0x4000, 0x100, 2);

    ASSERT_TRUE(p.advance());
    EXPECT_EQ(clobberStack(), ~VAddr{4095});
    expect_op(p, WarpOp::Kind::Store, 0x5000, 0, 1);

    EXPECT_FALSE(p.advance());
}

TEST(WarpProgram, MoveTransfersOwnership)
{
    WarpProgram p = threeOps(WarpCtx{});
    WarpProgram q = std::move(p);
    EXPECT_FALSE(p.valid());
    EXPECT_TRUE(q.valid());
    EXPECT_TRUE(q.advance());
}

TEST(WarpProgram, LaneHelpers)
{
    WarpCtx ctx;
    ctx.block_id = 3;
    ctx.warp_in_block = 2;
    ctx.threads_per_block = 96; // 3 warps of 32
    ctx.num_blocks = 8;
    EXPECT_EQ(ctx.laneCount(), 32u);
    EXPECT_EQ(ctx.globalThread(5), 3u * 96 + 2 * 32 + 5);
    EXPECT_EQ(ctx.totalThreads(), 768u);

    ctx.threads_per_block = 80; // warp 2 covers threads 64..79
    EXPECT_EQ(ctx.laneCount(), 16u);
    ctx.warp_in_block = 3; // past the end
    EXPECT_EQ(ctx.laneCount(), 0u);
}

TEST(WarpOp, KindPredicates)
{
    EXPECT_TRUE(WarpOp::load({}).isMemory());
    EXPECT_TRUE(WarpOp::store({}).isMemory());
    EXPECT_TRUE(WarpOp::atomic({}).isMemory());
    EXPECT_FALSE(WarpOp::compute(1).isMemory());
    EXPECT_FALSE(WarpOp::sync().isMemory());
}

} // namespace
} // namespace bauvm

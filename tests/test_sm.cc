/**
 * @file
 * SM-level tests: block lifecycle, barrier semantics, fault
 * suspension/resume, activation/deactivation, and listener events.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/gpu/sm.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/event_queue.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"

namespace bauvm
{
namespace
{

constexpr std::uint64_t kPage = 64 * 1024;

/** Records listener callbacks. */
struct Recorder : SmListener {
    std::vector<std::uint32_t> stalled, finished, inactive_ready;
    void onBlockStalled(std::uint32_t, std::uint32_t slot) override
    {
        stalled.push_back(slot);
    }
    void onBlockFinished(std::uint32_t, std::uint32_t slot) override
    {
        finished.push_back(slot);
    }
    void onInactiveWarpReady(std::uint32_t, std::uint32_t slot) override
    {
        inactive_ready.push_back(slot);
    }
};

class SmTest : public ::testing::Test
{
  protected:
    SmTest()
        : manager_(UvmConfig{}, /*unlimited=*/0),
          hierarchy_(MemConfig{}, 1, kPage, manager_.pageTable()),
          runtime_(UvmConfig{}, events_, manager_, hierarchy_),
          sm_(0, GpuConfig{}, events_, hierarchy_, runtime_, &recorder_)
    {
        runtime_.registerAllocation(0, 1024 * kPage);
    }

    KernelInfo
    kernel(std::uint32_t blocks, std::uint32_t tpb,
           WarpProgramFactory factory)
    {
        KernelInfo k;
        k.name = "t";
        k.num_blocks = blocks;
        k.threads_per_block = tpb;
        k.regs_per_thread = 16;
        k.make_program = std::move(factory);
        return k;
    }

    EventQueue events_;
    GpuMemoryManager manager_;
    MemoryHierarchyT<ObserverMode::None> hierarchy_;
    UvmRuntimeT<ObserverMode::None> runtime_;
    Recorder recorder_;
    SmT<ObserverMode::None> sm_;
};

WarpProgram
computeOnly(WarpCtx)
{
    co_yield WarpOp::compute(10);
    co_yield WarpOp::compute(5);
}

TEST_F(SmTest, BlockRunsToCompletion)
{
    const KernelInfo k = kernel(1, 64, computeOnly);
    sm_.addBlock(&k, 0, true);
    events_.run();
    ASSERT_EQ(recorder_.finished.size(), 1u);
    EXPECT_TRUE(sm_.blockFinished(recorder_.finished[0]));
    // 2 warps x 2 compute ops issued.
    EXPECT_EQ(sm_.issuedInstructions(), 4u);
}

TEST_F(SmTest, InactiveBlockDoesNotIssue)
{
    const KernelInfo k = kernel(1, 64, computeOnly);
    sm_.addBlock(&k, 0, /*active=*/false);
    events_.run();
    EXPECT_EQ(sm_.issuedInstructions(), 0u);
    EXPECT_TRUE(recorder_.finished.empty());
    EXPECT_EQ(sm_.residentBlocks(), 1u);
}

TEST_F(SmTest, ActivationStartsInactiveBlock)
{
    const KernelInfo k = kernel(1, 64, computeOnly);
    const std::uint32_t slot = sm_.addBlock(&k, 0, false);
    sm_.activateBlock(slot, /*delay=*/100);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
    // Nothing could issue before the restore delay elapsed.
    EXPECT_GE(events_.now(), 100u);
}

TEST_F(SmTest, MemoryOpFaultsAndResumes)
{
    const KernelInfo k = kernel(1, 32, [](WarpCtx) -> WarpProgram {
        co_yield loadOf(VAddr{0x10000});
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
    EXPECT_TRUE(manager_.isResident(1)); // page was migrated
    // The single-warp block fully stalled when its only warp faulted.
    EXPECT_FALSE(recorder_.stalled.empty());
}

TEST_F(SmTest, BarrierJoinsAllWarps)
{
    // Warp 0 computes long, warp 1 short; both must meet at the
    // barrier before either proceeds.
    const KernelInfo k = kernel(1, 64, [](WarpCtx ctx) -> WarpProgram {
        co_yield WarpOp::compute(ctx.warp_in_block == 0 ? 500 : 5);
        co_yield WarpOp::sync();
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
    // Completion must be after the slow warp's 500 cycles.
    EXPECT_GT(events_.now(), 500u);
}

TEST_F(SmTest, FinishedWarpReleasesBarrier)
{
    // Warp 1 exits immediately; warp 0's barrier must not deadlock.
    const KernelInfo k = kernel(1, 64, [](WarpCtx ctx) -> WarpProgram {
        if (ctx.warp_in_block == 1)
            co_return;
        co_yield WarpOp::sync();
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
}

TEST_F(SmTest, DeactivatedBlockParksReadyWarps)
{
    const KernelInfo k = kernel(1, 32, [](WarpCtx) -> WarpProgram {
        for (int i = 0; i < 100; ++i)
            co_yield WarpOp::compute(10);
    });
    const std::uint32_t slot = sm_.addBlock(&k, 0, true);
    // Let it run briefly, then deactivate mid-flight.
    events_.run(/*until=*/50);
    sm_.deactivateBlock(slot);
    events_.run();
    EXPECT_TRUE(recorder_.finished.empty());
    EXPECT_FALSE(sm_.blockFinished(slot));
    // Reactivate: it finishes.
    sm_.activateBlock(slot, 0);
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 1u);
}

TEST_F(SmTest, SlotReuseAfterFinish)
{
    const KernelInfo k = kernel(2, 32, computeOnly);
    const std::uint32_t s0 = sm_.addBlock(&k, 0, true);
    events_.run();
    const std::uint32_t s1 = sm_.addBlock(&k, 1, true);
    EXPECT_EQ(s0, s1); // retired slot recycled
    events_.run();
    EXPECT_EQ(recorder_.finished.size(), 2u);
}

TEST_F(SmTest, IssuePortSerializesSameCycleWarps)
{
    // 8 warps all ready at cycle 0: with a 1-wide issue port their
    // first ops issue on consecutive cycles, so the last compute(1)
    // finishes at >= 8 cycles.
    const KernelInfo k = kernel(1, 256, [](WarpCtx) -> WarpProgram {
        co_yield WarpOp::compute(1);
    });
    sm_.addBlock(&k, 0, true);
    events_.run();
    EXPECT_GE(events_.now(), 8u);
    EXPECT_EQ(sm_.issuedInstructions(), 8u);
}

TEST_F(SmTest, SwitchInCandidateTracksRunnability)
{
    const KernelInfo k = kernel(1, 32, computeOnly);
    const std::uint32_t slot = sm_.addBlock(&k, 0, false);
    EXPECT_TRUE(sm_.switchInCandidate(slot)); // fresh block is runnable
    sm_.activateBlock(slot, 0);
    EXPECT_FALSE(sm_.switchInCandidate(slot)); // activating
    events_.run();
    EXPECT_FALSE(sm_.switchInCandidate(slot)); // finished
}

} // namespace
} // namespace bauvm

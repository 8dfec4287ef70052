/**
 * @file
 * Tests for the composed memory hierarchy: translation path, fault
 * detection, cache stacking and eviction shootdown.
 */

#include <gtest/gtest.h>

#include "src/mem/memory_hierarchy.h"
#include "src/mem/page_table.h"

namespace bauvm
{
namespace
{

constexpr std::uint64_t kPage = 64 * 1024;

class MemoryHierarchyTest : public ::testing::Test
{
  protected:
    MemoryHierarchyTest() : hier_(config_, 2, kPage, pt_) {}

    MemConfig config_;
    PageTable pt_;
    MemoryHierarchy hier_;
};

TEST_F(MemoryHierarchyTest, NonResidentPageFaults)
{
    const MemResult r = hier_.access(0, 0x10000, false, 0);
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(r.vpn, 1u);
    // Fault detection takes at least a full cold walk.
    EXPECT_GE(r.done, 4 * config_.dram_latency);
    EXPECT_EQ(hier_.faults(), 1u);
}

TEST_F(MemoryHierarchyTest, ResidentPageCompletes)
{
    pt_.map(1, 1);
    const MemResult r = hier_.access(0, 0x10000, false, 0);
    EXPECT_FALSE(r.fault);
    EXPECT_GT(r.done, 0u);
}

TEST_F(MemoryHierarchyTest, TlbHitSecondAccessIsFaster)
{
    pt_.map(1, 1);
    const MemResult first = hier_.access(0, 0x10000, false, 0);
    // Second access to the same line: L1 TLB hit + L1 cache hit.
    const Cycle start = first.done;
    const MemResult second = hier_.access(0, 0x10000, false, start);
    EXPECT_LT(second.done - start, first.done);
    EXPECT_EQ(second.done - start,
              config_.l1_tlb.hit_latency + config_.l1.hit_latency);
}

TEST_F(MemoryHierarchyTest, FaultDoesNotFillTlb)
{
    hier_.access(0, 0x10000, false, 0); // faults
    pt_.map(1, 1);
    // Next access must still walk (TLB was not filled by the fault),
    // but now succeeds.
    const MemResult r = hier_.access(0, 0x10000, false, 100000);
    EXPECT_FALSE(r.fault);
    EXPECT_GE(r.done - 100000, config_.walk_cache_latency);
}

TEST_F(MemoryHierarchyTest, PerSmL1TlbsArePrivate)
{
    pt_.map(1, 1);
    hier_.access(0, 0x10000, false, 0);
    EXPECT_EQ(hier_.l1Tlb(0).misses(), 1u);
    hier_.access(1, 0x10000, false, 0);
    // SM1 missed its own L1 TLB but hit the shared L2 TLB.
    EXPECT_EQ(hier_.l1Tlb(1).misses(), 1u);
    EXPECT_GE(hier_.l2Tlb().hits(), 1u);
}

TEST_F(MemoryHierarchyTest, InvalidatePageShootsDownAllTlbs)
{
    pt_.map(1, 1);
    hier_.access(0, 0x10000, false, 0);
    hier_.access(1, 0x10000, false, 0);
    hier_.invalidatePage(1);
    pt_.unmap(1);
    const MemResult r = hier_.access(0, 0x10000, false, 50000);
    EXPECT_TRUE(r.fault); // no stale TLB hit
}

TEST_F(MemoryHierarchyTest, PageVersionKillsStaleCacheLines)
{
    pt_.map(1, 1);
    hier_.access(0, 0x10000, false, 0);
    EXPECT_EQ(hier_.l1Cache(0).misses(), 1u);
    // Evict and re-migrate the page: version bump.
    hier_.invalidatePage(1);
    pt_.unmap(1);
    pt_.map(1, 2);
    hier_.access(0, 0x10000, false, 100000);
    // The line key changed with the version: a fresh miss, not a hit
    // on stale data.
    EXPECT_EQ(hier_.l1Cache(0).misses(), 2u);
}

TEST_F(MemoryHierarchyTest, L2SharedAcrossSms)
{
    pt_.map(1, 1);
    hier_.access(0, 0x10000, false, 0);
    const auto l2_misses = hier_.l2Cache().misses();
    hier_.access(1, 0x10000, false, 1000);
    // SM1 misses its private L1 but hits shared L2.
    EXPECT_EQ(hier_.l2Cache().misses(), l2_misses);
    EXPECT_GE(hier_.l2Cache().hits(), 1u);
}

TEST_F(MemoryHierarchyTest, ExtraL2LatencySlowsMisses)
{
    pt_.map(1, 1);
    MemConfig config;
    PageTable pt;
    pt.map(1, 1);
    MemoryHierarchy plain(config, 1, kPage, pt);
    MemoryHierarchy slowed(config, 1, kPage, pt);
    slowed.setExtraL2Latency(100);
    const Cycle t0 = plain.access(0, 0x10000, false, 0).done;
    const Cycle t1 = slowed.access(0, 0x10000, false, 0).done;
    EXPECT_EQ(t1, t0 + 100);
}

TEST_F(MemoryHierarchyTest, MshrLimitStallsFloodOfMisses)
{
    MemConfig config;
    config.mshrs_per_sm = 4;
    PageTable pt;
    for (PageNum p = 0; p < 64; ++p)
        pt.map(p, p);
    MemoryHierarchy hier(config, 1, kPage, pt);
    // 64 distinct lines, same cycle: far more misses than MSHRs.
    for (int i = 0; i < 64; ++i)
        hier.access(0, static_cast<VAddr>(i) * kPage, false, 0);
    EXPECT_GT(hier.mshrStallCycles(), 0u);
}

} // namespace
} // namespace bauvm

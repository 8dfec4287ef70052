/**
 * @file
 * Unit tests for the UVM building blocks: PCIe link, fault buffer,
 * GPU memory manager, lifetime tracker, compression, prefetcher.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/uvm/compression.h"
#include "src/uvm/fault_buffer.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/lifetime_tracker.h"
#include "src/uvm/pcie_link.h"
#include "src/uvm/prefetcher.h"

namespace bauvm
{
namespace
{

TEST(PcieLink, TransferTimeMatchesBandwidth)
{
    UvmConfig config; // 15.75 GB/s
    PcieLink link(config);
    const Cycle t = link.transferCycles(64 * 1024);
    // 65536 B / 15.75 B per cycle = 4161 cycles.
    EXPECT_EQ(t, 4161u);
}

TEST(PcieLink, SameDirectionIsFifo)
{
    UvmConfig config;
    PcieLink link(config);
    const Cycle d1 = link.transfer(PcieDir::HostToDevice, 64 * 1024, 0);
    const Cycle d2 = link.transfer(PcieDir::HostToDevice, 64 * 1024, 0);
    EXPECT_EQ(d2, 2 * d1);
}

TEST(PcieLink, DirectionsAreIndependent)
{
    UvmConfig config;
    PcieLink link(config);
    const Cycle h = link.transfer(PcieDir::HostToDevice, 64 * 1024, 0);
    const Cycle d = link.transfer(PcieDir::DeviceToHost, 64 * 1024, 0);
    EXPECT_EQ(h, d); // full duplex: no serialization
}

TEST(PcieLink, AsymmetricD2hBandwidth)
{
    UvmConfig config;
    config.pcie_d2h_gbps = 31.5; // 2x the H2D rate
    PcieLink link(config);
    const Cycle h = link.transferCycles(64 * 1024,
                                        PcieDir::HostToDevice);
    const Cycle d = link.transferCycles(64 * 1024,
                                        PcieDir::DeviceToHost);
    EXPECT_EQ(d, h / 2);
    const Cycle done =
        link.transfer(PcieDir::DeviceToHost, 64 * 1024, 0);
    EXPECT_EQ(done, d);
}

TEST(PcieLink, ZeroD2hConfigMeansSymmetric)
{
    UvmConfig config; // pcie_d2h_gbps = 0
    PcieLink link(config);
    EXPECT_EQ(link.transferCycles(4096, PcieDir::HostToDevice),
              link.transferCycles(4096, PcieDir::DeviceToHost));
}

TEST(PcieLink, StatsPerDirection)
{
    UvmConfig config;
    PcieLink link(config);
    link.transfer(PcieDir::HostToDevice, 100, 0);
    link.transfer(PcieDir::DeviceToHost, 200, 0);
    EXPECT_EQ(link.bytesMoved(PcieDir::HostToDevice), 100u);
    EXPECT_EQ(link.bytesMoved(PcieDir::DeviceToHost), 200u);
    EXPECT_EQ(link.transfers(PcieDir::HostToDevice), 1u);
}

TEST(FaultBuffer, DeduplicatesPerPage)
{
    PageMetaTable meta;
    FaultBufferT<ObserverMode::None> fb(8, meta);
    fb.insert(5, 10);
    fb.insert(5, 11);
    fb.insert(6, 12);
    EXPECT_EQ(fb.size(), 2u);
    const auto drained = fb.drain();
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].vpn, 5u);
    EXPECT_EQ(drained[0].duplicates, 2u);
    EXPECT_EQ(drained[0].first_cycle, 10u);
    EXPECT_TRUE(fb.empty());
}

TEST(FaultBuffer, OverflowQueuesAndRefills)
{
    PageMetaTable meta;
    FaultBufferT<ObserverMode::None> fb(2, meta);
    fb.insert(1, 0);
    fb.insert(2, 0);
    fb.insert(3, 0); // overflow
    EXPECT_EQ(fb.overflows(), 1u);
    EXPECT_EQ(fb.size(), 2u);
    const auto first = fb.drain();
    EXPECT_EQ(first.size(), 2u);
    // The overflowed fault is now buffered for the next batch.
    EXPECT_EQ(fb.size(), 1u);
    const auto second = fb.drain();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].vpn, 3u);
}

TEST(FaultBuffer, CountsTotalFaults)
{
    PageMetaTable meta;
    FaultBufferT<ObserverMode::None> fb(8, meta);
    fb.insert(1, 0);
    fb.insert(1, 1);
    fb.insert(2, 2);
    EXPECT_EQ(fb.totalFaults(), 3u);
}

TEST(GpuMemoryManager, CapacityAccounting)
{
    UvmConfig config;
    GpuMemoryManager m(config, 2);
    EXPECT_TRUE(m.hasFreeFrame());
    m.reserveFrame();
    m.commitPage(10, 0);
    m.reserveFrame();
    m.commitPage(11, 0);
    EXPECT_TRUE(m.atCapacity());
    EXPECT_EQ(m.committedFrames(), 2u);
}

TEST(GpuMemoryManager, AgedLruEvictsOldestAllocation)
{
    UvmConfig config;
    GpuMemoryManager m(config, 3);
    for (PageNum p : {1, 2, 3}) {
        m.reserveFrame();
        m.commitPage(p, p);
    }
    PageNum victim = 0;
    EXPECT_TRUE(m.beginEviction(&victim, 100));
    EXPECT_EQ(victim, 1u); // allocation order, not access order
    EXPECT_FALSE(m.isResident(1));
    // Frame still committed until the transfer lands.
    EXPECT_EQ(m.committedFrames(), 3u);
    m.completeEviction(victim);
    EXPECT_EQ(m.committedFrames(), 2u);
}

TEST(GpuMemoryManager, PrematureEvictionDetectedOnRefault)
{
    UvmConfig config;
    GpuMemoryManager m(config, 1);
    m.reserveFrame();
    m.commitPage(7, 0);
    PageNum victim;
    m.beginEviction(&victim, 10);
    m.completeEviction(victim);
    EXPECT_EQ(m.prematureEvictions(), 0u);
    m.reserveFrame();
    m.commitPage(7, 20); // the page comes back: premature
    EXPECT_EQ(m.prematureEvictions(), 1u);
    EXPECT_DOUBLE_EQ(m.prematureEvictionRate(), 1.0);
}

TEST(GpuMemoryManager, LifetimeRecordedOnEviction)
{
    UvmConfig config;
    GpuMemoryManager m(config, 1);
    m.reserveFrame();
    m.commitPage(7, 100);
    PageNum victim;
    m.beginEviction(&victim, 350);
    EXPECT_EQ(m.lifetimeTracker().lifetimes().count(), 1u);
    EXPECT_DOUBLE_EQ(m.lifetimeTracker().lifetimes().mean(), 250.0);
}

TEST(GpuMemoryManager, UnlimitedNeverAtCapacity)
{
    UvmConfig config;
    GpuMemoryManager m(config, 0);
    for (PageNum p = 0; p < 1000; ++p) {
        EXPECT_TRUE(m.hasFreeFrame());
        m.reserveFrame();
        m.commitPage(p, 0);
    }
    EXPECT_FALSE(m.atCapacity());
}

TEST(GpuMemoryManager, RootChunkEvictionGroupsPages)
{
    UvmConfig config;
    config.root_chunk_pages = 4;
    GpuMemoryManager m(config, 8);
    // Pages 0..3 share chunk 0; 4..7 share chunk 1.
    for (PageNum p = 0; p < 8; ++p) {
        m.reserveFrame();
        m.commitPage(p, p);
    }
    PageNum v1, v2;
    m.beginEviction(&v1, 100);
    m.beginEviction(&v2, 100);
    // Both victims come from the oldest chunk.
    EXPECT_LT(v1, 4u);
    EXPECT_LT(v2, 4u);
}

TEST(LifetimeTracker, ThrottleOnCollapse)
{
    LifetimeTracker t(1000, 0.2);
    for (int i = 0; i < 10; ++i)
        t.addLifetime(1000);
    EXPECT_EQ(t.update(1000), OversubAdvice::Grow);
    for (int i = 0; i < 10; ++i)
        t.addLifetime(100); // 10x drop
    EXPECT_EQ(t.update(2000), OversubAdvice::Throttle);
    EXPECT_EQ(t.throttleSignals(), 1u);
}

TEST(LifetimeTracker, StableLifetimesGrow)
{
    LifetimeTracker t(1000, 0.2);
    for (int w = 0; w < 3; ++w) {
        for (int i = 0; i < 5; ++i)
            t.addLifetime(500);
        EXPECT_EQ(t.update((w + 1) * 1000), OversubAdvice::Grow);
    }
    EXPECT_EQ(t.growSignals(), 3u);
}

TEST(LifetimeTracker, EmptyWindowNoSignal)
{
    LifetimeTracker t(1000, 0.2);
    EXPECT_EQ(t.update(5000), OversubAdvice::NoChange);
}

TEST(LifetimeTracker, SmallDropWithinThresholdGrows)
{
    LifetimeTracker t(1000, 0.2);
    for (int i = 0; i < 5; ++i)
        t.addLifetime(1000);
    t.update(1000);
    for (int i = 0; i < 5; ++i)
        t.addLifetime(900); // only a 10% drop
    EXPECT_EQ(t.update(2000), OversubAdvice::Grow);
}

TEST(LifetimeTracker, SingleSampleWindowCarriesSignal)
{
    // One eviction is enough to close a window with an average: the
    // very first window has no history to compare against, so it can
    // only grow.
    LifetimeTracker t(1000, 0.2);
    t.addLifetime(700);
    EXPECT_EQ(t.update(1000), OversubAdvice::Grow);
    EXPECT_DOUBLE_EQ(t.runningAverage(), 700.0);

    // A later single-sample window collapsing past the threshold
    // throttles just like a populated one.
    t.addLifetime(70);
    EXPECT_EQ(t.update(2000), OversubAdvice::Throttle);
}

TEST(LifetimeTracker, MonotoneDecreaseKeepsThrottling)
{
    // Lifetimes collapsing by >20% window over window must emit a
    // throttle every window, not just once: the running average decays
    // slower than the per-window average, so each new window stays
    // below the (1 - threshold) bar.
    LifetimeTracker t(1000, 0.2);
    Cycle life = 10000;
    for (int i = 0; i < 4; ++i)
        t.addLifetime(life);
    EXPECT_EQ(t.update(1000), OversubAdvice::Grow);

    for (int w = 1; w <= 3; ++w) {
        life /= 2; // 50% drop each window, far past the 20% threshold
        for (int i = 0; i < 4; ++i)
            t.addLifetime(life);
        EXPECT_EQ(t.update((w + 1) * 1000), OversubAdvice::Throttle)
            << "window " << w;
    }
    EXPECT_EQ(t.throttleSignals(), 3u);
    EXPECT_EQ(t.growSignals(), 1u);
}

TEST(LifetimeTracker, RunningAverageIsMeanOfClosedWindowAverages)
{
    LifetimeTracker t(1000, 0.2);
    t.addLifetime(100);
    t.addLifetime(300); // window 1 average: 200
    t.update(1000);
    t.addLifetime(600); // window 2 average: 600
    t.update(2000);
    EXPECT_DOUBLE_EQ(t.runningAverage(), 400.0);
}

TEST(LifetimeTracker, GapWindowsWithNoEvictionsCarryNoSignal)
{
    // The clock jumping several windows ahead with an empty window
    // buffer must not divide by zero or fabricate advice.
    LifetimeTracker t(1000, 0.2);
    for (int i = 0; i < 3; ++i)
        t.addLifetime(500);
    EXPECT_EQ(t.update(1000), OversubAdvice::Grow);
    EXPECT_EQ(t.update(9000), OversubAdvice::NoChange);
    EXPECT_DOUBLE_EQ(t.runningAverage(), 500.0);
}

TEST(CompressionModel, DisabledIsIdentity)
{
    CompressionModel c(1.0);
    EXPECT_FALSE(c.enabled());
    EXPECT_EQ(c.compressedBytes(5, 1000), 1000u);
    EXPECT_DOUBLE_EQ(c.ratioFor(5), 1.0);
}

TEST(CompressionModel, RatiosAreDeterministicAndNearMean)
{
    CompressionModel c(2.0, 0.25);
    double sum = 0.0;
    for (PageNum p = 0; p < 1000; ++p) {
        const double r = c.ratioFor(p);
        EXPECT_EQ(r, c.ratioFor(p)); // deterministic
        EXPECT_GE(r, 1.0);
        EXPECT_LE(r, 2.0 * 1.25 + 1e-9);
        sum += r;
    }
    EXPECT_NEAR(sum / 1000.0, 2.0, 0.1);
}

TEST(CompressionModel, CompressedBytesShrink)
{
    CompressionModel c(2.0);
    EXPECT_LT(c.compressedBytes(3, 64 * 1024), 64u * 1024);
    EXPECT_GE(c.compressedBytes(3, 64 * 1024), 1u);
}

class PrefetcherTest : public ::testing::Test
{
  protected:
    PrefetcherTest()
        : prefetcher_(
              config_,
              [this](PageNum p) { return resident_.count(p) > 0; },
              [this](PageNum p) { return p < valid_limit_; })
    {
    }

    UvmConfig config_; // 64KB pages, 2MB blocks: 32 pages per block
    std::set<PageNum> resident_;
    PageNum valid_limit_ = 1000000;
    TreePrefetcher prefetcher_;
};

TEST_F(PrefetcherTest, NoPrefetchBelowDensity)
{
    // 1 fault in an empty 32-page block: every subtree is <= 50%.
    const auto p = prefetcher_.computePrefetches({0});
    EXPECT_TRUE(p.empty());
}

TEST_F(PrefetcherTest, PairCompletionAtLeafLevel)
{
    // Faulting page 0 with page 1 resident: the 2-page subtree is 50%
    // -> not strictly above threshold. Fault both halves of a 2-pair:
    // {0,1} full; {2} faulted with 3 absent: subtree {2,3} at 50% stays.
    // Use 3 pages of a 4-page subtree: density 75% > 50% -> fetch the
    // 4th.
    const auto p = prefetcher_.computePrefetches({0, 1, 2});
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 3u);
}

TEST_F(PrefetcherTest, ResidentPagesCountTowardDensity)
{
    resident_ = {0, 1};
    const auto p = prefetcher_.computePrefetches({2});
    // {0,1,2} of the first 4-page subtree occupied: fetch page 3.
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 3u);
}

TEST_F(PrefetcherTest, CascadesUpTheTree)
{
    // Occupy >50% of the whole 32-page block: the root subtree fills.
    std::vector<PageNum> faults;
    for (PageNum p = 0; p < 17; ++p)
        faults.push_back(p);
    const auto p = prefetcher_.computePrefetches(faults);
    EXPECT_EQ(p.size(), 15u); // the remaining pages of the block
}

TEST_F(PrefetcherTest, NeverPrefetchesInvalidPages)
{
    valid_limit_ = 3; // pages >= 3 are outside any allocation
    const auto p = prefetcher_.computePrefetches({0, 1, 2});
    EXPECT_TRUE(p.empty());
}

TEST_F(PrefetcherTest, BlocksAreIndependent)
{
    // Faults dense in block 0 must not prefetch into block 1.
    std::vector<PageNum> faults;
    for (PageNum p = 0; p < 17; ++p)
        faults.push_back(p);
    const auto p = prefetcher_.computePrefetches(faults);
    for (PageNum pf : p)
        EXPECT_LT(pf, 32u);
}

TEST_F(PrefetcherTest, SequentialPolicyFetchesNextPages)
{
    UvmConfig config;
    config.sequential_prefetch_pages = 2;
    TreePrefetcher seq(
        config, [this](PageNum p) { return resident_.count(p) > 0; },
        [this](PageNum p) { return p < valid_limit_; });
    const auto p = seq.computePrefetches({10});
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 11u);
    EXPECT_EQ(p[1], 12u);
}

TEST_F(PrefetcherTest, SequentialPolicySkipsResidentAndInvalid)
{
    UvmConfig config;
    config.sequential_prefetch_pages = 3;
    resident_ = {11};
    valid_limit_ = 13; // pages >= 13 invalid
    TreePrefetcher seq(
        config, [this](PageNum p) { return resident_.count(p) > 0; },
        [this](PageNum p) { return p < valid_limit_; });
    const auto p = seq.computePrefetches({10});
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 12u);
}

TEST_F(PrefetcherTest, SequentialPolicyDeduplicatesOverlaps)
{
    UvmConfig config;
    config.sequential_prefetch_pages = 2;
    TreePrefetcher seq(
        config, [this](PageNum p) { return resident_.count(p) > 0; },
        [this](PageNum p) { return p < valid_limit_; });
    // 10 and 11 both want page 12.
    const auto p = seq.computePrefetches({10, 11});
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 12u);
    EXPECT_EQ(p[1], 13u);
}

TEST_F(PrefetcherTest, OutputSortedAndDisjointFromFaults)
{
    std::vector<PageNum> faults = {0, 1, 2, 8, 9, 10};
    const auto p = prefetcher_.computePrefetches(faults);
    for (std::size_t i = 1; i < p.size(); ++i)
        EXPECT_LT(p[i - 1], p[i]);
    for (PageNum pf : p) {
        for (PageNum f : faults)
            EXPECT_NE(pf, f);
    }
}

} // namespace
} // namespace bauvm

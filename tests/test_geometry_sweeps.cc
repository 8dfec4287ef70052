/**
 * @file
 * Parameterized property sweeps over hardware geometry: caches, TLBs,
 * fault-buffer capacity and PCIe bandwidth must respect monotonicity
 * and conservation invariants across their configuration spaces.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "src/mem/cache.h"
#include "src/mem/memory_hierarchy.h"
#include "src/mem/tlb.h"
#include "src/sim/rng.h"
#include "src/uvm/fault_buffer.h"
#include "src/uvm/pcie_link.h"

namespace bauvm
{
namespace
{

// ---------------------------------------------------------------- TLB

class TlbGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(TlbGeometry, WorkingSetWithinCapacityAlwaysHits)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(TlbConfig{entries, assoc, 1}, "t");
    // Touch exactly `ways` pages of a single set, then re-touch: with
    // true LRU they all still hit.
    const std::uint32_t ways = assoc == 0 ? entries : assoc;
    const std::uint32_t sets = entries / ways;
    for (std::uint32_t i = 0; i < ways; ++i)
        tlb.insert(static_cast<PageNum>(i) * sets);
    for (std::uint32_t i = 0; i < ways; ++i)
        EXPECT_TRUE(tlb.lookup(static_cast<PageNum>(i) * sets));
}

TEST_P(TlbGeometry, HitsPlusMissesEqualLookups)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(TlbConfig{entries, assoc, 1}, "t");
    Rng rng(3);
    const int lookups = 5000;
    for (int i = 0; i < lookups; ++i) {
        const PageNum vpn = rng.nextBelow(entries * 4);
        if (!tlb.lookup(vpn))
            tlb.insert(vpn);
    }
    EXPECT_EQ(tlb.hits() + tlb.misses(),
              static_cast<std::uint64_t>(lookups));
    EXPECT_GT(tlb.hits(), 0u);
    EXPECT_GT(tlb.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Values(std::make_tuple(16u, 0u),
                      std::make_tuple(64u, 0u),
                      std::make_tuple(64u, 4u),
                      std::make_tuple(1024u, 32u),
                      std::make_tuple(256u, 8u)));

// -------------------------------------------------------------- Cache

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheGeometry, BiggerCacheNeverHitsLess)
{
    const auto [size, assoc] = GetParam();
    Cache small(CacheConfig{size, assoc, 128, 10}, "s");
    Cache big(CacheConfig{size * 4, assoc, 128, 10}, "b");
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
        // Zipf-ish reuse: low line numbers dominate.
        const std::uint64_t line =
            rng.nextBelow(rng.nextBool(0.8) ? 64 : 4096);
        small.access(line, false);
        big.access(line, false);
    }
    EXPECT_GE(big.hits(), small.hits());
}

TEST_P(CacheGeometry, SequentialRefillEvictsEverything)
{
    const auto [size, assoc] = GetParam();
    Cache c(CacheConfig{size, assoc, 128, 10}, "c");
    const std::uint64_t lines = size / 128;
    // Two passes over 2x the capacity: second pass of the first half
    // must miss again (LRU evicted it during the tail of pass one).
    for (std::uint64_t i = 0; i < 2 * lines; ++i)
        c.access(i, false);
    const auto misses_before = c.misses();
    for (std::uint64_t i = 0; i < lines / 2; ++i)
        c.access(i, false);
    EXPECT_GT(c.misses(), misses_before);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(4096ull, 2u),
                      std::make_tuple(16384ull, 4u),
                      std::make_tuple(65536ull, 8u),
                      std::make_tuple(2097152ull, 16u)));

// -------------------------------------------------------- FaultBuffer

class FaultBufferCapacity
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FaultBufferCapacity, NeverHoldsMoreThanCapacity)
{
    PageMetaTable meta;
    FaultBuffer fb(GetParam(), meta);
    for (PageNum p = 0; p < 4096; ++p)
        fb.insert(p, p);
    EXPECT_LE(fb.size(), GetParam());
}

TEST_P(FaultBufferCapacity, DrainsEverythingEventually)
{
    const std::uint32_t cap = GetParam();
    PageMetaTable meta;
    FaultBuffer fb(cap, meta);
    const PageNum total = cap * 3;
    for (PageNum p = 0; p < total; ++p)
        fb.insert(p, p);
    PageNum drained = 0;
    while (!fb.empty())
        drained += fb.drain().size();
    EXPECT_EQ(drained, total);
}

INSTANTIATE_TEST_SUITE_P(Capacities, FaultBufferCapacity,
                         ::testing::Values(1u, 16u, 64u, 256u, 1024u));

// --------------------------------------------------------------- PCIe

class PcieBandwidth : public ::testing::TestWithParam<double>
{
};

TEST_P(PcieBandwidth, DurationScalesInverselyWithBandwidth)
{
    UvmConfig config;
    config.pcie_gbps = GetParam();
    PcieLink link(config);
    const Cycle t = link.transferCycles(1 << 20);
    const double expected = (1 << 20) / GetParam();
    EXPECT_NEAR(static_cast<double>(t), expected, 1.0);
}

TEST_P(PcieBandwidth, BusyCyclesSumOfTransfers)
{
    UvmConfig config;
    config.pcie_gbps = GetParam();
    PcieLink link(config);
    Cycle sum = 0;
    for (int i = 0; i < 10; ++i)
        sum += link.transferCycles(64 * 1024);
    for (int i = 0; i < 10; ++i)
        link.transfer(PcieDir::HostToDevice, 64 * 1024, 0);
    EXPECT_EQ(link.busyCycles(PcieDir::HostToDevice), sum);
}

INSTANTIATE_TEST_SUITE_P(Rates, PcieBandwidth,
                         ::testing::Values(4.0, 15.75, 31.5, 63.0));

// -------------------------------------------- hierarchy monotonicity

class PageCountSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PageCountSweep, ResidentPagesNeverFault)
{
    const std::uint32_t pages = GetParam();
    MemConfig config;
    PageTable pt;
    for (PageNum p = 0; p < pages; ++p)
        pt.map(p, p);
    MemoryHierarchy hier(config, 1, 64 * 1024, pt);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const VAddr addr = rng.nextBelow(pages) * 64 * 1024 +
                           rng.nextBelow(64 * 1024 / 4) * 4;
        const MemResult r = hier.access(0, addr, false, i * 10);
        EXPECT_FALSE(r.fault);
    }
    EXPECT_EQ(hier.faults(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageCountSweep,
                         ::testing::Values(1u, 8u, 64u, 512u));

} // namespace
} // namespace bauvm

/**
 * @file
 * Unit tests for TLB, cache, page table, page-walk cache, walker and
 * DRAM models.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/memory_hierarchy.h"
#include "src/mem/page_table.h"
#include "src/mem/page_table_walker.h"
#include "src/mem/page_walk_cache.h"
#include "src/mem/slot_queue.h"
#include "src/mem/tlb.h"
#include "src/sim/log.h"

namespace bauvm
{
namespace
{

TEST(Tlb, HitMissCounting)
{
    Tlb tlb(TlbConfig{4, 0, 1}, "t");
    EXPECT_FALSE(tlb.lookup(1));
    tlb.insert(1);
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(Tlb, CapacityEviction)
{
    Tlb tlb(TlbConfig{2, 0, 1}, "t");
    tlb.insert(1);
    tlb.insert(2);
    tlb.lookup(1); // refresh
    tlb.insert(3); // evicts 2
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, InvalidateShootdown)
{
    Tlb tlb(TlbConfig{4, 0, 1}, "t");
    tlb.insert(9);
    tlb.invalidate(9);
    EXPECT_FALSE(tlb.lookup(9));
}

TEST(Tlb, FlushDropsAll)
{
    Tlb tlb(TlbConfig{4, 0, 1}, "t");
    tlb.insert(1);
    tlb.insert(2);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
}

TEST(Cache, HitAfterFill)
{
    Cache c(CacheConfig{1024, 4, 128, 10}, "c");
    EXPECT_FALSE(c.access(0, false)); // miss fills
    EXPECT_TRUE(c.access(0, false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, EvictionCountsOnConflict)
{
    // 1024B / 128B lines / 4-way = 2 sets; keys with same parity share
    // a set.
    Cache c(CacheConfig{1024, 4, 128, 10}, "c");
    for (std::uint64_t k = 0; k < 5; ++k)
        c.access(k * 2, false); // all in set 0
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, VersionedKeysSeparate)
{
    Cache c(CacheConfig{1024, 4, 128, 10}, "c");
    const std::uint64_t line = 12;
    c.access(line, false);
    // Same line, bumped page version => different key => miss.
    const std::uint64_t versioned = (1ull << 40) ^ line;
    EXPECT_FALSE(c.access(versioned, false));
}

TEST(PageTable, MapUnmapResidency)
{
    PageTable pt;
    EXPECT_FALSE(pt.isResident(5));
    pt.map(5, 3);
    EXPECT_TRUE(pt.isResident(5));
    EXPECT_EQ(pt.frameOf(5), 3u);
    EXPECT_EQ(pt.residentPages(), 1u);
    pt.unmap(5);
    EXPECT_FALSE(pt.isResident(5));
}

TEST(PageTable, VersionBumpsOnUnmap)
{
    PageTable pt;
    EXPECT_EQ(pt.version(5), 0u);
    pt.map(5, 1);
    pt.unmap(5);
    EXPECT_EQ(pt.version(5), 1u);
    pt.map(5, 2);
    pt.unmap(5);
    EXPECT_EQ(pt.version(5), 2u);
}

TEST(PageWalkCache, HitAfterInsertPerLevel)
{
    PageWalkCache pwc(16);
    EXPECT_FALSE(pwc.lookup(2, 0x1234));
    pwc.insert(2, 0x1234);
    EXPECT_TRUE(pwc.lookup(2, 0x1234));
    // A different level is a separate entry.
    EXPECT_FALSE(pwc.lookup(3, 0x1234));
}

TEST(PageWalkCache, NearbyPagesShareUpperLevels)
{
    PageWalkCache pwc(16);
    pwc.insert(4, 100);
    // Pages within the same level-4 region share the entry
    // (the key drops 9*4 = 36 low bits).
    EXPECT_TRUE(pwc.lookup(4, 100 + 1));
}

TEST(PageTableWalker, ColdWalkCostsMemoryPerLevel)
{
    MemConfig config;
    config.page_table_levels = 4;
    PageTableWalker w(config);
    // Cold: 3 upper-level misses + leaf = 4 * dram_latency.
    const Cycle done = w.walk(0, 0);
    EXPECT_EQ(done, 4 * config.dram_latency);
}

TEST(PageTableWalker, WarmWalkUsesWalkCache)
{
    MemConfig config;
    PageTableWalker w(config);
    w.walk(0, 0);
    const Cycle start = 10000;
    const Cycle done = w.walk(1, start); // same upper levels as page 0
    EXPECT_EQ(done - start,
              3 * config.walk_cache_latency + config.dram_latency);
}

TEST(PageTableWalker, ThreadLimitQueues)
{
    MemConfig config;
    config.walker_threads = 2;
    config.walk_cache_entries = 4;
    PageTableWalker w(config);
    // Three concurrent cold walks with only two threads: the third
    // waits for the first to finish.
    const Cycle d1 = w.walk(0, 0);
    const Cycle d2 = w.walk(1ull << 40, 0);
    const Cycle d3 = w.walk(2ull << 40, 0);
    EXPECT_GE(d3, d1);
    EXPECT_GT(w.queueingCycles(), 0u);
    (void)d2;
}

TEST(PageTableWalker, ZeroThreadsIsAFatalConfigError)
{
    MemConfig config;
    config.walker_threads = 0;
    ScopedAbortCapture capture;
    EXPECT_THROW(PageTableWalker w(config), SimAbort);
}

TEST(MemoryHierarchyConfig, ZeroSlotPoolsAreFatalConfigErrors)
{
    PageTable pt;
    ScopedAbortCapture capture;
    MemConfig no_mshrs;
    no_mshrs.mshrs_per_sm = 0;
    EXPECT_THROW((MemoryHierarchy(no_mshrs, 2, 64 * 1024, pt)),
                 SimAbort);
    MemConfig no_walkers;
    no_walkers.walker_threads = 0;
    EXPECT_THROW((MemoryHierarchy(no_walkers, 2, 64 * 1024, pt)),
                 SimAbort);
}

TEST(SlotQueue, MatchesPriorityQueueOnSlotPoolTraffic)
{
    // The MSHR/walker pattern: drain everything due by `now`, take the
    // earliest slot when the pool is full, then occupy one until a
    // later cycle. Narrow time ranges force duplicate and equal-time
    // entries.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        std::mt19937_64 rng(seed);
        const std::size_t cap = 1 + seed * 7;
        SlotQueue q;
        q.reserve(cap);
        std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>>
            ref;
        Cycle now = 0;
        for (int op = 0; op < 100000; ++op) {
            now += rng() % 4;
            while (!ref.empty() && ref.top() <= now) {
                ASSERT_FALSE(q.empty());
                ASSERT_EQ(q.top(), ref.top());
                q.pop();
                ref.pop();
            }
            ASSERT_EQ(q.size(), ref.size());
            Cycle begin = now;
            if (ref.size() >= cap) {
                ASSERT_EQ(q.top(), ref.top());
                begin = ref.top();
                q.pop();
                ref.pop();
            }
            const Cycle done = begin + rng() % 16;
            q.push(done);
            ref.push(done);
            ASSERT_EQ(q.top(), ref.top()) << "op " << op;
        }
    }
}

TEST(SlotQueue, ArbitraryPushPopOrderKeepsTheMultiset)
{
    std::mt19937_64 rng(9);
    SlotQueue q;
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>> ref;
    for (int op = 0; op < 50000; ++op) {
        if (!ref.empty() && rng() % 3 == 0) {
            ASSERT_EQ(q.top(), ref.top());
            q.pop();
            ref.pop();
        } else {
            const Cycle t = rng() % 32; // out of order, many repeats
            q.push(t);
            ref.push(t);
        }
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(q.top(), ref.top());
        }
    }
}

TEST(Dram, LatencyPlusBandwidth)
{
    MemConfig config;
    Dram d(config);
    const Cycle done = d.access(128, 0);
    EXPECT_EQ(done, config.dram_latency + 128 / config.dram_bytes_per_cycle);
}

TEST(Dram, ChannelSerializesBackToBack)
{
    MemConfig config;
    Dram d(config);
    const Cycle d1 = d.access(128, 0);
    const Cycle d2 = d.access(128, 0);
    EXPECT_EQ(d2, d1 + 128 / config.dram_bytes_per_cycle);
    EXPECT_GT(d.queueingCycles(), 0u);
}

TEST(Dram, IdleChannelNoQueueing)
{
    MemConfig config;
    Dram d(config);
    d.access(128, 0);
    const std::uint64_t q = d.queueingCycles();
    d.access(128, 100000);
    EXPECT_EQ(d.queueingCycles(), q);
}

} // namespace
} // namespace bauvm

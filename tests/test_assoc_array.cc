/**
 * @file
 * Unit tests for the set-associative array underlying caches and TLBs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/mem/assoc_array.h"

namespace bauvm
{
namespace
{

TEST(AssocArray, MissOnEmpty)
{
    AssocArray a(8, 2);
    EXPECT_FALSE(a.lookup(5));
    EXPECT_FALSE(a.probe(5));
}

TEST(AssocArray, HitAfterInsert)
{
    AssocArray a(8, 2);
    a.insert(5);
    EXPECT_TRUE(a.lookup(5));
    EXPECT_TRUE(a.probe(5));
    EXPECT_EQ(a.validCount(), 1u);
}

TEST(AssocArray, LruEvictsOldestInSet)
{
    AssocArray a(4, 2); // 2 sets x 2 ways; keys 0,2,4 share set 0
    a.insert(0);
    a.insert(2);
    a.lookup(0); // refresh 0; 2 becomes LRU
    std::uint64_t evicted = 0;
    EXPECT_TRUE(a.insert(4, &evicted));
    EXPECT_EQ(evicted, 2u);
    EXPECT_TRUE(a.probe(0));
    EXPECT_FALSE(a.probe(2));
    EXPECT_TRUE(a.probe(4));
}

TEST(AssocArray, InsertExistingRefreshesWithoutEviction)
{
    AssocArray a(4, 2);
    a.insert(0);
    a.insert(2);
    EXPECT_FALSE(a.insert(0)); // no displacement
    std::uint64_t evicted = 0;
    a.insert(4, &evicted);
    EXPECT_EQ(evicted, 2u); // 0 was refreshed by the re-insert
}

TEST(AssocArray, SetsIsolateKeys)
{
    AssocArray a(4, 2); // keys 1,3 go to set 1
    a.insert(0);
    a.insert(2);
    a.insert(1); // different set: no eviction in set 0
    EXPECT_TRUE(a.probe(0));
    EXPECT_TRUE(a.probe(2));
}

TEST(AssocArray, FullyAssociativeUsesAllEntries)
{
    AssocArray a(4, 0);
    for (std::uint64_t k = 0; k < 4; ++k)
        a.insert(k * 17);
    EXPECT_EQ(a.validCount(), 4u);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_TRUE(a.probe(k * 17));
    a.insert(999);
    EXPECT_EQ(a.validCount(), 4u); // one got displaced
}

TEST(AssocArray, InvalidateRemovesKey)
{
    AssocArray a(8, 2);
    a.insert(7);
    EXPECT_TRUE(a.invalidate(7));
    EXPECT_FALSE(a.invalidate(7));
    EXPECT_FALSE(a.probe(7));
}

TEST(AssocArray, FlushClearsEverything)
{
    AssocArray a(8, 0);
    for (std::uint64_t k = 0; k < 8; ++k)
        a.insert(k);
    a.flush();
    EXPECT_EQ(a.validCount(), 0u);
}

TEST(AssocArray, InvalidateIfPredicate)
{
    AssocArray a(8, 0);
    for (std::uint64_t k = 0; k < 8; ++k)
        a.insert(k);
    const std::size_t n =
        a.invalidateIf([](std::uint64_t k) { return k % 2 == 0; });
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(a.validCount(), 4u);
    EXPECT_FALSE(a.probe(0));
    EXPECT_TRUE(a.probe(1));
}

TEST(AssocArray, InvalidateFullyClearsLineState)
{
    AssocArray a(4, 2);
    a.insert(0);
    a.insert(2);
    a.lookup(2); // give both lines nonzero last_use
    ASSERT_TRUE(a.invalidate(2));

    // The dead line must be wiped completely: a stale key could match
    // in a loop that forgets the valid check, and a stale last_use
    // would bias LRU victim choice.
    bool found_cleared = false;
    for (std::size_t s = 0; s < a.numSets(); ++s) {
        for (std::size_t w = 0; w < a.numWays(); ++w) {
            const auto l = a.lineAt(s, w);
            if (l.valid)
                continue;
            EXPECT_EQ(l.key, 0u);
            EXPECT_EQ(l.last_use, 0u);
            found_cleared = true;
        }
    }
    EXPECT_TRUE(found_cleared);

    // And a cleared line is treated as empty, not as the LRU loser:
    // the next insert into that set reuses it without displacing 0.
    std::uint64_t evicted = 0;
    EXPECT_FALSE(a.insert(4, &evicted));
    EXPECT_TRUE(a.probe(0));
}

TEST(AssocArray, FlushClearsLineStateEverywhere)
{
    AssocArray a(8, 0);
    for (std::uint64_t k = 0; k < 8; ++k)
        a.insert(k);
    a.flush();
    for (std::size_t w = 0; w < a.numWays(); ++w) {
        const auto l = a.lineAt(0, w);
        EXPECT_FALSE(l.valid);
        EXPECT_EQ(l.key, 0u);
        EXPECT_EQ(l.last_use, 0u);
    }
}

TEST(AssocArray, ProbeDoesNotDisturbLru)
{
    AssocArray a(4, 2);
    a.insert(0);
    a.insert(2);
    a.probe(0); // must NOT refresh
    std::uint64_t evicted = 0;
    a.insert(4, &evicted);
    EXPECT_EQ(evicted, 0u); // 0 still LRU
}

// ---------------------------------------------------------------------
// Differential check against the plain way-scan array
// ---------------------------------------------------------------------

/**
 * Reference model: every operation scans the set's ways, and the victim
 * is the first invalid way, else the way with the smallest last-use
 * tick. AssocArray must match it op for op, including the raw line
 * state lineAt() reports, whichever organization it picked.
 */
class ScanArray
{
  public:
    ScanArray(std::uint32_t entries, std::uint32_t associativity)
        : ways_(associativity == 0 ? entries : associativity),
          sets_(entries / ways_), valid_(entries, 0), keys_(entries, 0),
          last_use_(entries, 0)
    {
    }

    bool
    lookup(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        last_use_[i] = ++tick_;
        return true;
    }

    bool probe(std::uint64_t key) const { return find(key) != kNone; }

    bool
    insert(std::uint64_t key, std::uint64_t *evicted_key)
    {
        const std::size_t hit = find(key);
        if (hit != kNone) {
            last_use_[hit] = ++tick_;
            return false;
        }
        const std::size_t base = (key % sets_) * ways_;
        std::size_t victim = kNone;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (!valid_[i]) {
                victim = i;
                break;
            }
            if (victim == kNone || last_use_[i] < last_use_[victim])
                victim = i;
        }
        const bool displaced = valid_[victim] != 0;
        if (displaced)
            *evicted_key = keys_[victim];
        valid_[victim] = 1;
        keys_[victim] = key;
        last_use_[victim] = ++tick_;
        return displaced;
    }

    bool
    invalidate(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        clear(i);
        return true;
    }

    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (valid_[i] && pred(keys_[i])) {
                clear(i);
                ++n;
            }
        }
        return n;
    }

    void
    flush()
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            clear(i);
    }

    AssocArray::LineView
    lineAt(std::size_t set, std::size_t way) const
    {
        const std::size_t i = set * ways_ + way;
        return {valid_[i] != 0, keys_[i], last_use_[i]};
    }

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    std::size_t
    find(std::uint64_t key) const
    {
        const std::size_t base = (key % sets_) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (valid_[i] && keys_[i] == key)
                return i;
        return kNone;
    }

    void
    clear(std::size_t i)
    {
        valid_[i] = 0;
        keys_[i] = 0;
        last_use_[i] = 0;
    }

    std::size_t ways_;
    std::size_t sets_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> last_use_;
    std::uint64_t tick_ = 0;
};

/** Runs @p ops seeded random operations on both arrays in lockstep. */
void
runDifferential(std::uint32_t entries, std::uint32_t associativity,
                std::uint64_t seed, int ops)
{
    SCOPED_TRACE(testing::Message() << entries << " entries, "
                                    << associativity << "-way, seed "
                                    << seed);
    AssocArray dut(entries, associativity);
    ScanArray ref(entries, associativity);
    std::mt19937_64 rng(seed);

    // Key pool: dense small keys (so sets fill and collide, key 0
    // included) plus sparse 64-bit keys like the walk cache's
    // level-tagged ones. Twice the capacity keeps hits and misses both
    // common.
    std::vector<std::uint64_t> pool;
    for (std::uint64_t k = 0; k < entries; ++k)
        pool.push_back(k);
    for (std::uint32_t k = 0; k < entries + 1; ++k)
        pool.push_back(rng());
    // A hot subset of the pool draws most operations, as a warp's
    // pages do.
    const std::size_t hot = std::max<std::size_t>(1, pool.size() / 8);
    auto pick = [&] {
        const std::size_t n = rng() % 4 ? hot : pool.size();
        return pool[rng() % n];
    };

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t key = pick();
        const unsigned kind = rng() % 100;
        if (kind < 40) {
            ASSERT_EQ(dut.lookup(key), ref.lookup(key)) << "op " << op;
        } else if (kind < 75) {
            std::uint64_t ev_dut = 0xdead, ev_ref = 0xdead;
            ASSERT_EQ(dut.insert(key, &ev_dut), ref.insert(key, &ev_ref))
                << "op " << op;
            ASSERT_EQ(ev_dut, ev_ref) << "op " << op;
        } else if (kind < 85) {
            ASSERT_EQ(dut.probe(key), ref.probe(key)) << "op " << op;
        } else if (kind < 98) {
            ASSERT_EQ(dut.invalidate(key), ref.invalidate(key))
                << "op " << op;
        } else if (kind < 99) {
            const std::uint64_t m = 2 + rng() % 5, r = rng() % m;
            auto pred = [m, r](std::uint64_t k) { return k % m == r; };
            ASSERT_EQ(dut.invalidateIf(pred), ref.invalidateIf(pred))
                << "op " << op;
        } else if (rng() % 8 == 0) {
            dut.flush();
            ref.flush();
        }
        for (std::size_t s = 0; s < dut.numSets(); ++s) {
            for (std::size_t w = 0; w < dut.numWays(); ++w) {
                const auto a = dut.lineAt(s, w), b = ref.lineAt(s, w);
                if (a.valid != b.valid || a.key != b.key ||
                    a.last_use != b.last_use)
                    FAIL() << "op " << op << ": line (" << s << ", " << w
                           << ") is {" << a.valid << ", " << a.key << ", "
                           << a.last_use << "}, scan has {" << b.valid
                           << ", " << b.key << ", " << b.last_use << "}";
            }
        }
    }
}

TEST(AssocArrayDifferential, FullyAssociative64Way)
{
    runDifferential(64, 0, 1, 200000);
    runDifferential(64, 0, 7, 200000);
}

TEST(AssocArrayDifferential, FullyAssociativeSpanningFreeMaskWords)
{
    runDifferential(100, 0, 3, 50000);
}

TEST(AssocArrayDifferential, SingleEntry)
{
    runDifferential(1, 0, 5, 20000);
    runDifferential(1, 1, 6, 20000);
}

TEST(AssocArrayDifferential, SetAssociative)
{
    runDifferential(32 * 32, 32, 11, 20000); // the L2 TLB's shape
    runDifferential(64, 4, 12, 50000);       // 16 sets x 4 ways
    runDifferential(24, 4, 13, 50000);       // 6 sets: modulo indexing
}

} // namespace
} // namespace bauvm

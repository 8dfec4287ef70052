/**
 * @file
 * Generic set-associative array with true-LRU replacement.
 *
 * Shared by the caches, the TLBs, and the page-walk cache. Keys are
 * 64-bit tags supplied by the owner (which is responsible for folding in
 * any auxiliary bits such as page versions).
 *
 * Two organizations behind one interface, chosen by geometry:
 *  - Set-associative arrays (several sets: the L1/L2 caches, the L2
 *    TLB) scan their few ways. Storage is structure-of-arrays, so the
 *    scan walks a dense key array, and set indexing uses a mask when
 *    the set count is a power of two.
 *  - Single-set arrays (the fully associative L1 TLBs and the page-walk
 *    cache) keep an exact key -> way hash index, an intrusive recency
 *    list and a free-way bitmask. Lookup, probe, invalidate (the
 *    eviction shootdown) and victim choice are constant-time instead of
 *    a scan over every way.
 *
 * Both organizations pick the same victim: the lowest-index invalid way
 * of the set, else its least recently used way. Every touch stamps a
 * unique tick, so the recency list is ordered exactly by the per-line
 * last-use stamp the scan compares, and its tail is the scan's minimum.
 */

#ifndef BAUVM_MEM_ASSOC_ARRAY_H_
#define BAUVM_MEM_ASSOC_ARRAY_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/sim/log.h"

namespace bauvm
{

/**
 * Fixed-geometry set-associative lookup structure.
 *
 * An associativity of 0 requests a fully-associative organization
 * (a single set spanning every entry).
 */
class AssocArray
{
  public:
    /**
     * @param entries        total entry count (> 0).
     * @param associativity  ways per set; 0 = fully associative.
     */
    AssocArray(std::uint32_t entries, std::uint32_t associativity)
    {
        if (entries == 0)
            panic("AssocArray: zero entries");
        ways_ = associativity == 0 ? entries : associativity;
        if (entries % ways_ != 0)
            panic("AssocArray: entries %u not divisible by ways %u",
                  entries, ways_);
        sets_ = entries / ways_;
        sets_pow2_ = (sets_ & (sets_ - 1)) == 0;
        set_mask_ = sets_ - 1;
        valid_.assign(entries, 0);
        keys_.assign(entries, 0);
        last_use_.assign(entries, 0);
        indexed_ = sets_ == 1;
        if (indexed_) {
            // Load factor <= 1/4 keeps linear-probe runs short.
            const std::uint32_t slots = std::bit_ceil(4 * entries);
            slot_shift_ = 64 - std::countr_zero(slots);
            slot_mask_ = slots - 1;
            slots_.assign(slots, kNil);
            prev_.assign(entries, kNil);
            next_.assign(entries, kNil);
            free_.assign((entries + 63) / 64, 0);
            markAllFree();
        }
    }

    /**
     * Looks up @p key; on a hit refreshes its LRU position.
     * @retval true the key is present.
     */
    bool
    lookup(std::uint64_t key)
    {
        // MRU memo: consecutive lookups overwhelmingly repeat the last
        // key (a warp's lines share one page). The re-check makes
        // staleness harmless — a valid slot holding key K can only be
        // K's home slot, so a hit here is exact.
        if (key == memo_key_ && memo_idx_ != kNone &&
            keys_[memo_idx_] == key && valid_[memo_idx_]) {
            touch(memo_idx_);
            return true;
        }
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        memo_key_ = key;
        memo_idx_ = i;
        touch(i);
        return true;
    }

    /** Looks up @p key without touching LRU state. */
    bool
    probe(std::uint64_t key) const
    {
        return find(key) != kNone;
    }

    /**
     * Inserts @p key, evicting the set's LRU entry when needed.
     *
     * @param[out] evicted_key  set to the displaced key when an eviction
     *                          occurred (may be nullptr).
     * @retval true an existing valid entry was displaced.
     */
    bool
    insert(std::uint64_t key, std::uint64_t *evicted_key = nullptr)
    {
        const std::size_t hit = find(key);
        if (hit != kNone) {
            touch(hit);
            return false;
        }
        const std::size_t victim = indexed_ ? indexedVictim()
                                            : scanVictim(key);
        const bool displaced = valid_[victim] != 0;
        if (displaced) {
            if (evicted_key)
                *evicted_key = keys_[victim];
            if (indexed_)
                detach(victim);
        }
        valid_[victim] = 1;
        keys_[victim] = key;
        last_use_[victim] = ++tick_;
        if (indexed_)
            attach(victim);
        memo_key_ = key;
        memo_idx_ = victim;
        return displaced;
    }

    /** Removes @p key if present. @retval true it was present. */
    bool
    invalidate(std::uint64_t key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        clearLine(i);
        return true;
    }

    /** Invalidates every entry. */
    void
    flush()
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            valid_[i] = 0;
            keys_[i] = 0;
            last_use_[i] = 0;
        }
        if (indexed_) {
            slots_.assign(slots_.size(), kNil);
            prev_.assign(prev_.size(), kNil);
            next_.assign(next_.size(), kNil);
            head_ = tail_ = kNil;
            markAllFree();
        }
    }

    /** Removes all entries for which @p pred(key) holds. @return count. */
    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (valid_[i] && pred(keys_[i])) {
                clearLine(i);
                ++n;
            }
        }
        return n;
    }

    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    /** Debug/test view of one line's raw state. */
    struct LineView {
        bool valid = false;
        std::uint64_t key = 0;
        std::uint64_t last_use = 0;
    };

    /** Raw state of way @p way of set @p set (tests only). */
    LineView
    lineAt(std::size_t set, std::size_t way) const
    {
        const std::size_t i = set * ways_ + way;
        return LineView{valid_[i] != 0, keys_[i], last_use_[i]};
    }

    /** Number of currently valid entries. */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const std::uint8_t v : valid_)
            n += v ? 1 : 0;
        return n;
    }

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    /** Empty hash slot / end of the recency list. */
    static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

    std::size_t
    setOf(std::uint64_t key) const
    {
        return sets_pow2_ ? key & set_mask_ : key % sets_;
    }

    /** Marks line @p i most recently used. */
    void
    touch(std::size_t i)
    {
        last_use_[i] = ++tick_;
        if (indexed_ && head_ != i) {
            unlink(i);
            pushFront(i);
        }
    }

    /**
     * Fully clears an invalidated line. Resetting key/last_use (not
     * just valid) keeps dead tags from ever matching in a loop that
     * forgets the valid check, and keeps an invalid line from biasing
     * LRU victim choice through a stale timestamp.
     */
    void
    clearLine(std::size_t i)
    {
        if (indexed_)
            detach(i);
        valid_[i] = 0;
        keys_[i] = 0;
        last_use_[i] = 0;
    }

    /** Index of @p key's line, or kNone. */
    std::size_t
    find(std::uint64_t key) const
    {
        if (indexed_) {
            for (std::uint32_t s = home(key);; s = (s + 1) & slot_mask_) {
                const std::uint32_t w = slots_[s];
                if (w == kNil)
                    return kNone;
                if (keys_[w] == key)
                    return w;
            }
        }
        const std::size_t base = setOf(key) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (keys_[i] == key && valid_[i])
                return i;
        return kNone;
    }

    /** Scanned victim: first invalid way of the set, else its LRU way. */
    std::size_t
    scanVictim(std::uint64_t key) const
    {
        const std::size_t base = setOf(key) * ways_;
        std::size_t victim = kNone;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (!valid_[i])
                return i;
            if (victim == kNone || last_use_[i] < last_use_[victim])
                victim = i;
        }
        return victim;
    }

    // ---- single-set index: hash slots, recency list, free mask ----

    /** Indexed victim: lowest free way, else the recency list's tail. */
    std::size_t
    indexedVictim() const
    {
        for (std::size_t w = 0; w < free_.size(); ++w)
            if (free_[w])
                return w * 64 + std::countr_zero(free_[w]);
        return tail_;
    }

    /** Enters the freshly filled line @p i into the index as MRU. */
    void
    attach(std::size_t i)
    {
        free_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
        index(i);
        pushFront(i);
    }

    /** Takes valid line @p i out of the index; before its key changes. */
    void
    detach(std::size_t i)
    {
        unindex(i);
        unlink(i);
        free_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    void
    markAllFree()
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            free_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    /** Home hash slot of @p key (Fibonacci hashing). */
    std::uint32_t
    home(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> slot_shift_);
    }

    /** Adds valid line @p i to the hash index. */
    void
    index(std::size_t i)
    {
        std::uint32_t s = home(keys_[i]);
        while (slots_[s] != kNil)
            s = (s + 1) & slot_mask_;
        slots_[s] = static_cast<std::uint32_t>(i);
    }

    /**
     * Drops line @p i from the hash index by backward-shift deletion,
     * so no tombstones lengthen later probes.
     */
    void
    unindex(std::size_t i)
    {
        std::uint32_t hole = home(keys_[i]);
        while (slots_[hole] != i)
            hole = (hole + 1) & slot_mask_;
        for (std::uint32_t s = (hole + 1) & slot_mask_; slots_[s] != kNil;
             s = (s + 1) & slot_mask_) {
            // The entry at s may fill the hole unless its home lies
            // cyclically in (hole, s].
            const std::uint32_t h = home(keys_[slots_[s]]);
            if (((s - h) & slot_mask_) >= ((s - hole) & slot_mask_)) {
                slots_[hole] = slots_[s];
                hole = s;
            }
        }
        slots_[hole] = kNil;
    }

    void
    unlink(std::size_t i)
    {
        const std::uint32_t p = prev_[i], n = next_[i];
        (p == kNil ? head_ : next_[p]) = n;
        (n == kNil ? tail_ : prev_[n]) = p;
        prev_[i] = next_[i] = kNil;
    }

    void
    pushFront(std::size_t i)
    {
        prev_[i] = kNil;
        next_[i] = head_;
        (head_ == kNil ? tail_ : prev_[head_]) =
            static_cast<std::uint32_t>(i);
        head_ = static_cast<std::uint32_t>(i);
    }

    std::uint32_t sets_ = 0;
    std::uint32_t ways_ = 0;
    bool sets_pow2_ = false;
    bool indexed_ = false; //!< single set: hash index + recency list
    std::uint64_t set_mask_ = 0;
    std::uint64_t tick_ = 0;
    // Last-hit memo (see lookup); never trusted without a re-check.
    std::uint64_t memo_key_ = 0;
    std::size_t memo_idx_ = kNone;
    // Structure-of-arrays line state, indexed set * ways_ + way.
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> last_use_;
    // Single-set index (empty otherwise): open-addressed key -> way
    // slots, a doubly linked recency list (head MRU, tail LRU) over the
    // valid ways, and one bit per invalid way.
    std::uint32_t slot_shift_ = 0;
    std::uint32_t slot_mask_ = 0;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
    std::vector<std::uint32_t> slots_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint64_t> free_;
};

} // namespace bauvm

#endif // BAUVM_MEM_ASSOC_ARRAY_H_

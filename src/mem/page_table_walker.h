/**
 * @file
 * Highly-threaded page-table walker shared by all SMs.
 *
 * Models the design from Power et al. (HPCA'14) used by the paper: a
 * single walker with a fixed number of concurrent walk threads (Table 1:
 * 64) and a page-walk cache for upper-level entries. A walk visits each
 * page-table level; levels whose entries hit in the walk cache cost the
 * cache latency, the rest cost a device-memory access.
 */

#ifndef BAUVM_MEM_PAGE_TABLE_WALKER_H_
#define BAUVM_MEM_PAGE_TABLE_WALKER_H_

#include <cstdint>

#include "src/mem/page_walk_cache.h"
#include "src/mem/slot_queue.h"
#include "src/sim/config.h"
#include "src/sim/types.h"

namespace bauvm
{

/**
 * Timing model for shared, multi-threaded page-table walks.
 *
 * The walker exposes a purely analytical interface: given a request
 * time, it computes when the walk completes, accounting for walk-thread
 * contention (a walk occupies one of the walker's thread slots for its
 * whole duration).
 */
class PageTableWalker
{
  public:
    /** fatal() when @p config has no walk threads. */
    PageTableWalker(const MemConfig &config);

    /**
     * Performs one walk for @p vpn requested at @p start.
     *
     * @return the cycle at which the walk completes (the translation —
     *         or the discovery that the page is not resident — becomes
     *         available).
     */
    Cycle walk(PageNum vpn, Cycle start);

    std::uint64_t walks() const { return walks_; }

    /** Cycles spent queueing for a free walk thread, summed over walks. */
    std::uint64_t queueingCycles() const { return queueing_cycles_; }

    const PageWalkCache &walkCache() const { return pwc_; }

  private:
    /** Pure walk latency (no contention) for @p vpn. */
    Cycle walkLatency(PageNum vpn);

    MemConfig config_;
    PageWalkCache pwc_;
    /** Completion times of in-flight walks, one per busy thread slot. */
    SlotQueue busy_;
    std::uint64_t walks_ = 0;
    std::uint64_t queueing_cycles_ = 0;
};

} // namespace bauvm

#endif // BAUVM_MEM_PAGE_TABLE_WALKER_H_

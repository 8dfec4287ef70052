/**
 * @file
 * Hardware page-fault buffer model.
 *
 * The GPU MMU appends replayable faults here; the UVM runtime drains the
 * whole buffer at the start of each batch (Fig 2 of the paper). Real
 * hardware stores one entry per faulting warp; the runtime's
 * preprocessing step deduplicates them per page. We store page-granular
 * entries with a duplicate counter, which preserves both the batch
 * composition and the occupancy statistics while keeping drain cheap.
 * Entry capacity is enforced (Table 1: 1024 entries); overflowing faults
 * are queued aside and re-inserted as entries free up, modelling the
 * hardware's replay of dropped faults.
 *
 * Duplicate detection uses PageMeta::fault_slot in the shared dense
 * page-metadata table instead of a vpn -> index hash map. Buffered
 * entries live in a structure-of-arrays FaultBatch (parallel vpn /
 * first-cycle / duplicate / tenant arrays) so the runtime's batch
 * preprocessing runs as tight scans over each array, and drain swaps
 * the arrays with a caller-provided batch — in steady state (no
 * overflow) inserting and draining faults performs no heap allocation
 * at all.
 *
 * Like the other hot-path classes, the buffer splits into a
 * mode-independent base and FaultBufferT<M> carrying the specialized
 * insert/drain (src/check/observer_mode.h).
 */

#ifndef BAUVM_UVM_FAULT_BUFFER_H_
#define BAUVM_UVM_FAULT_BUFFER_H_

#include <cstdint>
#include <vector>

#include "src/check/observer_mode.h"
#include "src/check/sim_hooks.h"
#include "src/mem/page_meta.h"
#include "src/sim/types.h"
#include "src/trace/trace_sink.h"

namespace bauvm
{

/** One page-granular fault record (AoS view; tests, overflow queue). */
struct FaultRecord {
    PageNum vpn = 0;
    Cycle first_cycle = 0;      //!< when the first fault for the page hit
    std::uint32_t duplicates = 1; //!< total faulting requests coalesced
    TenantId tenant = kNoTenant;  //!< owner of the faulting page
};

/**
 * Structure-of-arrays batch of page faults: index i across the four
 * parallel arrays describes one distinct faulting page, in insertion
 * order. The batch-begin preprocessing scans one array at a time
 * (residency over vpns, accounting over duplicates/tenants) instead of
 * striding over interleaved records.
 */
struct FaultBatch {
    std::vector<PageNum> vpns;
    std::vector<Cycle> first_cycles;
    std::vector<std::uint32_t> duplicates;
    std::vector<TenantId> tenants;

    std::size_t size() const { return vpns.size(); }
    bool empty() const { return vpns.empty(); }

    void
    clear()
    {
        vpns.clear();
        first_cycles.clear();
        duplicates.clear();
        tenants.clear();
    }

    void
    push(PageNum vpn, Cycle first_cycle, std::uint32_t dups,
         TenantId tenant)
    {
        vpns.push_back(vpn);
        first_cycles.push_back(first_cycle);
        duplicates.push_back(dups);
        tenants.push_back(tenant);
    }
};

/** State and queries of the bounded fault buffer (mode-independent). */
class FaultBufferBase
{
  public:
    /**
     * @param capacity maximum distinct-page entries held.
     * @param meta     shared dense page metadata; the buffer keeps each
     *                 buffered page's entry index in its fault_slot
     *                 field (kNoIndex when not buffered).
     * @param hooks    observers (inserts emit occupancy counter
     *                 samples; the auditor replays the accounting).
     */
    FaultBufferBase(std::uint32_t capacity, PageMetaTable &meta,
                    const SimHooks &hooks = {});

    /** Distinct-page entries currently buffered. */
    std::size_t size() const { return entries_.size(); }

    bool empty() const { return entries_.empty() && overflowSize() == 0; }

    std::uint32_t capacity() const { return capacity_; }

    /** Total faults that arrived while the buffer was full. */
    std::uint64_t overflows() const { return overflows_; }

    /** Total insert() calls (including duplicates and overflows). */
    std::uint64_t totalFaults() const { return total_faults_; }

  protected:
    ~FaultBufferBase() = default;

    std::size_t overflowSize() const
    {
        return overflow_.size() - overflow_head_;
    }

    SimHooks hooks_;
    std::uint32_t capacity_;
    PageMetaTable &meta_;
    FaultBatch entries_; //!< insertion-ordered SoA entries
    /**
     * Overflow FIFO: live entries are [overflow_head_, size()). Popping
     * advances the head; storage is reclaimed once the queue empties
     * (drain compacts it), so sustained overflow does not grow it
     * unboundedly. Overflow is the rare path, so it stays AoS.
     */
    std::vector<FaultRecord> overflow_;
    std::size_t overflow_head_ = 0;
    std::uint64_t overflows_ = 0;
    std::uint64_t total_faults_ = 0;
};

/** Bounded buffer of outstanding (not yet batched) page faults. */
template <ObserverMode M>
class FaultBufferT final : public FaultBufferBase
{
  public:
    using FaultBufferBase::FaultBufferBase;

    /**
     * Records a fault on @p vpn at cycle @p now.
     *
     * Duplicate faults for a page already buffered merge into its entry.
     * When the buffer is full, the fault goes to the overflow queue and
     * is counted in overflows(). @p tenant attributes the fault in
     * multi-tenant runs; duplicates keep the first fault's attribution.
     */
    void insert(PageNum vpn, Cycle now, TenantId tenant = kNoTenant);

    /**
     * Moves every buffered entry into @p out (batch formation), then
     * refills from the overflow queue. @p out is clear()ed first; the
     * SoA arrays are swapped, so reusing the same batch across drains
     * keeps the drain allocation-free.
     */
    void drainInto(FaultBatch &out);

    /** AoS compatibility drain (tests, differential harnesses). */
    void drainInto(std::vector<FaultRecord> &out);

    /** Convenience wrapper around drainInto() (tests, one-shot use). */
    std::vector<FaultRecord>
    drain()
    {
        std::vector<FaultRecord> out;
        drainInto(out);
        return out;
    }
};

extern template class FaultBufferT<ObserverMode::None>;
extern template class FaultBufferT<ObserverMode::Observed>;

} // namespace bauvm

#endif // BAUVM_UVM_FAULT_BUFFER_H_

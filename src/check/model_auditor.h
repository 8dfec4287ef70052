/**
 * @file
 * ModelAuditor: an online, zero-cost-when-disabled checker of the
 * simulator's conservation invariants.
 *
 * The auditor maintains *shadow state* mirrored from the same hook
 * sites the tracer uses and asserts, on every event, that the
 * simulation's observable state agrees with the model the paper
 * describes:
 *
 *  - **Per-page residency state machine.** Every page is host-resident,
 *    device-resident, in flight H2D (migrating in) or in flight D2H
 *    (evicting out). A page is never migrated twice concurrently, never
 *    migrated while device-resident, and never evicted unless it is
 *    device-resident (no double eviction, no eviction of a non-resident
 *    page).
 *  - **GPU-memory occupancy conservation.** A shadow committed-frame
 *    counter (reserve on migration start, release on eviction
 *    completion) must agree with GpuMemoryManager's status tracker at
 *    every hook, and must never exceed capacity.
 *  - **Batch lifecycle legality.** Idle -> InterruptPending ->
 *    BatchActive, with batch chaining only out of a completed batch,
 *    and Unobtrusive Eviction's preemptive eviction only at batch start
 *    (before any migration of the batch was scheduled).
 *  - **PCIe per-channel byte conservation.** Bytes put on each channel
 *    by migrations/evictions must equal the bytes the link model
 *    accounts, which must equal RunResult.pcie_{h2d,d2h}_bytes at the
 *    end of the run; per-channel transfer starts are FIFO-monotonic.
 *  - **Fault-buffer entry accounting.** A shadow replica of the
 *    buffer's entry/overflow bookkeeping must agree in size with the
 *    hardware buffer at every insert and drain.
 *  - **TLB/page-table coherence.** No translation is ever cached — or
 *    served from a TLB — for a page that is not device-resident, and a
 *    page-table walk's resident/fault outcome must agree with the
 *    shadow residency (catches missed shootdowns after eviction).
 *
 * On a violation the auditor emits a structured diagnostic (cell,
 * cycle, page, invariant, expected vs observed, plus the tail of the
 * trace ring when tracing is on) and panics, which under the sweep
 * runner's ScopedAbortCapture fails the cell the same way any other
 * simulation abort does. The diagnostic text is built only then: a
 * passing check counts itself and formats nothing.
 *
 * The per-page shadow is one dense VPN-indexed byte of state bits
 * (the PageMetaTable idiom): writes grow the table, reads never do,
 * and a page beyond it reads as host-resident. The fault-buffer
 * replica keeps its membership in two more of those bits plus two
 * plain vectors, so a steady-state audited run allocates nothing.
 *
 * Auditing is read-only with respect to the simulation: hooks receive
 * observed values by argument and never touch simulated components, so
 * an audited run is cycle-for-cycle (and stdout byte-for-byte)
 * identical to an unaudited one.
 */

#ifndef BAUVM_CHECK_MODEL_AUDITOR_H_
#define BAUVM_CHECK_MODEL_AUDITOR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/tenant_directory.h"
#include "src/sim/config.h"
#include "src/sim/types.h"

namespace bauvm
{

class EventQueue;
class TraceSink;
struct RunResult;

/** Online invariant checker fed from SimHooks sites (see file doc). */
class ModelAuditor
{
  public:
    /**
     * @param config  UVM parameters (page size, fault-buffer capacity)
     *                the shadow models replicate.
     * @param clock   simulation clock for diagnostics; may be null.
     * @param trace   trace ring whose tail is appended to diagnostics;
     *                may be null.
     */
    explicit ModelAuditor(const UvmConfig &config,
                          const EventQueue *clock = nullptr,
                          const TraceSink *trace = nullptr);

    /** Labels diagnostics with the cell being audited ("BFS-TWC"). */
    void setContext(std::string context);

    /**
     * Registers the run's tenant directory (multi-tenant runs only):
     * the auditor then shadows per-tenant frame accounting and asserts
     * the quota invariants — a StrictQuota tenant never exceeds its
     * cap, the per-tenant counters always sum to the global committed
     * count, and every committed page lies inside its owner's VA
     * slice.
     */
    void setTenantDirectory(const TenantDirectory *dir);

    // ---- GpuMemoryManager sites -------------------------------------

    /** Device capacity changed (0 = unlimited). */
    void onCapacitySet(std::uint64_t capacity_pages);

    /** A frame was reserved for an inbound transfer, charged to
     *  @p tenant (kNoTenant outside multi-tenant runs). */
    void onFrameReserved(std::uint64_t observed_committed,
                         TenantId tenant = kNoTenant);

    /**
     * Preload commit path (traditional-GPU mode): @p vpn will be
     * committed without a migration transfer. Marks the page in flight
     * so the subsequent onPageCommitted() is legal.
     */
    void onPreload(PageNum vpn);

    /** Inbound page mapped into its frame. */
    void onPageCommitted(PageNum vpn, std::uint64_t observed_committed);

    /** Eviction victim selected and unmapped (frame still committed). */
    void onEvictionBegin(PageNum vpn, std::uint64_t observed_committed);

    /** Eviction D2H transfer finished; the frame was released. */
    void onEvictionComplete(PageNum vpn,
                            std::uint64_t observed_committed);

    // ---- UvmRuntime sites -------------------------------------------

    /** A fault interrupt was raised (top-half dispatch scheduled). */
    void onInterruptRaised();

    /** Batch processing began. @p chained: started directly from the
     *  previous batch's end, skipping the interrupt round trip. */
    void onBatchBegin(bool chained);

    /** UE's top-half preemptive eviction was launched. */
    void onPreemptiveEviction();

    /** One migration of the active batch was put on the H2D channel. */
    void onMigrationScheduled(PageNum vpn, Cycle now, Cycle wire_begin,
                              Cycle wire_end, std::uint64_t wire_bytes);

    /** One eviction was put on the D2H channel (skipped when the
     *  ideal-eviction knob completes evictions instantaneously). */
    void onEvictionTransfer(PageNum vpn, Cycle wire_begin,
                            Cycle wire_end, std::uint64_t wire_bytes);

    /** The active batch completed. @p fault_pages/@p prefetch_pages:
     *  the BatchRecord page counts the runtime is about to report. */
    void onBatchEnd(std::uint32_t fault_pages,
                    std::uint32_t prefetch_pages);

    // ---- FaultBuffer sites ------------------------------------------

    /** A fault was inserted (or merged/overflowed). @p observed_entries
     *  and @p observed_overflow are the buffer's sizes after insert. */
    void onFaultBuffered(PageNum vpn, std::size_t observed_entries,
                         std::size_t observed_overflow);

    /** The buffer was drained into a batch. @p drained: records
     *  returned; the observed sizes are post-refill. */
    void onFaultDrained(std::size_t drained,
                        std::size_t observed_entries,
                        std::size_t observed_overflow);

    // ---- PcieLink sites ---------------------------------------------

    /** One transfer was scheduled on a channel. */
    void onPcieTransfer(bool h2d, std::uint64_t bytes, Cycle begin,
                        Cycle end);

    // ---- MemoryHierarchy / TLB sites --------------------------------

    /** A TLB lookup hit for @p vpn (translation served). */
    void onTranslationHit(PageNum vpn);

    /** A translation for @p vpn was inserted into a TLB. */
    void onTranslationInsert(PageNum vpn);

    /** A page-table walk resolved. @p observed_fault: the walker found
     *  the page non-resident. */
    void onWalkResolved(PageNum vpn, bool observed_fault);

    // ---- end of run -------------------------------------------------

    /**
     * End-of-run conservation checks: no leaked in-flight pages, batch
     * machinery idle, fault buffer empty, shadow occupancy equal to the
     * manager's (@p observed_committed / @p observed_resident), and
     * shadow PCIe bytes equal to both the link's accounting and the
     * RunResult the caller is about to return.
     */
    void finalize(const RunResult &result,
                  std::uint64_t observed_committed,
                  std::size_t observed_resident);

    // ---- introspection (tests, reporting) ---------------------------

    /** Total invariant checks performed so far. */
    std::uint64_t checksPerformed() const { return checks_; }

    /** Shadow committed-frame counter. */
    std::uint64_t shadowCommitted() const { return committed_; }

    /** Shadow device-resident page count. */
    std::size_t shadowResident() const { return resident_count_; }

  private:
    // Per-page shadow bits; a page with none is host-resident.
    static constexpr std::uint8_t kResident = 1u << 0; //!< mapped
    static constexpr std::uint8_t kInH2d = 1u << 1;    //!< migrating in
    static constexpr std::uint8_t kInD2h = 1u << 2;    //!< evicting out
    static constexpr std::uint8_t kResidency = kResident | kInH2d | kInD2h;
    static constexpr std::uint8_t kFbEntry = 1u << 3;    //!< buffered
    static constexpr std::uint8_t kFbOverflow = 1u << 4; //!< overflowed

    enum class BatchState { Idle, InterruptPending, BatchActive };

    /** @p vpn's bits, growing the table. Every VPN the simulation
     *  hands the auditor is already bounded by its PageMetaTable. */
    std::uint8_t &
    bits(PageNum vpn)
    {
        if (vpn >= pages_.size())
            pages_.resize(std::max<std::size_t>(vpn + 1, 2 * pages_.size()));
        return pages_[vpn];
    }
    /** @p vpn's bits without growth (0 beyond the table). */
    std::uint8_t
    bitsOf(PageNum vpn) const
    {
        return vpn < pages_.size() ? pages_[vpn] : 0;
    }
    /** Counts one invariant check; true when it holds. */
    bool
    holds(bool ok)
    {
        ++checks_;
        return ok;
    }
    /** The manager's committed-frame count equals the shadow's;
     *  @p when suffixes the observed text (" at commit"). */
    void checkCommitted(PageNum vpn, std::uint64_t observed,
                        const char *when);
    [[noreturn]] void fail(const char *invariant, PageNum vpn,
                           const std::string &expected,
                           const std::string &observed);
    static std::string describe(std::uint8_t bits);
    static const char *batchStateName(BatchState s);

    UvmConfig config_;
    const EventQueue *clock_;
    const TraceSink *trace_;
    std::string context_ = "?";

    // Residency / occupancy shadow.
    std::vector<std::uint8_t> pages_; //!< state bits indexed by VPN
    std::size_t resident_count_ = 0;
    std::size_t in_flight_h2d_ = 0;
    std::size_t in_flight_d2h_ = 0;
    std::uint64_t capacity_pages_ = 0; //!< 0 = unlimited
    std::uint64_t committed_ = 0;
    const TenantDirectory *dir_ = nullptr;
    std::vector<std::uint64_t> committed_by_; //!< per-tenant shadow
    std::uint64_t commits_ = 0;
    std::uint64_t evictions_ = 0;

    // Batch lifecycle shadow.
    BatchState batch_ = BatchState::Idle;
    std::uint64_t batches_ = 0;
    std::uint64_t migrations_this_batch_ = 0;

    // PCIe shadow (wire bytes as the link model accounts them).
    std::uint64_t link_h2d_bytes_ = 0; //!< from the link's transfer hook
    std::uint64_t link_d2h_bytes_ = 0;
    std::uint64_t sched_h2d_bytes_ = 0; //!< from the runtime's schedule
    std::uint64_t sched_d2h_bytes_ = 0; //!< hooks (independent tally)
    Cycle h2d_last_begin_ = 0;
    Cycle d2h_last_begin_ = 0;

    // Fault-buffer shadow replica, in arrival order.
    std::vector<PageNum> fb_entries_;
    std::vector<PageNum> fb_overflow_;

    std::uint64_t checks_ = 0;
};

} // namespace bauvm

#endif // BAUVM_CHECK_MODEL_AUDITOR_H_

/**
 * @file
 * Tests for the online model auditor (src/check): seeded-mutation
 * coverage of every catalogued invariant (each illegal event sequence
 * must panic with a structured diagnostic), the TLB/page-table
 * coherence edges (eviction while translated, stale walk outcomes),
 * the SimHooks/WorkloadRegistry API surface, the audited-vs-unaudited
 * fig11 matrix at Small scale, and how the fig11 speedup table renders
 * failed cells. The zero-perturbation guarantee for auditing lives
 * with tracing's in test_trace.cc (ObservedRun).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/model_auditor.h"
#include "src/check/sim_hooks.h"
#include "src/core/experiment.h"
#include "src/core/presets.h"
#include "src/core/report.h"
#include "src/core/system.h"
#include "src/graph/graph_cache.h"
#include "src/mem/memory_hierarchy.h"
#include "src/mem/page_table.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/log.h"
#include "src/trace/trace_sink.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{
namespace
{

/** Runs @p fn expecting a panic; returns the diagnostic message. */
template <typename Fn>
std::string
expectAuditPanic(Fn &&fn)
{
    ScopedAbortCapture capture;
    try {
        fn();
    } catch (const SimAbort &e) {
        EXPECT_TRUE(e.isPanic());
        return e.what();
    }
    ADD_FAILURE() << "expected the auditor to panic";
    return "";
}

/** Legal interrupt -> batch-begin preamble. */
void
beginBatch(ModelAuditor &a)
{
    a.onInterruptRaised();
    a.onBatchBegin(/*chained=*/false);
}

/** Legal in-batch migration of @p vpn: schedule, reserve, commit. */
void
migratePage(ModelAuditor &a, PageNum vpn, std::uint64_t committed_after)
{
    a.onMigrationScheduled(vpn, 0, 10, 20, 64);
    a.onFrameReserved(committed_after);
    a.onPageCommitted(vpn, committed_after);
}

// ---- per-page residency state machine ------------------------------

TEST(AuditorResidency, DoubleMigrationPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    a.onMigrationScheduled(7, 0, 10, 20, 64);
    const std::string msg = expectAuditPanic([&] {
        a.onMigrationScheduled(7, 0, 20, 30, 64);
    });
    EXPECT_NE(msg.find("double migration"), std::string::npos);
    EXPECT_NE(msg.find("page-residency"), std::string::npos);
}

TEST(AuditorResidency, MigrationOfResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 7, 0);
    const std::string msg = expectAuditPanic([&] {
        a.onMigrationScheduled(7, 0, 30, 40, 64);
    });
    EXPECT_NE(msg.find("already resident"), std::string::npos);
}

TEST(AuditorResidency, CommitWithoutMigrationPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onPageCommitted(7, 0); });
}

TEST(AuditorResidency, DoubleCommitPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 7, 0);
    const std::string msg =
        expectAuditPanic([&] { a.onPageCommitted(7, 0); });
    EXPECT_NE(msg.find("double commit"), std::string::npos);
}

TEST(AuditorResidency, EvictionOfNonResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(5, 0); });
    EXPECT_NE(msg.find("non-resident victim"), std::string::npos);
}

TEST(AuditorResidency, DoubleEvictionPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 5, 0);
    a.onEvictionBegin(5, 0);
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(5, 0); });
    EXPECT_NE(msg.find("double eviction"), std::string::npos);
}

TEST(AuditorResidency, EvictionCompleteWithoutBeginPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onEvictionComplete(5, 0); });
}

TEST(AuditorResidency, PreloadOfInFlightPagePanics)
{
    ModelAuditor a(UvmConfig{});
    a.onPreload(5);
    expectAuditPanic([&] { a.onPreload(5); });
}

// ---- GPU-memory occupancy conservation -----------------------------

TEST(AuditorOccupancy, ManagerCounterMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onCapacitySet(10);
    // Shadow expects 1 committed frame; the "manager" reports 2.
    const std::string msg =
        expectAuditPanic([&] { a.onFrameReserved(2); });
    EXPECT_NE(msg.find("occupancy-conservation"), std::string::npos);
}

TEST(AuditorOccupancy, ReservationBeyondCapacityPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onCapacitySet(1);
    a.onFrameReserved(1);
    expectAuditPanic([&] { a.onFrameReserved(2); });
}

TEST(AuditorOccupancy, CapacityShrinkBelowCommittedPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onCapacitySet(4);
    a.onFrameReserved(1);
    a.onFrameReserved(2);
    expectAuditPanic([&] { a.onCapacitySet(1); });
}

TEST(AuditorOccupancy, UnlimitedModeNeverCounts)
{
    // Capacity 0 = unlimited: the manager never increments its status
    // tracker, and neither must the shadow.
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 1, 0);
    migratePage(a, 2, 0);
    EXPECT_EQ(a.shadowCommitted(), 0u);
    EXPECT_EQ(a.shadowResident(), 2u);
}

// ---- batch lifecycle -----------------------------------------------

TEST(AuditorBatch, BatchBeginWithoutInterruptPanics)
{
    ModelAuditor a(UvmConfig{});
    const std::string msg = expectAuditPanic([&] {
        a.onBatchBegin(/*chained=*/false);
    });
    EXPECT_NE(msg.find("batch-lifecycle"), std::string::npos);
    EXPECT_NE(msg.find("no interrupt round trip"), std::string::npos);
}

TEST(AuditorBatch, ChainedBatchBeginFromInterruptPanics)
{
    // A chained batch skips the interrupt; seeing one while an
    // interrupt is pending means the runtime lost a round trip.
    ModelAuditor a(UvmConfig{});
    a.onInterruptRaised();
    expectAuditPanic([&] { a.onBatchBegin(/*chained=*/true); });
}

TEST(AuditorBatch, InterruptWhileBusyPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onInterruptRaised();
    expectAuditPanic([&] { a.onInterruptRaised(); });
}

TEST(AuditorBatch, BatchEndWhileIdlePanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onBatchEnd(0, 0); });
}

TEST(AuditorBatch, PreemptiveEvictionAfterMigrationPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    a.onMigrationScheduled(3, 0, 10, 20, 64);
    const std::string msg =
        expectAuditPanic([&] { a.onPreemptiveEviction(); });
    EXPECT_NE(msg.find("top-half"), std::string::npos);
}

TEST(AuditorBatch, PreemptiveEvictionOutsideBatchPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onPreemptiveEviction(); });
}

TEST(AuditorBatch, MigrationOutsideBatchPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] {
        a.onMigrationScheduled(3, 0, 10, 20, 64);
    });
}

TEST(AuditorBatch, PageCountMismatchAtBatchEndPanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 3, 0);
    const std::string msg = expectAuditPanic([&] {
        a.onBatchEnd(/*fault_pages=*/2, /*prefetch_pages=*/0);
    });
    EXPECT_NE(msg.find("demand+prefetch"), std::string::npos);
}

TEST(AuditorBatch, ChainedBatchIsLegal)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    migratePage(a, 3, 0);
    a.onBatchEnd(1, 0);
    a.onBatchBegin(/*chained=*/true); // no interrupt round trip
    migratePage(a, 4, 0);
    a.onBatchEnd(1, 0);
    EXPECT_EQ(a.shadowResident(), 2u);
}

// ---- fault-buffer accounting ---------------------------------------

TEST(AuditorFaultBuffer, SizeMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    // Shadow inserts the fault; the "hardware" reports an empty buffer.
    const std::string msg = expectAuditPanic([&] {
        a.onFaultBuffered(9, /*observed_entries=*/0,
                          /*observed_overflow=*/0);
    });
    EXPECT_NE(msg.find("fault-buffer-accounting"), std::string::npos);
}

TEST(AuditorFaultBuffer, DrainCountMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onFaultBuffered(9, 1, 0);
    expectAuditPanic([&] { a.onFaultDrained(0, 0, 0); });
}

TEST(AuditorFaultBuffer, OverflowReplicaTracksRefill)
{
    UvmConfig config;
    config.fault_buffer_entries = 2;
    ModelAuditor a(config);
    a.onFaultBuffered(1, 1, 0);
    a.onFaultBuffered(2, 2, 0);
    a.onFaultBuffered(3, 2, 1); // overflows
    a.onFaultBuffered(3, 2, 1); // merges inside the overflow queue
    a.onFaultDrained(2, 1, 0); // drain refills vpn 3 from overflow
    a.onFaultDrained(1, 0, 0);
}

// ---- PCIe conservation ---------------------------------------------

TEST(AuditorPcie, NonMonotonicChannelStartPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onPcieTransfer(/*h2d=*/true, 64, 10, 20);
    const std::string msg = expectAuditPanic([&] {
        a.onPcieTransfer(true, 64, 5, 15);
    });
    EXPECT_NE(msg.find("FIFO"), std::string::npos);
}

TEST(AuditorPcie, ChannelsAreIndependentlyMonotonic)
{
    ModelAuditor a(UvmConfig{});
    a.onPcieTransfer(true, 64, 100, 110);
    a.onPcieTransfer(false, 64, 10, 20); // D2H has its own FIFO order
    a.onPcieTransfer(true, 64, 100, 105); // equal begin is legal
}

TEST(AuditorPcie, EmptyTransferWindowPanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onPcieTransfer(true, 64, 10, 10); });
}

TEST(AuditorPcie, MigrationWindowBeforeSchedulePanics)
{
    ModelAuditor a(UvmConfig{});
    beginBatch(a);
    expectAuditPanic([&] {
        a.onMigrationScheduled(3, /*now=*/50, /*wire_begin=*/40,
                               /*wire_end=*/60, 64);
    });
}

// ---- TLB / page-table coherence ------------------------------------

TEST(AuditorTlb, HitForNonResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    const std::string msg =
        expectAuditPanic([&] { a.onTranslationHit(7); });
    EXPECT_NE(msg.find("tlb-coherence"), std::string::npos);
    EXPECT_NE(msg.find("state {host}"), std::string::npos);
}

TEST(AuditorTlb, InsertForNonResidentPagePanics)
{
    ModelAuditor a(UvmConfig{});
    expectAuditPanic([&] { a.onTranslationInsert(7); });
}

TEST(AuditorTlb, WalkOutcomeDivergencePanics)
{
    ModelAuditor a(UvmConfig{});
    // Shadow says host-resident; the walker claims a translation.
    expectAuditPanic([&] {
        a.onWalkResolved(7, /*observed_fault=*/false);
    });
}

// ---- finalize conservation -----------------------------------------

TEST(AuditorFinalize, LeakedInFlightTransferPanics)
{
    ModelAuditor a(UvmConfig{});
    a.onPreload(3); // in flight H2D, never committed
    RunResult r;
    const std::string msg =
        expectAuditPanic([&] { a.finalize(r, 0, 0); });
    EXPECT_NE(msg.find("in flight H2D"), std::string::npos);
}

TEST(AuditorFinalize, ResidentCountMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    RunResult r;
    expectAuditPanic([&] { a.finalize(r, 0, /*resident=*/3); });
}

TEST(AuditorFinalize, RunResultMigrationMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    RunResult r;
    r.migrations = 1; // shadow saw none
    expectAuditPanic([&] { a.finalize(r, 0, 0); });
}

TEST(AuditorFinalize, PcieByteMismatchPanics)
{
    ModelAuditor a(UvmConfig{});
    RunResult r;
    r.pcie_h2d_bytes = 64; // nothing crossed the shadow link
    const std::string msg =
        expectAuditPanic([&] { a.finalize(r, 0, 0); });
    EXPECT_NE(msg.find("pcie-conservation"), std::string::npos);
}

TEST(AuditorFinalize, ModelSequencePassesEndToEnd)
{
    ModelAuditor a(UvmConfig{});
    a.setContext("unit");
    a.onCapacitySet(4);

    // Batch 1: fault on page 1, migrate it.
    a.onFaultBuffered(1, 1, 0);
    a.onInterruptRaised();
    a.onBatchBegin(false);
    a.onFaultDrained(1, 0, 0);
    a.onMigrationScheduled(1, 1, 10, 20, 64);
    a.onPcieTransfer(true, 64, 10, 20);
    a.onFrameReserved(1);
    a.onPageCommitted(1, 1);
    a.onBatchEnd(1, 0);

    // The page is translated, then evicted.
    a.onWalkResolved(1, false);
    a.onTranslationInsert(1);
    a.onTranslationHit(1);
    a.onEvictionBegin(1, 1);
    a.onEvictionTransfer(1, 30, 40, 64);
    a.onPcieTransfer(false, 64, 30, 40);
    a.onEvictionComplete(1, 0);

    // Batch 2: page 2 faults and stays resident.
    a.onFaultBuffered(2, 1, 0);
    a.onInterruptRaised();
    a.onBatchBegin(false);
    a.onPreemptiveEviction(); // legal: before any migration
    a.onFaultDrained(1, 0, 0);
    a.onMigrationScheduled(2, 51, 60, 70, 64);
    a.onPcieTransfer(true, 64, 60, 70);
    a.onFrameReserved(1);
    a.onPageCommitted(2, 1);
    a.onBatchEnd(1, 0);

    RunResult r;
    r.migrations = 2;
    r.evictions = 1;
    r.batches = 2;
    r.pcie_h2d_bytes = 128;
    r.pcie_d2h_bytes = 64;
    a.finalize(r, /*committed=*/1, /*resident=*/1);

    EXPECT_GT(a.checksPerformed(), 0u);
    EXPECT_EQ(a.shadowResident(), 1u);
    EXPECT_EQ(a.shadowCommitted(), 1u);
}

// ---- diagnostics ---------------------------------------------------

TEST(AuditorDiagnostics, ViolationReportsStructuredFields)
{
    ModelAuditor a(UvmConfig{});
    a.setContext("BFS-TWC/TO+UE");
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(42, 0); });
    EXPECT_NE(msg.find("invariant"), std::string::npos);
    EXPECT_NE(msg.find("cell:     BFS-TWC/TO+UE"), std::string::npos);
    EXPECT_NE(msg.find("cycle:"), std::string::npos);
    EXPECT_NE(msg.find("page:     42"), std::string::npos);
    EXPECT_NE(msg.find("expected:"), std::string::npos);
    EXPECT_NE(msg.find("observed:"), std::string::npos);
}

TEST(AuditorDiagnostics, ViolationAppendsTraceTailWhenTracing)
{
    TraceSink trace(8);
    trace.instant(TraceEventType::PageFault, traceTrackSm(0), 5, 42);
    ModelAuditor a(UvmConfig{}, nullptr, &trace);
    const std::string msg =
        expectAuditPanic([&] { a.onEvictionBegin(42, 0); });
    EXPECT_NE(msg.find("trace tail"), std::string::npos);
    EXPECT_NE(msg.find("page_fault"), std::string::npos);
}

// ---- MemoryHierarchy coherence edges (hooked integration) ----------

/** Makes @p vpn shadow-resident without batch machinery. */
void
shadowResident(ModelAuditor &a, PageNum vpn)
{
    a.onPreload(vpn);
    a.onFrameReserved(0);
    a.onPageCommitted(vpn, 0);
}

TEST(HierarchyAudit, EvictionShootdownKeepsCoherence)
{
    const std::uint64_t page_bytes = 64 * 1024;
    PageTable pt;
    ModelAuditor a(UvmConfig{});
    MemoryHierarchy mh(
        MemConfig{}, 1, page_bytes, pt, SimHooks{nullptr, &a, nullptr});

    shadowResident(a, 3);
    pt.map(3, 0);
    EXPECT_FALSE(mh.access(0, 3 * page_bytes, false, 0).fault);
    EXPECT_FALSE(mh.access(0, 3 * page_bytes, false, 100).fault);

    // Proper eviction: unmap, then shoot the TLBs down.
    a.onEvictionBegin(3, 0);
    pt.unmap(3);
    mh.invalidatePage(3);
    a.onEvictionTransfer(3, 200, 210, 64);
    a.onEvictionComplete(3, 0);

    // The next access walks and faults; the auditor must agree.
    EXPECT_TRUE(mh.access(0, 3 * page_bytes, false, 300).fault);
}

TEST(HierarchyAudit, MissedShootdownAfterEvictionPanics)
{
    // Eviction-while-translated mutation: the page is unmapped but the
    // TLB shootdown is "forgotten". The stale L1 TLB entry then serves
    // a translation for a non-resident page, which the auditor catches.
    const std::uint64_t page_bytes = 64 * 1024;
    PageTable pt;
    ModelAuditor a(UvmConfig{});
    MemoryHierarchy mh(
        MemConfig{}, 1, page_bytes, pt, SimHooks{nullptr, &a, nullptr});

    shadowResident(a, 3);
    pt.map(3, 0);
    EXPECT_FALSE(mh.access(0, 3 * page_bytes, false, 0).fault);

    a.onEvictionBegin(3, 0);
    pt.unmap(3);
    // BUG under test: no mh.invalidatePage(3).

    const std::string msg = expectAuditPanic([&] {
        mh.access(0, 3 * page_bytes, false, 200);
    });
    EXPECT_NE(msg.find("stale translation"), std::string::npos);
}

TEST(HierarchyAudit, StaleWalkDuringEvictionPanics)
{
    // Invalidate-during-walk mutation: the page table loses the
    // mapping while the shadow still believes the page is resident, so
    // the walk resolves a fault the model says cannot happen.
    const std::uint64_t page_bytes = 64 * 1024;
    PageTable pt;
    ModelAuditor a(UvmConfig{});
    MemoryHierarchy mh(
        MemConfig{}, 1, page_bytes, pt, SimHooks{nullptr, &a, nullptr});

    shadowResident(a, 3); // shadow resident, page table never mapped
    const std::string msg = expectAuditPanic([&] {
        mh.access(0, 3 * page_bytes, false, 0);
    });
    EXPECT_NE(msg.find("tlb-coherence"), std::string::npos);
}

// ---- system wiring -------------------------------------------------

TEST(SystemAudit, AuditorIsOwnedWhenEnabled)
{
    SimConfig config = paperConfig(0.5);
    EXPECT_EQ(GpuUvmSystem(config).audit(), nullptr);
    config.check.enabled = true;
    GpuUvmSystem system(config);
    ASSERT_NE(system.audit(), nullptr);
    // A violation injected into the system-owned auditor panics the
    // same way any simulation abort does (ScopedAbortCapture-friendly).
    ScopedAbortCapture capture;
    EXPECT_THROW(system.audit()->onEvictionBegin(1, 0), SimAbort);
}

// ---- bench plumbing ------------------------------------------------

TEST(BenchArgsAudit, AuditFlagParses)
{
    const char *argv[] = {"prog", "--audit"};
    const BenchOptions opt =
        parseBenchArgs(2, const_cast<char **>(argv));
    EXPECT_TRUE(opt.audit);
    const char *none[] = {"prog"};
    EXPECT_FALSE(parseBenchArgs(1, const_cast<char **>(none)).audit);
}

TEST(BenchArgsAudit, UnknownFlagPrintsUsageAndFails)
{
    const char *argv[] = {"prog", "--no-such-flag"};
    testing::internal::CaptureStderr();
    {
        ScopedAbortCapture capture;
        try {
            parseBenchArgs(2, const_cast<char **>(argv));
            ADD_FAILURE() << "unknown flag must not parse";
        } catch (const SimAbort &e) {
            EXPECT_FALSE(e.isPanic()); // fatal(): exits non-zero
            EXPECT_NE(std::string(e.what()).find("--no-such-flag"),
                      std::string::npos);
        }
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("options:"), std::string::npos);
    EXPECT_NE(err.find("--audit"), std::string::npos);
}

TEST(BenchArgsAudit, NonDigitIntegerValuesFail)
{
    // "-2" would wrap to 2^64-2 under std::stoull (one thread per cell
    // for --jobs) and "3x" would parse as 3; both must be rejected.
    for (const char *flag : {"--seed", "--jobs", "--cell-threads"}) {
        for (const char *value : {"-2", "3x"}) {
            SCOPED_TRACE(std::string(flag) + " " + value);
            const char *argv[] = {"prog", flag, value};
            testing::internal::CaptureStderr();
            {
                ScopedAbortCapture capture;
                try {
                    parseBenchArgs(3, const_cast<char **>(argv));
                    ADD_FAILURE() << "non-digit value must not parse";
                } catch (const SimAbort &e) {
                    EXPECT_FALSE(e.isPanic()); // fatal(): exits non-zero
                    EXPECT_NE(std::string(e.what()).find(value),
                              std::string::npos)
                        << e.what();
                }
            }
            testing::internal::GetCapturedStderr();
        }
    }
}

TEST(BenchArgsAudit, BadRealValuesFail)
{
    // std::stod alone would read "0.5x" as 0.5 and accept "nan" and
    // "inf"; a NaN or negative --ratio would silently mean unlimited
    // memory, a NaN --timeout passes a "< 0" check, and a NaN tenant
    // quota becomes a garbage page budget.
    const std::pair<const char *, const char *> cases[] = {
        {"--ratio", "0.5x"}, {"--ratio", "nan"},   {"--ratio", "-1"},
        {"--ratio", "inf"},  {"--ratio", ""},      {"--timeout", "0.5x"},
        {"--timeout", "nan"}, {"--timeout", "inf"}, {"--timeout", "-1"},
        {"--tenants", "BFS-HYB:0.5x,PR:0.5"},
        {"--tenants", "BFS-HYB:nan,PR:0.5"},
        {"--tenants", "BFS-HYB:inf,PR:0.5"},
        {"--tenants", "BFS-HYB:-1,PR:0.5"},
    };
    for (const auto &[flag, value] : cases) {
        SCOPED_TRACE(std::string(flag) + " '" + value + "'");
        const char *argv[] = {"prog", flag, value};
        testing::internal::CaptureStderr();
        {
            ScopedAbortCapture capture;
            try {
                parseBenchArgs(3, const_cast<char **>(argv));
                ADD_FAILURE() << "bad real value must not parse";
            } catch (const SimAbort &e) {
                EXPECT_FALSE(e.isPanic()); // fatal(): exits non-zero
            }
        }
        testing::internal::GetCapturedStderr();
    }

    // Well-formed values still parse, including an unlimited ratio.
    const char *argv[] = {"prog", "--ratio", "0", "--timeout", "2.5"};
    const BenchOptions opt = parseBenchArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(opt.ratio, 0.0);
    EXPECT_EQ(opt.timeout_s, 2.5);
}

// ---- workload registry ---------------------------------------------

TEST(WorkloadRegistryApi, EnumerationIsKindPartitioned)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    // Fig 11 registration order for the paper's irregular suite.
    const std::vector<std::string> irregular =
        reg.enumerate(WorkloadKind::Irregular);
    ASSERT_FALSE(irregular.empty());
    EXPECT_EQ(irregular.front(), "BC");
    const std::vector<std::string> regular =
        reg.enumerate(WorkloadKind::Regular);
    ASSERT_FALSE(regular.empty());
    const std::vector<std::string> frontier = {"BFS-HYB", "CC", "TC",
                                               "KTRUSS"};
    EXPECT_EQ(reg.enumerate(WorkloadKind::Frontier), frontier);
    EXPECT_EQ(reg.enumerate().size(), irregular.size() +
                                          regular.size() +
                                          frontier.size());
}

TEST(WorkloadRegistryApi, CreateProducesTheNamedWorkload)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    for (const auto &name : reg.enumerate()) {
        ASSERT_TRUE(reg.contains(name));
        EXPECT_EQ(reg.create(name)->name(), name);
    }
    EXPECT_FALSE(reg.contains("NOPE"));
}

TEST(WorkloadRegistryApi, UnknownNameFailsListingKnownNames)
{
    ScopedAbortCapture capture;
    try {
        WorkloadRegistry::instance().create("NOPE");
        ADD_FAILURE() << "unknown workload must not instantiate";
    } catch (const SimAbort &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("NOPE"), std::string::npos);
        EXPECT_NE(msg.find("BFS-TWC"), std::string::npos);
        // Known names carry their family tag for discoverability.
        EXPECT_NE(msg.find("(irregular)"), std::string::npos);
        EXPECT_NE(msg.find("(regular)"), std::string::npos);
        EXPECT_NE(msg.find("(frontier)"), std::string::npos);
        EXPECT_NE(msg.find("BFS-HYB"), std::string::npos);
    }
}

// ---- audited fig11 matrix ------------------------------------------

/**
 * One irregular workload's fig11 row set at Small scale, audited vs
 * unaudited, over every policy: every cell must succeed in both
 * sweeps, the rendered rows must be byte-identical, and every cell
 * must dispatch the same events in the same order. One case per
 * workload, so ctest -j spreads the full matrix across workers.
 */
class Fig11Audit : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Fig11Audit, AuditedRowsAreByteIdentical)
{
    GraphBuildCache::Scope graph_scope; // share builds across sweeps

    auto runSweep = [](bool audited) {
        SweepSpec spec;
        spec.bench = "fig11_audit_test";
        spec.workloads = {GetParam()};
        spec.policies = allPolicies();
        spec.opt.scale = WorkloadScale::Small;
        spec.opt.audit = audited;
        spec.verbose = false;
        SweepRunner runner(std::move(spec));
        return runner.run();
    };

    const SweepResult plain = runSweep(false);
    const SweepResult audited = runSweep(true);
    ASSERT_EQ(plain.failedCells(), 0u);
    ASSERT_EQ(audited.failedCells(), 0u);

    auto rows = [](const SweepResult &sweep) {
        return buildSpeedupTable(sweep, {GetParam()}, allPolicies(),
                                 SpeedupMeans::Both)
            .table.toText();
    };
    EXPECT_EQ(rows(plain), rows(audited));

    ASSERT_EQ(plain.cells.size(), audited.cells.size());
    for (std::size_t i = 0; i < plain.cells.size(); ++i) {
        EXPECT_EQ(plain.cells[i].result.event_order_digest,
                  audited.cells[i].result.event_order_digest)
            << policyName(plain.cells[i].policy);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Irregular, Fig11Audit,
    ::testing::ValuesIn(
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular)),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ---- failed cells in the speedup table ------------------------------

/** A finished (or failed) fig11 cell with a fixed cycle count. */
CellOutcome
fixedCell(const std::string &workload, Policy policy, Cycle cycles,
          bool ok = true)
{
    CellOutcome c;
    c.workload = workload;
    c.policy = policy;
    c.ok = ok;
    c.result.cycles = ok ? cycles : 0;
    return c;
}

/** Two workloads x {BASELINE, TO+UE, ETC}; speedups 2.00 and 4.00. */
SweepResult
handBuiltSweep(bool etc_ok)
{
    SweepResult sweep;
    sweep.bench = "fig11_failed_etc_test";
    for (const char *w : {"A", "B"}) {
        sweep.cells.push_back(fixedCell(w, Policy::Baseline, 400));
        sweep.cells.push_back(
            fixedCell(w, Policy::ToUe, w[0] == 'A' ? 200 : 100));
        sweep.cells.push_back(fixedCell(w, Policy::Etc, 400, etc_ok));
    }
    return sweep;
}

const std::vector<Policy> kToueEtc = {Policy::Baseline, Policy::ToUe,
                                      Policy::Etc};

TEST(SpeedupTableFailures, NoFailedCellsKeepsNumericMeans)
{
    const SpeedupTable t = buildSpeedupTable(
        handBuiltSweep(true), {"A", "B"}, kToueEtc, SpeedupMeans::Both);
    EXPECT_EQ(t.table.toText(),
              "workload  BASELINE  TO+UE  ETC   \n"
              "---------------------------------\n"
              "A         1.00      2.00   1.00  \n"
              "B         1.00      4.00   1.00  \n"
              "AVERAGE   1.00      3.00   1.00  \n"
              "GEOMEAN   1.00      2.83   1.00  \n");
    const std::string summary = section52Summary(t);
    EXPECT_NE(summary.find("TO+UE vs ETC:                 3.00x (1.79x)"),
              std::string::npos)
        << summary;
}

TEST(SpeedupTableFailures, FailedEtcColumnPrintsNaWithExcludedCount)
{
    const SpeedupTable t = buildSpeedupTable(
        handBuiltSweep(false), {"A", "B"}, kToueEtc, SpeedupMeans::Both);
    EXPECT_EQ(t.table.toText(),
              "workload  BASELINE  TO+UE  ETC           \n"
              "-----------------------------------------\n"
              "A         1.00      2.00   FAIL          \n"
              "B         1.00      4.00   FAIL          \n"
              "AVERAGE   1.00      3.00   n/a (2 excl)  \n"
              "GEOMEAN   1.00      2.83   n/a (2 excl)  \n");
    EXPECT_FALSE(t.average(Policy::Etc).has_value());

    const std::string summary = section52Summary(t);
    EXPECT_NE(summary.find("TO+UE vs BASELINE:            3.00x (2.00x)"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("TO+UE vs ETC:                 n/a (1.79x)"),
              std::string::npos)
        << summary;
    EXPECT_EQ(summary.find("0.00x"), std::string::npos) << summary;
}

TEST(SpeedupTableFailures, PartlyFailedColumnShowsExcludedCount)
{
    SweepResult sweep = handBuiltSweep(true);
    sweep.cells[2].ok = false; // ETC on A
    const SpeedupTable t = buildSpeedupTable(sweep, {"A", "B"}, kToueEtc,
                                             SpeedupMeans::Average);
    EXPECT_EQ(t.table.toText(),
              "workload  BASELINE  TO+UE  ETC            \n"
              "------------------------------------------\n"
              "A         1.00      2.00   FAIL           \n"
              "B         1.00      4.00   1.00           \n"
              "AVERAGE   1.00      3.00   1.00 (1 excl)  \n");
}

} // namespace
} // namespace bauvm

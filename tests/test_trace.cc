/**
 * @file
 * Tests for the tracing subsystem: ring buffer semantics (wrap,
 * overflow accounting), exporter well-formedness, the zero-perturbation
 * guarantee (tracing and auditing must not change simulated results),
 * the UE channel-overlap signature, and the sweep runner's partial
 * flush of aborted cells.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/runner/job.h"
#include "src/runner/sweep_runner.h"
#include "src/trace/trace_export.h"
#include "src/trace/trace_sink.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{
namespace
{

TEST(TraceSink, StoresRecordsOldestFirst)
{
    TraceSink s(8);
    for (Cycle c = 0; c < 5; ++c)
        s.instant(TraceEventType::PageFault, traceTrackSm(0), c, c);
    EXPECT_EQ(s.size(), 5u);
    EXPECT_EQ(s.totalEvents(), 5u);
    EXPECT_EQ(s.droppedEvents(), 0u);
    for (std::uint64_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s.at(i).begin, i);
        EXPECT_EQ(s.at(i).arg0, i);
    }
}

TEST(TraceSink, RingWrapKeepsNewestAndCountsDrops)
{
    TraceSink s(8);
    for (Cycle c = 0; c < 20; ++c)
        s.instant(TraceEventType::PageFault, traceTrackSm(0), c, c);
    EXPECT_EQ(s.size(), 8u);
    EXPECT_EQ(s.capacity(), 8u);
    EXPECT_EQ(s.totalEvents(), 20u);
    EXPECT_EQ(s.droppedEvents(), 12u);
    // The 12 oldest records were overwritten: 12..19 remain, in order.
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(s.at(i).begin, 12 + i);
}

TEST(TraceSink, ZeroCapacityClampsToOne)
{
    TraceSink s(0);
    EXPECT_EQ(s.capacity(), 1u);
    for (Cycle c = 0; c < 3; ++c)
        s.instant(TraceEventType::PageFault, traceTrackSm(0), c);
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.droppedEvents(), 2u);
    EXPECT_EQ(s.at(0).begin, 2u);
}

TEST(TraceSink, ClearResetsEverything)
{
    TraceSink s(4);
    for (Cycle c = 0; c < 9; ++c)
        s.instant(TraceEventType::Migration, kTraceTrackPcieH2d, c);
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.totalEvents(), 0u);
    EXPECT_EQ(s.droppedEvents(), 0u);
}

TEST(TraceExport, ChromeJsonIsWellFormedAndSurfacesDrops)
{
    TraceSink s(4);
    for (Cycle c = 0; c < 6; ++c) {
        s.interval(TraceEventType::Migration, kTraceTrackPcieH2d,
                   c * 100, c * 100 + 50, /*vpn=*/c, /*bytes=*/65536);
    }
    TraceMeta meta;
    meta.bench = "unit";
    meta.workload = "W";
    meta.policy = "BASELINE";
    meta.scale = "tiny";
    meta.seed = 7;
    meta.ratio = 0.5;

    const std::string json = toChromeTraceJson(s, meta);
    EXPECT_NE(json.find(kTraceSchema), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":2"), std::string::npos);
    EXPECT_NE(json.find("\"retained_events\":4"), std::string::npos);
    EXPECT_NE(json.find("pcie_h2d"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check without a
    // JSON parser dependency; no string value contains them).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, CounterCsvHasHeaderRowsAndDropTrailer)
{
    TraceSink s(16);
    s.counter(TraceEventType::SmOccupancy, traceTrackSm(3), 1000, 5, 8);
    s.counter(TraceEventType::CommittedFrames, kTraceTrackMemory, 2000,
              42, 64);
    // Non-counter records must not appear in the CSV.
    s.interval(TraceEventType::Migration, kTraceTrackPcieH2d, 0, 10, 1);

    const std::string csv = toCounterCsv(s);
    EXPECT_NE(csv.find("cycle,track,counter,value"), std::string::npos);
    EXPECT_NE(csv.find("1000,sm3,sm_occupancy,5"), std::string::npos);
    EXPECT_NE(csv.find("2000,gpu_memory,committed_frames,42"),
              std::string::npos);
    EXPECT_EQ(csv.find("migration"), std::string::npos);
    EXPECT_NE(csv.find("# dropped_events,0"), std::string::npos);
}

/** Runs one tiny BFS-TWC cell with the given observers attached; the
 *  system (and with it the trace sink and auditor) stays alive as
 *  @p keep_alive.back(). */
RunResult
runObserved(Policy policy, bool tracing, bool auditing,
            std::vector<std::unique_ptr<GpuUvmSystem>> &keep_alive)
{
    SimConfig config =
        paperConfig(0.5, deriveWorkloadSeed(1, "BFS-TWC"));
    config = applyPolicy(config, policy);
    config.trace.enabled = tracing;
    config.check.enabled = auditing;
    auto workload = WorkloadRegistry::instance().create("BFS-TWC");
    keep_alive.push_back(std::make_unique<GpuUvmSystem>(config));
    return keep_alive.back()->run(*workload, WorkloadScale::Tiny);
}

/** The observers one ObservedRun case attaches. */
struct Observers {
    bool trace;
    bool audit;
    const char *name;
};

void
PrintTo(const Observers &o, std::ostream *os)
{
    *os << o.name;
}

/**
 * Observing a run must not perturb it: every observer combination
 * shares the ObserverMode::Observed hot path, and each must match the
 * unobserved ObserverMode::None run field for field, down to the order
 * in which events were dispatched.
 */
class ObservedRun : public ::testing::TestWithParam<Observers>
{
};

TEST_P(ObservedRun, DoesNotPerturbSimulatedResults)
{
    std::vector<std::unique_ptr<GpuUvmSystem>> keep;
    const RunResult off = runObserved(Policy::ToUe, false, false, keep);
    const RunResult on = runObserved(Policy::ToUe, GetParam().trace,
                                     GetParam().audit, keep);

    GpuUvmSystem &observed = *keep.back();
    if (GetParam().trace) {
        ASSERT_NE(observed.trace(), nullptr);
        EXPECT_GT(observed.trace()->totalEvents(), 0u);
    } else {
        EXPECT_EQ(observed.trace(), nullptr);
    }
    if (GetParam().audit) {
        ASSERT_NE(observed.audit(), nullptr);
        EXPECT_GT(observed.audit()->checksPerformed(), 0u);
    } else {
        EXPECT_EQ(observed.audit(), nullptr);
    }
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.sim_events, on.sim_events);
    EXPECT_EQ(off.event_order_digest, on.event_order_digest);
    EXPECT_EQ(off.batches, on.batches);
    EXPECT_EQ(off.migrations, on.migrations);
    EXPECT_EQ(off.evictions, on.evictions);
    EXPECT_EQ(off.instructions, on.instructions);
    EXPECT_EQ(off.context_switches, on.context_switches);
    EXPECT_EQ(off.pcie_h2d_bytes, on.pcie_h2d_bytes);
    EXPECT_EQ(off.pcie_d2h_bytes, on.pcie_d2h_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Observers, ObservedRun,
    ::testing::Values(Observers{true, false, "Trace"},
                      Observers{false, true, "Audit"},
                      Observers{true, true, "TraceAndAudit"}),
    [](const ::testing::TestParamInfo<Observers> &info) {
        return std::string(info.param.name);
    });

struct Span {
    Cycle begin, end;
};

std::vector<Span>
transferSpans(const TraceSink &sink, TraceTrack track)
{
    std::vector<Span> spans;
    sink.forEach([&](const TraceRecord &r) {
        const TraceEventType t = r.eventType();
        if (r.track == track && r.begin < r.end &&
            (t == TraceEventType::Migration ||
             t == TraceEventType::Eviction)) {
            spans.push_back({r.begin, r.end});
        }
    });
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  return a.begin < b.begin;
              });
    return spans;
}

std::uint64_t
overlapCycles(const std::vector<Span> &a, const std::vector<Span> &b)
{
    std::uint64_t overlap = 0;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Cycle lo = std::max(a[i].begin, b[j].begin);
        const Cycle hi = std::min(a[i].end, b[j].end);
        if (lo < hi)
            overlap += hi - lo;
        if (a[i].end < b[j].end)
            ++i;
        else
            ++j;
    }
    return overlap;
}

TEST(TraceSystem, UnobtrusiveEvictionOverlapsPcieChannels)
{
    std::vector<std::unique_ptr<GpuUvmSystem>> keep;
    runObserved(Policy::Baseline, true, false, keep);
    const TraceSink *base_sink = keep.back()->trace();
    runObserved(Policy::ToUe, true, false, keep);
    const TraceSink *toue_sink = keep.back()->trace();
    ASSERT_NE(base_sink, nullptr);
    ASSERT_NE(toue_sink, nullptr);

    const std::uint64_t base_overlap = overlapCycles(
        transferSpans(*base_sink, kTraceTrackPcieH2d),
        transferSpans(*base_sink, kTraceTrackPcieD2h));
    const std::uint64_t toue_overlap = overlapCycles(
        transferSpans(*toue_sink, kTraceTrackPcieH2d),
        transferSpans(*toue_sink, kTraceTrackPcieD2h));

    // Fig 4 vs Fig 10: the baseline serializes evict->migrate, UE
    // pipelines the two directions on the full-duplex link.
    EXPECT_GT(toue_overlap, base_overlap);
}

TEST(SweepRunnerTrace, WritesOneTracePerCell)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "bauvm_traces_ok";
    std::filesystem::remove_all(dir);

    SweepSpec spec;
    spec.bench = "trace_smoke";
    spec.workloads = {"BFS-TWC"};
    spec.policies = {Policy::Baseline};
    spec.opt.scale = WorkloadScale::Tiny;
    spec.opt.jobs = 1;
    spec.opt.trace_dir = dir.string();
    spec.verbose = false;

    SweepRunner runner(std::move(spec));
    const SweepResult result = runner.run();
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_TRUE(result.cells[0].ok);

    const std::filesystem::path json =
        dir / "trace_smoke__BFS-TWC__BASELINE.trace.json";
    const std::filesystem::path csv =
        dir / "trace_smoke__BFS-TWC__BASELINE.counters.csv";
    EXPECT_TRUE(std::filesystem::exists(json));
    EXPECT_TRUE(std::filesystem::exists(csv));

    std::ifstream in(json);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find(kTraceSchema), std::string::npos);
    EXPECT_NE(buf.str().find("\"partial\":false"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepRunnerTrace, AbortedCellFlushesPartialTrace)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        "bauvm_traces_partial";
    std::filesystem::remove_all(dir);

    SweepSpec spec;
    spec.bench = "trace_smoke";
    spec.workloads = {"BFS-TWC"};
    spec.policies = {Policy::Baseline};
    // preload with memory_ratio < 1 hits fatal() inside the run, after
    // the system (and its trace sink) exists — the abort-capture path.
    spec.variants.push_back(
        {"preload", [](SimConfig &c) { c.uvm.preload = true; }});
    spec.opt.scale = WorkloadScale::Tiny;
    spec.opt.jobs = 1;
    spec.opt.trace_dir = dir.string();
    spec.verbose = false;

    SweepRunner runner(std::move(spec));
    const SweepResult result = runner.run();
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_FALSE(result.cells[0].ok);

    const std::filesystem::path partial =
        dir /
        "trace_smoke__BFS-TWC__BASELINE__preload.trace.json.partial";
    ASSERT_TRUE(std::filesystem::exists(partial));

    std::ifstream in(partial);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"partial\":true"), std::string::npos);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace bauvm

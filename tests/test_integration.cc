/**
 * @file
 * Cross-module integration tests: full simulations at Tiny scale,
 * policy invariants, determinism and parameterized sweeps.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/core/presets.h"
#include "src/core/report.h"
#include "src/core/system.h"
#include "src/runner/sweep_runner.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{
namespace
{

RunResult
runTiny(const std::string &workload, Policy policy, double ratio = 0.5,
        std::uint64_t seed = 1)
{
    SimConfig config = applyPolicy(paperConfig(ratio, seed), policy);
    return runWorkload(config, workload, WorkloadScale::Tiny,
                       /*validate=*/true);
}

TEST(Integration, DeterministicCycleCounts)
{
    const RunResult a = runTiny("BFS-TWC", Policy::ToUe);
    const RunResult b = runTiny("BFS-TWC", Policy::ToUe);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.instructions, b.instructions);
}

/**
 * Builds the fig11-style speedup table for a tiny two-workload,
 * three-policy sweep — the same table builder bench/fig11_speedup
 * uses, shrunk to regression size.
 */
std::string
miniFig11Table(std::size_t jobs)
{
    SweepSpec spec;
    spec.bench = "fig11_mini";
    spec.workloads = {"BFS-TTC", "KCORE"};
    spec.policies = {Policy::Baseline, Policy::To, Policy::ToUe};
    spec.opt.scale = WorkloadScale::Tiny;
    spec.opt.seed = 1;
    spec.opt.ratio = 0.5;
    spec.opt.jobs = jobs;
    spec.verbose = false;

    SweepRunner runner(spec);
    return buildSpeedupTable(runner.run(), spec.workloads, spec.policies,
                             SpeedupMeans::Average)
        .table.toText();
}

/**
 * Byte-exact golden for the mini fig11 sweep (seed 1, ratio 0.5,
 * Tiny). Captured from the pre-rewrite kernel; any drift here means
 * the event kernel, graph memoization or sweep scheduling changed
 * simulated behavior, not just performance. Trailing spaces are part
 * of the table format.
 */
constexpr char kMiniFig11Golden[] =
    "workload  BASELINE  TO    TO+UE  \n"
    "---------------------------------\n"
    "BFS-TTC   1.00      1.00  2.00   \n"
    "KCORE     1.00      1.00  3.15   \n"
    "AVERAGE   1.00      1.00  2.58   \n";

TEST(Integration, MiniFig11GoldenSerial)
{
    EXPECT_EQ(miniFig11Table(1), kMiniFig11Golden);
}

TEST(Integration, MiniFig11GoldenParallelMatchesGolden)
{
    EXPECT_EQ(miniFig11Table(2), kMiniFig11Golden);
}

TEST(Integration, DifferentSeedsDifferentGraphs)
{
    const RunResult a = runTiny("BFS-TTC", Policy::Baseline, 0.5, 1);
    const RunResult b = runTiny("BFS-TTC", Policy::Baseline, 0.5, 99);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Integration, UnlimitedMemoryHasNoEvictions)
{
    const RunResult r = runTiny("PR", Policy::Unlimited, 0.0);
    EXPECT_EQ(r.evictions, 0u);
    EXPECT_EQ(r.premature_evictions, 0u);
}

TEST(Integration, FullCapacityRatioHasNoEvictions)
{
    const RunResult r = runTiny("PR", Policy::Baseline, 1.0);
    EXPECT_EQ(r.evictions, 0u);
}

TEST(Integration, OversubscriptionSlowsExecution)
{
    const RunResult full = runTiny("BFS-TWC", Policy::Baseline, 1.0);
    const RunResult half = runTiny("BFS-TWC", Policy::Baseline, 0.5);
    EXPECT_GT(half.cycles, full.cycles);
    EXPECT_GT(half.evictions, 0u);
}

TEST(Integration, IdealEvictionNotSlowerThanBaseline)
{
    // At hyper-thrash ratios the earlier evictions of the ideal scheme
    // can induce refaults, so use a moderate oversubscription where
    // the Fig 8 relationship (ideal >= baseline) holds.
    const RunResult base = runTiny("BFS-TWC", Policy::Baseline, 0.75);
    const RunResult ideal =
        runTiny("BFS-TWC", Policy::IdealEviction, 0.75);
    EXPECT_LE(ideal.cycles, base.cycles * 105 / 100);
    EXPECT_EQ(ideal.pcie_d2h_bytes, 0u);
}

TEST(Integration, ToPerformsContextSwitches)
{
    const RunResult r = runTiny("BFS-TWC", Policy::To);
    EXPECT_GT(r.context_switches, 0u);
    EXPECT_GT(r.context_switch_cycles, 0u);
}

TEST(Integration, BaselineNeverContextSwitches)
{
    const RunResult r = runTiny("BFS-TWC", Policy::Baseline);
    EXPECT_EQ(r.context_switches, 0u);
}

TEST(Integration, MigrationsCoverDemandAndPrefetch)
{
    const RunResult r = runTiny("BFS-TTC", Policy::Baseline);
    EXPECT_EQ(r.migrations, r.demand_pages + r.prefetched_pages);
}

TEST(Integration, BatchRecordsConsistent)
{
    const RunResult r = runTiny("SSSP-TWC", Policy::Baseline);
    ASSERT_EQ(r.batch_records.size(), r.batches);
    std::uint64_t demand = 0;
    for (const auto &b : r.batch_records) {
        EXPECT_LE(b.begin, b.first_transfer);
        EXPECT_LE(b.first_transfer, b.end);
        demand += b.fault_pages;
        EXPECT_LE(b.fault_pages, 1024u) << "batch exceeds fault buffer";
    }
    EXPECT_EQ(demand, r.demand_pages);
}

TEST(Integration, BatchesAreTimeOrdered)
{
    const RunResult r = runTiny("BFS-TF", Policy::Baseline);
    for (std::size_t i = 1; i < r.batch_records.size(); ++i) {
        EXPECT_GE(r.batch_records[i].begin,
                  r.batch_records[i - 1].end);
    }
}

TEST(Integration, PcieCompressionReducesBytesMoved)
{
    const RunResult plain = runTiny("BFS-TTC", Policy::Baseline);
    const RunResult comp =
        runTiny("BFS-TTC", Policy::BaselinePcieComp);
    const double plain_per_page =
        static_cast<double>(plain.pcie_h2d_bytes) / plain.migrations;
    const double comp_per_page =
        static_cast<double>(comp.pcie_h2d_bytes) / comp.migrations;
    EXPECT_LT(comp_per_page, plain_per_page);
}

TEST(Integration, EtcRunsAndValidates)
{
    const RunResult r = runTiny("BFS-TTC", Policy::Etc);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Integration, PreloadEliminatesAllFaults)
{
    SimConfig config = paperConfig(0.0);
    config.uvm.preload = true;
    const RunResult r = runWorkload(config, "PR", WorkloadScale::Tiny,
                                    /*validate=*/true);
    EXPECT_EQ(r.batches, 0u);
    EXPECT_EQ(r.pcie_h2d_bytes, 0u);
}

TEST(Integration, PreloadMatchesUnlimitedFunctionally)
{
    // Preloaded and demand-paged runs must produce identical results
    // (validate() passes in both) but preload must be faster.
    SimConfig pre = paperConfig(0.0);
    pre.uvm.preload = true;
    const RunResult preloaded =
        runWorkload(pre, "BFS-TWC", WorkloadScale::Tiny, true);
    const RunResult demand = runTiny("BFS-TWC", Policy::Unlimited, 0.0);
    EXPECT_LT(preloaded.cycles, demand.cycles);
}

/** Property sweep: invariants over (workload x ratio). */
class PolicyInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{
};

TEST_P(PolicyInvariants, ResidencyNeverExceedsCapacity)
{
    const auto &[workload_name, ratio] = GetParam();
    SimConfig config = paperConfig(ratio);
    auto workload = WorkloadRegistry::instance().create(workload_name);
    GpuUvmSystem system(config);
    const RunResult r = system.run(*workload, WorkloadScale::Tiny);
    workload->validate();
    EXPECT_LE(system.memoryManager().pageTable().residentPages(),
              system.memoryManager().capacityPages());
    EXPECT_GT(r.cycles, 0u);
}

TEST_P(PolicyInvariants, UeAndBaselineMoveSimilarDemand)
{
    const auto &[workload_name, ratio] = GetParam();
    // UE must not change *which* pages the workload needs (only the
    // schedule): unique demand pages are a workload property.
    const RunResult base =
        runTiny(workload_name, Policy::Baseline, ratio);
    const RunResult ue = runTiny(workload_name, Policy::Ue, ratio);
    EXPECT_GT(base.demand_pages, 0u);
    EXPECT_GT(ue.demand_pages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyInvariants,
    ::testing::Combine(::testing::Values("BFS-TTC", "BFS-TWC", "PR",
                                         "SSSP-TWC"),
                       ::testing::Values(0.25, 0.5, 0.75)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_r" +
               std::to_string(static_cast<int>(
                   std::get<1>(info.param) * 100));
    });

/** Every irregular workload must run end-to-end under TO+UE. */
class AllWorkloadsSim : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllWorkloadsSim, ToUeRunsAndValidates)
{
    const RunResult r = runTiny(GetParam(), Policy::ToUe);
    EXPECT_GT(r.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Irregular, AllWorkloadsSim,
    ::testing::ValuesIn(WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular)),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace bauvm

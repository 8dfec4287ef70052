/**
 * @file
 * Figure 11 (the headline result): speedup over the state-of-the-art
 * prefetching baseline for BASELINE with PCIe compression, TO, UE,
 * TO+UE and ETC, per workload and on average, at 50% memory
 * oversubscription.
 *
 * Paper: TO+UE averages 2x over BASELINE, 1.81x over BASELINE with
 * PCIe compression, and 1.79x over ETC; TO alone contributes 22%, UE
 * adds another 61%; BFS-DWC gains 4.13x from UE.
 *
 * The (workload x policy) matrix runs on the parallel SweepRunner
 * (--jobs N); pass --json PATH for the structured export.
 */

#include <cstdio>

#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/runner/sweep_runner.h"
#include "src/workloads/workload_registry.h"

int
main(int argc, char **argv)
{
    using namespace bauvm;
    const BenchOptions opt = parseBenchArgs(argc, argv);

    SweepSpec spec;
    spec.bench = "fig11_speedup";
    spec.workloads = opt.workloadsOr( // --workloads: e.g. frontier
        WorkloadRegistry::instance().enumerate(
            WorkloadKind::Irregular));
    spec.policies = allPolicies();
    spec.opt = opt;

    SweepRunner runner(spec);
    const SweepResult sweep = runner.run();
    std::fprintf(stderr,
                 "fig11: %zu-cell matrix on %zu worker(s) in %.2fs\n",
                 sweep.cells.size(), sweep.jobs, sweep.elapsed_s);
    if (!opt.json_path.empty())
        sweep.writeJson(opt.json_path);

    printBanner("Figure 11: speedup over BASELINE "
                "(50% memory oversubscription)");
    const SpeedupTable fig11 = buildSpeedupTable(
        sweep, spec.workloads, spec.policies, SpeedupMeans::Both);
    fig11.table.emit(opt.csv);
    std::fputs(section52Summary(fig11).c_str(), stdout);
    return 0;
}

/**
 * @file
 * Frontier-suite evaluation matrix: the fig11-style speedup table over
 * the frontier-phase workload family (direction-optimizing BFS, label
 * propagation CC, triangle counting, k-truss) whose per-kernel access
 * patterns shift with the frontier instead of repeating a fixed
 * iteration shape — the regime batch-aware migration is built for.
 *
 * Defaults to every registered frontier workload; --workloads A,B,C
 * restricts the suite (CI smoke runs BFS-HYB,CC). The (workload x
 * policy) matrix runs on the parallel SweepRunner, so stdout is
 * byte-identical for any --jobs value; pass --json PATH for the
 * structured export and --audit for per-cell reference validation.
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
    spec.bench = "frontier_suite";
    spec.workloads = opt.workloadsOr(
        WorkloadRegistry::instance().enumerate(
            WorkloadKind::Frontier));
    spec.policies = allPolicies();
    spec.opt = opt;

    SweepRunner runner(spec);
    const SweepResult sweep = runner.run();
    std::fprintf(
        stderr, "frontier_suite: %zu-cell matrix on %zu worker(s) in %.2fs\n",
        sweep.cells.size(), sweep.jobs, sweep.elapsed_s);
    if (!opt.json_path.empty())
        sweep.writeJson(opt.json_path);

    printBanner("Frontier suite: speedup over BASELINE");
    buildSpeedupTable(sweep, spec.workloads, spec.policies,
                      SpeedupMeans::Geomean)
        .table.emit(opt.csv);
    return 0;
}

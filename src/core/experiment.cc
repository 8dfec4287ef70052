#include "src/core/experiment.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/runner/job.h"
#include "src/sim/log.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{

namespace
{

void
printBenchUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "options: --scale tiny|small|medium|large|huge --ratio R "
        "--seed N --csv --jobs N --cell-threads N --json PATH "
        "--timeout S "
        "--trace[=DIR] --audit --resume[=DIR] --workloads A,B,C\n"
        "  --jobs N     sweep worker threads "
        "(0 = hardware concurrency, default)\n"
        "  --cell-threads N  host threads inside one cell: a multi-\n"
        "               tenant cell runs its solo anchors and the mix\n"
        "               as concurrent units, bit-identical to the\n"
        "               serial run (default 1)\n"
        "  --json PATH  export sweep results as JSON "
        "('-' = stdout)\n"
        "  --timeout S  per-cell soft timeout in seconds\n"
        "  --trace[=DIR] write one chrome://tracing JSON and "
        "one counter CSV per sweep cell (default dir: "
        "traces)\n"
        "  --audit      run every cell under the online model "
        "auditor (invariant violations fail the cell)\n"
        "  --resume[=DIR] checkpoint finished cells in a content-\n"
        "               addressed on-disk cache and load them on the\n"
        "               next run (default dir: .bauvm-cells)\n"
        "  --workloads A,B,C  restrict the bench to a comma-separated\n"
        "               workload subset (names from the registry)\n"
        "  --tenants A:0.5,B:0.5  run every cell as a concurrent\n"
        "               multi-tenant mix (workload:quota pairs; a\n"
        "               missing quota means an equal share)\n"
        "  --share-policy free-for-all|strict|proportional  how\n"
        "               tenants share device memory (default\n"
        "               free-for-all)\n");
}

} // namespace

void
BenchOptions::applyTo(SimConfig &config) const
{
    config.check.enabled = audit;
    config.mt.policy = share_policy;
}

BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", what);
            return argv[++i];
        };
        auto next_u64 = [&](const char *what) -> std::uint64_t {
            const std::string v = next(what);
            // Digits only: std::stoull alone would wrap "-2" to 2^64-2
            // and read "3x" as 3.
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos)
                fatal("invalid value '%s' for %s", v.c_str(), what);
            try {
                return std::stoull(v);
            } catch (const std::exception &) {
                fatal("invalid value '%s' for %s", v.c_str(), what);
            }
        };
        auto next_f64 = [&](const char *what) -> double {
            const std::string v = next(what);
            try {
                return std::stod(v);
            } catch (const std::exception &) {
                fatal("invalid value '%s' for %s", v.c_str(), what);
            }
        };
        if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--scale") {
            const std::string v = next("--scale");
            if (v == "tiny")
                opt.scale = WorkloadScale::Tiny;
            else if (v == "small")
                opt.scale = WorkloadScale::Small;
            else if (v == "medium")
                opt.scale = WorkloadScale::Medium;
            else if (v == "large")
                opt.scale = WorkloadScale::Large;
            else if (v == "huge")
                opt.scale = WorkloadScale::Huge;
            else
                fatal("unknown scale '%s'", v.c_str());
        } else if (arg == "--ratio") {
            opt.ratio = next_f64("--ratio");
        } else if (arg == "--seed") {
            opt.seed = next_u64("--seed");
        } else if (arg == "--jobs") {
            opt.jobs = next_u64("--jobs");
        } else if (arg == "--cell-threads") {
            opt.cell_threads = next_u64("--cell-threads");
            if (opt.cell_threads == 0)
                fatal("--cell-threads must be >= 1");
        } else if (arg == "--json") {
            opt.json_path = next("--json");
        } else if (arg == "--timeout") {
            opt.timeout_s = next_f64("--timeout");
            if (opt.timeout_s < 0.0)
                fatal("--timeout must be >= 0");
        } else if (arg == "--trace") {
            opt.trace_dir = "traces";
        } else if (arg.rfind("--trace=", 0) == 0) {
            opt.trace_dir = arg.substr(std::strlen("--trace="));
            if (opt.trace_dir.empty())
                fatal("--trace= requires a directory");
        } else if (arg == "--audit") {
            opt.audit = true;
        } else if (arg == "--workloads") {
            const std::string list = next("--workloads");
            std::size_t start = 0;
            while (start <= list.size()) {
                const std::size_t comma = list.find(',', start);
                const std::string name = list.substr(
                    start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
                if (!name.empty()) {
                    if (!WorkloadRegistry::instance().contains(name)) {
                        fatal("--workloads: unknown workload '%s'",
                              name.c_str());
                    }
                    opt.workloads.push_back(name);
                }
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
            if (opt.workloads.empty())
                fatal("--workloads: empty workload list");
        } else if (arg == "--tenants") {
            const std::string list = next("--tenants");
            std::size_t start = 0;
            while (start <= list.size()) {
                const std::size_t comma = list.find(',', start);
                const std::string item = list.substr(
                    start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
                if (!item.empty()) {
                    TenantSpec t;
                    const std::size_t colon = item.find(':');
                    t.workload = item.substr(0, colon);
                    if (colon != std::string::npos) {
                        try {
                            t.quota = std::stod(item.substr(colon + 1));
                        } catch (const std::exception &) {
                            fatal("--tenants: invalid quota in '%s'",
                                  item.c_str());
                        }
                        if (t.quota < 0.0)
                            fatal("--tenants: negative quota in '%s'",
                                  item.c_str());
                    }
                    if (!WorkloadRegistry::instance().contains(
                            t.workload)) {
                        fatal("--tenants: unknown workload '%s'",
                              t.workload.c_str());
                    }
                    opt.tenants.push_back(std::move(t));
                }
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
            if (opt.tenants.size() < 2)
                fatal("--tenants: need at least two tenants");
        } else if (arg == "--share-policy") {
            opt.share_policy = sharePolicyFromName(
                next("--share-policy"));
        } else if (arg == "--resume") {
            opt.resume_dir = ".bauvm-cells";
        } else if (arg.rfind("--resume=", 0) == 0) {
            opt.resume_dir = arg.substr(std::strlen("--resume="));
            if (opt.resume_dir.empty())
                fatal("--resume= requires a directory");
        } else if (arg == "--help" || arg == "-h") {
            printBenchUsage(stdout);
            std::exit(0);
        } else {
            printBenchUsage(stderr);
            fatal("unknown argument '%s'", arg.c_str());
        }
    }
    return opt;
}

std::string
scaleName(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Tiny:
        return "tiny";
      case WorkloadScale::Small:
        return "small";
      case WorkloadScale::Medium:
        return "medium";
      case WorkloadScale::Large:
        return "large";
      case WorkloadScale::Huge:
        return "huge";
    }
    fatal("scaleName: bad scale");
}

RunResult
runCell(const std::string &workload, Policy policy,
        const BenchOptions &opt)
{
    // Same seed derivation as SweepRunner, so a direct runCell() call
    // reproduces the matching sweep cell bit-for-bit.
    SimConfig config =
        paperConfig(opt.ratio, deriveWorkloadSeed(opt.seed, workload));
    config = applyPolicy(config, policy);
    opt.applyTo(config);
    return runWorkload(config, workload, opt.scale);
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        warn("geomean: empty input, returning 0");
        return 0.0;
    }
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0) || !std::isfinite(v)) {
            // One failed sweep cell yields a 0/inf/nan speedup; keep
            // the bench binary alive and make the bad mean obvious.
            warn("geomean: non-positive value %f, returning 0", v);
            return 0.0;
        }
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace bauvm

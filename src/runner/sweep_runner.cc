#include "src/runner/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>

#include "src/graph/graph_cache.h"
#include "src/runner/cell_spec.h"
#include "src/runner/parallel_units.h"
#include "src/runner/thread_pool.h"
#include "src/serve/result_cache.h"
#include "src/sim/log.h"

namespace bauvm
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Builds "<bench>__<workload>__<policy>[__<variant>]" with
 *  filesystem-hostile characters replaced by '-'. */
std::string
cellFileStem(const SweepSpec &spec, const SweepJob &job)
{
    std::string stem = spec.bench + "__" + job.workload + "__" +
                       policyName(job.policy);
    if (!job.variant.empty())
        stem += "__" + job.variant;
    for (char &c : stem) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' ||
                        c == '_' || c == '.';
        if (!ok)
            c = '-';
    }
    return stem;
}

/**
 * Runs one cell through the shared executeCell() path — the same code
 * the sweep service's forked workers run, which is what keeps every
 * execution mode (threaded, sharded, resumed) bit-identical. With a
 * resume cache, finished ok cells load by content address instead of
 * recomputing, and fresh ok results are stored for the next run.
 */
CellOutcome
executeJob(const SweepJob &job, const SweepSpec &spec,
           ResultCache *cache)
{
    CellExecArgs args;
    args.workload = job.workload;
    args.policy = job.policy;
    args.variant = job.variant;
    args.job_seed = job.job_seed;
    args.scale = spec.opt.scale;

    SimConfig config = paperConfig(spec.opt.ratio, job.seed);
    config = applyPolicy(config, job.policy);
    if (job.variant_index < spec.variants.size() &&
        spec.variants[job.variant_index].mutate)
        spec.variants[job.variant_index].mutate(config);
    spec.opt.applyTo(config);
    args.config = std::move(config);

    args.tenants = spec.opt.tenants;
    for (TenantSpec &t : args.tenants)
        t.scale = spec.opt.scale;

    args.soft_timeout_s = spec.opt.timeout_s;
    args.cell_threads = spec.opt.cell_threads;
    if (!spec.opt.trace_dir.empty()) {
        args.trace_dir = spec.opt.trace_dir;
        args.trace_stem = cellFileStem(spec, job);
        args.trace_bench = spec.bench;
        args.trace_ratio = spec.opt.ratio;
    }

    std::string digest;
    std::string key;
    if (cache) {
        key = cellKey(args.workload, args.scale, args.config,
                      gitRev(), args.tenants);
        digest = digestHex(key);
        CellOutcome cached;
        if (cache->lookup(digest, key, &cached)) {
            // The stored outcome may carry a different producer
            // coordinate that digests identically; re-label it as
            // this cell. The simulated payload is digest-covered.
            cached.workload = job.workload;
            cached.policy = job.policy;
            cached.variant = job.variant;
            cached.seed = job.seed;
            cached.job_seed = job.job_seed;
            cached.digest = digest;
            cached.result.workload = job.workload;
            cached.result.seed = job.seed;
            return cached;
        }
    }

    CellOutcome out = executeCell(args);
    if (cache && out.ok)
        cache->store(digest, key, out);
    return out;
}

} // namespace

SweepRunner::SweepRunner(SweepSpec spec)
    : spec_(std::move(spec))
{
    if (spec_.workloads.empty())
        fatal("SweepRunner: no workloads");
    if (spec_.policies.empty())
        fatal("SweepRunner: no policies");
}

void
SweepRunner::setProgress(ProgressFn fn)
{
    progress_ = std::move(fn);
    progress_overridden_ = true;
}

std::size_t
SweepRunner::cellCount() const
{
    const std::size_t variants =
        spec_.variants.empty() ? 1 : spec_.variants.size();
    return variants * spec_.workloads.size() * spec_.policies.size();
}

SweepResult
SweepRunner::run()
{
    // Expand the matrix in deterministic order: variant-major, then
    // workload, then policy. Result slots are preallocated so workers
    // write by index and completion order never matters.
    const std::size_t variants =
        spec_.variants.empty() ? 1 : spec_.variants.size();
    std::vector<SweepJob> jobs;
    jobs.reserve(cellCount());
    for (std::size_t v = 0; v < variants; ++v) {
        const std::string label =
            spec_.variants.empty() ? "" : spec_.variants[v].label;
        for (const auto &w : spec_.workloads) {
            for (Policy p : spec_.policies) {
                SweepJob job;
                job.index = jobs.size();
                job.workload = w;
                job.policy = p;
                job.variant = label;
                job.variant_index = v;
                job.seed = deriveWorkloadSeed(spec_.opt.seed, w);
                job.job_seed =
                    deriveJobSeed(spec_.opt.seed, w, p, label);
                jobs.push_back(std::move(job));
            }
        }
    }

    if (!spec_.opt.trace_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(spec_.opt.trace_dir, ec);
        if (ec) {
            fatal("SweepRunner: cannot create trace dir '%s': %s",
                  spec_.opt.trace_dir.c_str(),
                  ec.message().c_str());
        }
    }

    SweepResult result;
    result.bench = spec_.bench;
    result.base_seed = spec_.opt.seed;
    result.scale = spec_.opt.scale;
    result.ratio = spec_.opt.ratio;
    result.cells.resize(jobs.size());

    std::size_t workers = spec_.opt.jobs == 0
                              ? ThreadPool::hardwareJobs()
                              : spec_.opt.jobs;
    workers = std::max<std::size_t>(
        1, std::min(workers, jobs.size()));
    result.jobs = workers;

    const auto t0 = Clock::now();

    ProgressFn progress = progress_;
    if (!progress_overridden_ && spec_.verbose) {
        const std::size_t total = jobs.size();
        progress = [total, t0](const CellOutcome &cell,
                               std::size_t done, std::size_t) {
            const double elapsed = secondsSince(t0);
            const double eta =
                done == 0 ? 0.0
                          : elapsed / static_cast<double>(done) *
                                static_cast<double>(total - done);
            std::fprintf(
                stderr, "  [%zu/%zu] %s/%s%s%s %s %.2fs | ETA %.0fs\n",
                done, total, cell.workload.c_str(),
                policyName(cell.policy).c_str(),
                cell.variant.empty() ? "" : " ",
                cell.variant.c_str(), cell.ok ? "ok" : "FAILED",
                cell.wall_s, eta);
        };
    }

    std::mutex progress_mutex;
    std::size_t done = 0;

    // --resume: finished ok cells load from the content-addressed
    // cache by (config digest, git rev) instead of recomputing.
    std::unique_ptr<ResultCache> cache;
    if (!spec_.opt.resume_dir.empty())
        cache = std::make_unique<ResultCache>(spec_.opt.resume_dir);

    // Share one immutable graph build per (workload, seed) across all
    // policy/variant cells for the duration of this sweep.
    GraphBuildCache &graph_cache = GraphBuildCache::instance();
    const std::uint64_t builds_before = graph_cache.builds();
    const std::uint64_t hits_before = graph_cache.hits();
    GraphBuildCache::Scope graph_scope;

    // Cells are dispatched in index order; the calling thread is
    // worker 0. executeJob captures every cell failure itself.
    runUnits(jobs.size(), workers, [&](std::size_t i) {
        CellOutcome cell = executeJob(jobs[i], spec_, cache.get());
        result.cells[i] = cell;
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++done;
        if (progress)
            progress(cell, done, jobs.size());
    });

    result.elapsed_s = secondsSince(t0);

    if (spec_.verbose) {
        std::fprintf(stderr,
                     "  sweep: %zu cells on %zu worker(s) in %.2fs "
                     "(%zu failed)\n",
                     result.cells.size(), workers, result.elapsed_s,
                     result.failedCells());
        std::fprintf(
            stderr, "  graph cache: %llu build(s), %llu reuse(s)\n",
            static_cast<unsigned long long>(graph_cache.builds() -
                                            builds_before),
            static_cast<unsigned long long>(graph_cache.hits() -
                                            hits_before));
        if (cache) {
            std::fprintf(
                stderr,
                "  resume cache: %llu hit(s), %llu computed, %llu "
                "stored (%s)\n",
                static_cast<unsigned long long>(cache->hits()),
                static_cast<unsigned long long>(cache->misses()),
                static_cast<unsigned long long>(cache->stores()),
                cache->dir().c_str());
        }
    }
    return result;
}

} // namespace bauvm

/**
 * @file
 * The repository benchmark: runs one workload through libbauvm's public
 * API (SweepRunner, WorkloadRegistry, Workload, GpuUvmSystem and the
 * component stat accessors) and prints its metrics as one JSON line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR] [--expected DIR]
 *
 * Every workload is a closed batch: a fixed list of cells, submitted
 * through SweepRunner and waited on, with no arrival rate. The batch
 * repeats until --seconds of measurement are used up, and each metric
 * is the median over batches. Every batch is a fresh sweep, so modelled
 * caches, TLBs and GPU memory start empty in every cell and the host
 * GraphBuildCache starts empty in every batch: users pay for graph
 * builds on every sweep.
 *
 * Output check. Every cell's deterministic simulated outputs (every
 * RunResult field but the host times, including the event-order digest
 * and the per-tenant results) are compared with a reference: the
 * outputs stored in --expected for this workload and seed when they
 * exist, otherwise a serial pass over the same cells. Any mismatch,
 * abort, timeout or validate() failure fails the cell.
 *
 * --trace 1 adds a serial traced pass (spans recorded here, around the
 * calls into each layer; written as Chrome trace-event JSON to --out)
 * and prints the per-layer metrics instead of the end-to-end ones.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "span_trace.h"
#include "src/core/experiment.h"
#include "src/core/presets.h"
#include "src/core/system.h"
#include "src/core/tenant.h"
#include "src/graph/graph_cache.h"
#include "src/runner/cell_spec.h"
#include "src/runner/job.h"
#include "src/runner/json_writer.h"
#include "src/runner/sweep_runner.h"
#include "src/runner/thread_pool.h"
#include "src/serve/json.h"
#include "src/sim/log.h"
#include "src/workloads/graph_workload.h"
#include "src/workloads/workload_registry.h"

namespace
{

using namespace bauvm;
using perfbench::ScopedSpan;
using perfbench::SpanTrace;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ------------------------------------------------------------ workloads

/** One benchmark workload: the sweeps that make up one closed batch. */
struct WorkloadDef {
    std::string name;
    WorkloadScale scale = WorkloadScale::Tiny;
    std::vector<std::string> workloads;
    std::vector<Policy> policies;
    /** Non-empty: every cell is this tenant mix. */
    std::vector<TenantSpec> tenants;
    /** One sweep per entry (only tenant mixes use more than one). */
    std::vector<SharePolicy> shares = {SharePolicy::FreeForAll};
    std::size_t jobs = 1;
    std::size_t cell_threads = 1;
};

std::vector<WorkloadDef>
workloadDefs()
{
    std::vector<WorkloadDef> defs;

    // The figure users run: 11 irregular workloads x 6 policies on
    // every host CPU. The warp memory op (gpu coalescer, mem TLBs,
    // caches and DRAM) does most of the work, graph builds are small
    // and cached, and it is the only workload where cross-cell runner
    // parallelism matters.
    WorkloadDef fig11;
    fig11.name = "fig11-matrix";
    fig11.scale = WorkloadScale::Tiny;
    fig11.workloads =
        WorkloadRegistry::instance().enumerate(WorkloadKind::Irregular);
    fig11.policies = allPolicies();
    fig11.jobs = ThreadPool::hardwareJobs();
    defs.push_back(fig11);

    // One large graph, policies one after another on one thread: the
    // graph layer (R-MAT generation, degree relabel, CSR build) takes
    // most of the batch and memory use peaks here. Runner parallelism
    // plays no part.
    WorkloadDef hyb;
    hyb.name = "bfs-hyb-large";
    hyb.scale = WorkloadScale::Large;
    hyb.workloads = {"BFS-HYB"};
    hyb.policies = allPolicies();
    defs.push_back(hyb);

    // Two tenants contending for one device under every share policy:
    // strict and proportional sharing evict heavily, free-for-all
    // hardly at all, so the uvm batch/eviction path carries far more
    // weight than elsewhere. ETC rejects multi-tenant runs by design
    // and is left out. The only workload with intra-cell threads
    // (solo anchors and the mix run as parallel units).
    WorkloadDef mt;
    mt.name = "mt2-evict";
    mt.scale = WorkloadScale::Tiny;
    mt.tenants = {{"BFS-TF", 0.5, WorkloadScale::Tiny},
                  {"PR", 0.5, WorkloadScale::Tiny}};
    mt.workloads = {tenantMixLabel(mt.tenants)};
    for (Policy p : allPolicies()) {
        if (p != Policy::Etc)
            mt.policies.push_back(p);
    }
    mt.shares = {SharePolicy::FreeForAll, SharePolicy::StrictQuota,
                 SharePolicy::Proportional};
    mt.cell_threads = 3;
    defs.push_back(mt);

    return defs;
}

/** One finished cell, reduced to what the checks and metrics need. */
struct CellRecord {
    /** Cells that differ only in policy share a group: the workload,
     *  and for a tenant mix also the share policy. */
    std::string group;
    Policy policy = Policy::Baseline;
    std::string key; //!< "<workload>/<policy>[/<share policy>]"
    bool ok = false;
    std::string error;
    std::string outputs; //!< canonicalOutputs(), "" when !ok
    Cycle cycles = 0;
};

CellRecord
newRecord(const WorkloadDef &def, const std::string &workload,
          Policy policy, SharePolicy share)
{
    CellRecord rec;
    rec.group = workload;
    if (!def.tenants.empty())
        rec.group += "/" + sharePolicyName(share);
    rec.policy = policy;
    rec.key = workload + "/" + policyName(policy);
    if (!def.tenants.empty())
        rec.key += "/" + sharePolicyName(share);
    return rec;
}

/** The config SweepRunner gives the cell (see executeJob there). */
SimConfig
cellConfig(const std::string &workload, Policy policy, SharePolicy share,
           std::uint64_t seed)
{
    SimConfig config =
        paperConfig(0.5, deriveWorkloadSeed(seed, workload));
    config = applyPolicy(config, policy);
    BenchOptions opt;
    opt.share_policy = share;
    opt.applyTo(config);
    return config;
}

// ------------------------------------------------------- output check

void
appendU(std::string &s, const char *key, std::uint64_t v)
{
    s += key;
    s += '=';
    s += std::to_string(v);
    s += ';';
}

/** Every digit of @p v: the same double always prints the same. */
std::string
formatNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
appendD(std::string &s, const char *key, double v)
{
    s += key;
    s += '=';
    s += formatNumber(v);
    s += ';';
}

/** Every deterministic simulated output of one cell, as one string. */
std::string
canonicalOutputs(const RunResult &r)
{
    std::string s = "workload=" + r.workload + ";";
    appendU(s, "seed", r.seed);
    appendU(s, "cycles", r.cycles);
    appendU(s, "kernels", r.kernels);
    appendU(s, "instructions", r.instructions);
    appendU(s, "footprint_bytes", r.footprint_bytes);
    appendU(s, "capacity_pages", r.capacity_pages);
    appendU(s, "batches", r.batches);
    appendD(s, "avg_batch_pages", r.avg_batch_pages);
    appendD(s, "avg_batch_time", r.avg_batch_time);
    appendD(s, "avg_handling_time", r.avg_handling_time);
    appendU(s, "demand_pages", r.demand_pages);
    appendU(s, "prefetched_pages", r.prefetched_pages);
    // FNV-1a over every batch record field.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const BatchRecord &b : r.batch_records) {
        mix(b.begin);
        mix(b.first_transfer);
        mix(b.end);
        mix(b.fault_pages);
        mix(b.prefetch_pages);
        mix(b.duplicate_faults);
        mix(b.migrated_bytes);
    }
    appendU(s, "batch_records", r.batch_records.size());
    appendU(s, "batch_records_fnv", h);
    appendU(s, "migrations", r.migrations);
    appendU(s, "evictions", r.evictions);
    appendU(s, "premature_evictions", r.premature_evictions);
    appendD(s, "premature_rate", r.premature_rate);
    appendU(s, "context_switches", r.context_switches);
    appendU(s, "context_switch_cycles", r.context_switch_cycles);
    appendU(s, "pcie_h2d_bytes", r.pcie_h2d_bytes);
    appendU(s, "pcie_d2h_bytes", r.pcie_d2h_bytes);
    appendU(s, "translations", r.translations);
    appendD(s, "tlb_hit_rate", r.tlb_hit_rate);
    appendD(s, "faults_per_kcycle", r.faults_per_kcycle);
    appendU(s, "event_order_digest", r.event_order_digest);
    appendU(s, "sim_events", r.sim_events);
    for (const TenantResult &t : r.tenants) {
        s += "tenant=" + std::to_string(t.id) + ":" + t.workload + ";";
        appendU(s, "t.seed", t.seed);
        appendU(s, "t.cycles", t.cycles);
        appendU(s, "t.kernels", t.kernels);
        appendU(s, "t.instructions", t.instructions);
        appendU(s, "t.footprint_bytes", t.footprint_bytes);
        appendU(s, "t.quota_pages", t.quota_pages);
        appendU(s, "t.demand_pages", t.demand_pages);
        appendU(s, "t.evictions_caused", t.evictions_caused);
        appendU(s, "t.evictions_suffered", t.evictions_suffered);
        appendU(s, "t.peak_resident_pages", t.peak_resident_pages);
        appendD(s, "t.avg_lifetime_cycles", t.avg_lifetime_cycles);
        appendD(s, "t.slowdown", t.slowdown);
    }
    return s;
}

using Outputs = std::map<std::string, std::string>; //!< cell key -> outputs

/** First differing "key=value" field of two canonical strings. */
std::string
firstDifference(const std::string &got, const std::string &want)
{
    std::istringstream a(got), b(want);
    std::string fa, fb;
    while (true) {
        const bool ma = static_cast<bool>(std::getline(a, fa, ';'));
        const bool mb = static_cast<bool>(std::getline(b, fb, ';'));
        if (!ma && !mb)
            return "?";
        if (fa != fb || ma != mb)
            return "got '" + (ma ? fa : "") + "', want '" +
                   (mb ? fb : "") + "'";
    }
}

std::string
outputsPath(const std::string &dir, const std::string &workload,
            std::uint64_t seed)
{
    return dir + "/" + workload + ".seed" + std::to_string(seed) +
           ".json";
}

/** Loads stored outputs; false when the file does not exist. */
bool
loadOutputs(const std::string &path, Outputs *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(text.str(), &doc, &error))
        fatal("perfbench: %s: %s", path.c_str(), error.c_str());
    const JsonValue *cells = doc.find("cells");
    if (!cells || !cells->isObject())
        fatal("perfbench: %s: no \"cells\" object", path.c_str());
    for (const auto &[key, value] : cells->members())
        (*out)[key] = value.asString();
    return true;
}

void
writeOutputs(const std::string &path, const std::string &workload,
             std::uint64_t seed, const Outputs &outputs)
{
    JsonWriter w(true);
    w.beginObject();
    w.field("workload", workload);
    w.field("seed", seed);
    w.beginObject("cells");
    for (const auto &[key, value] : outputs)
        w.field(key, value);
    w.endObject();
    w.endObject();
    std::ofstream(path) << w.str() << "\n";
}

/** Counts attempted/failed cells and reports each failure once. */
struct CheckTally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** @return true when the cell passed. */
    bool
    check(const char *phase, const CellRecord &c, const Outputs &reference)
    {
        ++attempted;
        std::string why;
        if (!c.ok) {
            why = c.error;
        } else {
            auto it = reference.find(c.key);
            if (it == reference.end())
                why = "no reference outputs";
            else if (it->second != c.outputs)
                why = "outputs differ: " +
                      firstDifference(c.outputs, it->second);
        }
        if (why.empty())
            return true;
        ++failed;
        std::fprintf(stderr, "perfbench: FAIL %s %s: %s\n", phase,
                     c.key.c_str(), why.c_str());
        return false;
    }
};

// ------------------------------------------------- untraced batches

/** One closed batch of the untraced run. */
struct BatchStats {
    double wall_s = 0.0;     //!< sum of the sweeps' wall time
    double setup_s = 0.0;    //!< host seconds before simulating
    double simulate_s = 0.0; //!< sum of RunResult::host_wall_s
    double instructions = 0.0;
    double cell_s_sum = 0.0;
    double worker_s = 0.0;   //!< jobs x sweep wall, summed
    double idle_tail_s = 0.0;
    double export_s = 0.0;
    double peak_rss_mb = 0.0;
    std::size_t passed = 0;  //!< cells that passed the output check
    std::vector<CellRecord> cells;
};

BatchStats
runBatch(const WorkloadDef &def, std::uint64_t seed,
         const std::string &export_path, std::vector<SweepResult> *sweeps)
{
    sweeps->clear();
    BatchStats b;
    for (SharePolicy share : def.shares) {
        SweepSpec spec;
        spec.bench = "perfbench-" + def.name;
        spec.workloads = def.workloads;
        spec.policies = def.policies;
        spec.opt.scale = def.scale;
        spec.opt.seed = seed;
        spec.opt.jobs = def.jobs;
        spec.opt.cell_threads = def.cell_threads;
        spec.opt.tenants = def.tenants;
        spec.opt.share_policy = share;
        spec.verbose = false;

        // One timestamp per finished cell: the runner's idle tail is
        // the worker time left unused once the queue ran dry.
        std::vector<double> done_at;
        SweepRunner runner(spec);
        const auto t0 = Clock::now();
        runner.setProgress(
            [&done_at, t0](const CellOutcome &, std::size_t, std::size_t) {
                done_at.push_back(secondsSince(t0));
            });
        SweepResult sweep = runner.run();
        const double wall = secondsSince(t0);

        const std::size_t n = done_at.size();
        const std::size_t first_idle =
            n > sweep.jobs ? n - sweep.jobs : 0;
        std::sort(done_at.begin(), done_at.end());
        for (std::size_t k = first_idle; k < n; ++k)
            b.idle_tail_s += wall - done_at[k];
        b.wall_s += wall;
        b.worker_s += static_cast<double>(sweep.jobs) * wall;

        const auto e0 = Clock::now();
        if (!sweep.writeJson(export_path))
            fatal("perfbench: cannot write %s", export_path.c_str());
        b.export_s += secondsSince(e0);

        for (const CellOutcome &c : sweep.cells) {
            CellRecord rec = newRecord(def, c.workload, c.policy, share);
            rec.ok = c.ok;
            rec.error = c.error;
            b.cell_s_sum += c.wall_s;
            if (c.ok) {
                rec.outputs = canonicalOutputs(c.result);
                rec.cycles = c.result.cycles;
                // A mix cell's host_wall_s covers the mix only, while its
                // solo anchors run beside it and may end after it;
                // measureUntraced() replaces a mix batch's setup_s.
                b.setup_s += c.wall_s - c.result.host_wall_s;
                b.simulate_s += c.result.host_wall_s;
                b.instructions +=
                    static_cast<double>(c.result.instructions);
            }
            b.cells.push_back(std::move(rec));
        }
        sweeps->push_back(std::move(sweep));
    }
    return b;
}

// ---------------------------------------------------- serial passes

/** Per-layer sums over one serial pass (traced run). */
struct LayerTotals {
    double graph_build_s = 0.0;
    std::uint64_t graph_edges = 0;
    std::uint64_t cache_builds = 0;
    std::uint64_t cache_hits = 0;

    double simulate_s = 0.0;
    double simulate_visible_s = 0.0; //!< systems with readable components
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t translations = 0;

    std::uint64_t mem_instructions = 0;
    std::uint64_t transactions = 0;
    std::uint64_t l1_tlb_hits = 0, l1_tlb_lookups = 0;
    std::uint64_t l2_tlb_hits = 0, l2_tlb_lookups = 0;
    std::uint64_t walks = 0, walk_queue_cycles = 0;
    std::uint64_t l1_hits = 0, l1_accesses = 0;
    std::uint64_t l2_hits = 0, l2_accesses = 0;
    std::uint64_t dram_accesses = 0, dram_queue_cycles = 0;
    std::uint64_t mshr_stall_cycles = 0;

    std::uint64_t faults = 0, overflows = 0, batches = 0;
    double batch_pages = 0.0;
    std::uint64_t demand_pages = 0, prefetched_pages = 0;
    std::uint64_t migrations = 0, evictions = 0, premature = 0;
    std::uint64_t h2d_bytes = 0, d2h_bytes = 0;
};

/**
 * Adds one simulated system's counters. A tenant mix keeps its
 * per-tenant GPUs and cache hierarchies inside the engine, which the
 * public API does not expose; for it (@p components false) only the
 * RunResult totals and the shared UVM runtime are read.
 */
void
addCounters(GpuUvmSystem &sys, const RunResult &r, bool components,
            LayerTotals *t)
{
    t->simulate_s += r.host_wall_s;
    t->events += r.sim_events;
    t->cycles += r.cycles;
    t->instructions += r.instructions;
    t->context_switches += r.context_switches;
    t->translations += r.translations;

    t->faults += sys.runtime().faultBuffer().totalFaults();
    t->overflows += sys.runtime().faultBuffer().overflows();
    t->batches += r.batches;
    t->batch_pages += r.avg_batch_pages * static_cast<double>(r.batches);
    t->demand_pages += r.demand_pages;
    t->prefetched_pages += r.prefetched_pages;
    t->migrations += r.migrations;
    t->evictions += r.evictions;
    t->premature += r.premature_evictions;
    t->h2d_bytes += r.pcie_h2d_bytes;
    t->d2h_bytes += r.pcie_d2h_bytes;

    if (!components)
        return;
    t->simulate_visible_s += r.host_wall_s;
    const Gpu &gpu = sys.gpu();
    MemoryHierarchyBase &h = sys.hierarchy();
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        t->mem_instructions += gpu.sm(i).memoryInstructions();
        t->transactions += gpu.sm(i).coalescer().transactions();
        t->l1_tlb_hits += h.l1Tlb(i).hits();
        t->l1_tlb_lookups += h.l1Tlb(i).hits() + h.l1Tlb(i).misses();
        t->l1_hits += h.l1Cache(i).hits();
        t->l1_accesses += h.l1Cache(i).hits() + h.l1Cache(i).misses();
    }
    t->l2_tlb_hits += h.l2Tlb().hits();
    t->l2_tlb_lookups += h.l2Tlb().hits() + h.l2Tlb().misses();
    t->l2_hits += h.l2Cache().hits();
    t->l2_accesses += h.l2Cache().hits() + h.l2Cache().misses();
    t->walks += h.walker().walks();
    t->walk_queue_cycles += h.walker().queueingCycles();
    t->dram_accesses += h.dram().accesses();
    t->dram_queue_cycles += h.dram().queueingCycles();
    t->mshr_stall_cycles += h.mshrStallCycles();
}

/**
 * Traced run only: builds a throwaway instance twice, first cold (the
 * graph is built and lands in the GraphBuildCache, so the timed run
 * then hits the cache) and then warm. cold - warm is the graph build;
 * warm is the workload's own setup.
 */
void
throwawayBuilds(const std::string &name, WorkloadScale scale,
                std::uint64_t seed, SpanTrace &tr, std::uint64_t cell,
                LayerTotals *t)
{
    GraphBuildCache &cache = GraphBuildCache::instance();
    const std::uint64_t builds0 = cache.builds();
    const std::uint64_t hits0 = cache.hits();
    std::uint64_t edges = 0;
    double cold_s = 0.0;
    {
        ScopedSpan span(&tr, "workload.build.cold", cell);
        const double t0 = tr.now();
        auto w = WorkloadRegistry::instance().create(name);
        w->build(scale, seed);
        cold_s = tr.now() - t0;
        if (auto *g = dynamic_cast<const GraphWorkloadBase *>(w.get()))
            edges = g->graph().numEdges();
    }
    const std::uint64_t built = cache.builds() - builds0;
    t->cache_builds += built;
    t->cache_hits += cache.hits() - hits0;
    double warm_s = 0.0;
    {
        ScopedSpan span(&tr, "workload.build.warm", cell);
        const double t0 = tr.now();
        auto w = WorkloadRegistry::instance().create(name);
        w->build(scale, seed);
        warm_s = tr.now() - t0;
    }
    if (built) {
        t->graph_build_s += cold_s - warm_s;
        t->graph_edges += edges;
    }
}

/** Calls @p run under a "system.run" span, with its simulate phase
 *  (RunResult::host_wall_s, which ends as run() returns) as a child. */
template <typename RunFn>
RunResult
timedRun(SpanTrace *tr, std::uint64_t cell, RunFn run)
{
    ScopedSpan span(tr, "system.run", cell);
    RunResult r = run();
    if (tr)
        tr->add("simulate", cell, tr->now() - r.host_wall_s, tr->now());
    return r;
}

/**
 * One single-tenant system, serially, through the public API. A cell
 * measures its graph build (@p measure_builds); a solo anchor reuses
 * the builds its mix cell measured.
 */
RunResult
runSingleCell(const WorkloadDef &def, const std::string &name,
              const SimConfig &config, SpanTrace *tr, std::uint64_t cell,
              LayerTotals *t, bool measure_builds)
{
    std::unique_ptr<Workload> workload;
    {
        ScopedSpan span(tr, "workload.create", cell);
        workload = WorkloadRegistry::instance().create(name);
    }
    if (tr && measure_builds)
        throwawayBuilds(name, def.scale, config.seed, *tr, cell, t);
    std::unique_ptr<GpuUvmSystem> sys;
    {
        ScopedSpan span(tr, "system.construct", cell);
        sys = std::make_unique<GpuUvmSystem>(config);
    }
    RunResult r = timedRun(
        tr, cell, [&] { return sys->run(*workload, def.scale); });
    {
        ScopedSpan span(tr, "validate", cell);
        workload->validate();
    }
    if (t)
        addCounters(*sys, r, true, t);
    return r;
}

/**
 * One tenant-mix cell, serially: the solo anchors executeCell() runs
 * (each tenant alone on the whole GPU, its mix seed) and then the mix
 * itself through GpuUvmSystem::run(specs).
 */
RunResult
runMixCell(const WorkloadDef &def, const SimConfig &config, SpanTrace *tr,
           std::uint64_t cell, LayerTotals *t)
{
    const std::size_t n = def.tenants.size();
    if (tr) {
        for (std::size_t i = 0; i < n; ++i)
            throwawayBuilds(def.tenants[i].workload, def.scale,
                            deriveTenantSeed(
                                config.seed, static_cast<std::uint32_t>(i)),
                            *tr, cell, t);
    }
    std::vector<Cycle> solo(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
        ScopedSpan anchor(tr, "anchor", cell);
        SimConfig solo_config = config;
        solo_config.seed =
            deriveTenantSeed(config.seed, static_cast<std::uint32_t>(u));
        solo_config.mt = MtConfig{};
        solo[u] = runSingleCell(def, def.tenants[u].workload,
                                solo_config, tr, cell, t, false)
                      .cycles;
    }
    std::unique_ptr<GpuUvmSystem> sys;
    {
        ScopedSpan span(tr, "system.construct", cell);
        sys = std::make_unique<GpuUvmSystem>(config);
    }
    RunResult r =
        timedRun(tr, cell, [&] { return sys->run(def.tenants); });
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        TenantResult &tenant = r.tenants[i];
        tenant.slowdown = solo[i] ? static_cast<double>(tenant.cycles) /
                                        static_cast<double>(solo[i])
                                  : 0.0;
    }
    {
        ScopedSpan span(tr, "validate", cell);
        for (const auto &w : sys->tenantWorkloads())
            w->validate();
    }
    if (t)
        addCounters(*sys, r, false, t);
    return r;
}

struct PassStats {
    double wall_s = 0.0;
    std::vector<CellRecord> cells;
};

/**
 * Every cell of the batch, one after another on this thread, in the
 * sweeps' matrix order. With @p tr the calls into each layer are
 * spanned and @p t collects the per-layer counters.
 */
PassStats
runSerialPass(const WorkloadDef &def, std::uint64_t seed, SpanTrace *tr,
              LayerTotals *t)
{
    PassStats pass;
    const auto t0 = Clock::now();
    std::uint64_t cell = 0;
    for (SharePolicy share : def.shares) {
        // Like a sweep: graph builds are shared across its cells only.
        GraphBuildCache::Scope graph_scope;
        for (const std::string &w : def.workloads) {
            for (Policy p : def.policies) {
                CellRecord rec = newRecord(def, w, p, share);
                const SimConfig config = cellConfig(w, p, share, seed);
                ScopedSpan span(tr, "cell", cell);
                try {
                    ScopedAbortCapture capture;
                    const RunResult r =
                        def.tenants.empty()
                            ? runSingleCell(def, w, config, tr, cell, t,
                                            true)
                            : runMixCell(def, config, tr, cell, t);
                    rec.ok = true;
                    rec.outputs = canonicalOutputs(r);
                    rec.cycles = r.cycles;
                } catch (const std::exception &e) {
                    rec.error = e.what();
                }
                pass.cells.push_back(std::move(rec));
                ++cell;
            }
        }
    }
    pass.wall_s = secondsSince(t0);
    return pass;
}

// ------------------------------------------------------------ metrics

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Mean |sim/paper - 1| over the section 5.2 ratios fig11 prints
 * (arithmetic-mean speedups over BASELINE across the workload's
 * groups: cells that differ only in policy). A ratio whose policies
 * the workload does not run is left out.
 */
double
paperGap(const std::vector<CellRecord> &cells)
{
    std::map<std::string, std::map<Policy, double>> groups;
    for (const CellRecord &c : cells) {
        if (c.ok)
            groups[c.group][c.policy] = static_cast<double>(c.cycles);
    }
    std::map<Policy, std::vector<double>> speedups;
    for (const auto &[group, cycles] : groups) {
        auto base = cycles.find(Policy::Baseline);
        if (base == cycles.end())
            continue;
        for (const auto &[policy, c] : cycles)
            speedups[policy].push_back(base->second / c);
    }
    auto mean = [&](Policy p) {
        auto it = speedups.find(p);
        return it == speedups.end() ? 0.0 : amean(it->second);
    };
    const double toue = mean(Policy::ToUe);
    const std::vector<std::pair<double, double>> sim_vs_paper = {
        {toue, 2.00},
        {ratio(toue, mean(Policy::BaselinePcieComp)), 1.81},
        {ratio(toue, mean(Policy::Etc)), 1.79},
        {mean(Policy::To), 1.22},
    };
    double sum = 0.0;
    int n = 0;
    for (const auto &[sim, paper] : sim_vs_paper) {
        if (sim <= 0.0)
            continue;
        sum += std::abs(sim / paper - 1.0);
        ++n;
    }
    return n ? sum / n : 0.0;
}

/** Peak resident memory since the last resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) // kB
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru); // no VmHWM: the whole process's peak
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/**
 * Hands freed heap memory back to the system and restarts the kernel's
 * peak-RSS mark at the current RSS (Linux /proc/self/clear_refs), so
 * every batch's peak is measured from the same starting point.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
spanSum(const SpanTrace &tr, const std::vector<std::string> &names)
{
    double sum = 0.0;
    for (const auto &s : tr.spans()) {
        if (std::find(names.begin(), names.end(), s.name) != names.end())
            sum += s.end_s - s.start_s;
    }
    return sum;
}

/**
 * Host seconds a tenant-mix batch spends before simulating: every
 * simulation of every cell (each solo anchor, then the mix) creates and
 * builds its workloads and constructs its system, as
 * GpuUvmSystem::run() does before the first simulated cycle, and stops
 * there. Graph builds are shared within a sweep, as in the batch.
 */
double
mixSetupSeconds(const WorkloadDef &def, std::uint64_t seed)
{
    const std::size_t n = def.tenants.size();
    const auto t0 = Clock::now();
    for (SharePolicy share : def.shares) {
        GraphBuildCache::Scope graph_scope;
        for (const std::string &w : def.workloads) {
            for (Policy p : def.policies) {
                const SimConfig config = cellConfig(w, p, share, seed);
                for (std::size_t unit = 0; unit <= n; ++unit) {
                    SimConfig unit_config = config;
                    if (unit < n) {
                        unit_config.seed = deriveTenantSeed(
                            config.seed, static_cast<std::uint32_t>(unit));
                        unit_config.mt = MtConfig{};
                    }
                    GpuUvmSystem sys(unit_config);
                    for (std::size_t i = 0; i < n; ++i) {
                        if (unit < n && i != unit)
                            continue;
                        auto workload = WorkloadRegistry::instance().create(
                            def.tenants[i].workload);
                        workload->build(
                            def.scale,
                            deriveTenantSeed(config.seed,
                                             static_cast<std::uint32_t>(i)));
                    }
                }
            }
        }
    }
    return secondsSince(t0);
}

/**
 * The untraced run: whole batches until @p seconds are used up; another
 * batch starts only if it is expected to end within half a batch of the
 * deadline. A mix cell's solo anchors and mix overlap on unit threads,
 * so its setup cannot be told apart from outside the cell: a mix
 * batch's setup_s comes from mixSetupSeconds() instead.
 */
std::vector<BatchStats>
measureUntraced(const WorkloadDef &def, std::uint64_t seed, double seconds,
                const std::string &export_path,
                std::vector<SweepResult> *last_sweeps)
{
    std::vector<BatchStats> batches;
    const auto m0 = Clock::now();
    while (true) {
        const auto b0 = Clock::now();
        resetPeakRss();
        batches.push_back(runBatch(def, seed, export_path, last_sweeps));
        BatchStats &b = batches.back();
        b.peak_rss_mb = peakRssMb();
        if (!def.tenants.empty())
            b.setup_s = mixSetupSeconds(def, seed);
        if (secondsSince(m0) + 0.5 * secondsSince(b0) >= seconds)
            return batches;
    }
}

template <typename F>
double
batchMedian(const std::vector<BatchStats> &batches, F f)
{
    std::vector<double> v;
    for (const BatchStats &b : batches)
        v.push_back(f(b));
    return median(v);
}

std::vector<Metric>
endToEndMetrics(const std::vector<BatchStats> &b)
{
    return {
        {"cells_per_s", "1/s",
         batchMedian(b, [](const BatchStats &x) {
             return ratio(static_cast<double>(x.passed), x.wall_s);
         })},
        {"setup_s", "s",
         batchMedian(b, [](const BatchStats &x) { return x.setup_s; })},
        {"sim_instr_per_s", "1/s",
         batchMedian(b,
                     [](const BatchStats &x) {
                         return ratio(x.instructions, x.simulate_s);
                     })},
        {"peak_rss_mb", "MB",
         batchMedian(b, [](const BatchStats &x) { return x.peak_rss_mb; })},
    };
}

/**
 * Per-layer metrics: sums over the traced pass, except runner.* (the
 * untraced batches, medians) and trace.* (the traced pass against the
 * untraced serial passes around it, @p untraced_wall_s on average).
 */
std::vector<Metric>
layerMetrics(const LayerTotals &t, const SpanTrace &tr,
             const std::vector<BatchStats> &b, const PassStats &traced,
             double untraced_wall_s)
{
    const double cells = static_cast<double>(traced.cells.size());
    const double traced_cps = ratio(cells, traced.wall_s);
    const double untraced_cps = ratio(cells, untraced_wall_s);
    const double mem_instr = static_cast<double>(t.mem_instructions);
    return {
        {"graph.build_s", "s", t.graph_build_s},
        {"graph.edges", "count", double(t.graph_edges)},
        {"graph.ns_per_edge", "ns",
         1e9 * ratio(t.graph_build_s, double(t.graph_edges))},
        {"graph.cache_builds", "count", double(t.cache_builds)},
        {"graph.cache_hits", "count", double(t.cache_hits)},
        {"workloads.setup_s", "s",
         spanSum(tr, {"workload.create", "workload.build.warm"})},
        {"workloads.validate_s", "s", spanSum(tr, {"validate"})},
        {"core.construct_s", "s", spanSum(tr, {"system.construct"})},
        {"sim.simulate_s", "s", t.simulate_s},
        {"sim.events", "count", double(t.events)},
        {"sim.ns_per_event", "ns",
         1e9 * ratio(t.simulate_s, double(t.events))},
        {"sim.cycles", "cycles", double(t.cycles)},
        {"sim.ipc", "instr/cycle",
         ratio(double(t.instructions), double(t.cycles))},
        {"gpu.instructions", "count", double(t.instructions)},
        {"gpu.mem_instructions", "count", mem_instr},
        {"gpu.transactions", "count", double(t.transactions)},
        {"gpu.transactions_per_mem_instr", "ratio",
         ratio(double(t.transactions), mem_instr)},
        {"gpu.context_switches", "count", double(t.context_switches)},
        {"gpu.ns_per_mem_instr", "ns",
         1e9 * ratio(t.simulate_visible_s, mem_instr)},
        {"mem.translations", "count", double(t.translations)},
        {"mem.l1_tlb_hit_rate", "ratio",
         ratio(double(t.l1_tlb_hits), double(t.l1_tlb_lookups))},
        {"mem.l2_tlb_hit_rate", "ratio",
         ratio(double(t.l2_tlb_hits), double(t.l2_tlb_lookups))},
        {"mem.page_walks", "count", double(t.walks)},
        {"mem.walk_queue_cycles", "cycles", double(t.walk_queue_cycles)},
        {"mem.l1_hit_rate", "ratio",
         ratio(double(t.l1_hits), double(t.l1_accesses))},
        {"mem.l2_hit_rate", "ratio",
         ratio(double(t.l2_hits), double(t.l2_accesses))},
        {"mem.dram_accesses", "count", double(t.dram_accesses)},
        {"mem.dram_queue_cycles", "cycles", double(t.dram_queue_cycles)},
        {"mem.mshr_stall_cycles", "cycles", double(t.mshr_stall_cycles)},
        {"mem.ns_per_translation", "ns",
         1e9 * ratio(t.simulate_s, double(t.translations))},
        {"uvm.faults", "count", double(t.faults)},
        {"uvm.fault_buffer_overflows", "count", double(t.overflows)},
        {"uvm.batches", "count", double(t.batches)},
        {"uvm.pages_per_batch", "pages",
         ratio(t.batch_pages, double(t.batches))},
        {"uvm.demand_pages", "pages", double(t.demand_pages)},
        {"uvm.prefetched_pages", "pages", double(t.prefetched_pages)},
        {"uvm.migrations", "count", double(t.migrations)},
        {"uvm.evictions", "count", double(t.evictions)},
        {"uvm.premature_rate", "ratio",
         ratio(double(t.premature), double(t.evictions))},
        {"uvm.pcie_h2d_bytes", "bytes", double(t.h2d_bytes)},
        {"uvm.pcie_d2h_bytes", "bytes", double(t.d2h_bytes)},
        {"runner.cell_s_sum", "s",
         batchMedian(b, [](const BatchStats &x) { return x.cell_s_sum; })},
        {"runner.parallel_efficiency", "ratio",
         batchMedian(b,
                     [](const BatchStats &x) {
                         return ratio(x.cell_s_sum, x.worker_s);
                     })},
        {"runner.idle_tail_s", "s",
         batchMedian(b, [](const BatchStats &x) { return x.idle_tail_s; })},
        {"runner.export_s", "s",
         batchMedian(b, [](const BatchStats &x) { return x.export_s; })},
        {"trace.cells_per_s", "1/s", traced_cps},
        {"trace.untraced_cells_per_s", "1/s", untraced_cps},
        {"trace.overhead", "ratio", ratio(untraced_cps, traced_cps) - 1.0},
        {"model.paper_gap", "ratio", paperGap(traced.cells)},
    };
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_build/out";
    std::string expected_dir = "perfbench/expected";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--expected DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.out_dir = v;
        } else if (flag == "--expected") {
            a.expected_dir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<WorkloadDef> defs = workloadDefs();
    auto def_it = std::find_if(defs.begin(), defs.end(), [&](const auto &d) {
        return d.name == args.workload;
    });
    if (def_it == defs.end())
        usage(("unknown workload " + args.workload).c_str());
    const WorkloadDef &def = *def_it;

    std::filesystem::create_directories(args.out_dir);
    const std::string stem = args.out_dir + "/" + def.name + ".seed" +
                             std::to_string(args.seed);

    Outputs reference;
    const bool stored = loadOutputs(
        outputsPath(args.expected_dir, def.name, args.seed), &reference);

    std::vector<SweepResult> last_sweeps; // re-exported under a span
    std::vector<BatchStats> batches = measureUntraced(
        def, args.seed, args.seconds, stem + ".sweep.json", &last_sweeps);

    // The reference is the stored outputs, else a serial pass (which
    // the traced run also needs, as its untraced counterpart).
    PassStats serial;
    CheckTally tally;
    if (!stored || args.trace) {
        serial = runSerialPass(def, args.seed, nullptr, nullptr);
        for (const CellRecord &c : serial.cells) {
            if (!stored && c.ok)
                reference[c.key] = c.outputs;
            tally.check("serial", c, reference);
        }
    }
    Outputs observed;
    for (BatchStats &b : batches) {
        for (const CellRecord &c : b.cells) {
            b.passed += tally.check("untraced", c, reference);
            if (c.ok)
                observed.emplace(c.key, c.outputs);
        }
        std::fprintf(stderr,
                     "perfbench: %s batch: %.3f s, %zu cells passed, "
                     "setup %.4f s, peak %.1f MB\n",
                     def.name.c_str(), b.wall_s, b.passed, b.setup_s,
                     b.peak_rss_mb);
    }
    writeOutputs(stem + ".outputs.json", def.name, args.seed, observed);

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = endToEndMetrics(batches);
    } else {
        SpanTrace tr;
        LayerTotals t;
        const PassStats traced = runSerialPass(def, args.seed, &tr, &t);
        for (const CellRecord &c : traced.cells)
            tally.check("traced", c, reference);
        // A second untraced pass after the traced one, so host drift
        // over the passes cancels out of the tracing overhead.
        const PassStats again = runSerialPass(def, args.seed, nullptr, nullptr);
        for (const CellRecord &c : again.cells)
            tally.check("serial", c, reference);
        std::fprintf(stderr,
                     "perfbench: serial passes: untraced %.3f s, traced "
                     "%.3f s, untraced %.3f s\n",
                     serial.wall_s, traced.wall_s, again.wall_s);
        {
            ScopedSpan span(&tr, "export", traced.cells.size());
            for (const SweepResult &s : last_sweeps)
                s.writeJson(stem + ".sweep.json");
        }
        if (!tr.writeChromeJson(stem + ".trace.json", def.name))
            fatal("perfbench: cannot write %s.trace.json", stem.c_str());
        metrics = layerMetrics(t, tr, batches, traced,
                               0.5 * (serial.wall_s + again.wall_s));
    }

    // Provenance first (one JSON line), the result last.
    JsonWriter prov(false);
    prov.beginObject();
    prov.beginObject("provenance");
    prov.field("workload", def.name);
    prov.field("seed", args.seed);
    prov.field("seconds", args.seconds);
    prov.field("trace", args.trace);
    prov.field("nproc",
               static_cast<std::uint64_t>(ThreadPool::hardwareJobs()));
    prov.field("build_type", PERFBENCH_BUILD_TYPE);
    prov.field("git_rev", gitRev());
    prov.field("batches", static_cast<std::uint64_t>(batches.size()));
    prov.field("reference", stored ? "stored" : "serial");
    prov.endObject();
    prov.endObject();

    std::string result = "{\"correct\": ";
    result += tally.failed == 0 ? "true" : "false";
    result += ", \"attempted\": " + std::to_string(tally.attempted);
    result += ", \"failed\": " + std::to_string(tally.failed);
    result += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        result += (i ? ", \"" : "\"") + metrics[i].name +
                  "\": {\"value\": " + formatNumber(metrics[i].value) +
                  ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    result += "}}";

    std::ofstream(stem + (args.trace ? ".trace1" : ".trace0") +
                  ".result.json")
        << prov.str() << "\n" << result << "\n";
    std::printf("%s\n%s\n", prov.str().c_str(), result.c_str());
    return 0;
}

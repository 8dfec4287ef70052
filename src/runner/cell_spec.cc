#include "src/runner/cell_spec.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "src/core/experiment.h"
#include "src/core/system.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/runner/parallel_units.h"
#include "src/sim/log.h"
#include "src/trace/trace_export.h"
#include "src/workloads/workload_registry.h"

#ifndef BAUVM_GIT_REV
#define BAUVM_GIT_REV "unknown"
#endif

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

/** The values a knob accepts; checked before its setter runs. */
enum class Domain : std::uint8_t {
    Real,  //!< a finite double >= 0 (reals and 0/1 booleans)
    U32,   //!< an integer in [0, 2^32)
    U64,   //!< an integer in [0, 2^64)
    Size,  //!< an integer in [1, 2^32): sizes a structure
};

struct Knob {
    const char *key;
    Domain domain;
    void (*set)(SimConfig &, double);
    std::uint32_t max = 0; //!< inclusive upper bound when non-zero
};

// The casts below are defined only because applyConfigOverride has
// checked the value against the knob's Domain.
std::uint64_t
asU64(double v)
{
    return static_cast<std::uint64_t>(v);
}

std::uint32_t
asU32(double v)
{
    return static_cast<std::uint32_t>(v);
}

bool
asBool(double v)
{
    return v != 0.0;
}

/**
 * The declarative knob registry. Every key a sweep request may carry
 * in a variant's "overrides" maps onto exactly one SimConfig field.
 * Kept sorted by key for knownOverrideKeys().
 */
const Knob kKnobs[] = {
    {"etc.capacity_compression", Domain::Real,
     [](SimConfig &c, double v) { c.etc.capacity_compression = asBool(v); }},
    {"etc.compression_latency", Domain::U64,
     [](SimConfig &c, double v) { c.etc.compression_latency = asU64(v); }},
    {"etc.compression_ratio", Domain::Real,
     [](SimConfig &c, double v) { c.etc.compression_ratio = v; }},
    {"etc.enabled", Domain::Real,
     [](SimConfig &c, double v) { c.etc.enabled = asBool(v); }},
    {"etc.epoch_cycles", Domain::U64,
     [](SimConfig &c, double v) { c.etc.epoch_cycles = asU64(v); }},
    {"etc.memory_aware_throttling", Domain::Real,
     [](SimConfig &c, double v) {
         c.etc.memory_aware_throttling = asBool(v);
     }},
    {"gpu.issue_width", Domain::Size,
     [](SimConfig &c, double v) { c.gpu.issue_width = asU32(v); }},
    {"gpu.max_blocks_per_sm", Domain::Size,
     [](SimConfig &c, double v) { c.gpu.max_blocks_per_sm = asU32(v); }},
    {"gpu.max_threads_per_sm", Domain::Size,
     [](SimConfig &c, double v) { c.gpu.max_threads_per_sm = asU32(v); }},
    {"gpu.mem_op_overhead_cycles", Domain::U64,
     [](SimConfig &c, double v) {
         c.gpu.mem_op_overhead_cycles = asU64(v);
     }},
    {"gpu.num_sms", Domain::Size,
     [](SimConfig &c, double v) { c.gpu.num_sms = asU32(v); }},
    {"mem.dram_bytes_per_cycle", Domain::U32,
     [](SimConfig &c, double v) {
         c.mem.dram_bytes_per_cycle = asU32(v);
     }},
    {"mem.dram_latency", Domain::U64,
     [](SimConfig &c, double v) { c.mem.dram_latency = asU64(v); }},
    {"mem.mshrs_per_sm", Domain::Size,
     [](SimConfig &c, double v) { c.mem.mshrs_per_sm = asU32(v); }},
    {"mem.walker_threads", Domain::Size,
     [](SimConfig &c, double v) { c.mem.walker_threads = asU32(v); }},
    {"memory_ratio", Domain::Real,
     [](SimConfig &c, double v) { c.memory_ratio = v; }},
    {"mt.policy", Domain::U32,
     [](SimConfig &c, double v) {
         c.mt.policy = static_cast<SharePolicy>(asU32(v));
     },
     2}, // 0 free-for-all, 1 strict, 2 proportional
    {"to.ctx_switch_bytes_per_cycle", Domain::U32,
     [](SimConfig &c, double v) {
         c.to.ctx_switch_bytes_per_cycle = asU32(v);
     }},
    {"to.enabled", Domain::Real,
     [](SimConfig &c, double v) { c.to.enabled = asBool(v); }},
    {"to.ideal_ctx_switch", Domain::Real,
     [](SimConfig &c, double v) { c.to.ideal_ctx_switch = asBool(v); }},
    {"to.initial_extra_blocks", Domain::U32,
     [](SimConfig &c, double v) {
         c.to.initial_extra_blocks = asU32(v);
     }},
    {"to.max_extra_blocks", Domain::U32,
     [](SimConfig &c, double v) { c.to.max_extra_blocks = asU32(v); }},
    {"to.switch_on_memory_stall", Domain::Real,
     [](SimConfig &c, double v) {
         c.to.switch_on_memory_stall = asBool(v);
     }},
    {"uvm.fault_buffer_entries", Domain::Size,
     [](SimConfig &c, double v) {
         c.uvm.fault_buffer_entries = asU32(v);
     }},
    {"uvm.fault_handling_per_page_us", Domain::Real,
     [](SimConfig &c, double v) {
         c.uvm.fault_handling_per_page_us = v;
     }},
    {"uvm.fault_handling_us", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.fault_handling_us = v; }},
    {"uvm.ideal_eviction", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.ideal_eviction = asBool(v); }},
    {"uvm.interrupt_latency_us", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.interrupt_latency_us = v; }},
    {"uvm.lifetime_drop_threshold", Domain::Real,
     [](SimConfig &c, double v) {
         c.uvm.lifetime_drop_threshold = v;
     }},
    {"uvm.lifetime_window_cycles", Domain::U64,
     [](SimConfig &c, double v) {
         c.uvm.lifetime_window_cycles = asU64(v);
     }},
    {"uvm.pcie_compression_ratio", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.pcie_compression_ratio = v; }},
    {"uvm.pcie_d2h_gbps", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.pcie_d2h_gbps = v; }},
    {"uvm.pcie_gbps", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.pcie_gbps = v; }},
    {"uvm.prefetch_density", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.prefetch_density = v; }},
    {"uvm.prefetch_enabled", Domain::Real,
     [](SimConfig &c, double v) {
         c.uvm.prefetch_enabled = asBool(v);
     }},
    {"uvm.preload", Domain::Real,
     [](SimConfig &c, double v) { c.uvm.preload = asBool(v); }},
    {"uvm.root_chunk_pages", Domain::Size,
     [](SimConfig &c, double v) { c.uvm.root_chunk_pages = asU32(v); }},
    {"uvm.sequential_prefetch_pages", Domain::U32,
     [](SimConfig &c, double v) {
         c.uvm.sequential_prefetch_pages = asU32(v);
     }},
    {"uvm.unobtrusive_eviction", Domain::Real,
     [](SimConfig &c, double v) {
         c.uvm.unobtrusive_eviction = asBool(v);
     }},
    {"uvm.va_block_bytes", Domain::U64,
     [](SimConfig &c, double v) { c.uvm.va_block_bytes = asU64(v); }},
};

/** splitmix64 finalizer (same constants as job.cc). */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
appendKv(std::string &out, const char *key, std::uint64_t v)
{
    out += key;
    out += '=';
    out += std::to_string(v);
    out += ';';
}

void
appendKv(std::string &out, const char *key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += key;
    out += '=';
    out += buf;
    out += ';';
}

void
appendKv(std::string &out, const char *key, bool v)
{
    out += key;
    out += '=';
    out += v ? '1' : '0';
    out += ';';
}

void
appendCache(std::string &out, const char *prefix, const CacheConfig &c)
{
    std::string k(prefix);
    appendKv(out, (k + ".size_bytes").c_str(), c.size_bytes);
    appendKv(out, (k + ".associativity").c_str(),
             static_cast<std::uint64_t>(c.associativity));
    appendKv(out, (k + ".line_bytes").c_str(),
             static_cast<std::uint64_t>(c.line_bytes));
    appendKv(out, (k + ".hit_latency").c_str(),
             static_cast<std::uint64_t>(c.hit_latency));
}

void
appendTlb(std::string &out, const char *prefix, const TlbConfig &c)
{
    std::string k(prefix);
    appendKv(out, (k + ".entries").c_str(),
             static_cast<std::uint64_t>(c.entries));
    appendKv(out, (k + ".associativity").c_str(),
             static_cast<std::uint64_t>(c.associativity));
    appendKv(out, (k + ".hit_latency").c_str(),
             static_cast<std::uint64_t>(c.hit_latency));
}

bool
failOverride(std::string *error, std::string what)
{
    if (error)
        *error = std::move(what);
    return false;
}

/** Why @p v is outside @p k's domain, or "" when it is inside. */
std::string
domainError(const Knob &k, double v)
{
    char got[64];
    std::snprintf(got, sizeof got, ", got %.17g", v);
    if (k.domain == Domain::Real)
        return validRunReal(v)
                   ? std::string()
                   : std::string("must be a finite number >= 0") + got;
    if (std::isnan(v))
        return "must be a number, got NaN";
    if (v < 0.0)
        return std::string("must not be negative") + got;
    if (v != std::floor(v))
        return std::string("must be an integer") + got;
    if (k.domain == Domain::Size && v < 1.0)
        return std::string("sizes a structure and must be at least 1") +
               got;
    if (k.max != 0 && v > k.max)
        return "must be at most " + std::to_string(k.max) + got;
    // 2^32 and 2^64 are exact doubles; anything at or above them would
    // not fit the unsigned field.
    if (k.domain == Domain::U64 ? v >= 0x1p64 : v >= 0x1p32)
        return std::string("must be below 2^") +
               (k.domain == Domain::U64 ? "64" : "32") + got;
    return {};
}

} // namespace

bool
applyConfigOverride(SimConfig &config, const std::string &key,
                    double value, std::string *error)
{
    const Knob *knob = nullptr;
    for (const Knob &k : kKnobs)
        if (key == k.key)
            knob = &k;
    if (!knob)
        return failOverride(error, "unknown override key '" + key + "'");
    if (const std::string why = domainError(*knob, value); !why.empty())
        return failOverride(error, "override '" + key + "' " + why);
    knob->set(config, value);
    return true;
}

std::vector<std::string>
knownOverrideKeys()
{
    std::vector<std::string> keys;
    keys.reserve(std::size(kKnobs));
    for (const Knob &k : kKnobs)
        keys.push_back(k.key);
    return keys;
}

SimConfig
cellConfig(const CellSpec &spec)
{
    SimConfig config = paperConfig(
        spec.ratio, deriveWorkloadSeed(spec.base_seed, spec.workload));
    config = applyPolicy(config, spec.policy);
    for (const ConfigOverride &o : spec.overrides) {
        std::string error;
        if (!applyConfigOverride(config, o.key, o.value, &error))
            fatal("cellConfig: %s", error.c_str());
    }
    config.check.enabled = spec.audit;
    return config;
}

std::uint64_t
cellJobSeed(const CellSpec &spec)
{
    return deriveJobSeed(spec.base_seed, spec.workload, spec.policy,
                         spec.variant);
}

std::string
canonicalConfigString(const SimConfig &c)
{
    std::string out;
    out.reserve(1400);

    appendKv(out, "gpu.num_sms",
             static_cast<std::uint64_t>(c.gpu.num_sms));
    appendKv(out, "gpu.max_threads_per_sm",
             static_cast<std::uint64_t>(c.gpu.max_threads_per_sm));
    appendKv(out, "gpu.max_blocks_per_sm",
             static_cast<std::uint64_t>(c.gpu.max_blocks_per_sm));
    appendKv(out, "gpu.regfile_bytes_per_sm",
             c.gpu.regfile_bytes_per_sm);
    appendKv(out, "gpu.warp_size",
             static_cast<std::uint64_t>(c.gpu.warp_size));
    appendKv(out, "gpu.issue_width",
             static_cast<std::uint64_t>(c.gpu.issue_width));
    appendKv(out, "gpu.mem_op_overhead_cycles",
             static_cast<std::uint64_t>(c.gpu.mem_op_overhead_cycles));

    appendCache(out, "mem.l1", c.mem.l1);
    appendCache(out, "mem.l2", c.mem.l2);
    appendTlb(out, "mem.l1_tlb", c.mem.l1_tlb);
    appendTlb(out, "mem.l2_tlb", c.mem.l2_tlb);
    appendKv(out, "mem.dram_latency",
             static_cast<std::uint64_t>(c.mem.dram_latency));
    appendKv(out, "mem.atomic_latency",
             static_cast<std::uint64_t>(c.mem.atomic_latency));
    appendKv(out, "mem.dram_bytes_per_cycle",
             static_cast<std::uint64_t>(c.mem.dram_bytes_per_cycle));
    appendKv(out, "mem.mshrs_per_sm",
             static_cast<std::uint64_t>(c.mem.mshrs_per_sm));
    appendKv(out, "mem.walker_threads",
             static_cast<std::uint64_t>(c.mem.walker_threads));
    appendKv(out, "mem.page_table_levels",
             static_cast<std::uint64_t>(c.mem.page_table_levels));
    appendKv(out, "mem.walk_cache_entries",
             static_cast<std::uint64_t>(c.mem.walk_cache_entries));
    appendKv(out, "mem.walk_cache_latency",
             static_cast<std::uint64_t>(c.mem.walk_cache_latency));

    appendKv(out, "uvm.page_bytes", c.uvm.page_bytes);
    appendKv(out, "uvm.fault_buffer_entries",
             static_cast<std::uint64_t>(c.uvm.fault_buffer_entries));
    appendKv(out, "uvm.preload", c.uvm.preload);
    appendKv(out, "uvm.fault_handling_us", c.uvm.fault_handling_us);
    appendKv(out, "uvm.fault_handling_per_page_us",
             c.uvm.fault_handling_per_page_us);
    appendKv(out, "uvm.interrupt_latency_us",
             c.uvm.interrupt_latency_us);
    appendKv(out, "uvm.pcie_gbps", c.uvm.pcie_gbps);
    appendKv(out, "uvm.pcie_d2h_gbps", c.uvm.pcie_d2h_gbps);
    appendKv(out, "uvm.prefetch_enabled", c.uvm.prefetch_enabled);
    appendKv(out, "uvm.va_block_bytes", c.uvm.va_block_bytes);
    appendKv(out, "uvm.prefetch_density", c.uvm.prefetch_density);
    appendKv(out, "uvm.sequential_prefetch_pages",
             static_cast<std::uint64_t>(
                 c.uvm.sequential_prefetch_pages));
    appendKv(out, "uvm.unobtrusive_eviction",
             c.uvm.unobtrusive_eviction);
    appendKv(out, "uvm.ideal_eviction", c.uvm.ideal_eviction);
    appendKv(out, "uvm.pcie_compression_ratio",
             c.uvm.pcie_compression_ratio);
    appendKv(out, "uvm.root_chunk_pages",
             static_cast<std::uint64_t>(c.uvm.root_chunk_pages));
    appendKv(out, "uvm.lifetime_window_cycles",
             static_cast<std::uint64_t>(c.uvm.lifetime_window_cycles));
    appendKv(out, "uvm.lifetime_drop_threshold",
             c.uvm.lifetime_drop_threshold);

    appendKv(out, "to.enabled", c.to.enabled);
    appendKv(out, "to.initial_extra_blocks",
             static_cast<std::uint64_t>(c.to.initial_extra_blocks));
    appendKv(out, "to.max_extra_blocks",
             static_cast<std::uint64_t>(c.to.max_extra_blocks));
    appendKv(out, "to.ctx_switch_bytes_per_cycle",
             static_cast<std::uint64_t>(
                 c.to.ctx_switch_bytes_per_cycle));
    appendKv(out, "to.block_state_bytes", c.to.block_state_bytes);
    appendKv(out, "to.ideal_ctx_switch", c.to.ideal_ctx_switch);
    appendKv(out, "to.switch_on_memory_stall",
             c.to.switch_on_memory_stall);

    appendKv(out, "etc.enabled", c.etc.enabled);
    appendKv(out, "etc.proactive_eviction", c.etc.proactive_eviction);
    appendKv(out, "etc.memory_aware_throttling",
             c.etc.memory_aware_throttling);
    appendKv(out, "etc.capacity_compression",
             c.etc.capacity_compression);
    appendKv(out, "etc.compression_ratio", c.etc.compression_ratio);
    appendKv(out, "etc.compression_latency",
             static_cast<std::uint64_t>(c.etc.compression_latency));
    appendKv(out, "etc.epoch_cycles",
             static_cast<std::uint64_t>(c.etc.epoch_cycles));

    // trace.enabled is deliberately excluded: tracing is proven
    // non-perturbing (CI byte-compares traced vs untraced stdout), so
    // a traced run may share cached results with an untraced one.
    // trace.buffer_records likewise only sizes the observer ring.
    appendKv(out, "check.enabled", c.check.enabled);

    appendKv(out, "mt.policy",
             static_cast<std::uint64_t>(c.mt.policy));
    appendKv(out, "memory_ratio", c.memory_ratio);
    appendKv(out, "seed", c.seed);
    return out;
}

std::string
cellKey(const std::string &workload, WorkloadScale scale,
        const SimConfig &config, const std::string &git_rev,
        const std::vector<TenantSpec> &tenants)
{
    // /2: the graph-stream parameters joined the key. Streamed and
    // in-core builds are differential-tested bit-identical, but the
    // stream config is still build provenance — folding it keeps the
    // result cache honest if that guarantee ever regresses, at the
    // cost of re-keying every cell when the config changes.
    // /3: the tenant mix joined the key (and mt.policy joined the
    // canonical config) — a multi-tenant cell can never alias the
    // single-tenant cell that shares its label.
    const GraphStreamConfig &gs = graphStreamConfig();
    std::string key = "bauvm.cell/3|";
    key += git_rev;
    key += '|';
    key += workload;
    key += '|';
    key += scaleName(scale);
    key += '|';
    appendKv(key, "stream.threshold_edges", gs.stream_threshold_edges);
    appendKv(key, "stream.edges_per_block",
             static_cast<std::uint64_t>(gs.edges_per_block));
    appendKv(key, "stream.scratch_bytes", gs.scratch_bytes);
    key += '|';
    for (const TenantSpec &t : tenants) {
        key += t.workload;
        key += ':';
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", t.quota);
        key += buf;
        key += ':';
        key += scaleName(t.scale);
        key += ';';
    }
    key += '|';
    key += canonicalConfigString(config);
    return key;
}

std::string
digestHex(const std::string &key)
{
    // Two independent FNV-1a lanes (different offset bases), each
    // diffused through splitmix64 — 128 bits total, plenty for a cache
    // that holds at most millions of cells.
    std::uint64_t a = 0xcbf29ce484222325ULL;
    std::uint64_t b = 0x84222325cbf29ce4ULL;
    for (unsigned char ch : key) {
        a = (a ^ ch) * 0x100000001b3ULL;
        b = (b ^ ch) * 0x100000001b3ULL;
        b += a; // couple the lanes so they never collapse to one
    }
    a = splitmix64(a);
    b = splitmix64(b);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    return buf;
}

std::string
gitRev()
{
    if (const char *env = std::getenv("BAUVM_GIT_REV"))
        if (*env)
            return env;
    return BAUVM_GIT_REV;
}

std::string
hostName()
{
    static const std::string cached = [] {
        char buf[256] = {0};
        if (gethostname(buf, sizeof buf - 1) != 0)
            return std::string("unknown");
        return std::string(buf);
    }();
    return cached;
}

CellOutcome
executeCell(const CellExecArgs &args)
{
    CellOutcome out;
    out.workload = args.workload;
    out.policy = args.policy;
    out.variant = args.variant;
    out.seed = args.config.seed;
    out.job_seed = args.job_seed;
    out.digest = digestHex(
        cellKey(args.workload, args.scale, args.config,
                args.git_rev.empty() ? gitRev() : args.git_rev,
                args.tenants));
    out.worker_pid = static_cast<std::uint64_t>(getpid());
    out.hostname = hostName();

    const bool tracing = !args.trace_dir.empty();
    // The system outlives the try block so an aborted cell's partial
    // trace buffer can still be flushed to disk below.
    std::unique_ptr<GpuUvmSystem> system;
    bool aborted = false;

    const auto t0 = Clock::now();
    try {
        ScopedAbortCapture capture;
        SimConfig config = args.config;
        config.trace.enabled = tracing;
        if (!args.tenants.empty()) {
            // A multi-tenant cell is several independent simulations:
            // one solo anchor per tenant (each tenant alone on the
            // whole GPU, same ratio/policy/scale and the seed its mix
            // build will use, so the builds share the graph cache)
            // plus the mix itself. They are units on the intra-cell
            // pool: args.cell_threads > 1 overlaps them, and the
            // fixed-order merge below keeps any thread count
            // bit-identical to the serial run. Each unit installs its
            // own abort capture — the depth is thread-local.
            const std::size_t n = args.tenants.size();
            std::vector<Cycle> solo(n, 0);
            RunResult mix_result;
            std::unique_ptr<GpuUvmSystem> mix_system;
            runUnits(n + 1, args.cell_threads, [&](std::size_t u) {
                ScopedAbortCapture unit_capture;
                if (u == n) {
                    mix_system =
                        std::make_unique<GpuUvmSystem>(config);
                    mix_result = mix_system->run(args.tenants);
                    return;
                }
                SimConfig solo_config = config;
                solo_config.seed =
                    deriveTenantSeed(config.seed,
                                     static_cast<std::uint32_t>(u));
                solo_config.mt = MtConfig{};
                solo_config.trace.enabled = false;
                auto workload = WorkloadRegistry::instance().create(
                    args.tenants[u].workload);
                GpuUvmSystem solo_system(solo_config);
                solo[u] =
                    solo_system.run(*workload, args.tenants[u].scale)
                        .cycles;
            });
            system = std::move(mix_system);
            out.result = std::move(mix_result);
            for (std::size_t i = 0; i < out.result.tenants.size();
                 ++i) {
                TenantResult &t = out.result.tenants[i];
                t.slowdown = solo[i]
                                 ? static_cast<double>(t.cycles) /
                                       static_cast<double>(solo[i])
                                 : 0.0;
            }
            if (config.check.enabled) {
                for (const auto &workload : system->tenantWorkloads())
                    workload->validate();
            }
        } else {
            auto workload =
                WorkloadRegistry::instance().create(args.workload);
            system = std::make_unique<GpuUvmSystem>(config);
            out.result = system->run(*workload, args.scale);
            // --audit cells also check the functional result against
            // the workload's host-side reference implementation; a
            // mismatch panics and fails the cell like any
            // model-invariant breach.
            if (config.check.enabled)
                workload->validate();
        }
        out.ok = true;
    } catch (const SimAbort &e) {
        aborted = true;
        out.error = e.what();
    } catch (const std::exception &e) {
        aborted = true;
        out.error = e.what();
    } catch (...) {
        aborted = true;
        out.error = "unknown exception";
    }
    out.wall_s = secondsSince(t0);

    if (tracing && system && system->trace()) {
        TraceMeta meta;
        meta.bench = args.trace_bench;
        meta.workload = args.workload;
        meta.policy = policyName(args.policy);
        meta.variant = args.variant;
        meta.scale = scaleName(args.scale);
        meta.seed = args.config.seed;
        meta.ratio = args.trace_ratio;
        meta.partial = aborted;
        // A cell that died mid-run still flushes whatever the ring
        // holds; the .partial suffix keeps it out of tooling that
        // expects complete timelines.
        const std::string suffix = aborted ? ".partial" : "";
        const std::string base =
            args.trace_dir + "/" + args.trace_stem;
        writeChromeTrace(*system->trace(), meta,
                         base + ".trace.json" + suffix);
        writeCounterCsv(*system->trace(),
                        base + ".counters.csv" + suffix);
    }

    if (out.ok && args.soft_timeout_s > 0.0 &&
        out.wall_s > args.soft_timeout_s) {
        out.ok = false;
        out.timed_out = true;
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "soft timeout: cell took %.2fs (budget %.2fs), "
                      "result discarded",
                      out.wall_s, args.soft_timeout_s);
        out.error = buf;
    }
    return out;
}

} // namespace bauvm

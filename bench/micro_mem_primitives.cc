/**
 * @file
 * google-benchmark microbenchmarks of the memory/UVM metadata data
 * path: page-table churn, the fault-buffer -> memory-manager fault
 * handling loop, chunked eviction churn and batch prefetch analysis.
 *
 * Each shape runs against both the production dense-PageMetaTable
 * implementation and the retained hash-map reference
 * (src/uvm/legacy_mem_path.h) so bench/perf_smoke can report the
 * speedup of the rewrite, exactly like the EventQueue shapes in
 * micro_sim_primitives. The shapes mirror real simulator traffic:
 *  - MemTranslate:     map/frameOf/unmap churn — the page-table ops
 *                      behind every walker miss and migration;
 *  - MemFaultPath:     insert faults, drain a batch, evict-to-fit and
 *                      commit — the steady-state per-batch loop and
 *                      the acceptance shape for the rewrite;
 *  - MemEvictChurn:    commit/evict under capacity pressure with
 *                      32-page root chunks — stresses the intrusive
 *                      chunk LRU and per-chunk page FIFOs;
 *  - MemPrefetchBatch: one tree-prefetch analysis over a dense fault
 *                      batch — persistent scratch vs per-batch maps.
 *
 * Two shapes time the GPU memory hierarchy's translation structures
 * and have no legacy twin:
 *  - MemShootdown:          eviction shootdowns across 16 SMs' full
 *                           L1 TLBs and the L2 TLB;
 *  - MemTranslateTlbMiss:   accesses whose pages mostly miss the L1
 *                           TLB and hit the L2 TLB.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/mem/memory_hierarchy.h"
#include "src/mem/page_table.h"
#include "src/sim/config.h"
#include "src/sim/types.h"
#include "src/uvm/fault_buffer.h"
#include "src/uvm/gpu_memory_manager.h"
#ifdef BAUVM_LEGACY_DIFFERENTIAL
#include "src/uvm/legacy_mem_path.h"
#endif // BAUVM_LEGACY_DIFFERENTIAL
#include "src/uvm/prefetcher.h"

namespace
{

using namespace bauvm;

// ------------------------------------------------------- MemTranslate

template <typename PT>
void
memTranslate(benchmark::State &state)
{
    constexpr PageNum kPages = 1024;
    PT pt;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (PageNum p = 0; p < kPages; ++p)
            pt.map(p, p * 2 + 1);
        // Scattered residency/frame probes (a walker's view).
        std::uint64_t x = 88172645463325252ull;
        for (int i = 0; i < 4096; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const PageNum vpn = x % (kPages * 2);
            if (pt.isResident(vpn))
                sink += pt.frameOf(vpn);
        }
        for (PageNum p = 0; p < kPages; ++p)
            pt.unmap(p);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * (kPages * 2 + 4096));
}

// ------------------------------------------------------- MemFaultPath

void
drainBatch(FaultBuffer &fb, std::vector<FaultRecord> &out)
{
    fb.drainInto(out);
}

#ifdef BAUVM_LEGACY_DIFFERENTIAL
void
drainBatch(LegacyFaultBuffer &fb, std::vector<FaultRecord> &out)
{
    out = fb.drain();
}
#endif // BAUVM_LEGACY_DIFFERENTIAL

/**
 * The per-batch fault handling loop: insert a buffer's worth of faults
 * (with duplicates), drain the batch, then evict-to-fit and commit
 * every drained page. The footprint (4x capacity) keeps the manager at
 * capacity so every batch pays the full evict+commit path.
 */
template <typename Manager, typename Buffer>
void
memFaultPath(benchmark::State &state, Manager &mgr, Buffer &fb)
{
    constexpr PageNum kFootprint = 2048;
    constexpr int kBatchFaults = 256;
    std::vector<FaultRecord> batch;
    PageNum next = 0;
    Cycle now = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBatchFaults; ++i) {
            const PageNum vpn = (next + i * 3) % kFootprint;
            fb.insert(vpn, now + i);
            if ((i & 7) == 0) // warp-duplicate faults on the same page
                fb.insert(vpn, now + i);
        }
        next = (next + kBatchFaults * 3) % kFootprint;
        drainBatch(fb, batch);
        for (const FaultRecord &rec : batch) {
            if (mgr.isResident(rec.vpn))
                continue;
            while (!mgr.hasFreeFrame()) {
                PageNum victim = 0;
                if (!mgr.beginEviction(&victim, now))
                    break;
                mgr.completeEviction(victim);
            }
            mgr.reserveFrame();
            mgr.commitPage(rec.vpn, now);
        }
        now += 1000;
        benchmark::DoNotOptimize(batch.size());
    }
    state.SetItemsProcessed(state.iterations() * kBatchFaults);
}

// ------------------------------------------------------- MemEvictChurn

/**
 * Sequential commits sweeping 4x capacity with 32-page root chunks:
 * every commit past warm-up evicts first, exercising chunk LRU unlink/
 * append and the per-chunk page FIFO at chunk granularity.
 */
template <typename Manager>
void
memEvictChurn(benchmark::State &state, Manager &mgr)
{
    constexpr PageNum kFootprint = 4096;
    PageNum next = 0;
    Cycle now = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i) {
            const PageNum vpn = next;
            next = (next + 1) % kFootprint;
            if (mgr.isResident(vpn))
                continue;
            while (!mgr.hasFreeFrame()) {
                PageNum victim = 0;
                if (!mgr.beginEviction(&victim, now))
                    break;
                mgr.completeEviction(victim);
            }
            mgr.reserveFrame();
            mgr.commitPage(vpn, now);
            ++now;
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}

// ---------------------------------------------------- MemPrefetchBatch

/**
 * One tree analysis per iteration over a dense fault batch: 18 of 32
 * pages faulted in each of 16 VA blocks, so every block crosses the
 * 50% density threshold and fills.
 */
std::vector<PageNum>
prefetchFaultBatch(std::uint32_t pages_per_block)
{
    std::vector<PageNum> faulted;
    for (PageNum block = 0; block < 16; ++block)
        for (PageNum i = 0; i < 18; ++i)
            faulted.push_back(block * pages_per_block + i);
    return faulted;
}

void
BM_MemPrefetchBatch(benchmark::State &state)
{
    UvmConfig config;
    TreePrefetcher pf(
        config, [](PageNum) { return false; },
        [](PageNum vpn) { return vpn < (1u << 16); });
    const auto faulted = prefetchFaultBatch(pf.pagesPerBlock());
    std::vector<PageNum> out;
    for (auto _ : state) {
        pf.computePrefetchesInto(faulted, &out);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(state.iterations() * faulted.size());
}
BENCHMARK(BM_MemPrefetchBatch);

#ifdef BAUVM_LEGACY_DIFFERENTIAL
void
BM_LegacyMemPrefetchBatch(benchmark::State &state)
{
    UvmConfig config;
    LegacyTreePrefetcher pf(
        config, [](PageNum) { return false; },
        [](PageNum vpn) { return vpn < (1u << 16); });
    const auto faulted = prefetchFaultBatch(
        static_cast<std::uint32_t>(config.va_block_bytes /
                                   config.page_bytes));
    for (auto _ : state) {
        auto out = pf.computePrefetches(faulted);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(state.iterations() * faulted.size());
}
BENCHMARK(BM_LegacyMemPrefetchBatch);
#endif // BAUVM_LEGACY_DIFFERENTIAL

// ------------------------------------------- MemShootdown / TlbMiss

constexpr std::uint32_t kSms = 16;
constexpr std::uint64_t kPageBytes = 64 * 1024;

/**
 * Shoots down 128 pages per iteration on a 16-SM hierarchy whose 64-
 * entry L1 TLBs (and the L2 TLB) hold the 64 even pages, so half of
 * the shootdowns find the page in all 17 TLBs and half find it in
 * none. Refilling the TLBs between iterations is not timed.
 */
void
BM_MemShootdown(benchmark::State &state)
{
    constexpr PageNum kPages = 128;
    const MemConfig config;
    PageTable pt;
    for (PageNum p = 0; p < kPages; ++p)
        pt.map(p, p);
    MemoryHierarchy mem(config, kSms, kPageBytes, pt);
    Cycle now = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (std::uint32_t sm = 0; sm < kSms; ++sm)
            for (PageNum p = 0; p < kPages; p += 2)
                now = mem.access(sm, p * kPageBytes, false, now).done;
        state.ResumeTiming();
        for (PageNum p = 0; p < kPages; ++p)
            mem.invalidatePage(p);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kPages);
}
BENCHMARK(BM_MemShootdown);

/**
 * One SM touches 256 resident pages in scrambled order: four times the
 * L1 TLB's reach but within the L2 TLB's, so most accesses miss L1,
 * hit L2 and refill L1 (an LRU victim choice each). Each page has one
 * line, so the data side stays in the L2 cache.
 */
void
BM_MemTranslateTlbMiss(benchmark::State &state)
{
    constexpr PageNum kPages = 256;
    constexpr int kAccesses = 4096;
    const MemConfig config;
    PageTable pt;
    for (PageNum p = 0; p < kPages; ++p)
        pt.map(p, p);
    MemoryHierarchy mem(config, kSms, kPageBytes, pt);
    std::uint64_t x = 88172645463325252ull;
    Cycle now = 0;
    for (auto _ : state) {
        for (int i = 0; i < kAccesses; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const PageNum p = x % kPages;
            now = mem.access(0, p * kPageBytes + p % 128 * 128, false, now)
                      .done;
        }
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations() * kAccesses);
}
BENCHMARK(BM_MemTranslateTlbMiss);

// ------------------------------------------------------- registration

void
BM_MemTranslate(benchmark::State &state)
{
    memTranslate<PageTable>(state);
}
BENCHMARK(BM_MemTranslate);

#ifdef BAUVM_LEGACY_DIFFERENTIAL
void
BM_LegacyMemTranslate(benchmark::State &state)
{
    memTranslate<LegacyPageTable>(state);
}
BENCHMARK(BM_LegacyMemTranslate);
#endif // BAUVM_LEGACY_DIFFERENTIAL

void
BM_MemFaultPath(benchmark::State &state)
{
    UvmConfig config;
    GpuMemoryManager mgr(config, 512);
    FaultBuffer fb(256, mgr.pageTable().meta());
    memFaultPath(state, mgr, fb);
}
BENCHMARK(BM_MemFaultPath);

#ifdef BAUVM_LEGACY_DIFFERENTIAL
void
BM_LegacyMemFaultPath(benchmark::State &state)
{
    UvmConfig config;
    LegacyGpuMemoryManager mgr(config, 512);
    LegacyFaultBuffer fb(256);
    memFaultPath(state, mgr, fb);
}
BENCHMARK(BM_LegacyMemFaultPath);
#endif // BAUVM_LEGACY_DIFFERENTIAL

void
BM_MemEvictChurn(benchmark::State &state)
{
    UvmConfig config;
    config.root_chunk_pages = 32;
    GpuMemoryManager mgr(config, 1024);
    memEvictChurn(state, mgr);
}
BENCHMARK(BM_MemEvictChurn);

#ifdef BAUVM_LEGACY_DIFFERENTIAL
void
BM_LegacyMemEvictChurn(benchmark::State &state)
{
    UvmConfig config;
    config.root_chunk_pages = 32;
    LegacyGpuMemoryManager mgr(config, 1024);
    memEvictChurn(state, mgr);
}
BENCHMARK(BM_LegacyMemEvictChurn);
#endif // BAUVM_LEGACY_DIFFERENTIAL

} // namespace

BENCHMARK_MAIN();

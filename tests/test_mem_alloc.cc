/**
 * @file
 * Proves the UVM runtime's steady-state fault path performs zero heap
 * allocations: a counting global operator new/delete is toggled around
 * a self-sustaining fault/prefetch/migrate/evict loop once the dense
 * page-metadata table, the waiter slab, the batch scratch vectors and
 * the batch-record vector's capacity are warm. The same hook proves
 * that stepping the shipped warp kernels allocates nothing once their
 * coroutine frames exist. Lives in its own binary
 * so the global hook cannot perturb (or be perturbed by) the main test
 * suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/mem/memory_hierarchy.h"
#include "src/mem/slot_queue.h"
#include "src/sim/event_queue.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"
#include "src/workloads/workload_registry.h"

namespace
{
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

// The nothrow forms (std::stable_sort's temporary buffer) must come
// from malloc too: their memory is released through the replaced
// operator delete, which calls free.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace bauvm
{
namespace
{

/**
 * Self-sustaining fault traffic: keeps a handful of faults in flight
 * over a footprint 8x device capacity, so every batch migrates,
 * prefetches around, and evicts under pressure. Each woken waiter
 * schedules the next fault one cycle later (the SM replay shape)
 * until the round's budget is spent.
 */
template <typename Runtime>
class FaultLoop
{
  public:
    FaultLoop(Runtime &rt, EventQueue &q) : rt_(rt), q_(q) {}

    /** Runs one round of @p faults faults; returns waiters woken. */
    std::uint64_t
    run(std::uint64_t faults)
    {
        budget_ = faults;
        issued_ = 0;
        woken_ = 0;
        for (int i = 0; i < 8; ++i)
            issue();
        q_.run();
        return woken_;
    }

  private:
    static constexpr PageNum kFootprint = 64;

    void
    issue()
    {
        if (issued_ >= budget_)
            return;
        // Stride-7 walk: coprime with the footprint, so successive
        // faults leave the resident set and come back (refaults).
        const PageNum vpn = (issued_ * 7) % kFootprint;
        ++issued_;
        FaultLoop *self = this;
        rt_.onPageFault(vpn, [self](Cycle) {
            ++self->woken_;
            self->q_.scheduleAfter(1, [self] { self->issue(); });
        });
    }

    Runtime &rt_;
    EventQueue &q_;
    std::uint64_t budget_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t woken_ = 0;
};

/**
 * One independent fault-loop stack — the per-unit state an intra-cell
 * worker thread owns. The root chunk is small so the loop exercises
 * the chunk page FIFOs. warmUp() grows the metadata table, waiter slab,
 * batch scratch and event slabs to steady-state capacity, then keeps
 * running rounds until the batch-record vector has headroom for the
 * measured round (its once-per-batch push_back is the only amortized
 * growth left on the path).
 */
struct LoopStack {
    UvmConfig config;
    EventQueue events;
    GpuMemoryManager manager;
    MemoryHierarchy hierarchy;
    UvmRuntime runtime;
    FaultLoop<UvmRuntime> loop;

    LoopStack()
        : config(makeConfig()), manager(config, /*capacity_pages=*/8),
          hierarchy(MemConfig{}, 1, config.page_bytes,
                    manager.pageTable()),
          runtime(config, events, manager, hierarchy),
          loop(runtime, events)
    {
        runtime.registerAllocation(0, 64 * config.page_bytes);
    }

    static UvmConfig
    makeConfig()
    {
        UvmConfig c;
        c.root_chunk_pages = 4;
        return c;
    }

    void
    warmUp(std::uint64_t faults)
    {
        loop.run(faults);
        const std::uint64_t before = runtime.batches();
        loop.run(faults);
        const std::uint64_t per_round = runtime.batches() - before;
        ASSERT_GT(per_round, 0u);
        while (runtime.batchRecords().capacity() -
                   runtime.batchRecords().size() <
               2 * per_round + 8)
            loop.run(faults);
    }
};

TEST(MemAlloc, ReservedSlotQueueNeverAllocates)
{
    // The MSHR/walker usage pattern at full occupancy, long enough to
    // slide the live window across the reserved storage many times.
    constexpr std::size_t kSlots = 64;
    SlotQueue q;
    q.reserve(kSlots);
    Cycle now = 0;
    g_allocs.store(0);
    g_counting.store(true);
    for (int i = 0; i < 100000; ++i) {
        now += i % 3;
        while (!q.empty() && q.top() <= now)
            q.pop();
        Cycle begin = now;
        if (q.size() >= kSlots) {
            begin = q.top();
            q.pop();
        }
        q.push(begin + 100 + i % 7);
    }
    g_counting.store(false);
    EXPECT_EQ(q.size(), kSlots) << "the pool must run full";
    EXPECT_EQ(g_allocs.load(), 0u);
}

TEST(MemAlloc, SteadyStateFaultPathIsAllocationFree)
{
    constexpr std::uint64_t kFaults = 512;
    LoopStack stack;
    stack.warmUp(kFaults);

    const std::uint64_t fallbacks_before =
        UvmRuntime::WakeFn::heapFallbacks();
    g_allocs.store(0);
    g_counting.store(true);
    const std::uint64_t woken = stack.loop.run(kFaults);
    g_counting.store(false);

    EXPECT_EQ(woken, kFaults);
    EXPECT_GT(stack.manager.evictions(), 0u)
        << "loop must run under pressure";
    EXPECT_GT(stack.runtime.prefetchedPages(), 0u)
        << "loop must exercise the prefetcher";
    EXPECT_EQ(g_allocs.load(), 0u)
        << "steady-state fault/migrate/evict/wake must not allocate";
    EXPECT_EQ(UvmRuntime::WakeFn::heapFallbacks(), fallbacks_before)
        << "waiter captures within the inline budget must stay inline";
}

/**
 * The no-observer path — the one every untraced, unaudited sweep cell
 * runs — must stay allocation-free in steady state even when two intra-cell worker
 * threads drive independent stacks concurrently (the --cell-threads
 * shape). The global operator-new hook counts allocations
 * process-wide, so a single stray allocation on either worker fails
 * the test.
 */
TEST(MemAlloc, SpecializedNonePathIsAllocationFreeOnTwoThreads)
{
    constexpr std::uint64_t kFaults = 512;
    LoopStack stacks[2];
    stacks[0].warmUp(kFaults);
    stacks[1].warmUp(kFaults);

    const std::uint64_t fallbacks_before =
        UvmRuntime::WakeFn::heapFallbacks();
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> woken[2] = {{0}, {0}};
    auto worker = [&](int u) {
        // Thread startup may allocate; counting begins only once both
        // workers sit in this spin loop.
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        woken[u].store(stacks[u].loop.run(kFaults));
    };
    std::thread t0(worker, 0);
    std::thread t1(worker, 1);
    while (ready.load() != 2) {
    }
    g_allocs.store(0);
    g_counting.store(true);
    go.store(true, std::memory_order_release);
    t0.join();
    t1.join();
    g_counting.store(false);

    for (int u = 0; u < 2; ++u) {
        EXPECT_EQ(woken[u].load(), kFaults) << "worker " << u;
        EXPECT_GT(stacks[u].manager.evictions(), 0u)
            << "worker " << u << " must run under pressure";
    }
    EXPECT_EQ(g_allocs.load(), 0u)
        << "no-observer steady state must not allocate on either "
           "worker";
    EXPECT_EQ(UvmRuntime::WakeFn::heapFallbacks(), fallbacks_before);
}

/**
 * Every step of a shipped warp kernel must be allocation-free: the
 * kernels keep their per-lane scratch in inline small vectors, and a
 * WarpOp only views the addresses they own. Coroutine frames are
 * allocated when a program is created, which happens before counting
 * starts. The first two kernels of each workload run; all warps of a
 * kernel are stepped round-robin, as the SMs interleave them.
 */
TEST(MemAlloc, WarpKernelStepsAreAllocationFree)
{
    for (const char *name : {"PR", "KCORE", "BFS-TF", "GC-DTC"}) {
        SCOPED_TRACE(name);
        std::unique_ptr<Workload> w =
            WorkloadRegistry::instance().create(name);
        w->build(WorkloadScale::Tiny, 1);
        for (int k = 0; k < 2; ++k) {
            KernelInfo kernel;
            ASSERT_TRUE(w->nextKernel(&kernel));
            const std::uint32_t wpb = kernel.warpsPerBlock(32);
            std::vector<WarpProgram> progs;
            progs.reserve(std::size_t{kernel.num_blocks} * wpb);
            for (std::uint32_t b = 0; b < kernel.num_blocks; ++b) {
                for (std::uint32_t warp = 0; warp < wpb; ++warp) {
                    WarpCtx ctx;
                    ctx.block_id = b;
                    ctx.warp_in_block = warp;
                    ctx.threads_per_block = kernel.threads_per_block;
                    ctx.num_blocks = kernel.num_blocks;
                    progs.push_back(kernel.make_program(ctx));
                }
            }
            std::vector<char> alive(progs.size(), 1);

            std::uint64_t ops = 0;
            g_allocs.store(0);
            g_counting.store(true);
            for (bool progress = true; progress;) {
                progress = false;
                for (std::size_t i = 0; i < progs.size(); ++i) {
                    if (!alive[i])
                        continue;
                    if (progs[i].advance()) {
                        ++ops;
                        progress = true;
                    } else {
                        alive[i] = 0;
                    }
                }
            }
            g_counting.store(false);

            EXPECT_GE(ops, progs.size()) << kernel.name;
            EXPECT_EQ(g_allocs.load(), 0u)
                << kernel.name << ": a kernel step allocated";
        }
    }
}

} // namespace
} // namespace bauvm

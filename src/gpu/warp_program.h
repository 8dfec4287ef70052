/**
 * @file
 * Warp-level execution model: kernels are C++20 generator coroutines
 * that yield timing operations.
 *
 * One coroutine instance models one warp. The kernel body performs its
 * *functional* work directly on host-backed arrays (UVM migration never
 * changes values, so eager functional reads are safe) and co_yields a
 * WarpOp describing the *timing* of each step: the lane addresses of a
 * coalesced memory access, a compute delay, or a block barrier. The SM
 * resumes the coroutine when the yielded operation completes.
 */

#ifndef BAUVM_GPU_WARP_PROGRAM_H_
#define BAUVM_GPU_WARP_PROGRAM_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "src/gpu/lane_vec.h"
#include "src/sim/types.h"

namespace bauvm
{

/**
 * One timing operation yielded by a warp program.
 *
 * A memory op only views its lane addresses: they stay owned by the
 * kernel, in a coroutine-frame local or in a temporary of the co_yield
 * expression. Either one lives until the coroutine resumes, so the
 * view is valid for as long as the SM reads it. A kernel must not
 * change or destroy the addresses it yielded before it is resumed.
 */
struct WarpOp {
    enum class Kind {
        Compute, //!< occupy the warp for `cycles`
        Load,    //!< coalesced read of `addrs`
        Store,   //!< coalesced write of `addrs`
        Atomic,  //!< coalesced read-modify-write of `addrs`
        Sync,    //!< block-wide barrier (__syncthreads)
    };

    Kind kind = Kind::Compute;
    Cycle cycles = 1;                 //!< Compute only
    std::span<const VAddr> addrs;     //!< per-lane addresses (memory kinds)

    static WarpOp compute(Cycle c) { return WarpOp{Kind::Compute, c, {}}; }
    static WarpOp sync() { return WarpOp{Kind::Sync, 0, {}}; }

    /** Memory ops over any contiguous address list: a LaneVec, a
     *  std::vector<VAddr>, an array. */
    static WarpOp
    load(std::span<const VAddr> a)
    {
        return WarpOp{Kind::Load, 0, a};
    }
    static WarpOp
    store(std::span<const VAddr> a)
    {
        return WarpOp{Kind::Store, 0, a};
    }
    static WarpOp
    atomic(std::span<const VAddr> a)
    {
        return WarpOp{Kind::Atomic, 0, a};
    }

    bool isMemory() const
    {
        return kind == Kind::Load || kind == Kind::Store ||
               kind == Kind::Atomic;
    }
};

/**
 * The owning temporary loadOf/storeOf return: the addresses live in it,
 * and it converts to a WarpOp viewing them. As a co_yield operand it
 * lives until the coroutine resumes.
 */
template <std::size_t N>
struct InlineOp {
    WarpOp::Kind kind;
    VAddr addrs[N];

    operator WarpOp() const { return WarpOp{kind, 0, addrs}; }
};

/**
 * Builders for memory ops over a few scalar addresses, used as
 * `co_yield loadOf(a, b);`. (GCC 12 miscompiles initializer-list
 * temporaries in co_yield expressions — "array used as initializer" —
 * so kernels build longer address lists through push_back.)
 */
template <typename... Addrs>
InlineOp<sizeof...(Addrs)>
loadOf(Addrs... addrs)
{
    return {WarpOp::Kind::Load, {static_cast<VAddr>(addrs)...}};
}

template <typename... Addrs>
InlineOp<sizeof...(Addrs)>
storeOf(Addrs... addrs)
{
    return {WarpOp::Kind::Store, {static_cast<VAddr>(addrs)...}};
}

/**
 * Move-only generator coroutine handle for a warp.
 *
 * Usage: construct from a kernel coroutine, then repeatedly advance();
 * after each true return, current() is the next operation to time.
 */
class WarpProgram
{
  public:
    struct promise_type {
        WarpOp op;

        WarpProgram get_return_object()
        {
            return WarpProgram{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        std::suspend_always yield_value(WarpOp o)
        {
            op = o;
            return {};
        }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    WarpProgram() = default;
    explicit WarpProgram(std::coroutine_handle<promise_type> h) : h_(h) {}
    WarpProgram(WarpProgram &&o) noexcept : h_(std::exchange(o.h_, {})) {}
    WarpProgram &
    operator=(WarpProgram &&o) noexcept
    {
        if (this != &o) {
            destroy();
            h_ = std::exchange(o.h_, {});
        }
        return *this;
    }
    WarpProgram(const WarpProgram &) = delete;
    WarpProgram &operator=(const WarpProgram &) = delete;
    ~WarpProgram() { destroy(); }

    bool valid() const { return static_cast<bool>(h_); }

    /**
     * Runs the kernel to its next yield.
     * @retval true  current() holds a fresh operation.
     * @retval false the warp finished.
     */
    bool
    advance()
    {
        h_.resume();
        return !h_.done();
    }

    /** The most recently yielded operation. */
    const WarpOp &current() const { return h_.promise().op; }

  private:
    void
    destroy()
    {
        if (h_) {
            h_.destroy();
            h_ = {};
        }
    }

    std::coroutine_handle<promise_type> h_;
};

/**
 * Identity of one warp within the launched grid, passed to kernels.
 */
struct WarpCtx {
    std::uint32_t block_id = 0;       //!< block index within the grid
    std::uint32_t warp_in_block = 0;  //!< warp index within the block
    std::uint32_t warp_size = 32;
    std::uint32_t threads_per_block = 0;
    std::uint32_t num_blocks = 0;

    /** Number of threads this warp actually covers. */
    std::uint32_t
    laneCount() const
    {
        const std::uint32_t base = warp_in_block * warp_size;
        return base >= threads_per_block
                   ? 0
                   : (threads_per_block - base < warp_size
                          ? threads_per_block - base
                          : warp_size);
    }

    /** Global thread id of @p lane. */
    std::uint32_t
    globalThread(std::uint32_t lane) const
    {
        return block_id * threads_per_block + warp_in_block * warp_size +
               lane;
    }

    /** Total threads in the grid. */
    std::uint32_t
    totalThreads() const
    {
        return num_blocks * threads_per_block;
    }
};

/** Factory producing the coroutine for one warp. */
using WarpProgramFactory = std::function<WarpProgram(WarpCtx)>;

/** Static description of a kernel launch. */
struct KernelInfo {
    std::string name;
    std::uint32_t num_blocks = 1;
    std::uint32_t threads_per_block = 256;
    std::uint32_t regs_per_thread = 32;
    std::uint32_t smem_bytes_per_block = 0;
    WarpProgramFactory make_program;

    std::uint32_t
    warpsPerBlock(std::uint32_t warp_size) const
    {
        return (threads_per_block + warp_size - 1) / warp_size;
    }
};

} // namespace bauvm

#endif // BAUVM_GPU_WARP_PROGRAM_H_

/**
 * @file
 * Memory-access coalescer: merges the per-lane addresses of one warp
 * memory instruction into the minimal set of line-granular transactions,
 * as the hardware coalescing unit does before the L1.
 */

#ifndef BAUVM_GPU_COALESCER_H_
#define BAUVM_GPU_COALESCER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/types.h"

namespace bauvm
{

/** Stateless coalescing helper with aggregate statistics. */
class Coalescer
{
  public:
    explicit Coalescer(std::uint32_t line_bytes);

    /**
     * Coalesces @p lane_addrs into unique line base addresses
     * (ascending). Also updates the divergence statistics.
     */
    std::vector<VAddr> coalesce(const std::vector<VAddr> &lane_addrs);

    /**
     * coalesce() into a caller-owned buffer (@p out is clear()ed
     * first): reusing one scratch vector across instructions keeps the
     * SM's issue loop allocation-free.
     */
    void coalesceInto(const VAddr *lane_addrs, std::size_t n,
                      std::vector<VAddr> *out);

    std::uint64_t memoryInstructions() const { return instructions_; }
    std::uint64_t transactions() const { return transactions_; }

    /** Average transactions per memory instruction (divergence proxy). */
    double
    transactionsPerInstruction() const
    {
        return instructions_
                   ? static_cast<double>(transactions_) / instructions_
                   : 0.0;
    }

  private:
    std::uint32_t line_bytes_;
    bool line_pow2_ = false;  //!< mask instead of modulo when pow2
    VAddr line_mask_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t transactions_ = 0;
};

} // namespace bauvm

#endif // BAUVM_GPU_COALESCER_H_

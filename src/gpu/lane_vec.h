/**
 * @file
 * Small-buffer vectors for the per-lane scratch of warp kernels.
 *
 * A kernel step builds short lists with at most a few entries per lane
 * of a 32-wide warp: the lane addresses of one memory op, the vertices
 * its lanes own, their edge cursors. std::vector heap-allocates every
 * one of those lists on every step. SmallVec<T, N> keeps up to N
 * elements in place and falls back to the heap only past N, so a
 * kernel step is allocation-free on the common path.
 *
 * LaneVec holds the addresses a kernel yields. A memory WarpOp only
 * views them (see warp_program.h), so the LaneVec must stay alive and
 * unchanged until the coroutine resumes. PerLane<T> is the one-entry-
 * per-lane list for everything else a kernel step keeps.
 *
 * Deliberately minimal: append-only growth plus the read API the
 * kernels use. T must be default-constructible and trivially
 * destructible.
 */

#ifndef BAUVM_GPU_LANE_VEC_H_
#define BAUVM_GPU_LANE_VEC_H_

#include <cstddef>
#include <type_traits>

#include "src/sim/types.h"

namespace bauvm
{

/** Inline-storage vector (see file comment). */
template <typename T, std::size_t N>
class SmallVec
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "SmallVec never runs element destructors");

  public:
    static constexpr std::size_t kInline = N;

    SmallVec() = default;
    ~SmallVec() { delete[] heap_; }

    /** @p n copies of @p value. */
    SmallVec(std::size_t n, const T &value)
    {
        reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            data()[i] = value;
        size_ = n;
    }

    // A yielded WarpOp views the list in place, so lists never move.
    SmallVec(const SmallVec &) = delete;
    SmallVec &operator=(const SmallVec &) = delete;

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        data()[size_++] = v;
    }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *data() { return heap_ ? heap_ : inline_; }
    const T *data() const { return heap_ ? heap_ : inline_; }

    const T &operator[](std::size_t i) const { return data()[i]; }
    T &operator[](std::size_t i) { return data()[i]; }

    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }
    T *begin() { return data(); }
    T *end() { return data() + size_; }

  private:
    void
    grow(std::size_t new_cap)
    {
        T *block = new T[new_cap];
        const T *s = data();
        for (std::size_t i = 0; i < size_; ++i)
            block[i] = s[i];
        delete[] heap_;
        heap_ = block;
        cap_ = new_cap;
    }

    T *heap_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = N;
    T inline_[N];
};

/**
 * The lane addresses of one memory op. 128 covers every shipped
 * kernel's widest op (up to three addresses per lane of a 32-wide
 * warp) without touching the heap.
 */
using LaneVec = SmallVec<VAddr, 128>;

/** One entry per lane of a 32-wide warp. */
template <typename T>
using PerLane = SmallVec<T, 32>;

} // namespace bauvm

#endif // BAUVM_GPU_LANE_VEC_H_

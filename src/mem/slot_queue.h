/**
 * @file
 * Min-queue of busy-slot release times for small fixed pools.
 *
 * The SM's MSHRs and the page-table walker's threads are pools of a few
 * dozen slots; each occupied slot holds the cycle it frees up. A sorted
 * array beats a binary heap at that size. Release times arrive nearly
 * in order, so push() usually appends, and the earliest release sits at
 * a moving front, so top() and pop() are a load and an increment. The
 * queue holds the same multiset a std::priority_queue would and returns
 * the same top().
 */

#ifndef BAUVM_MEM_SLOT_QUEUE_H_
#define BAUVM_MEM_SLOT_QUEUE_H_

#include <cstddef>
#include <vector>

#include "src/sim/types.h"

namespace bauvm
{

/** Multiset of cycles with O(1) access to and removal of the minimum. */
class SlotQueue
{
  public:
    /**
     * Pre-sizes storage so that pushes never allocate while at most
     * @p slots entries are queued.
     */
    void reserve(std::size_t slots) { times_.reserve(2 * slots); }

    bool empty() const { return head_ == times_.size(); }
    std::size_t size() const { return times_.size() - head_; }

    /** Earliest release time. Precondition: !empty(). */
    Cycle top() const { return times_[head_]; }

    /** Removes one instance of top(). Precondition: !empty(). */
    void
    pop()
    {
        if (++head_ == times_.size()) {
            times_.clear();
            head_ = 0;
        }
    }

    /** Adds @p t, keeping times_[head_..] sorted ascending. */
    void
    push(Cycle t)
    {
        // Slide the live entries down once the popped prefix would make
        // push_back outgrow the reserved storage.
        if (head_ > 0 && times_.size() == times_.capacity()) {
            times_.erase(times_.begin(), times_.begin() + head_);
            head_ = 0;
        }
        times_.push_back(t);
        std::size_t i = times_.size() - 1;
        for (; i > head_ && times_[i - 1] > t; --i)
            times_[i] = times_[i - 1];
        times_[i] = t;
    }

  private:
    std::vector<Cycle> times_; //!< popped prefix, then ascending live part
    std::size_t head_ = 0;     //!< index of the earliest live entry
};

} // namespace bauvm

#endif // BAUVM_MEM_SLOT_QUEUE_H_

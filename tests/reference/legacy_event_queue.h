/**
 * @file
 * The original std::function + unordered_map event queue, kept as a
 * test-only reference implementation.
 *
 * The production kernel (src/sim/event_queue.h) replaced this with a
 * slab-allocated, calendar-queue design. tests/test_event_queue.cc
 * runs one schedule/cancel/run script through both kernels and
 * asserts the identical execution order (the determinism contract:
 * time order, insertion order within a cycle). Only the members that
 * script calls are kept.
 *
 * Its cancel() leaks tombstoned heap entries until they are popped.
 */

#ifndef BAUVM_TESTS_REFERENCE_LEGACY_EVENT_QUEUE_H_
#define BAUVM_TESTS_REFERENCE_LEGACY_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/sim/types.h"

namespace bauvm
{

/** Opaque handle used to cancel a scheduled event. */
using LegacyEventId = std::uint64_t;

/** Reference (pre-rewrite) discrete-event queue; see file doc. */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    LegacyEventQueue() = default;
    LegacyEventQueue(const LegacyEventQueue &) = delete;
    LegacyEventQueue &operator=(const LegacyEventQueue &) = delete;

    LegacyEventId scheduleAt(Cycle when, Callback cb);

    LegacyEventId scheduleAfter(Cycle delay, Callback cb)
    {
        return scheduleAt(now_ + delay, std::move(cb));
    }

    bool cancel(LegacyEventId id);

    std::uint64_t run(Cycle until = kCycleNever);

  private:
    struct Entry {
        Cycle when;
        std::uint64_t seq; //!< tie-breaker: insertion order
        LegacyEventId id;
        bool operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    bool popNext(Entry &out);

    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::unordered_map<LegacyEventId, Callback> callbacks_;
};

} // namespace bauvm

#endif // BAUVM_TESTS_REFERENCE_LEGACY_EVENT_QUEUE_H_

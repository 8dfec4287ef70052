/**
 * @file
 * ObserverMode: compile-time observer selection for the hot path.
 *
 * SimHooks keeps runtime observers behind nullable pointers; that is
 * the right shape for cold sites (block lifecycle, eviction policy,
 * batch bookkeeping) but puts one predictable-yet-present branch on
 * every fault, translation and cache access. The hot classes
 * (MemoryHierarchyT, FaultBufferT, UvmRuntimeT, SmT) are therefore
 * templated on an ObserverMode; emission sites are written as
 *
 *     if constexpr (observed(M)) {
 *         if (hooks_.trace) { ... }
 *     }
 *
 * so in ObserverMode::None the whole site — including the null check —
 * compiles away. ObserverMode::Observed keeps every site, each guarded
 * by its own null check, so one specialization serves tracing,
 * auditing and both. Only None has to be fast: every sweep cell without
 * an observer runs it.
 *
 * makeEngine() (src/core/engine.h) picks the mode once per system from
 * the attached observers; nothing dispatches on the mode per event.
 * Code that builds components directly (unit tests, micro-benchmarks)
 * names the mode: None when it attaches no observer, Observed when it
 * does.
 */

#ifndef BAUVM_CHECK_OBSERVER_MODE_H_
#define BAUVM_CHECK_OBSERVER_MODE_H_

#include <cstdint>

namespace bauvm
{

/** Whether a specialized hot path can ever see an observer attached. */
enum class ObserverMode : std::uint8_t {
    None,     //!< no observers: every emission site is dead code
    Observed, //!< trace and/or audit: every site present, null-checked
};

/** True when mode @p m compiles the observer emission sites in. */
constexpr bool
observed(ObserverMode m)
{
    return m == ObserverMode::Observed;
}

} // namespace bauvm

#endif // BAUVM_CHECK_OBSERVER_MODE_H_

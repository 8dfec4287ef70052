/**
 * @file
 * SimHooks: the single observer aggregate threaded through the
 * simulated system.
 *
 * Every instrumented component used to grow its own setTrace() setter;
 * adding a second observer (the model auditor) would have meant touching
 * every constructor *and* every setter again. Instead the system owns
 * one SimHooks value — a plain aggregate of non-owning observer
 * pointers plus the simulation clock — and passes it once, at
 * construction, down the component tree. Components copy the aggregate
 * (two pointers and a clock; all stable for the system's lifetime) and
 * guard every emission site with a null check, so a cold site in a run
 * with no observers pays one predictable branch and nothing else.
 *
 * Adding a future observer is now: add a pointer here, wire it in
 * GpuUvmSystem, and instrument the sites that care — no constructor or
 * setter churn anywhere else.
 *
 * The hot classes additionally template their event-path methods on an
 * ObserverMode (src/check/observer_mode.h): in ObserverMode::None their
 * sites, null checks included, compile away entirely; in
 * ObserverMode::Observed each site keeps its null check. SimHooks
 * remains the single aggregate both specializations read from.
 */

#ifndef BAUVM_CHECK_SIM_HOOKS_H_
#define BAUVM_CHECK_SIM_HOOKS_H_

namespace bauvm
{

class TraceSink;
class ModelAuditor;
class EventQueue;

/** Non-owning observer bundle passed once at construction (file doc). */
struct SimHooks {
    /** Timeline tracing sink, or nullptr when tracing is off. */
    TraceSink *trace = nullptr;
    /** Online model auditor, or nullptr when auditing is off. */
    ModelAuditor *audit = nullptr;
    /** Simulation clock for observers that need "now" at emission
     *  sites which do not already carry a cycle (prefetcher, VTC). */
    const EventQueue *clock = nullptr;
};

} // namespace bauvm

#endif // BAUVM_CHECK_SIM_HOOKS_H_

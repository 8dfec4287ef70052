/**
 * @file
 * The construction-time dispatch seam for observer specialization.
 *
 * GpuUvmSystem picks an ObserverMode once — None when its SimConfig
 * enables neither tracing nor auditing, Observed otherwise — and
 * makeEngine() instantiates the matching EngineT<M>: the typed bundle
 * of MemoryHierarchyT<M>, UvmRuntimeT<M> and a Gpu built with SmT<M>
 * SMs, so the per-event fault/translate/evict loop binds statically
 * inside the specialization. Everything
 * the system does after construction — running kernels, reading
 * statistics, wiring tenants — goes through the mode-independent base
 * references this interface exposes; the only virtual dispatch on the
 * simulated path is SmBase::pump(), once per pump event.
 *
 * Multi-tenant runs need tenant hierarchies/GPUs of the *same* mode as
 * the shared runtime, so tenant construction lives behind addTenant()
 * here rather than in the system.
 */

#ifndef BAUVM_CORE_ENGINE_H_
#define BAUVM_CORE_ENGINE_H_

#include <cstdint>
#include <memory>

#include "src/check/observer_mode.h"
#include "src/check/sim_hooks.h"
#include "src/gpu/gpu.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/uvm/gpu_memory_manager.h"
#include "src/uvm/uvm_runtime.h"

namespace bauvm
{

/** Mode-blind view of one specialized simulation engine. */
class EngineBase
{
  public:
    virtual ~EngineBase() = default;

    virtual ObserverMode mode() const = 0;
    virtual MemoryHierarchyBase &hierarchy() = 0;
    virtual UvmRuntimeBase &runtime() = 0;
    virtual Gpu &gpu() = 0;

    /**
     * Builds tenant @p i's private cache/TLB hierarchy and GPU front
     * end (multi-tenant runs), sharing this engine's event queue,
     * memory manager and runtime. Returns the tenant's GPU.
     */
    virtual Gpu &addTenant(const SimConfig &tenant_config,
                           std::uint64_t page_bytes,
                           std::uint32_t track_base) = 0;
    virtual std::size_t tenantCount() const = 0;
    virtual MemoryHierarchyBase &tenantHierarchy(std::size_t i) = 0;
    virtual Gpu &tenantGpu(std::size_t i) = 0;
    /** Drops tenant state from a previous run(specs) call. */
    virtual void clearTenants() = 0;
    /** Routes eviction shootdowns to the tenant hierarchies added so
     *  far (runtime().setTenantHierarchies, in TenantId order). */
    virtual void wireTenantRouting() = 0;
};

/** The specialized engine for observer mode @p M. */
template <ObserverMode M>
class EngineT final : public EngineBase
{
  public:
    EngineT(const SimConfig &config, EventQueue &events,
            GpuMemoryManager &manager, const SimHooks &hooks);

    ObserverMode mode() const override { return M; }
    MemoryHierarchyBase &hierarchy() override { return hierarchy_; }
    UvmRuntimeBase &runtime() override { return runtime_; }
    Gpu &gpu() override { return *gpu_; }

    Gpu &addTenant(const SimConfig &tenant_config,
                   std::uint64_t page_bytes,
                   std::uint32_t track_base) override;
    std::size_t tenantCount() const override
    {
        return tenant_gpus_.size();
    }
    MemoryHierarchyBase &tenantHierarchy(std::size_t i) override
    {
        return *tenant_hierarchies_[i];
    }
    Gpu &tenantGpu(std::size_t i) override { return *tenant_gpus_[i]; }
    void clearTenants() override;
    void wireTenantRouting() override;

  private:
    EventQueue &events_;
    GpuMemoryManager &manager_;
    SimHooks hooks_;
    MemoryHierarchyT<M> hierarchy_;
    UvmRuntimeT<M> runtime_;
    std::unique_ptr<Gpu> gpu_;
    std::vector<std::unique_ptr<MemoryHierarchyT<M>>>
        tenant_hierarchies_;
    std::vector<std::unique_ptr<Gpu>> tenant_gpus_;
};

extern template class EngineT<ObserverMode::None>;
extern template class EngineT<ObserverMode::Observed>;

/**
 * Instantiates EngineT<None> when @p hooks carries neither a trace sink
 * nor an auditor, EngineT<Observed> otherwise. A null pointer in the
 * aggregate means that observer cannot appear later either.
 */
std::unique_ptr<EngineBase> makeEngine(const SimConfig &config,
                                       EventQueue &events,
                                       GpuMemoryManager &manager,
                                       const SimHooks &hooks);

} // namespace bauvm

#endif // BAUVM_CORE_ENGINE_H_

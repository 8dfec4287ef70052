#include "src/core/engine.h"

namespace bauvm
{

template <ObserverMode M>
EngineT<M>::EngineT(const SimConfig &config, EventQueue &events,
                    GpuMemoryManager &manager, const SimHooks &hooks)
    : events_(events), manager_(manager), hooks_(hooks),
      hierarchy_(config.mem, config.gpu.num_sms, config.uvm.page_bytes,
                 manager.pageTable(), hooks),
      runtime_(config.uvm, events, manager, hierarchy_, hooks)
{
    gpu_ = std::make_unique<Gpu>(config, events, hierarchy_, runtime_,
                                 hooks);
}

template <ObserverMode M>
Gpu &
EngineT<M>::addTenant(const SimConfig &tenant_config,
                      std::uint64_t page_bytes,
                      std::uint32_t track_base)
{
    tenant_hierarchies_.push_back(
        std::make_unique<MemoryHierarchyT<M>>(
            tenant_config.mem, tenant_config.gpu.num_sms, page_bytes,
            manager_.pageTable(), hooks_));
    tenant_gpus_.push_back(std::make_unique<Gpu>(
        tenant_config, events_, *tenant_hierarchies_.back(), runtime_,
        hooks_, track_base));
    return *tenant_gpus_.back();
}

template <ObserverMode M>
void
EngineT<M>::clearTenants()
{
    tenant_gpus_.clear();
    tenant_hierarchies_.clear();
}

template <ObserverMode M>
void
EngineT<M>::wireTenantRouting()
{
    std::vector<MemoryHierarchyBase *> routes;
    routes.reserve(tenant_hierarchies_.size());
    for (const auto &h : tenant_hierarchies_)
        routes.push_back(h.get());
    runtime_.setTenantHierarchies(std::move(routes));
}

template class EngineT<ObserverMode::None>;
template class EngineT<ObserverMode::Observed>;

std::unique_ptr<EngineBase>
makeEngine(const SimConfig &config, EventQueue &events,
           GpuMemoryManager &manager, const SimHooks &hooks)
{
    if (hooks.trace == nullptr && hooks.audit == nullptr) {
        return std::make_unique<EngineT<ObserverMode::None>>(
            config, events, manager, hooks);
    }
    return std::make_unique<EngineT<ObserverMode::Observed>>(
        config, events, manager, hooks);
}

} // namespace bauvm

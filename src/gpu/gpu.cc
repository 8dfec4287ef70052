#include "src/gpu/gpu.h"

#include "src/sim/log.h"

namespace bauvm
{

template <ObserverMode M>
Gpu::Gpu(const SimConfig &config, EventQueue &events,
         MemoryHierarchyT<M> &hierarchy, UvmRuntimeT<M> &runtime,
         const SimHooks &hooks, std::uint32_t sm_track_base)
    : config_(config), events_(events), vtc_(config.to, sms_, hooks),
      dispatcher_(config.gpu, sms_, vtc_)
{
    for (std::uint32_t i = 0; i < config.gpu.num_sms; ++i) {
        sms_.push_back(std::make_unique<SmT<M>>(i, config.gpu, events,
                                                hierarchy, runtime,
                                                this, hooks));
        if (sm_track_base != 0)
            sms_.back()->setTraceTrack(traceTrackSm(sm_track_base + i));
        sms_.back()->setSwitchOnMemoryStall(
            config.to.switch_on_memory_stall);
    }
    vtc_.setTopUpCallback([this] { dispatcher_.topUpExtras(); });
    runtime.setAdviceCallback(
        [this](OversubAdvice advice) { vtc_.onAdvice(advice); });
}

template Gpu::Gpu(const SimConfig &, EventQueue &,
                  MemoryHierarchyT<ObserverMode::None> &,
                  UvmRuntimeT<ObserverMode::None> &, const SimHooks &,
                  std::uint32_t);
template Gpu::Gpu(const SimConfig &, EventQueue &,
                  MemoryHierarchyT<ObserverMode::Observed> &,
                  UvmRuntimeT<ObserverMode::Observed> &, const SimHooks &,
                  std::uint32_t);

Cycle
Gpu::runKernel(const KernelInfo &kernel)
{
    const Cycle begin = events_.now();
    kernel_done_ = false;
    dispatcher_.launch(&kernel, [this] { kernel_done_ = true; });
    events_.run();
    if (!kernel_done_) {
        panic("Gpu: event queue drained but kernel '%s' has %u/%u "
              "blocks finished (simulator deadlock)",
              kernel.name.c_str(), dispatcher_.finishedBlocks(),
              kernel.num_blocks);
    }
    return events_.now() - begin;
}

void
Gpu::launchKernel(const KernelInfo *kernel,
                  std::function<void()> on_done)
{
    dispatcher_.launch(kernel, std::move(on_done));
}

std::uint64_t
Gpu::totalIssuedInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm->issuedInstructions();
    return n;
}

void
Gpu::onBlockStalled(std::uint32_t sm, std::uint32_t slot)
{
    vtc_.onBlockStalled(sm, slot);
}

void
Gpu::onBlockFinished(std::uint32_t sm, std::uint32_t slot)
{
    dispatcher_.onBlockFinished(sm, slot);
}

void
Gpu::onInactiveWarpReady(std::uint32_t sm, std::uint32_t slot)
{
    vtc_.onInactiveWarpReady(sm, slot);
}

} // namespace bauvm

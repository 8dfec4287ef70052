/**
 * @file
 * Top-level GPU device: SMs, virtual-thread controller and block
 * dispatcher, with the kernel-launch loop.
 */

#ifndef BAUVM_GPU_GPU_H_
#define BAUVM_GPU_GPU_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/gpu/block_dispatcher.h"
#include "src/gpu/sm.h"
#include "src/gpu/virtual_thread.h"
#include "src/gpu/warp_program.h"
#include "src/mem/memory_hierarchy.h"
#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/uvm/uvm_runtime.h"

namespace bauvm
{

/**
 * The simulated GPU device.
 *
 * The device itself is untemplated — only its SMs carry the observer
 * mode. The templated constructor builds SmT<M> instances matching the
 * hierarchy/runtime specialization it is handed; everything after
 * construction runs through SmBase.
 */
class Gpu : public SmListener
{
  public:
    /** @param hooks observers, fanned out to every SM and the VTC.
     *  @param sm_track_base first trace track for this GPU's SMs;
     *  multi-tenant runs give each tenant GPU a disjoint range while
     *  SM ids stay GPU-local (0 .. num_sms-1). */
    template <ObserverMode M>
    Gpu(const SimConfig &config, EventQueue &events,
        MemoryHierarchyT<M> &hierarchy, UvmRuntimeT<M> &runtime,
        const SimHooks &hooks = {}, std::uint32_t sm_track_base = 0);
    ~Gpu() override = default;

    /**
     * Executes @p kernel to completion (drains the event queue).
     * @return cycles elapsed during the kernel.
     */
    Cycle runKernel(const KernelInfo &kernel);

    /**
     * Starts @p kernel without draining the event queue. Multi-tenant
     * runs drive several GPUs off one shared queue: each tenant chains
     * its kernels from @p on_done while the others keep executing.
     * @p kernel must outlive the launch; @p on_done fires when the
     * kernel's last block retires (do not launch the next kernel
     * directly from inside it — schedule a zero-delay event instead,
     * the dispatcher is still finishing the old kernel).
     */
    void launchKernel(const KernelInfo *kernel,
                      std::function<void()> on_done);

    VirtualThreadController &vtc() { return vtc_; }
    BlockDispatcher &dispatcher() { return dispatcher_; }
    const SmBase &sm(std::uint32_t i) const { return *sms_[i]; }
    std::uint32_t numSms() const
    {
        return static_cast<std::uint32_t>(sms_.size());
    }

    std::uint64_t totalIssuedInstructions() const;

    // SmListener
    void onBlockStalled(std::uint32_t sm, std::uint32_t slot) override;
    void onBlockFinished(std::uint32_t sm, std::uint32_t slot) override;
    void onInactiveWarpReady(std::uint32_t sm,
                             std::uint32_t slot) override;

  private:
    SimConfig config_;
    EventQueue &events_;
    std::vector<std::unique_ptr<SmBase>> sms_;
    VirtualThreadController vtc_;
    BlockDispatcher dispatcher_;
    bool kernel_done_ = false;
};

extern template Gpu::Gpu(const SimConfig &, EventQueue &,
                         MemoryHierarchyT<ObserverMode::None> &,
                         UvmRuntimeT<ObserverMode::None> &,
                         const SimHooks &, std::uint32_t);
extern template Gpu::Gpu(const SimConfig &, EventQueue &,
                         MemoryHierarchyT<ObserverMode::Observed> &,
                         UvmRuntimeT<ObserverMode::Observed> &,
                         const SimHooks &, std::uint32_t);

} // namespace bauvm

#endif // BAUVM_GPU_GPU_H_

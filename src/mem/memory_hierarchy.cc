#include "src/mem/memory_hierarchy.h"

#include <bit>
#include <string>

#include "src/check/model_auditor.h"
#include "src/sim/log.h"

namespace bauvm
{

MemoryHierarchyBase::MemoryHierarchyBase(const MemConfig &config,
                                         std::uint32_t num_sms,
                                         std::uint64_t page_bytes,
                                         const PageTable &page_table,
                                         const SimHooks &hooks)
    : hooks_(hooks), config_(config), page_bytes_(page_bytes),
      page_table_(page_table),
      l2_tlb_(std::make_unique<Tlb>(config.l2_tlb, "l2tlb")),
      l2_cache_(std::make_unique<Cache>(config.l2, "l2")),
      walker_(config), dram_(config), mshrs_(num_sms)
{
    page_pow2_ = page_bytes > 0 && (page_bytes & (page_bytes - 1)) == 0;
    if (page_pow2_)
        page_shift_ = std::countr_zero(page_bytes);
    const std::uint64_t lb = config.l1.line_bytes;
    line_pow2_ = lb > 0 && (lb & (lb - 1)) == 0;
    if (line_pow2_)
        line_shift_ = std::countr_zero(lb);
    l1_tlbs_.reserve(num_sms);
    l1_caches_.reserve(num_sms);
    for (std::uint32_t i = 0; i < num_sms; ++i) {
        l1_tlbs_.push_back(std::make_unique<Tlb>(
            config.l1_tlb, "l1tlb" + std::to_string(i)));
        l1_caches_.push_back(std::make_unique<Cache>(
            config.l1, "l1" + std::to_string(i)));
    }
}

void
MemoryHierarchyBase::invalidatePage(PageNum vpn)
{
    for (auto &tlb : l1_tlbs_)
        tlb->invalidate(vpn);
    l2_tlb_->invalidate(vpn);
    if (hooks_.audit)
        hooks_.audit->onTranslationInvalidate(vpn);
}

template class MemoryHierarchyT<ObserverMode::None>;
template class MemoryHierarchyT<ObserverMode::Observed>;

} // namespace bauvm

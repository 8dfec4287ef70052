#include "src/uvm/fault_buffer.h"

#include "src/check/model_auditor.h"
#include "src/sim/log.h"

namespace bauvm
{

FaultBufferBase::FaultBufferBase(std::uint32_t capacity,
                                 PageMetaTable &meta,
                                 const SimHooks &hooks)
    : hooks_(hooks), capacity_(capacity), meta_(meta)
{
    if (capacity == 0)
        fatal("FaultBuffer: capacity must be positive");
}

template <ObserverMode M>
void
FaultBufferT<M>::insert(PageNum vpn, Cycle now, TenantId tenant)
{
    ++total_faults_;
    PageMeta &m = meta_.ensure(vpn);
    if (m.fault_slot != PageMeta::kNoIndex) {
        ++entries_.duplicates[m.fault_slot];
        if constexpr (observed(M)) {
            if (hooks_.audit) {
                hooks_.audit->onFaultBuffered(vpn, now, entries_.size(),
                                              overflowSize());
            }
        }
        return;
    }
    if (entries_.size() >= capacity_) {
        ++overflows_;
        // Merge duplicates within the overflow queue as well.
        for (std::size_t i = overflow_head_; i < overflow_.size(); ++i) {
            if (overflow_[i].vpn == vpn) {
                ++overflow_[i].duplicates;
                if constexpr (observed(M)) {
                    if (hooks_.audit) {
                        hooks_.audit->onFaultBuffered(
                            vpn, now, entries_.size(), overflowSize());
                    }
                }
                return;
            }
        }
        overflow_.push_back(FaultRecord{vpn, now, 1, tenant});
        if constexpr (observed(M)) {
            if (hooks_.trace) {
                hooks_.trace->counter(
                    TraceEventType::FaultBufferDepth, kTraceTrackRuntime,
                    now, entries_.size(),
                    static_cast<std::uint32_t>(overflowSize()));
            }
            if (hooks_.audit) {
                hooks_.audit->onFaultBuffered(vpn, now, entries_.size(),
                                              overflowSize());
            }
        }
        return;
    }
    m.fault_slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push(vpn, now, 1, tenant);
    if constexpr (observed(M)) {
        if (hooks_.trace) {
            hooks_.trace->counter(TraceEventType::FaultBufferDepth,
                                  kTraceTrackRuntime, now,
                                  entries_.size(),
                                  static_cast<std::uint32_t>(
                                      overflowSize()));
        }
        if (hooks_.audit) {
            hooks_.audit->onFaultBuffered(vpn, now, entries_.size(),
                                          overflowSize());
        }
    }
}

template <ObserverMode M>
void
FaultBufferT<M>::drainInto(FaultBatch &out)
{
    out.clear();
    // entries_ keeps out's warmed array capacities.
    std::swap(out.vpns, entries_.vpns);
    std::swap(out.first_cycles, entries_.first_cycles);
    std::swap(out.duplicates, entries_.duplicates);
    std::swap(out.tenants, entries_.tenants);
    for (const PageNum vpn : out.vpns)
        meta_.at(vpn).fault_slot = PageMeta::kNoIndex;
    // Refill from overflow, preserving arrival order.
    while (overflow_head_ < overflow_.size() &&
           entries_.size() < capacity_) {
        const FaultRecord &rec = overflow_[overflow_head_++];
        meta_.ensure(rec.vpn).fault_slot =
            static_cast<std::uint32_t>(entries_.size());
        entries_.push(rec.vpn, rec.first_cycle, rec.duplicates,
                      rec.tenant);
    }
    if (overflow_head_ == overflow_.size()) {
        overflow_.clear();
        overflow_head_ = 0;
    }
    if constexpr (observed(M)) {
        if (hooks_.audit) {
            hooks_.audit->onFaultDrained(out.size(), entries_.size(),
                                         overflowSize());
        }
    }
}

template <ObserverMode M>
void
FaultBufferT<M>::drainInto(std::vector<FaultRecord> &out)
{
    FaultBatch batch;
    drainInto(batch);
    out.clear();
    out.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        out.push_back(FaultRecord{batch.vpns[i], batch.first_cycles[i],
                                  batch.duplicates[i],
                                  batch.tenants[i]});
    }
}

template class FaultBufferT<ObserverMode::None>;
template class FaultBufferT<ObserverMode::Observed>;

} // namespace bauvm

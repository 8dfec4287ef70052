#include "src/uvm/gpu_memory_manager.h"

#include "src/check/model_auditor.h"
#include "src/sim/log.h"

namespace bauvm
{

GpuMemoryManager::GpuMemoryManager(const UvmConfig &config,
                                   std::uint64_t capacity_pages,
                                   const SimHooks &hooks)
    : hooks_(hooks), config_(config), capacity_pages_(capacity_pages),
      lifetime_(config.lifetime_window_cycles,
                config.lifetime_drop_threshold, hooks)
{
    if (config_.root_chunk_pages == 0)
        fatal("GpuMemoryManager: root_chunk_pages must be positive");
}

void
GpuMemoryManager::setCapacityPages(std::uint64_t pages)
{
    if (pages != 0 && pages < committed_) {
        fatal("GpuMemoryManager: cannot shrink capacity below the %llu "
              "committed frames",
              static_cast<unsigned long long>(committed_));
    }
    capacity_pages_ = pages;
    if (hooks_.audit)
        hooks_.audit->onCapacitySet(pages);
}

void
GpuMemoryManager::setTenantDirectory(const TenantDirectory *dir)
{
    if (committed_ != 0)
        fatal("GpuMemoryManager: setTenantDirectory after commits");
    dir_ = dir;
    const std::size_t n = dir ? dir->size() : 0;
    committed_by_.assign(n, 0);
    peak_committed_by_.assign(n, 0);
    caused_.assign(n, 0);
    suffered_.assign(n, 0);
    lifetime_sum_by_.assign(n, 0.0);
    lifetime_count_by_.assign(n, 0);
}

void
GpuMemoryManager::reserveFrame(TenantId tenant)
{
    if (!hasFreeFrame())
        panic("GpuMemoryManager: reserveFrame with no free frame");
    if (dir_ && tenant != kNoTenant && !hasFreeFrameFor(tenant))
        panic("GpuMemoryManager: reserveFrame exceeds tenant %u quota",
              static_cast<unsigned>(tenant));
    if (!unlimited())
        ++committed_;
    if (dir_ && tenant != kNoTenant) {
        ++committed_by_[tenant];
        if (committed_by_[tenant] > peak_committed_by_[tenant])
            peak_committed_by_[tenant] = committed_by_[tenant];
    }
    if (hooks_.audit)
        hooks_.audit->onFrameReserved(committed_, tenant);
}

GpuMemoryManager::ChunkMeta &
GpuMemoryManager::ensureChunk(std::uint64_t chunk)
{
    if (chunk >= chunks_.size()) {
        std::size_t want = static_cast<std::size_t>(chunk) + 1;
        if (want < chunks_.size() * 2)
            want = chunks_.size() * 2;
        chunks_.resize(want);
    }
    return chunks_[static_cast<std::size_t>(chunk)];
}

void
GpuMemoryManager::lruUnlink(std::uint32_t chunk)
{
    ChunkMeta &c = chunks_[chunk];
    if (c.prev != PageMeta::kNoIndex)
        chunks_[c.prev].next = c.next;
    else
        lru_head_ = c.next;
    if (c.next != PageMeta::kNoIndex)
        chunks_[c.next].prev = c.prev;
    else
        lru_tail_ = c.prev;
    c.prev = c.next = PageMeta::kNoIndex;
    c.in_list = false;
}

void
GpuMemoryManager::lruAppend(std::uint32_t chunk)
{
    ChunkMeta &c = chunks_[chunk];
    c.prev = lru_tail_;
    c.next = PageMeta::kNoIndex;
    if (lru_tail_ != PageMeta::kNoIndex)
        chunks_[lru_tail_].next = chunk;
    else
        lru_head_ = chunk;
    lru_tail_ = chunk;
    c.in_list = true;
}

void
GpuMemoryManager::commitPage(PageNum vpn, Cycle now)
{
    ++migrations_;
    if (hooks_.trace) {
        hooks_.trace->counter(
            TraceEventType::CommittedFrames, kTraceTrackMemory, now,
            committed_, static_cast<std::uint32_t>(capacity_pages_));
        if (dir_) {
            const TenantId owner = dir_->tenantOf(vpn);
            if (owner != kNoTenant) {
                hooks_.trace->counter(
                    TraceEventType::CommittedFrames,
                    traceTrackTenant(owner), now, committed_by_[owner],
                    static_cast<std::uint32_t>(
                        dir_->context(owner).quota_pages));
            }
        }
    }
    page_table_.map(vpn, vpn /* identity frames: timing-only model */);
    PageMeta &m = page_table_.meta().at(vpn);
    m.alloc_time = now;

    if (m.pending_refault > 0) {
        ++premature_;
        --m.pending_refault;
    }

    const std::uint64_t chunk = chunkOf(vpn);
    ChunkMeta &c = ensureChunk(chunk);
    // Append to the chunk's page FIFO (oldest allocation first).
    m.chunk_next = PageMeta::kNoIndex;
    if (c.page_tail != PageMeta::kNoIndex) {
        page_table_.meta().at(c.page_tail).chunk_next =
            static_cast<std::uint32_t>(vpn);
    } else {
        c.page_head = static_cast<std::uint32_t>(vpn);
    }
    c.page_tail = static_cast<std::uint32_t>(vpn);

    // Aged-based LRU: a chunk moves to the tail whenever any of its
    // sub-chunks is allocated (the driver's policy).
    const auto cid = static_cast<std::uint32_t>(chunk);
    if (c.in_list)
        lruUnlink(cid);
    lruAppend(cid);

    if (hooks_.audit)
        hooks_.audit->onPageCommitted(vpn, committed_);
}

PageNum
GpuMemoryManager::evictOldestPageOf(std::uint32_t chunk, Cycle now,
                                    TenantId cause)
{
    ChunkMeta &c = chunks_[chunk];
    if (c.page_head == PageMeta::kNoIndex)
        panic("GpuMemoryManager: LRU chunk with no pages");

    // Evict the chunk's pages one call at a time (oldest allocation
    // first); the chunk leaves the LRU list when it empties.
    const PageNum victim = c.page_head;
    PageMeta &m = page_table_.meta().at(victim);
    c.page_head = m.chunk_next;
    m.chunk_next = PageMeta::kNoIndex;
    if (c.page_head == PageMeta::kNoIndex) {
        c.page_tail = PageMeta::kNoIndex;
        lruUnlink(chunk);
    }

    page_table_.unmap(victim);
    ++evictions_;
    ++m.pending_refault;

    BAUVM_DLOG("GpuMemoryManager: evict vpn %llu after %llu cycles "
               "(%llu/%llu frames committed)",
               static_cast<unsigned long long>(victim),
               static_cast<unsigned long long>(now - m.alloc_time),
               static_cast<unsigned long long>(committed_),
               static_cast<unsigned long long>(capacity_pages_));
    lifetime_.addLifetime(now - m.alloc_time);

    if (dir_) {
        const TenantId owner = dir_->tenantOf(victim);
        if (owner != kNoTenant) {
            ++suffered_[owner];
            lifetime_sum_by_[owner] +=
                static_cast<double>(now - m.alloc_time);
            ++lifetime_count_by_[owner];
        }
        if (cause != kNoTenant)
            ++caused_[cause];
    }

    if (hooks_.audit)
        hooks_.audit->onEvictionBegin(victim, committed_);

    return victim;
}

bool
GpuMemoryManager::beginEviction(PageNum *vpn, Cycle now)
{
    if (lru_head_ == PageMeta::kNoIndex)
        return false;
    *vpn = evictOldestPageOf(lru_head_, now, kNoTenant);
    return true;
}

std::uint32_t
GpuMemoryManager::firstChunkOf(TenantId tenant) const
{
    for (std::uint32_t c = lru_head_; c != PageMeta::kNoIndex;
         c = chunks_[c].next) {
        if (chunkOwner(c) == tenant)
            return c;
    }
    return PageMeta::kNoIndex;
}

bool
GpuMemoryManager::beginEvictionFor(TenantId cause, PageNum *vpn,
                                   Cycle now)
{
    if (lru_head_ == PageMeta::kNoIndex)
        return false;
    if (dir_ == nullptr)
        return beginEviction(vpn, now);

    std::uint32_t chunk = PageMeta::kNoIndex;
    switch (dir_->policy()) {
      case SharePolicy::FreeForAll:
        break; // global LRU head below
      case SharePolicy::StrictQuota:
        // The needy tenant pays for its own frame; it can never
        // displace another tenant's pages. When none of its pages is
        // evictable right now (all still in flight), report failure
        // and let the runtime wait for the arrivals instead of
        // falling back to another tenant's chunk.
        if (cause != kNoTenant) {
            chunk = firstChunkOf(cause);
            if (chunk == PageMeta::kNoIndex)
                return false;
        }
        break;
      case SharePolicy::Proportional: {
        // Victimize the tenant furthest above its weighted fair
        // share of committed frames (ties break to the lowest id).
        TenantId target = kNoTenant;
        double worst = 0.0;
        for (std::size_t t = 0; t < committed_by_.size(); ++t) {
            if (committed_by_[t] == 0)
                continue;
            const double w = dir_->context(
                                     static_cast<TenantId>(t))
                                 .weight;
            const double over =
                static_cast<double>(committed_by_[t]) /
                (w > 0.0 ? w : 1.0);
            if (target == kNoTenant || over > worst) {
                target = static_cast<TenantId>(t);
                worst = over;
            }
        }
        if (target != kNoTenant)
            chunk = firstChunkOf(target);
        break;
      }
    }
    if (chunk == PageMeta::kNoIndex)
        chunk = lru_head_; // fall back to the global aged-LRU head
    *vpn = evictOldestPageOf(chunk, now, cause);
    return true;
}

void
GpuMemoryManager::completeEviction(PageNum vpn)
{
    if (!unlimited()) {
        if (committed_ == 0)
            panic("GpuMemoryManager: completeEviction underflow");
        --committed_;
    }
    if (dir_) {
        const TenantId owner = dir_->tenantOf(vpn);
        if (owner != kNoTenant) {
            if (committed_by_[owner] == 0)
                panic("GpuMemoryManager: tenant %u frame underflow",
                      static_cast<unsigned>(owner));
            --committed_by_[owner];
        }
    }
    if (hooks_.audit)
        hooks_.audit->onEvictionComplete(vpn, committed_);
}

} // namespace bauvm

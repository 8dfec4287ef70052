#include "src/mem/page_table_walker.h"

#include "src/sim/log.h"

namespace bauvm
{

PageTableWalker::PageTableWalker(const MemConfig &config)
    : config_(config), pwc_(config.walk_cache_entries)
{
    if (config.walker_threads == 0)
        fatal("PageTableWalker: walker_threads must be at least 1");
    busy_.reserve(config.walker_threads);
}

Cycle
PageTableWalker::walkLatency(PageNum vpn)
{
    Cycle latency = 0;
    // Levels are numbered with the root highest; the leaf PTE (level 1)
    // is never cached in the walk cache and always costs a memory access.
    for (std::uint32_t level = config_.page_table_levels; level >= 2;
         --level) {
        if (pwc_.lookup(level, vpn)) {
            latency += config_.walk_cache_latency;
        } else {
            latency += config_.dram_latency;
            pwc_.insert(level, vpn);
        }
    }
    latency += config_.dram_latency; // leaf PTE fetch
    return latency;
}

Cycle
PageTableWalker::walk(PageNum vpn, Cycle start)
{
    ++walks_;
    // Reclaim thread slots that have finished by the request time.
    while (!busy_.empty() && busy_.top() <= start)
        busy_.pop();

    Cycle begin = start;
    if (busy_.size() >= config_.walker_threads) {
        // All walk threads busy: wait for the earliest to retire.
        begin = busy_.top();
        busy_.pop();
        queueing_cycles_ += begin - start;
    }
    const Cycle done = begin + walkLatency(vpn);
    busy_.push(done);
    return done;
}

} // namespace bauvm

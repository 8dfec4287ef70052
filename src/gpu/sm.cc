#include "src/gpu/sm.h"

#include <algorithm>

#include "src/sim/log.h"

namespace bauvm
{

Sm::Sm(std::uint32_t id, const GpuConfig &config, EventQueue &events,
       MemoryHierarchy &hierarchy, UvmRuntime &runtime,
       SmListener *listener, const SimHooks &hooks)
    : id_(id), track_(traceTrackSm(id)), config_(config),
      events_(events), hierarchy_(hierarchy), runtime_(runtime),
      listener_(listener), coalescer_(128 /* L1 line */), hooks_(hooks)
{
}

std::uint32_t
Sm::addBlock(const KernelInfo *kernel, std::uint32_t block_id,
                 bool active)
{
    // Recycle a retired slot if one exists.
    std::uint32_t slot = static_cast<std::uint32_t>(blocks_.size());
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        if (!blocks_[i].in_use || blocks_[i].finished) {
            slot = i;
            break;
        }
    }
    if (slot == blocks_.size())
        blocks_.emplace_back();

    Block &b = blocks_[slot];
    b = Block{};
    b.in_use = true;
    b.kernel = kernel;
    b.block_id = block_id;
    b.active = active;

    const std::uint32_t warps = kernel->warpsPerBlock(config_.warp_size);
    b.warps.resize(warps);
    for (std::uint32_t w = 0; w < warps; ++w) {
        WarpCtx ctx;
        ctx.block_id = block_id;
        ctx.warp_in_block = w;
        ctx.warp_size = config_.warp_size;
        ctx.threads_per_block = kernel->threads_per_block;
        ctx.num_blocks = kernel->num_blocks;
        b.warps[w].ctx = ctx;
        b.warps[w].prog = kernel->make_program(ctx);
        b.warps[w].st = WarpStatus::Ready;
    }
    if (hooks_.trace) {
        hooks_.trace->instant(TraceEventType::BlockDispatch,
                              track_, events_.now(),
                              block_id, active ? 1 : 0);
    }
    traceOccupancy();
    if (active) {
        for (std::uint32_t w = 0; w < warps; ++w)
            enqueueReady(slot, w);
    }
    return slot;
}

void
Sm::activateBlock(std::uint32_t slot, Cycle delay)
{
    Block &b = blocks_[slot];
    if (b.active || b.activating || b.finished)
        panic("Sm: bad activateBlock state");
    b.activating = true;
    if (hooks_.trace) {
        hooks_.trace->interval(TraceEventType::CtxSwitchIn,
                               track_, events_.now(),
                               events_.now() + delay, b.block_id, slot);
    }
    events_.scheduleAfter(delay, [this, slot] {
        Block &blk = blocks_[slot];
        blk.activating = false;
        blk.active = true;
        traceOccupancy();
        for (std::uint32_t w = 0; w < blk.warps.size(); ++w) {
            if (blk.warps[w].st == WarpStatus::Ready)
                enqueueReady(slot, w);
        }
        // The switched-in block may already be fully stalled (e.g. its
        // faults were re-raised while inactive); re-check so the
        // controller can switch again if needed.
        checkBlockStalled(slot);
    });
}

void
Sm::deactivateBlock(std::uint32_t slot)
{
    Block &b = blocks_[slot];
    if (!b.active)
        panic("Sm: deactivating inactive block");
    b.active = false;
    if (hooks_.trace) {
        hooks_.trace->instant(TraceEventType::CtxSwitchOut,
                              track_, events_.now(),
                              b.block_id, slot);
    }
    traceOccupancy();
}

std::size_t
Sm::residentBlocks() const
{
    std::size_t n = 0;
    for (const auto &b : blocks_)
        n += (b.in_use && !b.finished) ? 1 : 0;
    return n;
}

std::size_t
Sm::activeBlocks() const
{
    std::size_t n = 0;
    for (const auto &b : blocks_)
        n += (b.in_use && !b.finished && (b.active || b.activating)) ? 1
                                                                     : 0;
    return n;
}

bool
Sm::blockActive(std::uint32_t slot) const
{
    return blocks_[slot].active;
}

bool
Sm::blockFinished(std::uint32_t slot) const
{
    return blocks_[slot].finished;
}

bool
Sm::blockStarted(std::uint32_t slot) const
{
    return blocks_[slot].started;
}

bool
Sm::switchInCandidate(std::uint32_t slot) const
{
    const Block &b = blocks_[slot];
    if (!b.in_use || b.active || b.activating || b.finished)
        return false;
    for (const auto &w : b.warps) {
        if (w.st == WarpStatus::Ready)
            return true;
    }
    return false;
}

bool
Sm::blockFullyStalled(std::uint32_t slot) const
{
    const Block &b = blocks_[slot];
    if (!b.in_use || b.finished || b.liveWarps() == 0)
        return false;
    for (const auto &w : b.warps) {
        switch (w.st) {
          case WarpStatus::Done:
          case WarpStatus::WaitFault:
            break;
          case WarpStatus::WaitOp:
            // Memory waits count as stalls only in the Fig 5
            // "traditional GPU" mode; compute waits never do.
            if (!switch_on_memory_stall_ || !w.waiting_mem)
                return false;
            break;
          default:
            return false;
        }
    }
    return true;
}

std::vector<std::uint32_t>
Sm::inactiveBlockSlots() const
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        const Block &b = blocks_[i];
        if (b.in_use && !b.finished && !b.active && !b.activating)
            out.push_back(i);
    }
    return out;
}

int
Sm::firstFullyStalledActiveBlock() const
{
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        const Block &b = blocks_[i];
        if (b.in_use && !b.finished && b.active && blockFullyStalled(i))
            return static_cast<int>(i);
    }
    return -1;
}

void
Sm::enqueueReady(std::uint32_t slot, std::uint32_t warp)
{
    blocks_[slot].warps[warp].st = WarpStatus::Ready;
    ready_queue_.emplace_back(slot, warp);
    schedulePump();
}

void
Sm::schedulePump()
{
    if (pump_scheduled_)
        return;
    pump_scheduled_ = true;
    const Cycle when = std::max(events_.now(), issue_free_);
    events_.scheduleAt(when, [this] {
        pump_scheduled_ = false;
        pump();
    });
}

void
Sm::traceOccupancy()
{
    if (!hooks_.trace)
        return;
    hooks_.trace->counter(TraceEventType::SmOccupancy,
                          track_, events_.now(),
                          activeBlocks(),
                          static_cast<std::uint32_t>(residentBlocks()));
}

void
Sm::checkBlockStalled(std::uint32_t slot)
{
    Block &b = blocks_[slot];
    if (!b.active || b.finished || !listener_)
        return;
    if (blockFullyStalled(slot))
        listener_->onBlockStalled(id_, slot);
}

void
Sm::pump()
{
    while (!ready_queue_.empty()) {
        auto [slot, warp] = ready_queue_.front();
        ready_queue_.pop_front();
        Block &b = blocks_[slot];
        if (!b.in_use || b.finished)
            continue;
        WarpState &ws = b.warps[warp];
        if (ws.st != WarpStatus::Ready)
            continue; // stale entry
        if (!b.active)
            continue; // re-enqueued when the block is switched back in
        const Cycle issue = std::max(events_.now(), issue_free_);
        issue_free_ = issue + 1; // one instruction per cycle
        processOp(slot, warp, issue);
    }
}

void
Sm::processOp(std::uint32_t slot, std::uint32_t warp, Cycle issue)
{
    Block &b = blocks_[slot];
    WarpState &ws = b.warps[warp];
    b.started = true;
    ++issued_;

    if (!ws.fetched) {
        ws.fetched = true;
        if (!ws.prog.advance()) {
            finishWarp(slot, warp);
            return;
        }
    }

    if (ws.replay_done) {
        // The op's faults resolved while the block was switched out;
        // the replayed access completed at migration time. Finish the
        // op now.
        ws.replay_done = false;
        ws.st = WarpStatus::WaitOp;
        ws.waiting_mem = true;
        events_.scheduleAt(issue + 1, [this, slot, warp] {
            onOpComplete(slot, warp);
        });
        return;
    }

    const WarpOp &op = ws.prog.current();
    switch (op.kind) {
      case WarpOp::Kind::Compute: {
        ws.st = WarpStatus::WaitOp;
        ws.waiting_mem = false;
        const Cycle c = op.cycles == 0 ? 1 : op.cycles;
        events_.scheduleAt(issue + c, [this, slot, warp] {
            onOpComplete(slot, warp);
        });
        break;
      }
      case WarpOp::Kind::Sync: {
        ws.st = WarpStatus::WaitBarrier;
        ++b.barrier_waiting;
        maybeReleaseBarrier(slot);
        break;
      }
      default:
        execMemoryOp(slot, warp, op, issue);
        break;
    }
}

void
Sm::execMemoryOp(std::uint32_t slot, std::uint32_t warp,
                     const WarpOp &op, Cycle issue)
{
    Block &b = blocks_[slot];
    WarpState &ws = b.warps[warp];
    const bool write = op.kind != WarpOp::Kind::Load;

    coalescer_.coalesceInto(op.addrs.data(), op.addrs.size(),
                            &line_scratch_);
    // Lines are ascending, so faulting pages come out nondecreasing:
    // deduplicating needs only a tail compare, and the pages are
    // registered with the runtime in ascending order.
    fault_page_scratch_.clear();
    Cycle done = issue + 1 + config_.mem_op_overhead_cycles;
    for (VAddr line : line_scratch_) {
        const MemResult r = hierarchy_.access(id_, line, write, issue);
        if (r.fault) {
            if (fault_page_scratch_.empty() ||
                fault_page_scratch_.back() != r.vpn)
                fault_page_scratch_.push_back(r.vpn);
        } else {
            done = std::max(done, r.done);
        }
    }

    if (op.kind == WarpOp::Kind::Atomic)
        done += hierarchy_.atomicLatency();

    if (fault_page_scratch_.empty()) {
        ws.st = WarpStatus::WaitOp;
        ws.waiting_mem = true;
        events_.scheduleAt(done, [this, slot, warp] {
            onOpComplete(slot, warp);
        });
        if (switch_on_memory_stall_)
            checkBlockStalled(slot);
        return;
    }

    // The warp suspends until every faulted page is resident, then
    // replays the whole instruction.
    ws.st = WarpStatus::WaitFault;
    ws.waiting_mem = false;
    ws.pending_faults =
        static_cast<std::uint32_t>(fault_page_scratch_.size());
    faults_raised_ += fault_page_scratch_.size();
    BAUVM_DLOG("Sm %u: warp %u of block %u faults on %zu pages at "
               "cycle %llu",
               id_, warp, b.block_id, fault_page_scratch_.size(),
               static_cast<unsigned long long>(issue));
    for (PageNum vpn : fault_page_scratch_) {
        if (hooks_.trace) {
            hooks_.trace->instant(TraceEventType::PageFault,
                                  track_, issue, vpn, warp);
        }
        runtime_.onPageFault(vpn, [this, slot, warp](Cycle) {
            onFaultResolved(slot, warp);
        });
    }
    checkBlockStalled(slot);
}

void
Sm::onOpComplete(std::uint32_t slot, std::uint32_t warp)
{
    Block &b = blocks_[slot];
    WarpState &ws = b.warps[warp];
    if (!ws.prog.advance()) {
        finishWarp(slot, warp);
        return;
    }
    ws.st = WarpStatus::Ready;
    if (b.active)
        enqueueReady(slot, warp);
    else if (listener_)
        listener_->onInactiveWarpReady(id_, slot);
}

void
Sm::onFaultResolved(std::uint32_t slot, std::uint32_t warp)
{
    Block &b = blocks_[slot];
    WarpState &ws = b.warps[warp];
    if (ws.st != WarpStatus::WaitFault || ws.pending_faults == 0)
        panic("Sm: fault wake for a warp not waiting on faults");
    if (--ws.pending_faults != 0)
        return;
    // Every faulted page of the op has now been migrated at least
    // once; the hardware replays each access as its page arrives, so
    // the op completes here — requiring all pages to be resident
    // *simultaneously* at a full re-execution would livelock tiny
    // capacities.
    if (b.active) {
        ws.st = WarpStatus::WaitOp;
        ws.waiting_mem = true;
        const Cycle replay = hierarchy_.l1Cache(id_).hitLatency();
        events_.scheduleAfter(replay, [this, slot, warp] {
            onOpComplete(slot, warp);
        });
        return;
    }
    ws.st = WarpStatus::Ready;
    ws.replay_done = true;
    if (listener_)
        listener_->onInactiveWarpReady(id_, slot);
}

void
Sm::finishWarp(std::uint32_t slot, std::uint32_t warp)
{
    Block &b = blocks_[slot];
    WarpState &ws = b.warps[warp];
    ws.st = WarpStatus::Done;
    ws.prog = WarpProgram{}; // release the coroutine frame
    ++b.done_warps;
    if (b.liveWarps() == 0) {
        b.finished = true;
        b.active = false;
        if (hooks_.trace) {
            hooks_.trace->instant(TraceEventType::BlockFinish,
                                  track_, events_.now(),
                                  b.block_id, slot);
        }
        traceOccupancy();
        if (listener_)
            listener_->onBlockFinished(id_, slot);
        return;
    }
    maybeReleaseBarrier(slot);
}

void
Sm::maybeReleaseBarrier(std::uint32_t slot)
{
    Block &b = blocks_[slot];
    if (b.barrier_waiting == 0 || b.barrier_waiting < b.liveWarps())
        return;
    b.barrier_waiting = 0;
    for (std::uint32_t w = 0; w < b.warps.size(); ++w) {
        WarpState &ws = b.warps[w];
        if (ws.st == WarpStatus::WaitBarrier) {
            ws.st = WarpStatus::WaitOp;
            events_.scheduleAfter(1, [this, slot, w] {
                onOpComplete(slot, w);
            });
        }
    }
}

} // namespace bauvm

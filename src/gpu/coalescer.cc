#include "src/gpu/coalescer.h"

#include "src/sim/log.h"

namespace bauvm
{

Coalescer::Coalescer(std::uint32_t line_bytes) : line_bytes_(line_bytes)
{
    if (line_bytes == 0)
        fatal("Coalescer: zero line size");
    line_pow2_ = (line_bytes & (line_bytes - 1)) == 0;
    line_mask_ = ~static_cast<VAddr>(line_bytes - 1);
}

std::vector<VAddr>
Coalescer::coalesce(const std::vector<VAddr> &lane_addrs)
{
    std::vector<VAddr> lines;
    coalesceInto(lane_addrs.data(), lane_addrs.size(), &lines);
    return lines;
}

void
Coalescer::coalesceInto(const VAddr *lane_addrs, std::size_t n,
                        std::vector<VAddr> *out)
{
    ++instructions_;
    std::vector<VAddr> &lines = *out;
    lines.clear();
    lines.reserve(n);
    // Optimistic single pass: lane addresses are usually already
    // line-ascending (unit-stride and most gather patterns), so the
    // masked lines dedup against the running tail with no sort and no
    // second scan. The first out-of-order line falls back to the
    // general mask-everything/sort/unique path, which produces the
    // same ascending unique set.
    std::size_t i = 0;
    for (; i < n; ++i) {
        const VAddr a = lane_addrs[i];
        const VAddr base =
            line_pow2_ ? a & line_mask_ : a - a % line_bytes_;
        if (lines.empty() || base > lines.back())
            lines.push_back(base);
        else if (base != lines.back())
            break;
    }
    if (i < n) {
        for (; i < n; ++i) {
            const VAddr a = lane_addrs[i];
            lines.push_back(line_pow2_ ? a & line_mask_
                                       : a - a % line_bytes_);
        }
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()),
                    lines.end());
    }
    transactions_ += lines.size();
}

} // namespace bauvm

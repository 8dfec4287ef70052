/**
 * @file
 * The host's worker count, which `--jobs 0` and perfbench's fig11
 * workload resolve to. Sweeps run their cells through runUnits()
 * (src/runner/parallel_units.h); this class keeps only the count.
 */

#ifndef BAUVM_RUNNER_THREAD_POOL_H_
#define BAUVM_RUNNER_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <thread>

namespace bauvm
{

class ThreadPool
{
  public:
    /** hardware_concurrency with a sane fallback of 1. */
    static std::size_t
    hardwareJobs()
    {
        return std::max(1u, std::thread::hardware_concurrency());
    }
};

} // namespace bauvm

#endif // BAUVM_RUNNER_THREAD_POOL_H_

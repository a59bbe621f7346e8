/**
 * @file
 * Profiling pass (stands in for the paper's IMPACT profiling run).
 *
 * Executes a loop's memory reference streams on a functional model
 * of the target cache geometry using the PROFILE data set, and
 * derives per-instruction hit rate, per-cluster access counts,
 * preferred cluster, concentration ("distribution") and the local
 * ratio the latency assigner consumes.
 */

#ifndef WIVLIW_WORKLOADS_PROFILER_HH
#define WIVLIW_WORKLOADS_PROFILER_HH

#include "ddg/ddg.hh"
#include "ddg/profile_map.hh"
#include "machine/machine_config.hh"
#include "workloads/address_gen.hh"

namespace vliw {

/** Profiling controls. */
struct ProfileOptions
{
    /** Cap on profiled iterations per invocation (0 = all). */
    std::int64_t maxIterations = 0;

    bool operator==(const ProfileOptions &) const = default;
};

/**
 * Profile one (possibly unrolled) loop.
 *
 * @param ddg         the loop body to profile
 * @param resolver    addresses bound to the PROFILE data set
 * @param iterations  kernel iterations per invocation
 * @param invocations invocations to run (cache state persists)
 * @param cfg         cache geometry and cluster mapping
 */
ProfileMap profileLoop(const Ddg &ddg, AddressResolver &resolver,
                       std::int64_t iterations, int invocations,
                       const MachineConfig &cfg,
                       const ProfileOptions &opts = {});

} // namespace vliw

#endif // WIVLIW_WORKLOADS_PROFILER_HH

/**
 * @file
 * The four workloads. Each runs set-up (timed several times for
 * setup_s), the output checks, untimed warm-up, then untraced timed
 * passes for the end-to-end metrics; a traced run adds traced passes
 * for the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "common.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** The wivliw_serve binary serve-mixed drives. */
    std::string serveBin;
    /** Where traces, sockets and scratch files go. */
    std::string outDir;
    /** Worker threads of the parallel workloads: min(4, nproc). */
    int jobs = 1;
};

RunOutput runPaperGrid(const Options &opts);
RunOutput runSynthGap(const Options &opts);
RunOutput runServeMixed(const Options &opts);

/** Set-up repetitions behind the setup_s median. */
constexpr int kSetupReps = 5;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

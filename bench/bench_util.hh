/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: config
 * construction, suite execution and common derived metrics. Every
 * binary in bench/ regenerates one table or figure of the paper and
 * prints the same rows/series the paper reports.
 */

#ifndef WIVLIW_BENCH_BENCH_UTIL_HH
#define WIVLIW_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hh"
#include "core/toolchain.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace vliw::bench {

/** Toolchain options for one experiment arm. */
inline ToolchainOptions
makeOpts(Heuristic h, UnrollPolicy unroll = UnrollPolicy::Selective,
         bool aligned = true, bool chains = true)
{
    ToolchainOptions opts;
    opts.heuristic = h;
    opts.unroll = unroll;
    opts.varAlignment = aligned;
    opts.memChains = chains;
    return opts;
}

/**
 * The shared session behind every harness in bench/: one worker
 * pool sized to the machine and one compile cache that persists
 * across experiment arms, so e.g. the interleaved and
 * interleaved-ab arms of one figure compile the suite once.
 * Results are bit-identical to the serial Toolchain loop.
 */
inline api::Session &
sharedSession()
{
    static api::Session session{api::SessionOptions{
        .jobs = int(std::max(1u, std::thread::hardware_concurrency()))}};
    return session;
}

/**
 * The whole Mediabench-like suite under one built-in architecture
 * and one scheduler, unroll policy, alignment and chains setting,
 * all named as in the session's registries.
 */
inline api::SweepRequest
suiteSweep(const std::string &arch, const std::string &scheduler,
           const std::string &unroll = "selective", bool aligned = true,
           bool chains = true)
{
    api::SweepRequest req;
    req.workloads = mediabenchNames();
    req.archs = {arch};
    req.schedulers = {scheduler};
    req.unrolls = {unroll};
    req.alignment = {aligned};
    req.chains = {chains};
    return req;
}

/** The primary-data-set runs of a finished suite sweep. */
inline std::vector<BenchmarkRun>
suiteRuns(api::Result<api::SweepResult> result)
{
    vliw_assert(result.ok(), result.status().toString());
    std::vector<BenchmarkRun> runs;
    for (engine::ExperimentResult &r : result.value().experiments) {
        vliw_assert(!r.failed(), r.spec.label(), ": ", r.error);
        runs.push_back(std::move(r.datasetRuns.front()));
    }
    return runs;
}

/** Run the suite under one configuration (see suiteSweep()). */
inline std::vector<BenchmarkRun>
runSuite(const std::string &arch, const std::string &scheduler,
         const std::string &unroll = "selective", bool aligned = true,
         bool chains = true)
{
    return suiteRuns(sharedSession().sweep(
        suiteSweep(arch, scheduler, unroll, aligned, chains)));
}

/** Fraction of accesses in @p cls. */
inline double
classShare(const SimStats &s, AccessClass cls)
{
    const double total = double(s.memAccesses);
    return total == 0.0
        ? 0.0
        : double(s.accessesByClass[std::size_t(cls)]) / total;
}

/** Stall share attributed to @p cls. */
inline double
stallShare(const SimStats &s, AccessClass cls)
{
    Cycles total = 0;
    for (Cycles c : s.stallByClass)
        total += c;
    return total == 0
        ? 0.0
        : double(s.stallByClass[std::size_t(cls)]) / double(total);
}

inline Cycles
suiteCycles(const std::vector<BenchmarkRun> &runs)
{
    Cycles total = 0;
    for (const BenchmarkRun &r : runs)
        total += r.total.totalCycles;
    return total;
}

inline Cycles
suiteStall(const std::vector<BenchmarkRun> &runs)
{
    Cycles total = 0;
    for (const BenchmarkRun &r : runs)
        total += r.total.stallCycles;
    return total;
}

} // namespace vliw::bench

#endif // WIVLIW_BENCH_BENCH_UTIL_HH

/**
 * @file
 * Clustered modulo scheduler (paper Sections 4.2 and 4.3.1 step 4).
 *
 * Cluster assignment and cycle selection happen in one pass over the
 * SMS node order, with no backtracking: when any node cannot be
 * placed the II is increased and everything restarts. Non-memory
 * instructions pick the cluster that minimises register-to-register
 * communication and balances the workload (BASE). Memory
 * instructions follow the selected heuristic:
 *
 *  - BASE and IBC (Interleaved Build Chains): like any other
 *    instruction. They differ only by the memory dependent chains
 *    flag (SchedulerOptions::useChains), which the cache
 *    organisation sets, not the heuristic: on an interleaved or
 *    multiVLIW cache chains are needed for correctness, so each
 *    chain is pinned to the cluster its first-scheduled member
 *    lands in (IBC); on the unified cache they are off (BASE).
 *    Either name therefore compiles the same schedule.
 *  - IPBC (Interleaved Pre-Build Chains): chains are pre-assigned to
 *    their average preferred cluster (profile-weighted) and memory
 *    instructions try that cluster first.
 */

#ifndef WIVLIW_SCHED_SCHEDULER_HH
#define WIVLIW_SCHED_SCHEDULER_HH

#include <atomic>
#include <optional>

#include "ddg/chains.hh"
#include "ddg/circuits.hh"
#include "ddg/ddg.hh"
#include "ddg/profile_map.hh"
#include "machine/machine_config.hh"
#include "sched/schedule.hh"

namespace vliw {

class SchedWorkspace;

/** Memory-instruction cluster-assignment heuristic. */
enum class Heuristic { Base, Ibc, Ipbc };

const char *heuristicName(Heuristic h);

/**
 * The heuristic as the compiler reads it: Ipbc, or Base for both
 * BASE and IBC. scheduleLoop() tests the heuristic only as
 * `== Heuristic::Ipbc` (the preferred-cluster placement and the
 * chain pre-assignment in scheduler.cc), and chains are switched on
 * by the cache organisation (Toolchain::chainsEnabled()), so two
 * cells whose heuristics map to one class compile identically.
 */
inline Heuristic
compiledHeuristic(Heuristic h)
{
    return h == Heuristic::Ipbc ? Heuristic::Ipbc : Heuristic::Base;
}

/** Knobs of one scheduling run. */
struct SchedulerOptions
{
    Heuristic heuristic = Heuristic::Base;
    /** Enforce memory dependent chains (interleaved correctness). */
    bool useChains = true;
    /** Reject schedules whose MaxLive exceeds the register file. */
    bool checkRegPressure = true;
    /** Give up after this many II increases. */
    int maxIiTries = 64;
    /**
     * Cooperative cancellation flag, checked between II attempts
     * (the natural escape hatch of the retry loop: a denied
     * placement already restarts there). When observed set the
     * scheduler throws CancelledError instead of burning the rest
     * of its II budget. Null disables the check.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** Outcome of scheduleLoop(). */
struct ScheduleOutcome
{
    Schedule schedule;
    /** IIs tried until success. */
    int attempts = 1;
    /** Chain index -> cluster (for diagnostics). */
    std::vector<int> chainClusters;
};

/**
 * Modulo-schedule @p ddg starting at @p mii.
 *
 * @param ddg      (unrolled) loop body
 * @param circuits its elementary circuits
 * @param lat      assigned latencies (latency_assign.hh)
 * @param prof     profile data (for IPBC preferred clusters)
 * @param cfg      machine description
 * @param mii      lower bound for the II search
 * @param opts     heuristic and policy knobs
 * @return the schedule, or std::nullopt if maxIiTries was exhausted
 *
 * All scratch state lives in a per-thread SchedWorkspace
 * (sched_workspace.hh), so repeated calls on one thread reuse warm
 * buffers; the II search computes every II-invariant analysis
 * (RegFlow adjacency, recurrence IIs, SMS priority sets) once and
 * only re-runs ordering and placement per retry.
 */
std::optional<ScheduleOutcome>
scheduleLoop(const Ddg &ddg, const std::vector<Circuit> &circuits,
             const LatencyMap &lat, const ProfileMap &prof,
             const MachineConfig &cfg, int mii,
             const SchedulerOptions &opts);

/** As above with an explicit (caller-owned) workspace. */
std::optional<ScheduleOutcome>
scheduleLoop(const Ddg &ddg, const std::vector<Circuit> &circuits,
             const LatencyMap &lat, const ProfileMap &prof,
             const MachineConfig &cfg, int mii,
             const SchedulerOptions &opts, SchedWorkspace &ws);

/**
 * Pre-compute IPBC chain targets: for every chain the cluster with
 * the highest profile-weighted access count over all members.
 * Every profiled node's cluster histogram must be empty or exactly
 * @p num_clusters wide.
 */
std::vector<int> ipbcChainTargets(const MemChains &chains,
                                  const ProfileMap &prof,
                                  int num_clusters);

} // namespace vliw

#endif // WIVLIW_SCHED_SCHEDULER_HH

/**
 * @file
 * Unrolling policies (paper Section 4.3.1 step 1): no unrolling,
 * unroll x N, OUF (optimal unrolling factor), and selective (pick
 * whichever of the three minimises estimated execution time).
 *
 * The OUF of a loop makes every analysable memory instruction's
 * stride a multiple of N x I so it touches a single cluster:
 *   U_i = (N*I) / gcd(N*I, S_i mod N*I),   UF = lcm_i(U_i) <= N*I.
 * Instructions with unknown stride, zero profiled hit rate, or
 * granularity above the interleaving factor are excluded.
 */

#ifndef WIVLIW_SCHED_UNROLL_POLICY_HH
#define WIVLIW_SCHED_UNROLL_POLICY_HH

#include "ddg/ddg.hh"
#include "ddg/profile_map.hh"
#include "machine/machine_config.hh"

namespace vliw {

/** Which unrolling rule the toolchain applies. */
enum class UnrollPolicy { None, TimesN, Ouf, Selective };

const char *unrollPolicyName(UnrollPolicy policy);

/** Per-instruction unrolling factor U_i (1 if not analysable). */
int individualUnrollFactor(const MemAccessInfo &info,
                           const MemProfile &prof,
                           const MachineConfig &cfg);

/** The loop's OUF (lcm of the U_i, bounded by N x I). */
int computeOuf(const Ddg &ddg, const ProfileMap &prof,
               const MachineConfig &cfg);

/**
 * Estimated execution time of a modulo-scheduled loop (paper
 * Section 4.3.1): (max(1, avg_iters / U) + SC - 1) * II.
 *
 * Since SC >= 1 and II >= MII, estimateTexec(avg_iters, U, 1, MII)
 * bounds a candidate's estimate from below before it is scheduled.
 * Selective unrolling schedules its candidates in bound order and
 * skips one whose bound exceeds the best estimate so far, or equals
 * it when the candidate comes later in none/xN/OUF order (the first
 * minimum wins ties). A skipped candidate never runs the scheduler,
 * so exhausting its II budget cannot fail the loop.
 */
double estimateTexec(double avg_iterations, int unroll_factor,
                     int stage_count, int ii);

} // namespace vliw

#endif // WIVLIW_SCHED_UNROLL_POLICY_HH

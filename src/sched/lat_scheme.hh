/**
 * @file
 * Latency classes a memory instruction can be scheduled with.
 *
 * The interleaved cache has four classes (local/remote x hit/miss,
 * Section 4.3.1 step 2); the unified cache and the multiVLIW use the
 * classic two (hit/miss). The scheme also evaluates the probability
 * that a dynamic access falls into each class, and from that the
 * expected stall time of scheduling an instruction with a given
 * latency -- the denominator of the paper's benefit function.
 */

#ifndef WIVLIW_SCHED_LAT_SCHEME_HH
#define WIVLIW_SCHED_LAT_SCHEME_HH

#include <array>
#include <string>
#include <vector>

#include "ddg/mem_info.hh"
#include "machine/machine_config.hh"

namespace vliw {

/** Index into LatencyScheme::classLatency, ascending latencies. */
using LatClass = int;

/** Ordered set of assignable latencies plus the stall estimator. */
class LatencyScheme
{
  public:
    /** Four classes: LH < RH < LM < RM (interleaved cache). */
    static LatencyScheme fourClass(const MachineConfig &cfg);

    /** Two classes: hit < miss (unified cache). */
    static LatencyScheme twoClassUnified(const MachineConfig &cfg);

    /** Two classes: hit < miss (multiVLIW private caches). */
    static LatencyScheme twoClassCoherent(const MachineConfig &cfg);

    int numClasses() const { return int(latencies_.size()); }
    int classLatency(LatClass cls) const;
    const std::string &className(LatClass cls) const;

    LatClass worstClass() const { return numClasses() - 1; }
    LatClass bestClass() const { return 0; }

    /** Most classes a scheme has (the four-class one). */
    static constexpr int kMaxClasses = 4;

    /**
     * Probability that one dynamic execution of an instruction with
     * profile @p prof falls into each class. Four-class schemes use
     * hit rate x local ratio; two-class schemes use the hit rate.
     * Entries from numClasses() on are zero.
     */
    std::array<double, kMaxClasses>
    classProbabilities(const MemProfile &prof) const;

    /**
     * Expected stall cycles per execution when the instruction is
     * scheduled with latency @p scheduled_lat:
     * sum_t p_t * max(0, latency_t - scheduled_lat).
     *
     * The paper omits its exact formula "due to lack of space"; this
     * reconstruction reproduces the Section 4.3.3 worked example
     * (see DESIGN.md section 3).
     */
    double expectedStall(const MemProfile &prof,
                         int scheduled_lat) const;

  private:
    LatencyScheme(std::vector<int> lats, std::vector<std::string> names,
                  bool four_class);

    std::vector<int> latencies_;
    std::vector<std::string> names_;
    bool fourClass_;
};

} // namespace vliw

#endif // WIVLIW_SCHED_LAT_SCHEME_HH

/**
 * @file
 * Seeded generator of `.wvl` loop kernels for the synth-gap and
 * serve-mixed workloads.
 *
 * The kernels are stratified: kernel i of n always gets the same
 * size class (16 to 96 operations), recurrence count (1 to 3) and
 * symbol-size ladder (1 KiB to 1 MiB against the 8 KiB L1); the seed
 * only draws the operation mix, the dependence wiring and the
 * address patterns. Aggregates over a kernel set (geomean cycles,
 * proven share) therefore move little from seed to seed, while each
 * seed still measures different inputs.
 */

#ifndef PERFBENCH_WVLGEN_HH
#define PERFBENCH_WVLGEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct GeneratedKernel
{
    /** Benchmark name inside the text (one block, one loop). */
    std::string name;
    /** The `.wvl` source. */
    std::string text;
};

/**
 * @p count kernels named `<prefix><i>`, drawn from @p seed. Equal
 * arguments give byte-identical texts.
 */
std::vector<GeneratedKernel> generateKernels(std::uint64_t seed,
                                             int count,
                                             const std::string &prefix);

/** FNV-1a 64 of every kernel text, in order, as 16 hex digits. */
std::string fingerprint(const std::vector<GeneratedKernel> &kernels);

} // namespace perfbench

#endif // PERFBENCH_WVLGEN_HH

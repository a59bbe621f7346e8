/**
 * @file
 * Minimum initiation interval computation: resource-constrained
 * (ResMII), recurrence-constrained (RecMII) and their maximum.
 */

#ifndef WIVLIW_DDG_MII_HH
#define WIVLIW_DDG_MII_HH

#include <vector>

#include "ddg/circuits.hh"
#include "ddg/ddg.hh"
#include "machine/machine_config.hh"

namespace vliw {

/** ResMII: most constrained FU class across the whole machine. */
int resMii(const Ddg &ddg, const MachineConfig &cfg);

/** RecMII over a precomputed circuit set with latencies @p lat. */
int recMii(const std::vector<Circuit> &circuits, const LatencyMap &lat);

/** MII = max(ResMII, RecMII); @p circuits from findCircuits(). */
int computeMii(const Ddg &ddg, const std::vector<Circuit> &circuits,
               const LatencyMap &lat, const MachineConfig &cfg);

} // namespace vliw

#endif // WIVLIW_DDG_MII_HH

#include "mrt.hh"

#include <limits>

#include "support/logging.hh"
#include "support/math_util.hh"

namespace vliw {

Mrt::Mrt(const MachineConfig &cfg, int ii)
{
    reset(cfg, ii);
}

void
Mrt::reset(const MachineConfig &cfg, int ii)
{
    vliw_assert(ii >= 1, "II must be positive");
    ii_ = ii;
    numClusters_ = cfg.numClusters;
    capacity_[std::size_t(FuKind::Int)] = cfg.intUnitsPerCluster;
    capacity_[std::size_t(FuKind::Fp)] = cfg.fpUnitsPerCluster;
    capacity_[std::size_t(FuKind::Mem)] = cfg.memUnitsPerCluster;
    busOccupancy_ = cfg.regBusOccupancy;
    buses_ = cfg.regBuses;
    fuUse_.assign(std::size_t(ii) * std::size_t(cfg.numClusters) *
                  kNumFuKinds, 0);
    busUse_.assign(std::size_t(ii), 0);
    clusterLoad_.assign(std::size_t(cfg.numClusters), 0);
    busTransfers_ = 0;
}

int
Mrt::clusterLoad(int cluster) const
{
    return clusterLoad_[std::size_t(cluster)];
}

int
Mrt::firstFreeBusStart(int first, int last) const
{
    int r = row(first);
    for (int start = first; start <= last; ++start) {
        if (busFreeAtRow(r))
            return start;
        if (++r == ii_)
            r = 0;
    }
    return std::numeric_limits<int>::min();
}

} // namespace vliw

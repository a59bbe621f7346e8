#include "mii.hh"

#include <algorithm>

#include "support/math_util.hh"

namespace vliw {

int
resMii(const Ddg &ddg, const MachineConfig &cfg)
{
    // Operations per FuKind, counted in one pass.
    int ops[4] = {};
    for (NodeId v = 0; v < ddg.numNodes(); ++v)
        ++ops[int(fuForOp(ddg.node(v).kind))];

    const int int_units = cfg.numClusters * cfg.intUnitsPerCluster;
    const int fp_units = cfg.numClusters * cfg.fpUnitsPerCluster;
    const int mem_units = cfg.numClusters * cfg.memUnitsPerCluster;

    int mii = 1;
    mii = std::max(mii, int(ceilDiv(ops[int(FuKind::Int)], int_units)));
    mii = std::max(mii, int(ceilDiv(ops[int(FuKind::Fp)], fp_units)));
    mii = std::max(mii, int(ceilDiv(ops[int(FuKind::Mem)], mem_units)));
    return mii;
}

int
recMii(const std::vector<Circuit> &circuits, const LatencyMap &lat)
{
    int mii = 1;
    for (const Circuit &c : circuits)
        mii = std::max(mii, c.recurrenceIi(lat));
    return mii;
}

int
computeMii(const Ddg &ddg, const std::vector<Circuit> &circuits,
           const LatencyMap &lat, const MachineConfig &cfg)
{
    return std::max(resMii(ddg, cfg), recMii(circuits, lat));
}

} // namespace vliw

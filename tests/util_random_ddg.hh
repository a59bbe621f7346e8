/**
 * @file
 * Random loop-DDG generator for property-based scheduler tests.
 *
 * Graphs are built as a random DAG (forward register edges) plus
 * random loop-carried edges (distance >= 1), random memory ops with
 * strides/granularities, and optional alias chains -- every
 * construction the scheduler must survive.
 */

#ifndef WIVLIW_TESTS_UTIL_RANDOM_DDG_HH
#define WIVLIW_TESTS_UTIL_RANDOM_DDG_HH

#include <stdexcept>
#include <vector>

#include "ddg/ddg.hh"
#include "ddg/profile_map.hh"
#include "machine/machine_config.hh"
#include "sched/lat_scheme.hh"
#include "support/random.hh"

namespace vliw::testutil {

struct RandomDdgOptions
{
    int minNodes = 6;
    int maxNodes = 28;
    double memFraction = 0.35;
    double backEdgeChance = 0.35;
    double chainChance = 0.5;
    int maxDistance = 3;
};

/** A generated graph plus a synthetic profile for its memory ops. */
struct RandomLoop
{
    Ddg ddg;
    ProfileMap profile;
};

inline RandomLoop
makeRandomLoop(std::uint64_t seed, int num_clusters,
               const RandomDdgOptions &opts = {})
{
    Rng rng(seed);
    RandomLoop out;

    const int n =
        int(rng.nextRange(opts.minNodes, opts.maxNodes));
    std::vector<NodeId> ids;
    std::vector<NodeId> mem_ids;

    static const OpKind compute_kinds[] = {
        OpKind::IntAlu, OpKind::IntAlu, OpKind::IntMul,
        OpKind::FpAlu, OpKind::FpMul, OpKind::FpDiv,
    };
    static const int grans[] = {1, 2, 4, 8};

    for (int i = 0; i < n; ++i) {
        if (rng.nextDouble() < opts.memFraction) {
            MemAccessInfo info;
            info.isStore = rng.chance(0.4);
            info.granularity =
                grans[rng.nextBelow(4)];
            info.symbol = 0;
            info.offset = std::int64_t(rng.nextBelow(64)) *
                info.granularity;
            info.stride = rng.chance(0.8)
                ? std::int64_t(rng.nextRange(1, 4)) *
                    info.granularity
                : MemAccessInfo::kUnknownStride;
            info.indirect = !info.strideKnown();
            info.indexRange = 128;
            const NodeId id = out.ddg.addMemNode(
                info.isStore ? OpKind::Store : OpKind::Load, info);
            ids.push_back(id);
            mem_ids.push_back(id);
        } else {
            ids.push_back(out.ddg.addNode(
                compute_kinds[rng.nextBelow(6)]));
        }
    }

    // Forward register edges: each node gets 1-2 earlier producers.
    for (int i = 1; i < n; ++i) {
        const int fanin = int(rng.nextRange(1, 2));
        for (int k = 0; k < fanin; ++k) {
            const NodeId src = ids[rng.nextBelow(std::uint64_t(i))];
            out.ddg.addEdge(src, ids[std::size_t(i)],
                            DepKind::RegFlow, 0);
        }
    }

    // Loop-carried edges (distance >= 1 keeps circuits legal).
    for (int i = 0; i < n; ++i) {
        if (rng.nextDouble() < opts.backEdgeChance) {
            const NodeId dst = ids[rng.nextBelow(std::uint64_t(n))];
            const int dist =
                int(rng.nextRange(1, opts.maxDistance));
            const DepKind kind = rng.chance(0.7)
                ? DepKind::RegFlow : DepKind::RegAnti;
            out.ddg.addEdge(ids[std::size_t(i)], dst, kind, dist);
        }
    }

    // Alias chains over consecutive memory ops.
    if (mem_ids.size() >= 2 && rng.nextDouble() < opts.chainChance) {
        for (std::size_t i = 0; i + 1 < mem_ids.size(); i += 2) {
            out.ddg.addEdge(mem_ids[i], mem_ids[i + 1],
                            DepKind::MemAnti, 0);
        }
    }

    // Synthetic profile.
    out.profile = ProfileMap(out.ddg.numNodes());
    for (NodeId v : mem_ids) {
        MemProfile &p = out.profile.at(v);
        p.hitRate = 0.5 + rng.nextDouble() * 0.5;
        p.executions = 1000;
        p.clusterCounts.assign(std::size_t(num_clusters), 0);
        const int pref = int(rng.nextBelow(
            std::uint64_t(num_clusters)));
        for (int c = 0; c < num_clusters; ++c) {
            p.clusterCounts[std::size_t(c)] =
                c == pref ? 700 : 100;
        }
        p.preferredCluster = pref;
        p.distribution = 0.7;
        p.localRatio = 0.7;
    }
    return out;
}

/** The latency scheme the toolchain uses for @p cfg's cache. */
inline LatencyScheme
schemeFor(const MachineConfig &cfg)
{
    switch (cfg.cacheOrg) {
      case CacheOrg::Interleaved:
        return LatencyScheme::fourClass(cfg);
      case CacheOrg::Unified:
        return LatencyScheme::twoClassUnified(cfg);
      case CacheOrg::MultiVliw:
        return LatencyScheme::twoClassCoherent(cfg);
    }
    throw std::logic_error("unknown cache organisation");
}

} // namespace vliw::testutil

#endif // WIVLIW_TESTS_UTIL_RANDOM_DDG_HH

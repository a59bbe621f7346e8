#include "profiler.hh"

#include <algorithm>

#include "mem/tag_array.hh"
#include "support/logging.hh"
#include "support/math_util.hh"

namespace vliw {

namespace {

/** Iterations whose addresses one refill of the streams covers. */
constexpr std::int64_t kWave = 64;

} // namespace

ProfileMap
profileLoop(const Ddg &ddg, AddressResolver &resolver,
            std::int64_t iterations, int invocations,
            const MachineConfig &cfg, const ProfileOptions &opts)
{
    ProfileMap map(ddg.numNodes());
    const std::vector<NodeId> mem_nodes = ddg.memNodes();
    if (mem_nodes.empty())
        return map;
    vliw_assert(isPowerOfTwo(std::uint64_t(cfg.blockBytes)),
                "blockBytes must be a power of two");

    // Functional hit/miss model with the target geometry. Tags are
    // replicated across modules, so one logical array suffices.
    TagArray tags(cfg.cacheSets(), cfg.cacheWays);
    const int block_shift = floorLog2(std::uint64_t(cfg.blockBytes));
    const std::size_t width = mem_nodes.size();
    const std::size_t clusters = std::size_t(cfg.numClusters);
    // Per memory node k (mem_nodes order): hits, and cluster counts
    // at counts[k * clusters + c].
    std::vector<std::uint64_t> hits(width, 0);
    std::vector<std::uint64_t> counts(width * clusters, 0);
    std::vector<AddressStream> streams(width);
    // Wave-major: wave[i * width + k] is node k at iteration i.
    std::vector<std::uint64_t> wave(std::size_t(kWave) * width);

    const std::int64_t per_invocation = std::max<std::int64_t>(
        0, opts.maxIterations > 0
               ? std::min(iterations, opts.maxIterations)
               : iterations);

    for (int inv = 0; inv < invocations; ++inv) {
        resolver.setInvocation(inv);
        for (std::size_t k = 0; k < width; ++k)
            streams[k] = resolver.stream(mem_nodes[k]);
        for (std::int64_t first = 0; first < per_invocation;
             first += kWave) {
            const std::int64_t n =
                std::min(kWave, per_invocation - first);
            for (std::size_t k = 0; k < width; ++k)
                streams[k].fill(&wave[k], width, n);
            // Accesses in program order: iteration by iteration,
            // node by node, as the tag state depends on it.
            const std::uint64_t *addr = wave.data();
            for (std::int64_t i = 0; i < n; ++i) {
                for (std::size_t k = 0; k < width; ++k, ++addr) {
                    counts[k * clusters +
                           std::size_t(cfg.homeCluster(*addr))] += 1;
                    const std::uint64_t block = *addr >> block_shift;
                    if (tags.touch(block) != TagArray::kNoLine)
                        hits[k] += 1;
                    else
                        tags.insert(block);
                }
            }
        }
    }

    const std::uint64_t executions = std::uint64_t(per_invocation) *
        std::uint64_t(std::max(invocations, 0));
    for (std::size_t k = 0; k < width; ++k) {
        MemProfile &prof = map.at(mem_nodes[k]);
        prof.executions = executions;
        const auto row = counts.begin() + std::ptrdiff_t(k * clusters);
        prof.clusterCounts.assign(row, row + std::ptrdiff_t(clusters));
        if (executions == 0) {
            prof.hitRate = 0.0;
            continue;
        }
        prof.hitRate = double(hits[k]) / double(executions);

        std::uint64_t best = 0;
        std::uint64_t best_count = 0;
        for (std::size_t c = 0; c < prof.clusterCounts.size(); ++c) {
            if (prof.clusterCounts[c] > best_count) {
                best_count = prof.clusterCounts[c];
                best = c;
            }
        }
        prof.preferredCluster = int(best);
        prof.distribution =
            double(best_count) / double(prof.executions);

        // Local ratio: probability an access is fully local when the
        // op sits in its preferred cluster. Elements wider than the
        // interleaving factor are never fully local.
        const MemAccessInfo &info = ddg.memInfo(mem_nodes[k]);
        prof.localRatio = info.granularity > cfg.interleaveBytes
            ? 0.0 : prof.distribution;
    }
    return map;
}

} // namespace vliw

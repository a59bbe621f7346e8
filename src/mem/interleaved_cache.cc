#include "interleaved_cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vliw {

InterleavedCache::InterleavedCache(const MachineConfig &cfg)
    : CacheModel(cfg),
      tags_(cfg.cacheSets(), cfg.cacheWays),
      memBuses_(cfg.memBuses, cfg.memBusOccupancy)
{
    vliw_assert(cfg.cacheOrg == CacheOrg::Interleaved,
                "InterleavedCache built from a non-interleaved config");
    if (cfg_.attractionBuffers) {
        abs_.reserve(std::size_t(cfg_.numClusters));
        for (int c = 0; c < cfg_.numClusters; ++c) {
            abs_.emplace_back(cfg_.abEntries, cfg_.abWays,
                              cfg_.numClusters);
        }
    }
}

AccessClass
InterleavedCache::classify(const MemRequest &req) const
{
    const bool hit = tags_.probe(blockOf(req.addr)) != TagArray::kNoLine;
    if (isLocal(req))
        return hit ? AccessClass::LocalHit : AccessClass::LocalMiss;
    return hit ? AccessClass::RemoteHit : AccessClass::RemoteMiss;
}

const AttractionBuffer &
InterleavedCache::attractionBuffer(int cluster) const
{
    vliw_assert(cfg_.attractionBuffers, "attraction buffers disabled");
    return abs_[std::size_t(cluster)];
}

void
InterleavedCache::loopBoundary()
{
    for (AttractionBuffer &ab : abs_)
        ab.flush();
}

void
InterleavedCache::invalidateAll()
{
    tags_.clear();
    pendingSubblocks_.clear();
    pendingFills_.clear();
    for (AttractionBuffer &ab : abs_)
        ab.flush();
}

void
InterleavedCache::resetModel()
{
    tags_.reset();
    memBuses_.reset();
    pendingSubblocks_.clear();
    for (AttractionBuffer &ab : abs_)
        ab.reset();
}

} // namespace vliw

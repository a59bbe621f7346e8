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

bool
InterleavedCache::isLocal(const MemRequest &req) const
{
    // Elements wider than the interleaving factor always span
    // several modules and therefore count as remote (Section 5.2).
    return req.size <= cfg_.interleaveBytes &&
        cfg_.homeCluster(req.addr) == req.cluster;
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

MemAccessResult
InterleavedCache::access(const MemRequest &req)
{
    vliw_assert(req.cluster >= 0 && req.cluster < cfg_.numClusters,
                "bad cluster id ", req.cluster);
    vliw_assert((req.addr % std::uint64_t(cfg_.blockBytes)) +
                std::uint64_t(req.size) <=
                std::uint64_t(cfg_.blockBytes),
                "access crosses a cache-block boundary");

    const Cycles t = req.issueCycle;

    const std::uint64_t block = blockOf(req.addr);
    int home = cfg_.homeCluster(req.addr);
    const bool local = isLocal(req);
    // Wide elements: direct the remote transaction at the first
    // non-local module the element touches.
    if (!local && home == req.cluster)
        home = cfg_.homeCluster(
            req.addr + std::uint64_t(cfg_.interleaveBytes));

    const int n = cfg_.numClusters;
    const std::uint64_t sub_key =
        (block * std::uint64_t(n) + std::uint64_t(home)) *
        std::uint64_t(n) + std::uint64_t(req.cluster);

    MemAccessResult res;
    res.referencedRemote = !local;

    const int line = tags_.touch(block);
    const bool hit = line != TagArray::kNoLine;
    if (req.isStore && hit)
        tags_.markDirty(line);

    if (local) {
        // A block whose fill is still in flight is tag-present but
        // not yet usable: the access combines with the fill.
        if (const Cycles *fill = pendingFills_.find(block, t)) {
            res.cls = AccessClass::Combined;
            res.readyCycle = *fill;
        } else if (hit) {
            res.cls = AccessClass::LocalHit;
            res.readyCycle = t + cfg_.latLocalHit;
        } else {
            // Local miss: the whole block is fetched and distributed
            // over all modules (tags are replicated).
            const Cycles wait = nlAcquire(t + cfg_.latLocalHit);
            res.cls = AccessClass::LocalMiss;
            res.readyCycle = t + cfg_.latLocalMiss + wait;
            pendingFills_.set(block, res.readyCycle, t);
            const int filled = tags_.insert(block);
            if (tags_.lastEvictionWasDirty())
                writebackVictim(res.readyCycle);
            if (req.isStore)
                tags_.markDirty(filled);
        }
        stats_.record(res.cls, req.isStore);
        return res;
    }

    // Remote path. Attraction Buffer first: a hit there is served at
    // local-hit latency without any bus traffic.
    const bool ab_usable = cfg_.attractionBuffers &&
        req.size <= cfg_.interleaveBytes;
    if (ab_usable && abs_[std::size_t(req.cluster)].lookup(block, home)) {
        if (req.isStore) {
            // Write-update: refresh the replica and forward the word
            // to the home module in the background.
            busAcquire(memBuses_, t);
        }
        res.cls = AccessClass::LocalHit;
        res.abHit = true;
        res.readyCycle = t + cfg_.latLocalHit;
        stats_.abHits += 1;
        stats_.record(res.cls, req.isStore);
        return res;
    }

    // Combining: an in-flight fetch of the same subblock (or of the
    // whole block) absorbs this request without a new transaction.
    if (const Cycles *sub = pendingSubblocks_.find(sub_key, t)) {
        res.cls = AccessClass::Combined;
        res.readyCycle = *sub;
        stats_.record(res.cls, req.isStore);
        return res;
    }
    if (const Cycles *fill = pendingFills_.find(block, t)) {
        res.cls = AccessClass::Combined;
        res.readyCycle = std::max(*fill,
                                  t + Cycles(cfg_.latRemoteHit));
        stats_.record(res.cls, req.isStore);
        return res;
    }

    const Cycles wait_req = busAcquire(memBuses_, t);

    if (hit) {
        res.cls = AccessClass::RemoteHit;
        if (req.isStore) {
            // One-way transfer: request leg carries the data.
            res.readyCycle = t + wait_req +
                cfg_.memBusOccupancy + cfg_.latLocalHit;
        } else {
            const Cycles t_reply = t + wait_req +
                cfg_.memBusOccupancy + cfg_.latLocalHit;
            const Cycles wait_reply = busAcquire(memBuses_, t_reply);
            res.readyCycle =
                t + cfg_.latRemoteHit + wait_req + wait_reply;
            pendingSubblocks_.set(sub_key, res.readyCycle, t);
        }
    } else {
        // Remote miss: request leg, remote detect, next level, and a
        // reply leg back to the requester.
        const Cycles t_nl = t + wait_req +
            cfg_.memBusOccupancy + cfg_.latLocalHit;
        const Cycles wait_nl = nlAcquire(t_nl);

        res.cls = AccessClass::RemoteMiss;
        Cycles wait_reply = 0;
        if (!req.isStore) {
            const Cycles t_reply = t_nl + wait_nl + cfg_.latNextLevel;
            wait_reply = busAcquire(memBuses_, t_reply);
        }
        res.readyCycle = t + cfg_.latRemoteMiss +
            wait_req + wait_nl + wait_reply;
        pendingFills_.set(block, res.readyCycle, t);
        pendingSubblocks_.set(sub_key, res.readyCycle, t);
        const int filled = tags_.insert(block);
        if (tags_.lastEvictionWasDirty())
            writebackVictim(res.readyCycle);
        if (req.isStore)
            tags_.markDirty(filled);
    }

    if (ab_usable && !req.isStore && req.attractable) {
        abs_[std::size_t(req.cluster)].install(block, home);
        stats_.abInstalls += 1;
    }

    stats_.record(res.cls, req.isStore);
    return res;
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

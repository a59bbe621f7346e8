/**
 * @file
 * Word-interleaved L1 data cache (paper Section 3).
 *
 * Every cache block is distributed over the clusters: with N = 4
 * clusters, 32-byte blocks and a 4-byte interleaving factor, cluster
 * c holds words c and c+4 of each block (an 8-byte subblock). Tags
 * are replicated in all modules, so hit/miss is a global property of
 * the block while local/remote depends on which words are touched.
 *
 * The model covers the four access classes, request combining
 * ("combined" accesses), memory-bus contention at half the core
 * frequency, next-level port contention, and optional per-cluster
 * Attraction Buffers.
 */

#ifndef WIVLIW_MEM_INTERLEAVED_CACHE_HH
#define WIVLIW_MEM_INTERLEAVED_CACHE_HH

#include <algorithm>
#include <vector>

#include "mem/attraction_buffer.hh"
#include "mem/cache_model.hh"
#include "mem/tag_array.hh"
#include "support/logging.hh"

namespace vliw {

/** The word-interleaved distributed cache with optional ABs. */
class InterleavedCache final : public CacheModel
{
  public:
    explicit InterleavedCache(const MachineConfig &cfg);

    /** Defined inline below, so the simulator's per-model loop
     *  (SimWorkspace::run) compiles it into its own body. */
    MemAccessResult access(const MemRequest &req) override;
    void loopBoundary() override;
    void invalidateAll() override;

    /** Access-type classification without touching any state. */
    AccessClass classify(const MemRequest &req) const;

    /** True if the whole access fits the issuing cluster's module. */
    bool
    isLocal(const MemRequest &req) const
    {
        return localTo(req, cfg_.homeCluster(req.addr));
    }

    const AttractionBuffer &attractionBuffer(int cluster) const;

  protected:
    void resetModel() override;

  private:
    /** isLocal() given the home cluster of req.addr. */
    bool
    localTo(const MemRequest &req, int home) const
    {
        // Elements wider than the interleaving factor always span
        // several modules and therefore count as remote (Section 5.2).
        return req.size <= cfg_.interleaveBytes && home == req.cluster;
    }

    /** Logical tag state; physically replicated in every module. */
    TagArray tags_;
    ResourceSet memBuses_;
    std::vector<AttractionBuffer> abs_;

    /** In-flight subblock fetches (pendingFills_ holds the whole-
     *  block next-level fills; both live in flat PendingTables). */
    PendingTable pendingSubblocks_;
};

inline MemAccessResult
InterleavedCache::access(const MemRequest &req)
{
    vliw_assert(req.cluster >= 0 && req.cluster < cfg_.numClusters,
                "bad cluster id ", req.cluster);
    const std::uint64_t block = blockOf(req.addr);
    vliw_assert(offsetInBlock(req.addr, block) +
                std::uint64_t(req.size) <=
                std::uint64_t(cfg_.blockBytes),
                "access crosses a cache-block boundary");

    const Cycles t = req.issueCycle;

    int home = cfg_.homeCluster(req.addr);
    const bool local = localTo(req, home);
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

} // namespace vliw

#endif // WIVLIW_MEM_INTERLEAVED_CACHE_HH

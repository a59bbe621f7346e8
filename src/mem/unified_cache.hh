/**
 * @file
 * Centralised (unified) multi-ported L1 data cache: the baseline
 * clustered-VLIW memory organisation. All clusters share one cache
 * with @c unifiedPorts read/write ports and a flat access latency of
 * 1 (optimistic) or 5 (realistic wire-delay) cycles.
 */

#ifndef WIVLIW_MEM_UNIFIED_CACHE_HH
#define WIVLIW_MEM_UNIFIED_CACHE_HH

#include "mem/cache_model.hh"
#include "mem/tag_array.hh"

namespace vliw {

/** Unified cache model; classes used: LocalHit/LocalMiss/Combined. */
class UnifiedCache final : public CacheModel
{
  public:
    explicit UnifiedCache(const MachineConfig &cfg);

    /** Defined inline below (see InterleavedCache::access). */
    MemAccessResult access(const MemRequest &req) override;
    void invalidateAll() override;

  protected:
    void resetModel() override;

  private:
    TagArray tags_;
    ResourceSet ports_;
};

inline MemAccessResult
UnifiedCache::access(const MemRequest &req)
{
    const Cycles t = req.issueCycle;
    const std::uint64_t block = blockOf(req.addr);

    const Cycles wait_port = ports_.acquire(t) - t;

    MemAccessResult res;
    const int line = tags_.touch(block);
    const bool hit = line != TagArray::kNoLine;
    if (req.isStore && hit)
        tags_.markDirty(line);

    // In-flight fills come first: the line is allocated but the
    // data has not arrived yet.
    if (const Cycles *fill = pendingFills_.find(block, t)) {
        res.cls = AccessClass::Combined;
        res.readyCycle = *fill;
    } else if (hit) {
        res.cls = AccessClass::LocalHit;
        res.readyCycle = t + cfg_.latUnified + wait_port;
    } else {
        const Cycles wait_nl =
            nlAcquire(t + wait_port + cfg_.latUnified);
        res.cls = AccessClass::LocalMiss;
        res.readyCycle = t + cfg_.latUnified + cfg_.latNextLevel +
            wait_port + wait_nl;
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

} // namespace vliw

#endif // WIVLIW_MEM_UNIFIED_CACHE_HH

/**
 * @file
 * multiVLIW memory system (Sánchez & González, MICRO-33): one private
 * cache per cluster kept coherent with a snoopy write-invalidate MSI
 * protocol over the memory buses. Data may be replicated, which
 * trades effective capacity for locality.
 *
 * Class mapping for the shared statistics: LocalHit = hit in the own
 * module, RemoteHit = cache-to-cache transfer, LocalMiss = next-level
 * fill, Combined = merged with an in-flight fill.
 */

#ifndef WIVLIW_MEM_COHERENT_CACHE_HH
#define WIVLIW_MEM_COHERENT_CACHE_HH

#include <vector>

#include "mem/cache_model.hh"
#include "mem/tag_array.hh"

namespace vliw {

/** Snoopy-MSI multiVLIW cache model. */
class CoherentCache final : public CacheModel
{
  public:
    explicit CoherentCache(const MachineConfig &cfg);

    /** Defined inline below (see InterleavedCache::access). */
    MemAccessResult access(const MemRequest &req) override;
    void invalidateAll() override;

    /** MSI line states. */
    enum class Msi : std::uint8_t { Invalid, Shared, Modified };

    /** State of @p block in @p cluster's module (for tests). */
    Msi stateOf(int cluster, std::uint64_t block) const;

    /** Protocol invariant: at most one Modified copy per block. */
    bool coherenceInvariantHolds() const;

  protected:
    void resetModel() override;

  private:
    struct Module
    {
        TagArray tags;
        std::vector<Msi> state;

        Module(int sets, int ways)
            : tags(sets, ways),
              state(static_cast<std::size_t>(sets) *
                    static_cast<std::size_t>(ways), Msi::Invalid)
        {}
    };

    /** Install @p block into @p cluster with @p st, evicting LRU
     *  (a Modified victim is written back around cycle @p t). */
    void install(int cluster, std::uint64_t block, Msi st, Cycles t);

    /** Any other module holding the block (kNoLine-style -1). */
    int findOtherHolder(int cluster, std::uint64_t block) const;

    /** Invalidate every copy outside @p cluster. */
    void invalidateOthers(int cluster, std::uint64_t block);

    std::vector<Module> modules_;
    ResourceSet memBuses_;
};

inline MemAccessResult
CoherentCache::access(const MemRequest &req)
{
    const Cycles t = req.issueCycle;
    const std::uint64_t block = blockOf(req.addr);
    /** Combining key: block * numClusters + cluster. */
    const std::uint64_t fill_key =
        block * std::uint64_t(cfg_.numClusters) +
        std::uint64_t(req.cluster);

    Module &own = modules_[std::size_t(req.cluster)];
    MemAccessResult res;

    const int line = own.tags.touch(block);
    const Msi st = line == TagArray::kNoLine
        ? Msi::Invalid : own.state[std::size_t(line)];

    if (!req.isStore) {
        if (const Cycles *fill = pendingFills_.find(fill_key, t)) {
            // Line allocated but the fill is still in flight.
            res.cls = AccessClass::Combined;
            res.readyCycle = *fill;
            stats_.record(res.cls, false);
            return res;
        }
        if (st != Msi::Invalid) {
            res.cls = AccessClass::LocalHit;
            res.readyCycle = t + cfg_.latCoherentHit;
            stats_.record(res.cls, false);
            return res;
        }

        // Broadcast the read miss on the bus.
        const Cycles wait_bus = busAcquire(memBuses_, t);
        res.referencedRemote = true;

        const int holder = findOtherHolder(req.cluster, block);
        if (holder >= 0) {
            // Cache-to-cache transfer; a Modified supplier writes
            // the line back while downgrading to Shared.
            Module &sup = modules_[std::size_t(holder)];
            const int sup_line = sup.tags.probe(block);
            if (sup.state[std::size_t(sup_line)] == Msi::Modified)
                writebackVictim(t);
            sup.state[std::size_t(sup_line)] = Msi::Shared;
            res.cls = AccessClass::RemoteHit;
            res.readyCycle = t + cfg_.latCacheToCache + wait_bus;
        } else {
            const Cycles wait_nl =
                nlAcquire(t + wait_bus + cfg_.memBusOccupancy);
            res.cls = AccessClass::LocalMiss;
            res.readyCycle = t + cfg_.latCoherentHit +
                cfg_.latNextLevel + wait_bus + wait_nl;
        }
        pendingFills_.set(fill_key, res.readyCycle, t);
        install(req.cluster, block, Msi::Shared, t);
        stats_.record(res.cls, false);
        return res;
    }

    // Store path: needs the Modified state.
    if (const Cycles *fill = pendingFills_.find(fill_key, t)) {
        res.cls = AccessClass::Combined;
        res.readyCycle = *fill;
        stats_.record(res.cls, true);
        return res;
    }
    if (st == Msi::Modified) {
        res.cls = AccessClass::LocalHit;
        res.readyCycle = t + cfg_.latCoherentHit;
        stats_.record(res.cls, true);
        return res;
    }

    if (st == Msi::Shared) {
        // Upgrade: invalidate the other copies over the bus; the
        // store itself completes locally.
        busAcquire(memBuses_, t);
        invalidateOthers(req.cluster, block);
        own.state[std::size_t(line)] = Msi::Modified;
        res.cls = AccessClass::LocalHit;
        res.readyCycle = t + cfg_.latCoherentHit;
        stats_.record(res.cls, true);
        return res;
    }

    // Write miss.
    const Cycles wait_bus = busAcquire(memBuses_, t);
    res.referencedRemote = true;

    const int holder = findOtherHolder(req.cluster, block);
    if (holder >= 0) {
        invalidateOthers(req.cluster, block);
        res.cls = AccessClass::RemoteHit;
        res.readyCycle = t + cfg_.latCacheToCache + wait_bus;
    } else {
        const Cycles wait_nl =
            nlAcquire(t + wait_bus + cfg_.memBusOccupancy);
        res.cls = AccessClass::LocalMiss;
        res.readyCycle = t + cfg_.latCoherentHit +
            cfg_.latNextLevel + wait_bus + wait_nl;
    }
    pendingFills_.set(fill_key, res.readyCycle, t);
    install(req.cluster, block, Msi::Modified, t);
    stats_.record(res.cls, true);
    return res;
}

} // namespace vliw

#endif // WIVLIW_MEM_COHERENT_CACHE_HH

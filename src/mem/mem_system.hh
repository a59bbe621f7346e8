/**
 * @file
 * Abstract interface of the three L1 organisations. The VLIW core
 * simulator issues accesses in non-decreasing cycle order; the model
 * returns the completion cycle and the access classification.
 */

#ifndef WIVLIW_MEM_MEM_SYSTEM_HH
#define WIVLIW_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>

#include "machine/machine_config.hh"
#include "mem/access_types.hh"

namespace vliw {

/** One memory access as seen by the memory hierarchy. */
struct MemRequest
{
    int cluster = 0;            ///< issuing cluster
    std::uint64_t addr = 0;     ///< byte address
    int size = 4;               ///< access granularity in bytes
    bool isStore = false;
    Cycles issueCycle = 0;
    /** Compiler hint: may be installed in an Attraction Buffer. */
    bool attractable = true;
};

/** Common interface of interleaved / unified / multiVLIW models. */
class MemSystem
{
  public:
    virtual ~MemSystem() = default;

    /**
     * Perform one access; requests arrive in time order. Every
     * access is recorded in stats() once, under its class (and in
     * abHits when served by an Attraction Buffer): the simulator
     * takes its access counts from there.
     */
    virtual MemAccessResult access(const MemRequest &req) = 0;

    /**
     * Software-visible loop boundary: Attraction Buffers flush here
     * (paper Section 3); other models ignore it.
     */
    virtual void loopBoundary() {}

    /** Invalidate all cached state (used between benchmarks). */
    virtual void invalidateAll() = 0;

    /**
     * Return the model to its just-constructed state, so one
     * instance can back a whole batch of runs (see
     * Toolchain::simulateBatch) with results bit-identical to a
     * fresh model per run. The default covers models whose only
     * state is cached contents and statistics (e.g. test stubs);
     * any model with more — resource timing, in-flight
     * transactions, LRU clocks — must override so that a reset
     * instance is indistinguishable from a new one (the CacheModel
     * base does, via its resetModel() hook).
     */
    virtual void
    resetAll()
    {
        invalidateAll();
        resetStats();
    }

    const MemStats &stats() const { return stats_; }
    void resetStats() { stats_ = MemStats(); }

  protected:
    MemStats stats_;
};

/** Factory selecting the model that matches @p cfg.cacheOrg. */
std::unique_ptr<MemSystem> makeMemSystem(const MachineConfig &cfg);

} // namespace vliw

#endif // WIVLIW_MEM_MEM_SYSTEM_HH

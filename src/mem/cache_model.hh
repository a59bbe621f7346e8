/**
 * @file
 * Shared machinery of the three L1 organisations. Every model needs
 * the same building blocks -- block extraction, next-level port
 * arbitration with wait accounting, dirty-victim writebacks through
 * a buffered next-level port, bus-transfer accounting, and a table
 * of in-flight fills that absorbs combining accesses -- and before
 * this class they were triplicated (with slight drift) across the
 * interleaved, unified and coherent models. CacheModel owns the
 * common state and accounting so each organisation only writes the
 * logic that actually distinguishes it.
 */

#ifndef WIVLIW_MEM_CACHE_MODEL_HH
#define WIVLIW_MEM_CACHE_MODEL_HH

#include "mem/mem_system.hh"
#include "mem/pending_table.hh"
#include "mem/resource_set.hh"

namespace vliw {

/** Base of the concrete cache organisations. */
class CacheModel : public MemSystem
{
  public:
    /**
     * Template method: resets the shared state (in-flight fills,
     * next-level ports, statistics) and delegates everything the
     * concrete organisation owns to resetModel(). Each piece of
     * state is reset exactly once.
     */
    void resetAll() final;

  protected:
    explicit CacheModel(const MachineConfig &cfg);

    /**
     * Rewind every piece of state the concrete model owns beyond
     * the shared fills/ports/stats: tag arrays (including their LRU
     * clocks), model-specific pending tables, extra resource sets,
     * attraction buffers, protocol state. Called by resetAll().
     */
    virtual void resetModel() = 0;

    std::uint64_t
    blockOf(std::uint64_t addr) const
    {
        // Power-of-two block sizes (every paper configuration) take
        // the shift; the division is the general fallback.
        return blockShift_ >= 0
            ? addr >> blockShift_
            : addr / std::uint64_t(cfg_.blockBytes);
    }

    /** Byte offset of @p addr inside its block @p block. */
    std::uint64_t
    offsetInBlock(std::uint64_t addr, std::uint64_t block) const
    {
        return blockShift_ >= 0
            ? addr - (block << blockShift_)
            : addr - block * std::uint64_t(cfg_.blockBytes);
    }

    /**
     * Acquire a next-level port no earlier than @p t_nl, recording
     * the request and any wait in the shared stats.
     * @return the wait (grant start minus @p t_nl).
     */
    Cycles
    nlAcquire(Cycles t_nl)
    {
        const Cycles wait = nlPorts_.acquire(t_nl) - t_nl;
        stats_.nlRequests += 1;
        stats_.nlWaitCycles += wait;
        return wait;
    }

    /**
     * Drain a dirty victim through the writeback buffer: no latency
     * on the critical path, but it does occupy a next-level port
     * around cycle @p t.
     */
    void
    writebackVictim(Cycles t)
    {
        nlPorts_.acquire(t);
        stats_.writebacks += 1;
    }

    /**
     * Acquire one of @p buses no earlier than @p t, recording the
     * transfer and any wait. @return the wait (start minus @p t).
     */
    Cycles
    busAcquire(ResourceSet &buses, Cycles t)
    {
        const Cycles wait = buses.acquire(t) - t;
        stats_.busTransfers += 1;
        stats_.busWaitCycles += wait;
        return wait;
    }

    MachineConfig cfg_;
    ResourceSet nlPorts_;
    /** In-flight fills; derived classes choose the key scheme. */
    PendingTable pendingFills_;

  private:
    /** log2(blockBytes), or -1 when it is not a power of two. */
    int blockShift_ = -1;
};

} // namespace vliw

#endif // WIVLIW_MEM_CACHE_MODEL_HH

/**
 * @file
 * A pool of identical, occupancy-limited resources (memory buses,
 * register buses, next-level ports) with greedy earliest-free
 * arbitration. Requests must arrive in non-decreasing time, which the
 * lock-step VLIW simulator guarantees.
 */

#ifndef WIVLIW_MEM_RESOURCE_SET_HH
#define WIVLIW_MEM_RESOURCE_SET_HH

#include <vector>

#include "support/logging.hh"
#include "support/stats.hh"

namespace vliw {

/** k servers, each busy for a fixed occupancy per grant. */
class ResourceSet
{
  public:
    /**
     * @param count     number of identical servers
     * @param occupancy cycles one grant keeps a server busy
     */
    ResourceSet(int count, int occupancy)
        : occupancy_(occupancy),
          busyUntil_(static_cast<std::size_t>(count), 0)
    {
        vliw_assert(count > 0, "empty resource set");
        vliw_assert(occupancy > 0, "non-positive occupancy");
    }

    /**
     * Grant a server at the earliest cycle >= @p earliest.
     * @return the start cycle of the grant.
     */
    Cycles
    acquire(Cycles earliest)
    {
        // Earliest-free server, first on ties; a select, not a
        // branch, per server.
        Cycles *busy = busyUntil_.data();
        const std::size_t n = busyUntil_.size();
        std::size_t best = 0;
        Cycles best_until = busy[0];
        for (std::size_t i = 1; i < n; ++i) {
            const bool earlier = busy[i] < best_until;
            best = earlier ? i : best;
            best_until = earlier ? busy[i] : best_until;
        }
        const Cycles start =
            best_until > earliest ? best_until : earliest;
        busy[best] = start + occupancy_;
        grants_ += 1;
        waitCycles_ += start - earliest;
        return start;
    }

    /** First cycle >= @p earliest a grant would start (no booking). */
    Cycles
    peek(Cycles earliest) const
    {
        Cycles best = busyUntil_.front();
        for (Cycles b : busyUntil_)
            best = b < best ? b : best;
        return best > earliest ? best : earliest;
    }

    void
    reset()
    {
        for (Cycles &b : busyUntil_)
            b = 0;
        grants_ = 0;
        waitCycles_ = 0;
    }

    int count() const { return int(busyUntil_.size()); }
    int occupancy() const { return occupancy_; }
    Counter grants() const { return grants_; }
    Cycles waitCycles() const { return waitCycles_; }

  private:
    int occupancy_;
    std::vector<Cycles> busyUntil_;
    Counter grants_ = 0;
    Cycles waitCycles_ = 0;
};

} // namespace vliw

#endif // WIVLIW_MEM_RESOURCE_SET_HH

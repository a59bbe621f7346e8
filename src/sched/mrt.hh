/**
 * @file
 * Modulo reservation table over (cycle mod II, cluster, FU kind),
 * plus the register-bus slots. Register buses run at half the core
 * frequency, so one transfer occupies a bus for regBusOccupancy
 * consecutive modulo rows.
 */

#ifndef WIVLIW_SCHED_MRT_HH
#define WIVLIW_SCHED_MRT_HH

#include <vector>

#include "ddg/op_types.hh"
#include "machine/machine_config.hh"
#include "support/logging.hh"

namespace vliw {

/** Reservation state for one II attempt. */
class Mrt
{
  public:
    /** Empty table; reset() must run before any reservation. */
    Mrt() = default;

    Mrt(const MachineConfig &cfg, int ii);

    /**
     * Rebind to @p cfg and clear every reservation for a fresh
     * attempt at @p ii. Reuses the row storage, so a workspace-held
     * table stops allocating once it has seen its largest II.
     */
    void reset(const MachineConfig &cfg, int ii);

    int ii() const { return ii_; }

    /** Modulo row of @p cycle: cycle mod II, in [0, II). */
    int
    row(int cycle) const
    {
        // Hot enough that the 64-bit positiveMod() detour shows up:
        // one 32-bit division plus a sign fix-up.
        const int r = cycle % ii_;
        return r < 0 ? r + ii_ : r;
    }

    /** A unit of @p kind free in @p cluster at @p cycle? */
    bool
    fuFree(int cluster, FuKind kind, int cycle) const
    {
        return fuFreeAtRow(cluster, kind, row(cycle));
    }
    void reserveFu(int cluster, FuKind kind, int cycle)
    {
        reserveFuAtRow(cluster, kind, row(cycle));
    }
    void releaseFu(int cluster, FuKind kind, int cycle)
    {
        releaseFuAtRow(cluster, kind, row(cycle));
    }

    /**
     * The same three on a modulo row the caller already holds
     * (row(cycle)), for searches that step cycles one at a time.
     */
    bool
    fuFreeAtRow(int cluster, FuKind kind, int r) const
    {
        const std::size_t s = slot(cluster, kind, r);
        return fuUse_[s] < capacity_[std::size_t(kind)];
    }
    void
    reserveFuAtRow(int cluster, FuKind kind, int r)
    {
        int &count = fuUse_[slot(cluster, kind, r)];
        vliw_assert(count < capacity_[std::size_t(kind)],
                    "FU over-reserved");
        ++count;
        clusterLoad_[std::size_t(cluster)] += 1;
    }
    void
    releaseFuAtRow(int cluster, FuKind kind, int r)
    {
        int &count = fuUse_[slot(cluster, kind, r)];
        vliw_assert(count > 0, "FU release without reservation");
        --count;
        clusterLoad_[std::size_t(cluster)] -= 1;
    }

    /** Ops currently booked on FUs of @p cluster (all kinds). */
    int clusterLoad(int cluster) const;

    /** A register bus free for a transfer starting at @p cycle? */
    bool busFree(int cycle) const { return busFreeAtRow(row(cycle)); }

    void
    reserveBus(int cycle)
    {
        // busFree()'s checks, made while booking: a failure is a
        // caller bug, and the panic abandons the table.
        vliw_assert(busOccupancy_ <= ii_, "bus over-reserved");
        int r = row(cycle);
        for (int j = 0; j < busOccupancy_; ++j) {
            int &use = busUse_[std::size_t(r)];
            vliw_assert(use < buses_, "bus over-reserved");
            ++use;
            if (++r == ii_)
                r = 0;
        }
        ++busTransfers_;
    }

    void
    releaseBus(int cycle)
    {
        int r = row(cycle);
        for (int j = 0; j < busOccupancy_; ++j) {
            int &use = busUse_[std::size_t(r)];
            vliw_assert(use > 0, "bus release without reservation");
            --use;
            if (++r == ii_)
                r = 0;
        }
        --busTransfers_;
    }

    /**
     * First start in [first, last] (inclusive) with a free bus, or
     * INT_MIN. Equivalent to probing busFree() per start, but the
     * modulo row advances incrementally instead of dividing per
     * probe.
     */
    int firstFreeBusStart(int first, int last) const;

    /** Register-bus transfers booked so far. */
    int busTransfers() const { return busTransfers_; }

  private:
    /** busFree() for a transfer whose first row is @p r. */
    bool
    busFreeAtRow(int r) const
    {
        if (busOccupancy_ > ii_) {
            // A transfer would overlap itself in the kernel; no
            // steady-state slot exists at this II.
            return false;
        }
        for (int j = 0; j < busOccupancy_; ++j) {
            if (busUse_[std::size_t(r)] >= buses_)
                return false;
            if (++r == ii_)
                r = 0;
        }
        return true;
    }

    /** Slots per (row, cluster): Int, Fp, Mem (Bus kept apart). */
    static constexpr int kNumFuKinds = 3;

    std::size_t
    slot(int cluster, FuKind kind, int r) const
    {
        if (kind == FuKind::Bus)
            vliw_panic("bus slots are not FU slots");
        return (std::size_t(r) * std::size_t(numClusters_) +
                std::size_t(cluster)) * kNumFuKinds +
            std::size_t(kind);
    }

    int ii_ = 0;
    int numClusters_ = 0;
    /** Units per cluster of each FU kind, cached at reset(). */
    int capacity_[kNumFuKinds] = {};
    /** Rows one bus transfer occupies, and buses per row. */
    int busOccupancy_ = 0;
    int buses_ = 0;
    /** [row][cluster][kind] booked count. */
    std::vector<int> fuUse_;
    /** [row] number of buses occupied. */
    std::vector<int> busUse_;
    std::vector<int> clusterLoad_;
    int busTransfers_ = 0;
};

} // namespace vliw

#endif // WIVLIW_SCHED_MRT_HH

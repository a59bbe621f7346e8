/**
 * @file
 * Machine description for the clustered VLIW processor family studied
 * in the paper (Table 2), covering all three memory organisations:
 * word-interleaved, unified, and multiVLIW (coherent).
 */

#ifndef WIVLIW_MACHINE_MACHINE_CONFIG_HH
#define WIVLIW_MACHINE_MACHINE_CONFIG_HH

#include <bit>
#include <cstdint>
#include <string>

namespace vliw {

/** Which L1 data-cache organisation the processor uses. */
enum class CacheOrg
{
    /** Word-interleaved: one cache module per cluster, no replication. */
    Interleaved,
    /** One centralized multi-ported cache shared by all clusters. */
    Unified,
    /** multiVLIW: per-cluster coherent caches (snoopy MSI). */
    MultiVliw,
};

/** Printable name for a cache organisation. */
const char *cacheOrgName(CacheOrg org);

/**
 * Full static description of one processor configuration.
 *
 * Geometry invariants are enforced by validate(); the named factory
 * functions reproduce the paper's Table 2 configurations.
 */
struct MachineConfig
{
    /// @name Core organisation
    /// @{
    int numClusters = 4;
    int intUnitsPerCluster = 1;
    int fpUnitsPerCluster = 1;
    int memUnitsPerCluster = 1;
    /** Architected registers available per cluster register file. */
    int regsPerCluster = 32;
    /// @}

    /// @name Inter-cluster register buses
    /// @{
    int regBuses = 4;
    /** Cycles a transfer occupies a bus (buses run at 1/2 core freq). */
    int regBusOccupancy = 2;
    /** Producer-to-consumer latency of an inter-cluster copy. */
    int regBusLatency = 2;
    /// @}

    /// @name L1 data cache (common geometry)
    /// @{
    CacheOrg cacheOrg = CacheOrg::Interleaved;
    int cacheBytes = 8 * 1024;  ///< total L1 capacity
    int blockBytes = 32;
    int cacheWays = 2;
    /// @}

    /// @name Interleaved-cache parameters
    /// @{
    /** Interleaving factor I in bytes (word size of the mapping). */
    int interleaveBytes = 4;
    int latLocalHit = 1;
    int latRemoteHit = 5;
    int latLocalMiss = 10;
    int latRemoteMiss = 15;
    int memBuses = 4;
    /** Cycles a transfer occupies a memory bus (1/2 core freq). */
    int memBusOccupancy = 2;
    /// @}

    /// @name Attraction Buffers
    /// @{
    bool attractionBuffers = false;
    int abEntries = 16;
    int abWays = 2;
    /// @}

    /// @name Unified-cache parameters
    /// @{
    /** Total load/store ports of the unified cache. */
    int unifiedPorts = 5;
    /** Unified-cache access latency (1 optimistic / 5 realistic). */
    int latUnified = 1;
    /// @}

    /// @name multiVLIW parameters
    /// @{
    int latCoherentHit = 1;
    /** Cache-to-cache transfer latency on a snoop hit. */
    int latCacheToCache = 5;
    /// @}

    /// @name Next memory level
    /// @{
    int nextLevelPorts = 4;
    /** Total round-trip latency; the next level always hits. */
    int latNextLevel = 10;
    /// @}

    /// @name Derived geometry
    /// @{
    /** Bytes of one block held by one interleaved cache module. */
    int subblockBytes() const;
    /** Words of a block mapped to one cluster. */
    int wordsPerSubblock() const;
    /** Capacity of one module (interleaved / multiVLIW). */
    int moduleBytes() const { return cacheBytes / numClusters; }
    /** Sets of the logical (tag-replicated) interleaved cache. */
    int cacheSets() const;
    /** Sets of one private multiVLIW module. */
    int coherentModuleSets() const;
    /** Sets of one attraction buffer. */
    int abSets() const;
    /** N x I: the cluster-mapping period in bytes. */
    int mappingPeriod() const { return numClusters * interleaveBytes; }
    /** Cluster owning byte address @p addr under word interleaving. */
    int
    homeCluster(std::uint64_t addr) const
    {
        const auto word = std::uint64_t(interleaveBytes);
        const auto clusters = std::uint64_t(numClusters);
        // Power-of-two interleaving and cluster counts (every paper
        // configuration) turn the division/modulo into shift/mask.
        // Both fields are >= 1 once validated, so x & (x - 1) is zero
        // exactly for powers of two (std::has_single_bit may call a
        // library popcount on this hot path).
        if ((word & (word - 1)) == 0 && (clusters & (clusters - 1)) == 0)
            return int((addr >> std::countr_zero(word)) & (clusters - 1));
        return int((addr / word) % clusters);
    }
    /// @}

    /**
     * Describe the first inconsistency of the configuration, or
     * return an empty string when it is valid. This is the
     * non-terminating validation the `api` façade reports through
     * `api::Status`.
     */
    std::string check() const;

    /** Abort with fatal() if the configuration is inconsistent. */
    void validate() const;

    /** Short human-readable identifier for reports. */
    std::string describe() const;

    /** Field-wise; defaulted so a new field is compared too. */
    bool operator==(const MachineConfig &) const = default;

    /// @name Paper configurations (Table 2)
    /// @{
    /** Word-interleaved cache, no Attraction Buffers. */
    static MachineConfig paperInterleaved();
    /** Word-interleaved cache with 16-entry Attraction Buffers. */
    static MachineConfig paperInterleavedAb();
    /** Unified cache, @p latency 1 (optimistic) or 5 (realistic). */
    static MachineConfig paperUnified(int latency);
    /** multiVLIW: coherent per-cluster caches. */
    static MachineConfig paperMultiVliw();
    /// @}
};

} // namespace vliw

#endif // WIVLIW_MACHINE_MACHINE_CONFIG_HH

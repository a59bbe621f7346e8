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

#include <vector>

#include "mem/attraction_buffer.hh"
#include "mem/cache_model.hh"
#include "mem/tag_array.hh"

namespace vliw {

/** The word-interleaved distributed cache with optional ABs. */
class InterleavedCache : public CacheModel
{
  public:
    explicit InterleavedCache(const MachineConfig &cfg);

    MemAccessResult access(const MemRequest &req) override;
    void loopBoundary() override;
    void invalidateAll() override;

    /** Access-type classification without touching any state. */
    AccessClass classify(const MemRequest &req) const;

    /** True if the whole access fits the issuing cluster's module. */
    bool isLocal(const MemRequest &req) const;

    const AttractionBuffer &attractionBuffer(int cluster) const;

  protected:
    void resetModel() override;

  private:
    /** Logical tag state; physically replicated in every module. */
    TagArray tags_;
    ResourceSet memBuses_;
    std::vector<AttractionBuffer> abs_;

    /** In-flight subblock fetches (pendingFills_ holds the whole-
     *  block next-level fills; both live in flat PendingTables). */
    PendingTable pendingSubblocks_;
};

} // namespace vliw

#endif // WIVLIW_MEM_INTERLEAVED_CACHE_HH

#include "unified_cache.hh"

#include "support/logging.hh"

namespace vliw {

UnifiedCache::UnifiedCache(const MachineConfig &cfg)
    : CacheModel(cfg),
      tags_(cfg.cacheSets(), cfg.cacheWays),
      ports_(cfg.unifiedPorts, 1)
{
    vliw_assert(cfg.cacheOrg == CacheOrg::Unified,
                "UnifiedCache built from a non-unified config");
}

void
UnifiedCache::invalidateAll()
{
    tags_.clear();
    pendingFills_.clear();
}

void
UnifiedCache::resetModel()
{
    tags_.reset();
    ports_.reset();
}

} // namespace vliw

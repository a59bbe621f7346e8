#include "coherent_cache.hh"

#include "support/logging.hh"

namespace vliw {

CoherentCache::CoherentCache(const MachineConfig &cfg)
    : CacheModel(cfg),
      memBuses_(cfg.memBuses, cfg.memBusOccupancy)
{
    vliw_assert(cfg.cacheOrg == CacheOrg::MultiVliw,
                "CoherentCache built from a non-multiVLIW config");
    modules_.reserve(std::size_t(cfg.numClusters));
    for (int c = 0; c < cfg.numClusters; ++c)
        modules_.emplace_back(cfg.coherentModuleSets(), cfg.cacheWays);
}

CoherentCache::Msi
CoherentCache::stateOf(int cluster, std::uint64_t block) const
{
    const Module &m = modules_[std::size_t(cluster)];
    const int line = m.tags.probe(block);
    if (line == TagArray::kNoLine)
        return Msi::Invalid;
    return m.state[std::size_t(line)];
}

bool
CoherentCache::coherenceInvariantHolds() const
{
    // Collect every block present anywhere and check the M-exclusion
    // invariant block by block.
    for (int c = 0; c < cfg_.numClusters; ++c) {
        const Module &m = modules_[std::size_t(c)];
        const int lines = m.tags.sets() * m.tags.ways();
        for (int line = 0; line < lines; ++line) {
            if (!m.tags.lineValid(line))
                continue;
            if (m.state[std::size_t(line)] != Msi::Modified)
                continue;
            const std::uint64_t block = m.tags.keyOf(line);
            for (int o = 0; o < cfg_.numClusters; ++o) {
                if (o != c && stateOf(o, block) != Msi::Invalid)
                    return false;
            }
        }
    }
    return true;
}

void
CoherentCache::install(int cluster, std::uint64_t block, Msi st,
                       Cycles t)
{
    Module &m = modules_[std::size_t(cluster)];
    // insert() refuses a block already present. The claimed line
    // still holds its victim's state: a Modified victim is written
    // back through the buffer, off the critical path but occupying
    // a next-level port.
    bool evicted = false;
    const int line = m.tags.insert(block, nullptr, &evicted);
    if (evicted && m.state[std::size_t(line)] == Msi::Modified)
        writebackVictim(t);
    m.state[std::size_t(line)] = st;
}

int
CoherentCache::findOtherHolder(int cluster, std::uint64_t block) const
{
    for (int c = 0; c < cfg_.numClusters; ++c) {
        if (c == cluster)
            continue;
        if (stateOf(c, block) != Msi::Invalid)
            return c;
    }
    return -1;
}

void
CoherentCache::invalidateOthers(int cluster, std::uint64_t block)
{
    for (int c = 0; c < cfg_.numClusters; ++c) {
        if (c == cluster)
            continue;
        Module &m = modules_[std::size_t(c)];
        const int line = m.tags.probe(block);
        if (line != TagArray::kNoLine) {
            m.state[std::size_t(line)] = Msi::Invalid;
            m.tags.invalidateLine(line);
        }
    }
}

void
CoherentCache::invalidateAll()
{
    for (Module &m : modules_) {
        m.tags.clear();
        for (Msi &s : m.state)
            s = Msi::Invalid;
    }
    pendingFills_.clear();
}

void
CoherentCache::resetModel()
{
    for (Module &m : modules_) {
        m.tags.reset();
        for (Msi &s : m.state)
            s = Msi::Invalid;
    }
    memBuses_.reset();
}

} // namespace vliw

#include "machine_config.hh"

#include <sstream>

#include "support/logging.hh"
#include "support/math_util.hh"

namespace vliw {

const char *
cacheOrgName(CacheOrg org)
{
    switch (org) {
      case CacheOrg::Interleaved: return "interleaved";
      case CacheOrg::Unified:     return "unified";
      case CacheOrg::MultiVliw:   return "multiVLIW";
    }
    return "?";
}

int
MachineConfig::subblockBytes() const
{
    return blockBytes / numClusters;
}

int
MachineConfig::wordsPerSubblock() const
{
    return subblockBytes() / interleaveBytes;
}

int
MachineConfig::cacheSets() const
{
    const int blocks = cacheBytes / blockBytes;
    return blocks / cacheWays;
}

int
MachineConfig::coherentModuleSets() const
{
    const int blocks = moduleBytes() / blockBytes;
    return blocks / cacheWays;
}

int
MachineConfig::abSets() const
{
    return abEntries / abWays;
}

std::string
MachineConfig::check() const
{
    // Messages are built only on failure: validate() runs this on
    // every Toolchain construction.
    if (numClusters < 1) {
        return detail::concat("numClusters must be >= 1, got ",
                              numClusters);
    }
    if (!isPowerOfTwo(std::uint64_t(numClusters)))
        return "numClusters must be a power of two";
    if (intUnitsPerCluster < 1 || fpUnitsPerCluster < 1 ||
        memUnitsPerCluster < 1) {
        return "each cluster needs at least one unit of each kind";
    }
    if (blockBytes < 1 || !isPowerOfTwo(std::uint64_t(blockBytes)))
        return "blockBytes must be a power of two";
    if (interleaveBytes < 1 ||
        !isPowerOfTwo(std::uint64_t(interleaveBytes)))
        return "interleaveBytes must be a power of two";
    if (cacheWays < 1)
        return "cacheWays must be >= 1";
    if (cacheBytes < 1 || cacheBytes % (blockBytes * cacheWays) != 0) {
        return detail::concat("cacheBytes not divisible into ",
                              cacheWays, "-way sets of ", blockBytes,
                              "-byte blocks");
    }
    if (blockBytes % (numClusters * interleaveBytes) != 0) {
        return detail::concat(
            "block of ", blockBytes, " bytes cannot be word-",
            "interleaved over ", numClusters, " clusters at ",
            interleaveBytes, "-byte granularity");
    }
    if (cacheBytes % numClusters != 0)
        return "cacheBytes must divide evenly across clusters";
    if (regBuses < 1 || memBuses < 1)
        return "need at least one bus of each kind";
    if (abWays < 1 || abEntries < 1 || abEntries % abWays != 0)
        return "abEntries must be a multiple of abWays";
    if (!(latLocalHit <= latRemoteHit && latRemoteHit <= latLocalMiss &&
          latLocalMiss <= latRemoteMiss)) {
        return "access-class latencies must be monotonic "
               "LH <= RH <= LM <= RM";
    }
    if (regsPerCluster < 8) {
        return detail::concat("regsPerCluster unrealistically small: ",
                              regsPerCluster);
    }
    return "";
}

void
MachineConfig::validate() const
{
    const std::string problem = check();
    if (!problem.empty())
        vliw_fatal(problem);
}

std::string
MachineConfig::describe() const
{
    std::ostringstream os;
    os << numClusters << "-cluster " << cacheOrgName(cacheOrg);
    switch (cacheOrg) {
      case CacheOrg::Interleaved:
        os << " I=" << interleaveBytes
           << (attractionBuffers ? " +AB" : "");
        break;
      case CacheOrg::Unified:
        os << " L=" << latUnified;
        break;
      case CacheOrg::MultiVliw:
        break;
    }
    return os.str();
}

MachineConfig
MachineConfig::paperInterleaved()
{
    MachineConfig cfg;
    cfg.cacheOrg = CacheOrg::Interleaved;
    cfg.validate();
    return cfg;
}

MachineConfig
MachineConfig::paperInterleavedAb()
{
    MachineConfig cfg = paperInterleaved();
    cfg.attractionBuffers = true;
    cfg.abEntries = 16;
    cfg.abWays = 2;
    cfg.validate();
    return cfg;
}

MachineConfig
MachineConfig::paperUnified(int latency)
{
    MachineConfig cfg;
    cfg.cacheOrg = CacheOrg::Unified;
    cfg.latUnified = latency;
    cfg.unifiedPorts = 5;
    cfg.validate();
    return cfg;
}

MachineConfig
MachineConfig::paperMultiVliw()
{
    MachineConfig cfg;
    cfg.cacheOrg = CacheOrg::MultiVliw;
    cfg.validate();
    return cfg;
}

} // namespace vliw

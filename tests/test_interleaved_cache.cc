/**
 * @file
 * Tests for the word-interleaved cache model: the four access
 * classes and their Table-2 latencies, request combining, wide
 * (granularity > I) accesses, Attraction Buffer behaviour, and bus
 * contention.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mem/interleaved_cache.hh"

namespace vliw {
namespace {

class InterleavedCacheTest : public ::testing::Test
{
  protected:
    MemRequest
    req(int cluster, std::uint64_t addr, Cycles t, bool store = false,
        int size = 4)
    {
        MemRequest r;
        r.cluster = cluster;
        r.addr = addr;
        r.size = size;
        r.isStore = store;
        r.issueCycle = t;
        return r;
    }

    MachineConfig cfg = MachineConfig::paperInterleaved();
};

TEST_F(InterleavedCacheTest, LocalMissThenLocalHit)
{
    InterleavedCache cache(cfg);
    // Address 0: word 0 -> cluster 0. Cold cache: local miss.
    const auto miss = cache.access(req(0, 0, 100));
    EXPECT_EQ(miss.cls, AccessClass::LocalMiss);
    EXPECT_EQ(miss.readyCycle, 100 + cfg.latLocalMiss);
    EXPECT_FALSE(miss.referencedRemote);

    const auto hit = cache.access(req(0, 0, 200));
    EXPECT_EQ(hit.cls, AccessClass::LocalHit);
    EXPECT_EQ(hit.readyCycle, 200 + cfg.latLocalHit);
}

TEST_F(InterleavedCacheTest, RemoteMissThenRemoteHit)
{
    InterleavedCache cache(cfg);
    // Address 4: word 1 -> cluster 1; accessed from cluster 0.
    const auto miss = cache.access(req(0, 4, 100));
    EXPECT_EQ(miss.cls, AccessClass::RemoteMiss);
    EXPECT_EQ(miss.readyCycle, 100 + cfg.latRemoteMiss);
    EXPECT_TRUE(miss.referencedRemote);

    const auto hit = cache.access(req(0, 4, 200));
    EXPECT_EQ(hit.cls, AccessClass::RemoteHit);
    EXPECT_EQ(hit.readyCycle, 200 + cfg.latRemoteHit);
}

TEST_F(InterleavedCacheTest, TagsAreLogicallyShared)
{
    InterleavedCache cache(cfg);
    // A fill triggered by cluster 0 brings the whole block, so a
    // later access to another word of it hits (remotely).
    (void)cache.access(req(0, 0, 100));          // fill block 0
    const auto other_word = cache.access(req(0, 8, 200));
    EXPECT_EQ(other_word.cls, AccessClass::RemoteHit);
    const auto local_word = cache.access(req(2, 8, 300));
    EXPECT_EQ(local_word.cls, AccessClass::LocalHit);
}

TEST_F(InterleavedCacheTest, CombiningAbsorbsPendingFill)
{
    InterleavedCache cache(cfg);
    const auto first = cache.access(req(0, 0, 100));
    EXPECT_EQ(first.cls, AccessClass::LocalMiss);
    // Another access to the same block while the fill is in flight
    // is combined and completes with the fill.
    const auto second = cache.access(req(0, 0, 102));
    EXPECT_EQ(second.cls, AccessClass::Combined);
    EXPECT_EQ(second.readyCycle, first.readyCycle);
    // After the fill lands, ordinary hits resume.
    const auto third = cache.access(req(0, 0, 200));
    EXPECT_EQ(third.cls, AccessClass::LocalHit);
}

TEST_F(InterleavedCacheTest, CombiningAbsorbsPendingRemoteFetch)
{
    InterleavedCache cache(cfg);
    (void)cache.access(req(1, 0, 50));            // warm block 0
    const auto first = cache.access(req(1, 0, 100));
    ASSERT_EQ(first.cls, AccessClass::RemoteHit);
    const auto second = cache.access(req(1, 0, 101));
    EXPECT_EQ(second.cls, AccessClass::Combined);
    EXPECT_EQ(second.readyCycle, first.readyCycle);
}

TEST_F(InterleavedCacheTest, WideElementsAreAlwaysRemote)
{
    InterleavedCache cache(cfg);
    // An 8-byte access from the word's own home cluster still spans
    // a second module (Section 5.2: double-precision accesses).
    const auto cold = cache.access(req(0, 0, 100, false, 8));
    EXPECT_EQ(cold.cls, AccessClass::RemoteMiss);
    const auto warm = cache.access(req(0, 0, 200, false, 8));
    EXPECT_EQ(warm.cls, AccessClass::RemoteHit);
    EXPECT_EQ(cache.classify(req(1, 0, 0, false, 8)),
              AccessClass::RemoteHit);
}

TEST_F(InterleavedCacheTest, StoresClassifyLikeLoads)
{
    InterleavedCache cache(cfg);
    const auto miss = cache.access(req(0, 4, 100, true));
    EXPECT_EQ(miss.cls, AccessClass::RemoteMiss);
    const auto hit = cache.access(req(0, 4, 200, true));
    EXPECT_EQ(hit.cls, AccessClass::RemoteHit);
    // A store's "ready" is cheaper: one bus leg, no reply.
    EXPECT_LT(hit.readyCycle, 200 + cfg.latRemoteHit);
    EXPECT_EQ(cache.stats().stores, 2u);
}

TEST_F(InterleavedCacheTest, LruEvictsWithinSet)
{
    InterleavedCache cache(cfg);
    const auto way_span =
        std::uint64_t(cfg.cacheSets()) * cfg.blockBytes;
    (void)cache.access(req(0, 0, 100));
    (void)cache.access(req(0, way_span, 200));
    (void)cache.access(req(0, 2 * way_span, 300));  // evicts addr 0
    const auto again = cache.access(req(0, 0, 400));
    EXPECT_EQ(again.cls, AccessClass::LocalMiss);
}

TEST_F(InterleavedCacheTest, BusContentionDelaysRemoteHits)
{
    InterleavedCache cache(cfg);
    // Warm two blocks, then fire six remote hits within two cycles:
    // 12 bus legs compete for 4 half-frequency buses.
    (void)cache.access(req(0, 0, 10));
    (void)cache.access(req(0, 32, 11));
    Cycles worst = 0;
    for (int c = 1; c < 4; ++c) {
        const auto r = cache.access(req(c, 0, 100));
        EXPECT_EQ(r.cls, AccessClass::RemoteHit);
        worst = std::max(worst, r.readyCycle);
    }
    for (int c = 1; c < 4; ++c) {
        const auto r = cache.access(req(c, 32, 101));
        EXPECT_EQ(r.cls, AccessClass::RemoteHit);
        worst = std::max(worst, r.readyCycle);
    }
    // With contention at least one access is later than uncontended
    // and the bus queue recorded waits.
    EXPECT_GT(worst, 101 + cfg.latRemoteHit);
    EXPECT_GT(cache.stats().busWaitCycles, 0);
}

TEST_F(InterleavedCacheTest, DirtyEvictionWritesBack)
{
    InterleavedCache cache(cfg);
    const auto way_span =
        std::uint64_t(cfg.cacheSets()) * cfg.blockBytes;
    // Dirty one block, then displace it twice over.
    (void)cache.access(req(0, 0, 100, true));
    (void)cache.access(req(0, way_span, 200));
    (void)cache.access(req(0, 2 * way_span, 300));
    EXPECT_EQ(cache.stats().writebacks, 1u);
    // Clean evictions do not write back.
    (void)cache.access(req(0, 3 * way_span, 400));
    (void)cache.access(req(0, 4 * way_span, 500));
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

class InterleavedAbTest : public InterleavedCacheTest
{
  protected:
    MachineConfig ab_cfg = MachineConfig::paperInterleavedAb();
};

TEST_F(InterleavedAbTest, RemoteLoadAttractsSubblock)
{
    InterleavedCache cache(ab_cfg);
    (void)cache.access(req(1, 4, 10));     // warm block 0
    const auto remote = cache.access(req(0, 4, 100));
    EXPECT_EQ(remote.cls, AccessClass::RemoteHit);
    // Word 1 and word 5 share cluster 1's subblock: both now local.
    const auto hit1 = cache.access(req(0, 4, 200));
    EXPECT_EQ(hit1.cls, AccessClass::LocalHit);
    EXPECT_TRUE(hit1.abHit);
    const auto hit2 = cache.access(req(0, 20, 300));
    EXPECT_EQ(hit2.cls, AccessClass::LocalHit);
    EXPECT_TRUE(hit2.abHit);
}

TEST_F(InterleavedAbTest, NonAttractableLoadsSkipTheBuffer)
{
    InterleavedCache cache(ab_cfg);
    (void)cache.access(req(1, 4, 10));
    MemRequest r = req(0, 4, 100);
    r.attractable = false;
    (void)cache.access(r);
    const auto second = cache.access(req(0, 4, 200));
    EXPECT_EQ(second.cls, AccessClass::RemoteHit);
}

TEST_F(InterleavedAbTest, LoopBoundaryFlushes)
{
    InterleavedCache cache(ab_cfg);
    (void)cache.access(req(1, 4, 10));
    (void)cache.access(req(0, 4, 100));     // attract
    cache.loopBoundary();
    const auto after = cache.access(req(0, 4, 200));
    EXPECT_EQ(after.cls, AccessClass::RemoteHit);
}

TEST_F(InterleavedAbTest, StoresUpdateTheReplica)
{
    InterleavedCache cache(ab_cfg);
    (void)cache.access(req(1, 4, 10));
    (void)cache.access(req(0, 4, 100));     // attract into cluster 0
    const auto st = cache.access(req(0, 4, 200, true));
    EXPECT_TRUE(st.abHit);                  // write-update policy
    const auto ld = cache.access(req(0, 4, 300));
    EXPECT_TRUE(ld.abHit);
}

TEST_F(InterleavedAbTest, AbHitsCountAsLocalInStats)
{
    InterleavedCache cache(ab_cfg);
    (void)cache.access(req(1, 4, 10));
    (void)cache.access(req(0, 4, 100));
    (void)cache.access(req(0, 4, 200));
    const MemStats &stats = cache.stats();
    EXPECT_EQ(stats.abHits, 1u);
    // LocalMiss (warm-up) + RemoteHit (attract) + LocalHit (AB).
    EXPECT_EQ(stats.classCount(AccessClass::LocalHit), 1u);
    EXPECT_EQ(stats.classCount(AccessClass::RemoteHit), 1u);
}

TEST_F(InterleavedCacheTest, BlockCrossingAccessPanics)
{
    // The check derives the in-block offset from the block number;
    // it must still refuse an element that straddles two blocks,
    // for every block size, and accept one that ends on the edge.
    for (const int block : {32, 64}) {
        MachineConfig c = cfg;
        c.blockBytes = block;
        InterleavedCache cache(c);
        const std::uint64_t edge = 3 * std::uint64_t(block);
        EXPECT_NO_THROW(cache.access(req(0, edge - 8, 10, false, 8)));
        for (const std::uint64_t addr : {edge - 4, edge - 2, edge - 1}) {
            try {
                cache.access(req(0, addr, 20, false, 8));
                ADD_FAILURE() << "no panic at " << addr << ", block "
                              << block;
            } catch (const std::logic_error &err) {
                EXPECT_NE(std::string(err.what()).find(
                              "access crosses a cache-block boundary"),
                          std::string::npos)
                    << err.what();
            }
        }
    }
}

} // namespace
} // namespace vliw

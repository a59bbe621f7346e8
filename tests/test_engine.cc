/**
 * @file
 * Tests for the batch experiment engine: grid expansion, the worker
 * pool, compile-result memoization (artifacts and loop front ends),
 * the determinism contract (parallel == serial == direct Toolchain,
 * bit for bit), and the report serialisers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <latch>
#include <memory>
#include <set>
#include <sstream>

#include "ddg/mii.hh"
#include "dist/artifact.hh"
#include "dist/compile_store.hh"
#include "engine/compile_cache.hh"
#include "engine/engine.hh"
#include "engine/report.hh"
#include "engine/worker_pool.hh"
#include "sched/unroll_policy.hh"
#include "workloads/dataset.hh"
#include "workloads/mediabench.hh"
#include "workloads/profiler.hh"
#include "util_random_ddg.hh"

namespace vliw {
namespace {

using engine::CompileCacheStats;
using engine::EngineOptions;
using engine::ExperimentEngine;
using engine::ExperimentGrid;
using engine::ExperimentResult;
using engine::ExperimentSpec;
using engine::WorkerPool;

/** Field-by-field equality over everything SimStats records. */
::testing::AssertionResult
simStatsEqual(const SimStats &a, const SimStats &b)
{
    if (a.totalCycles != b.totalCycles)
        return ::testing::AssertionFailure()
            << "totalCycles " << a.totalCycles << " vs "
            << b.totalCycles;
    if (a.stallCycles != b.stallCycles)
        return ::testing::AssertionFailure()
            << "stallCycles " << a.stallCycles << " vs "
            << b.stallCycles;
    if (a.accessesByClass != b.accessesByClass)
        return ::testing::AssertionFailure() << "accessesByClass";
    if (a.stallByClass != b.stallByClass)
        return ::testing::AssertionFailure() << "stallByClass";
    if (a.remoteHitFactors.multiCluster !=
            b.remoteHitFactors.multiCluster ||
        a.remoteHitFactors.unclearPreferred !=
            b.remoteHitFactors.unclearPreferred ||
        a.remoteHitFactors.notInPreferred !=
            b.remoteHitFactors.notInPreferred ||
        a.remoteHitFactors.granularity !=
            b.remoteHitFactors.granularity)
        return ::testing::AssertionFailure() << "remoteHitFactors";
    if (a.dynamicOps != b.dynamicOps || a.dynamicCopies != b.dynamicCopies)
        return ::testing::AssertionFailure() << "dynamic op counts";
    if (a.memAccesses != b.memAccesses || a.abHits != b.abHits)
        return ::testing::AssertionFailure() << "memAccesses/abHits";
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
resultsEqual(const std::vector<ExperimentResult> &a,
             const std::vector<ExperimentResult> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
            << "result counts " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].spec.label() != b[i].spec.label())
            return ::testing::AssertionFailure()
                << "order differs at " << i << ": "
                << a[i].spec.label() << " vs " << b[i].spec.label();
        auto stats = simStatsEqual(a[i].run().total, b[i].run().total);
        if (!stats)
            return ::testing::AssertionFailure()
                << a[i].spec.label() << ": " << stats.message();
        if (a[i].run().loops.size() != b[i].run().loops.size())
            return ::testing::AssertionFailure()
                << a[i].spec.label() << ": loop counts differ";
        for (std::size_t l = 0; l < a[i].run().loops.size(); ++l) {
            const LoopRun &la = a[i].run().loops[l];
            const LoopRun &lb = b[i].run().loops[l];
            if (la.ii != lb.ii || la.unrollFactor != lb.unrollFactor ||
                la.stageCount != lb.stageCount ||
                la.copies != lb.copies ||
                la.unchainedInvocations != lb.unchainedInvocations)
                return ::testing::AssertionFailure()
                    << a[i].spec.label() << "/" << la.name
                    << ": loop fields differ";
            auto loop_stats = simStatsEqual(la.sim, lb.sim);
            if (!loop_stats)
                return ::testing::AssertionFailure()
                    << a[i].spec.label() << "/" << la.name << ": "
                    << loop_stats.message();
        }
    }
    return ::testing::AssertionSuccess();
}

// ---- grid expansion ----

TEST(ExperimentGrid, DefaultGridCoversSuiteTimesArchitectures)
{
    ExperimentGrid grid;
    EXPECT_EQ(grid.size(), mediabenchNames().size() *
                               engine::archNames().size());
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), grid.size());

    std::set<std::string> labels;
    for (const ExperimentSpec &spec : specs)
        labels.insert(spec.label());
    EXPECT_EQ(labels.size(), specs.size()) << "labels not unique";
}

TEST(ExperimentGrid, ExpansionIsBenchMajorRowMajor)
{
    ExperimentGrid grid;
    grid.benches = {"gsmdec", "rasta"};
    grid.archs = {"interleaved", "unified1"};
    grid.heuristics = {"base", "ipbc"};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    EXPECT_EQ(specs[0].label(), "gsmdec/interleaved/BASE/selective");
    EXPECT_EQ(specs[1].label(), "gsmdec/interleaved/IPBC/selective");
    EXPECT_EQ(specs[2].label(), "gsmdec/unified1/BASE/selective");
    EXPECT_EQ(specs[4].label(), "rasta/interleaved/BASE/selective");
    EXPECT_EQ(specs[7].label(), "rasta/unified1/IPBC/selective");
}

TEST(ExperimentGrid, OptionAxesReachToolchainOptions)
{
    ExperimentGrid grid;
    grid.benches = {"gsmdec"};
    grid.archs = {"interleaved"};
    grid.alignment = {true, false};
    grid.chains = {true, false};
    grid.versioning = {false, true};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    EXPECT_TRUE(specs[0].opts.varAlignment);
    EXPECT_TRUE(specs[0].opts.memChains);
    EXPECT_FALSE(specs[0].opts.loopVersioning);
    EXPECT_TRUE(specs[1].opts.loopVersioning);
    EXPECT_FALSE(specs[2].opts.memChains);
    EXPECT_FALSE(specs[4].opts.varAlignment);
}

TEST(ExperimentGrid, UnknownAxisNamesPanic)
{
    ExperimentGrid grid;
    grid.archs = {"no-such-arch"};
    EXPECT_THROW(grid.expand(), std::logic_error);
}

// ---- worker pool ----

TEST(WorkerPool, RunsEveryJobExactlyOnce)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    constexpr std::size_t kJobs = 500;
    std::vector<std::atomic<int>> hits(kJobs);
    parallelFor(pool, kJobs,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

TEST(WorkerPool, ReusableAcrossBatchesAndWaitIsABarrier)
{
    WorkerPool pool(3);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), 32 * (batch + 1));
    }
}

TEST(WorkerPool, SingleThreadRunsFifo)
{
    WorkerPool pool(1);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    pool.wait();
    ASSERT_EQ(order.size(), 16u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(WorkerPool, PriorityOrdersQueuedWorkFifoWithinPriority)
{
    WorkerPool pool(1);
    // Park the single worker so the queue builds up, then release
    // it and observe the drain order. Queue nothing until the gate
    // job runs: a worker still idle would dequeue each job as it
    // arrives, in arrival order.
    std::latch parked(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    pool.submit([&parked, open] {
        parked.count_down();
        open.wait();
    });
    parked.wait();

    std::vector<int> order;
    pool.submit([&order] { order.push_back(1); }, /*priority=*/1);
    pool.submit([&order] { order.push_back(5); }, /*priority=*/5);
    pool.submit([&order] { order.push_back(3); }, /*priority=*/3);
    pool.submit([&order] { order.push_back(50); }, /*priority=*/5);
    gate.set_value();
    pool.wait();
    EXPECT_EQ(order, (std::vector<int>{5, 50, 3, 1}));
}

TEST(WorkerPool, EscapedExceptionIsCapturedNotTerminate)
{
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    // "Jobs should not throw" -- but one that does must neither
    // std::terminate the process nor wedge the barrier.
    pool.submit([] { throw std::runtime_error("escaped!"); });
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 8);

    const std::exception_ptr err = pool.takeFirstError();
    ASSERT_TRUE(err);
    try {
        std::rethrow_exception(err);
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "escaped!");
    }
    // Collecting clears the slot; the pool stays usable.
    EXPECT_FALSE(pool.takeFirstError());
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(WorkerPool, EnsureThreadsGrowsButNeverShrinks)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    pool.ensureThreads(3);
    EXPECT_EQ(pool.threadCount(), 3);
    pool.ensureThreads(2);
    EXPECT_EQ(pool.threadCount(), 3);
    std::atomic<int> ran{0};
    parallelFor(pool, 64, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 64);
}

// ---- compile key / cache ----

TEST(CompileKey, ExcludesSimulationOnlyHardware)
{
    const ToolchainOptions opts;
    // Attraction Buffers, unified ports, memory buses: execution
    // hardware the compiler never reads.
    EXPECT_EQ(engine::compileKey(MachineConfig::paperInterleaved(),
                                 opts, "gsmdec"),
              engine::compileKey(MachineConfig::paperInterleavedAb(),
                                 opts, "gsmdec"));
    MachineConfig ports = MachineConfig::paperUnified(1);
    ports.unifiedPorts += 2;
    EXPECT_EQ(engine::compileKey(MachineConfig::paperUnified(1),
                                 opts, "gsmdec"),
              engine::compileKey(ports, opts, "gsmdec"));
}

TEST(CompileKey, CoversCompileRelevantInputs)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const ToolchainOptions opts;
    const std::string base = engine::compileKey(cfg, opts, "gsmdec");

    EXPECT_NE(base, engine::compileKey(cfg, opts, "rasta"));
    EXPECT_NE(base,
              engine::compileKey(MachineConfig::paperUnified(1),
                                 opts, "gsmdec"));
    EXPECT_NE(base,
              engine::compileKey(MachineConfig::paperUnified(5),
                                 opts, "gsmdec"));

    ToolchainOptions changed = opts;
    changed.heuristic = Heuristic::Base;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.unroll = UnrollPolicy::Ouf;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.varAlignment = false;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.memChains = false;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.profileSeed += 1;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));
    changed = opts;
    changed.loopVersioning = true;
    EXPECT_NE(base, engine::compileKey(cfg, changed, "gsmdec"));

    // With the hint pass enabled the Attraction Buffers enter the
    // compiler's view, so the AB arms must stop sharing.
    ToolchainOptions hinted = opts;
    hinted.abHints = true;
    EXPECT_NE(engine::compileKey(MachineConfig::paperInterleaved(),
                                 hinted, "gsmdec"),
              engine::compileKey(MachineConfig::paperInterleavedAb(),
                                 hinted, "gsmdec"));
}

TEST(CompileCache, SharesCompilesAcrossArchVariants)
{
    ExperimentGrid grid;
    grid.benches = {"gsmdec", "rasta"};
    grid.archs = {"interleaved", "interleaved-ab"};

    ExperimentEngine cached{EngineOptions{/*jobs=*/1, true}};
    const auto warm = cached.run(grid);
    const CompileCacheStats stats = cached.cacheStats();
    EXPECT_EQ(stats.misses, 2u);    // one compile per benchmark
    EXPECT_EQ(stats.hits, 2u);      // one reuse per benchmark
    for (const std::string &bench : grid.benches) {
        ASSERT_TRUE(stats.hitsByBench.count(bench)) << bench;
        EXPECT_GE(stats.hitsByBench.at(bench), 1u) << bench;
    }

    // Memoization must be invisible in the results.
    ExperimentEngine cold{EngineOptions{/*jobs=*/1, false}};
    const auto cold_results = cold.run(grid);
    EXPECT_TRUE(resultsEqual(warm, cold_results));
    EXPECT_EQ(cold.cacheStats().hits + cold.cacheStats().misses, 0u);
}

TEST(CompileCache, DistinctLatenciesDoNotShare)
{
    ExperimentGrid grid;
    grid.benches = {"gsmdec"};
    grid.archs = {"unified1", "unified5"};
    grid.heuristics = {"base"};

    ExperimentEngine eng{EngineOptions{/*jobs=*/1, true}};
    eng.run(grid);
    EXPECT_EQ(eng.cacheStats().misses, 2u);
    EXPECT_EQ(eng.cacheStats().hits, 0u);
}

TEST(CompileCache, PersistsAcrossBatches)
{
    ExperimentGrid grid;
    grid.benches = {"gsmdec"};
    grid.archs = {"interleaved"};

    ExperimentEngine eng{EngineOptions{/*jobs=*/2, true}};
    eng.run(grid);
    eng.run(grid);
    EXPECT_EQ(eng.cacheStats().misses, 1u);
    EXPECT_EQ(eng.cacheStats().hits, 1u);
}

TEST(CompileCache, CapacityEvictsLruAndCountsEvictions)
{
    engine::CompileCache cache(/*capacity=*/1);
    const ToolchainOptions opts;
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const BenchmarkSpec rasta = makeBenchmark("rasta");
    const MachineConfig cfg = MachineConfig::paperInterleaved();

    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Second key evicts the first (LRU, capacity 1)...
    cache.compile(cfg, opts, rasta);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // ...so the first compiles again: a miss, not a hit.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().evictions, 2u);

    // Unbounded caches never evict.
    engine::CompileCache unbounded;
    unbounded.compile(cfg, opts, gsm);
    unbounded.compile(cfg, opts, rasta);
    EXPECT_EQ(unbounded.size(), 2u);
    EXPECT_EQ(unbounded.stats().evictions, 0u);
}

TEST(CompileCache, ScriptedStoreSequenceCountsExactly)
{
    char tmpl[] = "/tmp/wivliw_cache_XXXXXX";
    const std::string dir = mkdtemp(tmpl);
    auto store = std::make_shared<dist::CompileStore>(dir);
    ASSERT_TRUE(store->status().ok());

    const ToolchainOptions opts;
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const BenchmarkSpec rasta = makeBenchmark("rasta");
    const MachineConfig cfg = MachineConfig::paperInterleaved();

    // Capacity 1 so every second key round-trips the store.
    engine::CompileCache cache(/*capacity=*/1, store);

    // Cold: memory miss, store miss, publication.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().storeMisses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);

    // Warm in memory: the store is not even consulted.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().storeHits, 0u);
    EXPECT_EQ(cache.stats().storeMisses, 1u);

    // New key evicts gsmdec and publishes rasta.
    cache.compile(cfg, opts, rasta);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().storeMisses, 2u);
    EXPECT_EQ(cache.stats().stores, 2u);

    // gsmdec again: memory miss, but the store still has it — a
    // store hit, no compile, no re-publication.
    cache.compile(cfg, opts, gsm);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().storeHits, 1u);
    EXPECT_EQ(cache.stats().stores, 2u);

    // A brand-new cache on the same directory starts fully warm.
    engine::CompileCache fresh(/*capacity=*/0, store);
    fresh.compile(cfg, opts, gsm);
    fresh.compile(cfg, opts, rasta);
    EXPECT_EQ(fresh.stats().misses, 2u);
    EXPECT_EQ(fresh.stats().storeHits, 2u);
    EXPECT_EQ(fresh.stats().storeMisses, 0u);
    EXPECT_EQ(fresh.stats().stores, 0u);

    std::string cleanup = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
}

TEST(CompileCache, FailedCompilesAreNotCached)
{
    engine::CompileCache cache;
    ToolchainOptions opts;
    opts.maxIiTries = 1;    // no schedule fits in one II attempt
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const MachineConfig cfg = MachineConfig::paperInterleaved();

    EXPECT_THROW(cache.compile(cfg, opts, gsm), CompileError);
    // The failure vacated the slot: a retry with workable options
    // compiles fresh instead of replaying the cached exception.
    EXPECT_EQ(cache.size(), 0u);
    opts.maxIiTries = 64;
    EXPECT_NO_THROW(cache.compile(cfg, opts, gsm));
}

// ---- front tier ----

/** Node-by-node equality of two profiles. */
::testing::AssertionResult
profilesEqual(const ProfileMap &a, const ProfileMap &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
            << "sizes " << a.size() << " vs " << b.size();
    for (NodeId v = 0; v < a.size(); ++v) {
        const MemProfile &x = a.at(v);
        const MemProfile &y = b.at(v);
        if (x.hitRate != y.hitRate ||
            x.clusterCounts != y.clusterCounts ||
            x.preferredCluster != y.preferredCluster ||
            x.distribution != y.distribution ||
            x.localRatio != y.localRatio ||
            x.executions != y.executions)
            return ::testing::AssertionFailure() << "node " << v;
    }
    return ::testing::AssertionSuccess();
}

/** The profile of @p loop's original body, as profiling sees it. */
ProfileMap
originalProfile(const BenchmarkSpec &bench, const LoopSpec &loop,
                const MachineConfig &cfg, const ToolchainOptions &opts)
{
    const DataSet ds = makeDataSet(bench, cfg, opts.profileSeed,
                                   opts.varAlignment);
    AddressResolver addr(loop.body, bench, ds);
    return profileLoop(loop.body, addr, loop.avgIterations,
                       loop.invocations, cfg, opts.profile);
}

TEST(FrontTier, SharedAcrossHeuristicsArchsAndOptionsByteIdentically)
{
    const BenchmarkSpec epic = makeBenchmark("epicdec");
    const std::vector<std::pair<std::string, MachineConfig>> archs = {
        {"interleaved", MachineConfig::paperInterleaved()},
        {"interleaved-ab", MachineConfig::paperInterleavedAb()},
        {"unified1", MachineConfig::paperUnified(1)},
        {"unified5", MachineConfig::paperUnified(5)},
        {"multivliw", MachineConfig::paperMultiVliw()}};
    engine::CompileCache cache;
    for (const auto &[arch, cfg] : archs) {
        for (const Heuristic h :
             {Heuristic::Base, Heuristic::Ibc, Heuristic::Ipbc}) {
            for (const bool versioning : {false, true}) {
                for (const bool hints : {false, true}) {
                    ToolchainOptions opts;
                    opts.heuristic = h;
                    opts.loopVersioning = versioning;
                    opts.abHints = hints;
                    const std::string key =
                        engine::compileKey(cfg, opts, epic.name);
                    EXPECT_EQ(
                        dist::encodeArtifact(
                            *cache.compile(cfg, opts, epic), key),
                        dist::encodeArtifact(
                            Toolchain(cfg, opts).compileBenchmark(epic),
                            key))
                        << arch << "/" << heuristicName(h)
                        << (versioning ? "/versioned" : "")
                        << (hints ? "/hints" : "");
                }
            }
        }
    }

    // All paper architectures share one cache geometry, so each
    // (loop, selective-unroll candidate factor) profiled once.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    std::set<std::pair<std::size_t, int>> pairs;
    for (std::size_t li = 0; li < epic.loops.size(); ++li) {
        const LoopSpec &loop = epic.loops[li];
        pairs.emplace(li, 1);
        pairs.emplace(li, cfg.numClusters);
        pairs.emplace(li, computeOuf(loop.body,
                                     originalProfile(epic, loop, cfg,
                                                     {}),
                                     cfg));
    }
    const CompileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.frontMisses, pairs.size());
    EXPECT_EQ(cache.fronts().size(), pairs.size());
    EXPECT_GT(stats.frontHits, stats.frontMisses);
    EXPECT_EQ(stats.frontEvictions, 0u);
}

TEST(FrontTier, KeyTracksGeometryAndProfileInputsOnly)
{
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    ToolchainOptions opts;
    opts.unroll = UnrollPolicy::None;
    engine::CompileCache cache;
    cache.compile(cfg, opts, gsm);
    std::uint64_t misses = cache.stats().frontMisses;
    ASSERT_EQ(misses, gsm.loops.size());

    // Inputs the front end never reads: every front hits.
    auto expectHit = [&](const MachineConfig &c,
                         const ToolchainOptions &o, const char *what) {
        cache.compile(c, o, gsm);
        EXPECT_EQ(cache.stats().frontMisses, misses) << what;
    };
    ToolchainOptions heuristic = opts;
    heuristic.heuristic = Heuristic::Base;
    expectHit(cfg, heuristic, "heuristic");
    MachineConfig latency = cfg;
    latency.latUnified += 3;
    expectHit(latency, opts, "latUnified");
    MachineConfig org = cfg;
    org.cacheOrg = CacheOrg::MultiVliw;
    expectHit(org, opts, "cacheOrg");

    // Geometry and profile inputs: every front misses.
    auto expectMiss = [&](const MachineConfig &c,
                          const ToolchainOptions &o, const char *what) {
        cache.compile(c, o, gsm);
        EXPECT_EQ(cache.stats().frontMisses, misses + gsm.loops.size())
            << what;
        misses = cache.stats().frontMisses;
    };
    MachineConfig ways = cfg;
    ways.cacheWays *= 2;
    expectMiss(ways, opts, "cacheWays");
    ToolchainOptions seed = opts;
    seed.profileSeed += 1;
    expectMiss(cfg, seed, "profileSeed");
    MachineConfig interleave = cfg;
    interleave.interleaveBytes *= 2;
    expectMiss(interleave, opts, "interleaveBytes");
}

TEST(FrontTier, ThrowingFrontVacatesItsSlot)
{
    const BenchmarkSpec gsm = makeBenchmark("gsmdec");
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const ToolchainOptions opts;
    engine::FrontCache fronts;
    EXPECT_THROW(fronts.front(cfg, opts, gsm, 0, 1,
                              []() -> LoopFront {
                                  throw CompileError("boom");
                              }),
                 CompileError);
    EXPECT_EQ(fronts.size(), 0u);

    // The retry builds fresh instead of replaying the failure.
    const LoopSpec &loop = gsm.loops.front();
    const auto front = fronts.front(cfg, opts, gsm, 0, 1, [&] {
        LoopFront f;
        f.ddg = loop.body;
        return f;
    });
    EXPECT_EQ(front->ddg.numNodes(), loop.body.numNodes());
    EXPECT_EQ(fronts.size(), 1u);
    EXPECT_EQ(fronts.misses(), 2u);
    EXPECT_EQ(fronts.hits(), 0u);
}

TEST(FrontTier, CapacityBoundsFrontsWithoutChangingArtifacts)
{
    const BenchmarkSpec epic = makeBenchmark("epicdec");
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    ToolchainOptions opts;
    opts.loopVersioning = true;
    engine::CompileCache bounded(/*capacity=*/2);
    engine::CompileCache unbounded;
    for (const Heuristic h :
         {Heuristic::Base, Heuristic::Ibc, Heuristic::Ipbc}) {
        opts.heuristic = h;
        const std::string key = engine::compileKey(cfg, opts, epic.name);
        EXPECT_EQ(
            dist::encodeArtifact(*bounded.compile(cfg, opts, epic), key),
            dist::encodeArtifact(*unbounded.compile(cfg, opts, epic),
                                 key));
        EXPECT_LE(bounded.fronts().size(), 2u);
    }
    EXPECT_GT(bounded.stats().frontEvictions, 0u);
    EXPECT_GT(bounded.stats().frontMisses,
              unbounded.stats().frontMisses);
    EXPECT_EQ(unbounded.stats().frontEvictions, 0u);
}

TEST(FrontTier, FactorOneFrontProfileIsTheOriginalBodyProfile)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    ToolchainOptions opts;
    opts.unroll = UnrollPolicy::None;
    for (const std::string &name : mediabenchNames()) {
        const BenchmarkSpec bench = makeBenchmark(name);
        const CompiledBenchmark compiled =
            Toolchain(cfg, opts).compileBenchmark(bench);
        ASSERT_EQ(compiled.loops.size(), bench.loops.size());
        for (std::size_t li = 0; li < bench.loops.size(); ++li) {
            const LoopSpec &loop = bench.loops[li];
            const CompiledLoop &front = compiled.loops[li].primary;
            ASSERT_EQ(front.unrollFactor, 1);
            EXPECT_EQ(front.ddg.numNodes(), loop.body.numNodes());
            EXPECT_TRUE(profilesEqual(
                front.profile,
                originalProfile(bench, loop, cfg, opts)))
                << name << "/" << loop.name;
        }
    }
}

// ---- twin cells (BASE/IBC) ----

/** The 14 builtins x 5 paper archs, as in the default grid. */
std::vector<std::pair<std::string, MachineConfig>>
paperArchs()
{
    return {{"interleaved", MachineConfig::paperInterleaved()},
            {"interleaved-ab", MachineConfig::paperInterleavedAb()},
            {"unified1", MachineConfig::paperUnified(1)},
            {"unified5", MachineConfig::paperUnified(5)},
            {"multivliw", MachineConfig::paperMultiVliw()}};
}

TEST(TwinCells, BaseAndIbcCompileToIdenticalArtifacts)
{
    // engine::twinCells() runs one of BASE/IBC and copies its result
    // to the other. That is only sound while the two compile to the
    // same bytes on every workload, arch and option the grid has.
    engine::CompileCache cache;
    for (const std::string &name : mediabenchNames()) {
        const BenchmarkSpec bench = makeBenchmark(name);
        for (const auto &[arch, cfg] : paperArchs()) {
            for (const bool versioning : {false, true}) {
                for (const bool hints : {false, true}) {
                    ToolchainOptions base;
                    base.heuristic = Heuristic::Base;
                    base.loopVersioning = versioning;
                    base.abHints = hints;
                    ToolchainOptions ibc = base;
                    ibc.heuristic = Heuristic::Ibc;
                    const std::string key =
                        engine::compileKey(cfg, base, bench.name);
                    EXPECT_EQ(
                        dist::encodeArtifact(
                            *cache.compile(cfg, base, bench), key),
                        dist::encodeArtifact(
                            *cache.compile(cfg, ibc, bench), key))
                        << name << "/" << arch
                        << (versioning ? "/versioned" : "")
                        << (hints ? "/hints" : "")
                        << ": BASE and IBC compile differently, so "
                           "engine::twinCells() must stop treating "
                           "them as twins (see compiledHeuristic())";
                }
            }
        }
    }
}

TEST(TwinCells, BaseAndIbcScheduleRandomLoopsIdentically)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const LatencyScheme scheme = LatencyScheme::fourClass(cfg);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto loop =
            testutil::makeRandomLoop(seed, cfg.numClusters);
        const auto circuits = findCircuits(loop.ddg);
        const LatencyAssignment lat = assignLatencies(
            loop.ddg, circuits, loop.profile, scheme, cfg);
        const int mii = std::max(
            lat.miiTarget,
            computeMii(loop.ddg, circuits, lat.latencies, cfg));
        for (const bool chains : {true, false}) {
            std::string encoded[2];
            for (const Heuristic h : {Heuristic::Base, Heuristic::Ibc}) {
                SchedulerOptions opts;
                opts.heuristic = h;
                opts.useChains = chains;
                opts.maxIiTries = 128;
                auto out = scheduleLoop(loop.ddg, circuits,
                                        lat.latencies, loop.profile,
                                        cfg, mii, opts);
                ASSERT_TRUE(out.has_value()) << "seed " << seed;
                CompiledBenchmark wrapped;
                wrapped.name = "random";
                CompiledLoop &compiled =
                    wrapped.loops.emplace_back().primary;
                compiled.name = "loop";
                compiled.ddg = loop.ddg;
                compiled.profile = loop.profile;
                compiled.latency = lat;
                compiled.sched = std::move(*out);
                compiled.mii = mii;
                encoded[h == Heuristic::Ibc] =
                    dist::encodeArtifact(wrapped, "random");
            }
            EXPECT_EQ(encoded[0], encoded[1])
                << "seed " << seed << (chains ? " chains" : "")
                << ": BASE and IBC schedule differently, so "
                   "engine::twinCells() must stop treating them as "
                   "twins (see compiledHeuristic())";
        }
    }
}

TEST(TwinCells, TwinsDifferOnlyByTheHeuristicClass)
{
    ExperimentSpec base;
    base.bench = "gsmdec";
    base.arch = engine::makeArch("interleaved");
    base.opts.heuristic = Heuristic::Base;

    ExperimentSpec ibc = base;
    ibc.opts.heuristic = Heuristic::Ibc;
    const std::atomic<bool> token{false};
    ibc.opts.cancel = &token;    // never compile-relevant
    EXPECT_TRUE(engine::twinCells(base, ibc));
    EXPECT_EQ(engine::twinHash(base), engine::twinHash(ibc));

    auto differs = [&](auto edit) {
        ExperimentSpec other = ibc;
        edit(other);
        return !engine::twinCells(base, other);
    };
    EXPECT_TRUE(differs([](ExperimentSpec &s) {
        s.opts.heuristic = Heuristic::Ipbc;
    }));
    EXPECT_TRUE(differs([](ExperimentSpec &s) {
        s.arch = engine::makeArch("interleaved-ab");
    }));
    EXPECT_TRUE(differs([](ExperimentSpec &s) {
        s.arch.config.memBuses += 1;    // simulation-only hardware
    }));
    EXPECT_TRUE(differs([](ExperimentSpec &s) {
        s.execSeeds = {1, 2};
    }));
    EXPECT_TRUE(differs([](ExperimentSpec &s) {
        s.opts.varAlignment = false;
    }));
    EXPECT_TRUE(differs([](ExperimentSpec &s) {
        s.bench = "gsmenc";
    }));
    EXPECT_TRUE(differs([](ExperimentSpec &s) {
        auto custom = std::make_shared<BenchmarkSpec>(
            makeBenchmark("gsmdec"));
        custom->fingerprint = "0123456789abcdef";
        s.workload = custom;
    }));
    // The arch's name is a label, not an input.
    EXPECT_FALSE(differs([](ExperimentSpec &s) {
        s.arch.name = "alias";
    }));
}

// ---- determinism ----

class EngineDeterminism : public ::testing::Test
{
  protected:
    static ExperimentGrid
    grid()
    {
        ExperimentGrid g;
        g.benches = {"gsmdec", "epicdec"};
        g.archs = {"interleaved", "interleaved-ab", "unified5"};
        g.heuristics = {"ipbc"};
        return g;
    }
};

TEST_F(EngineDeterminism, ParallelMatchesSerialBitForBit)
{
    ExperimentEngine serial{EngineOptions{/*jobs=*/1, true}};
    ExperimentEngine parallel{EngineOptions{/*jobs=*/8, true}};
    const auto a = serial.run(grid());
    const auto b = parallel.run(grid());
    EXPECT_TRUE(resultsEqual(a, b));
}

TEST_F(EngineDeterminism, EngineMatchesDirectToolchain)
{
    ExperimentEngine eng{EngineOptions{/*jobs=*/4, true}};
    const auto results = eng.run(grid());
    for (const ExperimentResult &r : results) {
        const Toolchain chain(r.spec.arch.config, r.spec.opts);
        const BenchmarkRun direct =
            chain.runBenchmark(makeBenchmark(r.spec.bench));
        EXPECT_TRUE(simStatsEqual(direct.total, r.run().total))
            << r.spec.label();
    }
}

TEST_F(EngineDeterminism, RepeatedRunsAreIdentical)
{
    ExperimentEngine eng{EngineOptions{/*jobs=*/8, true}};
    const auto a = eng.run(grid());
    const auto b = eng.run(grid());
    EXPECT_TRUE(resultsEqual(a, b));
}

// Versioning compiles a second loop body per hot chain; it must not
// disturb the determinism contract either.
TEST(EngineDeterminismVersioning, ParallelMatchesSerial)
{
    ExperimentGrid g;
    g.benches = {"epicdec"};
    g.archs = {"interleaved"};
    g.versioning = {false, true};
    ExperimentEngine serial{EngineOptions{/*jobs=*/1, true}};
    ExperimentEngine parallel{EngineOptions{/*jobs=*/8, true}};
    EXPECT_TRUE(resultsEqual(serial.run(g), parallel.run(g)));
}

// ---- report ----

class ReportTest : public ::testing::Test
{
  protected:
    static const std::vector<ExperimentResult> &
    results()
    {
        static const std::vector<ExperimentResult> r = [] {
            ExperimentGrid g;
            g.benches = {"gsmdec"};
            g.archs = {"interleaved", "interleaved-ab"};
            ExperimentEngine eng{EngineOptions{/*jobs=*/2, true}};
            return eng.run(g);
        }();
        return r;
    }
};

TEST_F(ReportTest, RowFlattensRunAndSpec)
{
    const engine::ReportRow row = engine::makeRow(results()[1]);
    EXPECT_EQ(row.bench, "gsmdec");
    EXPECT_EQ(row.arch, "interleaved-ab");
    EXPECT_EQ(row.heuristic, "IPBC");
    EXPECT_EQ(row.unroll, "selective");
    EXPECT_EQ(row.cycles, results()[1].run().total.totalCycles);
    EXPECT_EQ(row.cycles, row.computeCycles + row.stallCycles);
    EXPECT_GT(row.memAccesses, 0u);
    EXPECT_GT(row.copies, 0);
}

TEST_F(ReportTest, TableHasOneRowPerExperiment)
{
    const TextTable tab = engine::sweepTable(results());
    EXPECT_EQ(tab.rowCount(), results().size());
    EXPECT_EQ(tab.columnCount(), 10u);
}

TEST_F(ReportTest, CsvHasHeaderAndOneLinePerExperiment)
{
    std::ostringstream os;
    engine::writeCsv(os, results());
    const std::string text = os.str();
    EXPECT_EQ(std::size_t(std::count(text.begin(), text.end(), '\n')),
              results().size() + 1);
    EXPECT_EQ(text.rfind("benchmark,arch,heuristic", 0), 0u);
    EXPECT_NE(text.find("gsmdec,interleaved-ab,IPBC,selective"),
              std::string::npos);
}

TEST_F(ReportTest, EngineAlwaysMeasuresPerJobTiming)
{
    for (const ExperimentResult &r : results()) {
        EXPECT_GE(r.compileMs, 0.0);
        // Simulation always runs, so its wall time cannot be zero.
        EXPECT_GT(r.simulateMs, 0.0);
    }
}

TEST_F(ReportTest, TimingColumnsAppearOnlyWhenAsked)
{
    EXPECT_EQ(engine::sweepTable(results(), true).columnCount(),
              12u);
    EXPECT_EQ(engine::sweepTable(results()).columnCount(), 10u);

    std::ostringstream csv;
    engine::writeCsv(csv, results(), true);
    EXPECT_NE(csv.str().find(",compile_ms,simulate_ms"),
              std::string::npos);

    std::ostringstream json;
    engine::writeJson(json, results(), nullptr, true);
    EXPECT_NE(json.str().find("\"timing\": {\"compile_ms\": "),
              std::string::npos);
    EXPECT_NE(json.str().find("\"simulate_ms\""),
              std::string::npos);

    std::ostringstream bare;
    engine::writeJson(bare, results());
    EXPECT_EQ(bare.str().find("compile_ms"), std::string::npos);
}

TEST_F(ReportTest, JsonIsBalancedAndCarriesCacheStats)
{
    CompileCacheStats stats;
    stats.hits = 3;
    stats.misses = 2;
    stats.hitsByBench["gsmdec"] = 3;
    std::ostringstream os;
    engine::writeJson(os, results(), &stats);
    const std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
    EXPECT_NE(text.find("\"experiments\""), std::string::npos);
    EXPECT_NE(text.find("\"cache\": {\"hits\": 3, \"misses\": 2"),
              std::string::npos);
    EXPECT_NE(text.find("\"arch\": \"interleaved-ab\""),
              std::string::npos);

    // Without stats the cache object is omitted entirely.
    std::ostringstream bare;
    engine::writeJson(bare, results());
    EXPECT_EQ(bare.str().find("\"cache\""), std::string::npos);
}

} // namespace
} // namespace vliw

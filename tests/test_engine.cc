/**
 * @file
 * Tests for the experiment engine as api::Session drives it: sweep
 * expansion, the worker pool, memoization (artifacts, loop front
 * ends and runs), the determinism contract (parallel ==
 * serial == direct Toolchain, bit for bit), and the report
 * serialisers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <latch>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "api/session.hh"
#include "ddg/mii.hh"
#include "dist/artifact.hh"
#include "dist/compile_store.hh"
#include "engine/compile_cache.hh"
#include "engine/engine.hh"
#include "engine/report.hh"
#include "engine/worker_pool.hh"
#include "sched/unroll_policy.hh"
#include "support/metrics.hh"
#include "workloads/dataset.hh"
#include "workloads/mediabench.hh"
#include "workloads/profiler.hh"
#include "util_random_ddg.hh"

namespace vliw {
namespace {

using api::Session;
using api::SessionOptions;
using api::SweepRequest;
using engine::CompileCacheStats;
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

/** Run @p req on @p session; the sweep must be accepted. */
std::vector<ExperimentResult>
sweep(Session &session, const SweepRequest &req)
{
    auto res = session.sweep(req);
    EXPECT_TRUE(res.ok()) << res.status().toString();
    if (!res.ok())
        return {};
    return std::move(res.value().experiments);
}

// ---- sweep expansion ----

TEST(SweepExpansion, DefaultGridCoversSuiteTimesArchitectures)
{
    Session session{SessionOptions{.jobs = 4}};
    const auto results = sweep(session, SweepRequest{});
    EXPECT_EQ(results.size(),
              mediabenchNames().size() *
                  api::builtinRegistries().archs.size());

    std::set<std::string> labels;
    for (const ExperimentResult &r : results)
        labels.insert(r.spec.label());
    EXPECT_EQ(labels.size(), results.size()) << "labels not unique";
}

TEST(SweepExpansion, OptionAxesReachToolchainOptions)
{
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved"};
    req.alignment = {true, false};
    req.chains = {true, false};
    req.versioning = {false, true};
    Session session{SessionOptions{.jobs = 4}};
    const auto results = sweep(session, req);
    ASSERT_EQ(results.size(), 8u);
    EXPECT_TRUE(results[0].spec.opts.varAlignment);
    EXPECT_TRUE(results[0].spec.opts.memChains);
    EXPECT_FALSE(results[0].spec.opts.loopVersioning);
    EXPECT_TRUE(results[1].spec.opts.loopVersioning);
    EXPECT_FALSE(results[2].spec.opts.memChains);
    EXPECT_FALSE(results[4].spec.opts.varAlignment);
    EXPECT_EQ(results[7].spec.label(),
              "gsmdec/interleaved/IPBC/selective/noalign/nochains/"
              "versioned");
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
    SweepRequest req;
    req.workloads = {"gsmdec", "rasta"};
    req.archs = {"interleaved", "interleaved-ab"};

    Session cached{SessionOptions{.jobs = 1}};
    const auto warm = sweep(cached, req);
    const CompileCacheStats stats = cached.cacheStats();
    EXPECT_EQ(stats.misses, 2u);    // one compile per benchmark
    EXPECT_EQ(stats.hits, 2u);      // one reuse per benchmark
    for (const std::string &bench : req.workloads) {
        ASSERT_TRUE(stats.hitsByBench.count(bench)) << bench;
        EXPECT_GE(stats.hitsByBench.at(bench), 1u) << bench;
    }

    // Memoization must be invisible in the results.
    Session cold{SessionOptions{.jobs = 1, .compileCache = false}};
    const auto cold_results = sweep(cold, req);
    EXPECT_TRUE(resultsEqual(warm, cold_results));
    EXPECT_EQ(cold.cacheStats().hits + cold.cacheStats().misses, 0u);
}

TEST(CompileCache, DistinctLatenciesDoNotShare)
{
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"unified1", "unified5"};
    req.schedulers = {"base"};

    Session session{SessionOptions{.jobs = 1}};
    sweep(session, req);
    EXPECT_EQ(session.cacheStats().misses, 2u);
    EXPECT_EQ(session.cacheStats().hits, 0u);
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

/** The five paper archs, as in the default grid. */
std::vector<std::pair<std::string, MachineConfig>>
paperArchs()
{
    return {{"interleaved", MachineConfig::paperInterleaved()},
            {"interleaved-ab", MachineConfig::paperInterleavedAb()},
            {"unified1", MachineConfig::paperUnified(1)},
            {"unified5", MachineConfig::paperUnified(5)},
            {"multivliw", MachineConfig::paperMultiVliw()}};
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
    engine::CompileCache cache;
    for (const auto &[arch, cfg] : paperArchs()) {
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

TEST(FrontTier, CapacityBoundsWorkloadsWithoutChangingArtifacts)
{
    // Four workloads, twice round, under bounds below, at and above
    // their count: every artifact equals the unbounded cache's, and
    // the front tier never holds more than `capacity` workloads.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    std::vector<BenchmarkSpec> benches;
    for (const char *name : {"gsmdec", "rasta", "epicdec", "g721dec"})
        benches.push_back(makeBenchmark(name));
    engine::CompileCache unbounded;
    for (const std::size_t capacity : {1u, 2u, 4u, 24u}) {
        engine::CompileCache bounded(capacity);
        for (int round = 0; round < 2; ++round) {
            for (const BenchmarkSpec &bench : benches) {
                for (const Heuristic h :
                     {Heuristic::Base, Heuristic::Ibc, Heuristic::Ipbc}) {
                    ToolchainOptions opts;
                    opts.heuristic = h;
                    opts.loopVersioning = true;
                    const std::string key =
                        engine::compileKey(cfg, opts, bench.name);
                    EXPECT_EQ(
                        dist::encodeArtifact(
                            *bounded.compile(cfg, opts, bench), key),
                        dist::encodeArtifact(
                            *unbounded.compile(cfg, opts, bench), key))
                        << capacity << "/" << bench.name << "/"
                        << heuristicName(h);
                    EXPECT_LE(bounded.fronts().workloads(), capacity);
                }
            }
        }
        const CompileCacheStats stats = bounded.stats();
        if (capacity < benches.size()) {
            EXPECT_GT(stats.frontEvictions, 0u) << capacity;
            EXPECT_GT(stats.frontMisses, unbounded.stats().frontMisses)
                << capacity;
        } else {
            EXPECT_EQ(stats.frontEvictions, 0u) << capacity;
            EXPECT_EQ(stats.frontMisses, unbounded.stats().frontMisses)
                << capacity;
        }
    }
    EXPECT_EQ(unbounded.stats().frontEvictions, 0u);
}

TEST(FrontTier, CapacityOneHoldsAWholeWorkload)
{
    // One workload's fronts fit under any bound: every artifact of
    // epicdec profiles each (loop, factor) once, as unbounded.
    const BenchmarkSpec epic = makeBenchmark("epicdec");
    engine::CompileCache bounded(/*capacity=*/1);
    engine::CompileCache unbounded;
    for (const auto &[arch, cfg] : paperArchs()) {
        for (const Heuristic h :
             {Heuristic::Base, Heuristic::Ibc, Heuristic::Ipbc}) {
            ToolchainOptions opts;
            opts.heuristic = h;
            opts.loopVersioning = true;
            const std::string key = engine::compileKey(cfg, opts, epic.name);
            EXPECT_EQ(
                dist::encodeArtifact(*bounded.compile(cfg, opts, epic), key),
                dist::encodeArtifact(*unbounded.compile(cfg, opts, epic),
                                     key))
                << arch << "/" << heuristicName(h);
        }
    }
    EXPECT_EQ(bounded.stats().frontMisses, unbounded.stats().frontMisses);
    EXPECT_EQ(bounded.stats().frontEvictions, 0u);
    EXPECT_GT(bounded.stats().evictions, 0u);
    EXPECT_EQ(bounded.fronts().workloads(), 1u);
}

TEST(FrontTier, EvictsTheLeastRecentWorkloadAsAGroup)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec a = makeBenchmark("gsmdec");
    const BenchmarkSpec b = makeBenchmark("rasta");
    const BenchmarkSpec c = makeBenchmark("g721dec");
    const metrics::Counter &evicted = metrics::registry().counter(
        "wivliw_compile_front_evictions_total");
    const std::uint64_t evictedBefore = evicted.value();
    engine::CompileCache cache(/*capacity=*/2);
    // The fronts one new artifact of @p bench had to build.
    auto built = [&](const BenchmarkSpec &bench, Heuristic h) {
        ToolchainOptions opts;
        opts.heuristic = h;
        const std::uint64_t misses = cache.stats().frontMisses;
        cache.compile(cfg, opts, bench);
        EXPECT_LE(cache.fronts().workloads(), 2u) << bench.name;
        return cache.stats().frontMisses - misses;
    };
    const std::uint64_t aFronts = built(a, Heuristic::Ipbc);
    const std::uint64_t bFronts = built(b, Heuristic::Ipbc);
    ASSERT_GT(aFronts, 0u);
    ASSERT_GT(bFronts, 0u);
    // A second artifact of A reads A's resident fronts and makes A
    // the most recent workload.
    EXPECT_EQ(built(a, Heuristic::Base), 0u);
    // C's arrival evicts B, the least recent workload, whole; each
    // of its fronts counts as one eviction.
    const std::uint64_t cFronts = built(c, Heuristic::Ipbc);
    EXPECT_EQ(cache.stats().frontEvictions, bFronts);
    EXPECT_EQ(cache.fronts().size(), aFronts + cFronts);
    EXPECT_EQ(built(a, Heuristic::Ibc), 0u);
    // B builds every front again, and evicts C (order A, C).
    EXPECT_EQ(built(b, Heuristic::Base), bFronts);
    EXPECT_EQ(cache.stats().frontEvictions, bFronts + cFronts);
    EXPECT_EQ(cache.fronts().size(), aFronts + bFronts);
    EXPECT_EQ(evicted.value() - evictedBefore, bFronts + cFronts);
}

TEST(FrontTier, WorkloadWithAFrontInFlightIsNotEvicted)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const ToolchainOptions opts;
    const BenchmarkSpec a = makeBenchmark("gsmdec");
    const BenchmarkSpec b = makeBenchmark("rasta");
    const BenchmarkSpec c = makeBenchmark("g721dec");
    auto frontOf = [](const BenchmarkSpec &bench) {
        return [&bench] {
            LoopFront f;
            f.ddg = bench.loops.front().body;
            return f;
        };
    };
    engine::FrontCache fronts(/*capacity=*/1);
    fronts.front(cfg, opts, a, 0, 1, frontOf(a));
    std::latch building(1);
    std::latch release(1);
    std::thread builder([&] {
        fronts.front(cfg, opts, a, 0, 2, [&] {
            building.count_down();
            release.wait();
            return frontOf(a)();
        });
    });
    building.wait();
    // B puts two workloads over a bound of one, but A has a front
    // in flight: neither it nor A's settled front is dropped.
    fronts.front(cfg, opts, b, 0, 1, frontOf(b));
    EXPECT_EQ(fronts.workloads(), 2u);
    EXPECT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts.evictions(), 0u);
    release.count_down();
    builder.join();
    fronts.front(cfg, opts, a, 0, 1, frontOf(a));
    EXPECT_EQ(fronts.hits(), 1u);
    EXPECT_EQ(fronts.misses(), 3u);

    // Settled again, both go as soon as a third workload arrives.
    fronts.front(cfg, opts, c, 0, 1, frontOf(c));
    EXPECT_EQ(fronts.workloads(), 1u);
    EXPECT_EQ(fronts.size(), 1u);
    EXPECT_EQ(fronts.evictions(), 3u);
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
    const api::ArchRegistry &archs = api::builtinRegistries().archs;
    ExperimentSpec base;
    base.bench = "gsmdec";
    base.arch = {"interleaved", archs.resolve("interleaved").value()};
    base.opts.heuristic = Heuristic::Base;
    base.workload =
        std::make_shared<const BenchmarkSpec>(makeBenchmark("gsmdec"));

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
    EXPECT_TRUE(differs([&](ExperimentSpec &s) {
        s.arch = {"interleaved-ab",
                  archs.resolve("interleaved-ab").value()};
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
        s.workload = std::make_shared<const BenchmarkSpec>(
            makeBenchmark("gsmenc"));
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

// ---- run tier ----

std::string
csvOf(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    engine::writeCsv(os, results);
    return os.str();
}

TEST(RunTier, ArchVariantsShareTheArtifactButNotTheRuns)
{
    // interleaved and interleaved-ab compile once but simulate
    // different hardware: one compile hit, two run misses, and the
    // results of a session that shares nothing.
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved", "interleaved-ab"};
    req.datasets = 2;

    Session cached{SessionOptions{.jobs = 1}};
    const auto warm = sweep(cached, req);
    const CompileCacheStats stats = cached.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.runMisses, 2u);
    EXPECT_EQ(stats.runHits, 0u);

    Session cold{SessionOptions{.jobs = 1, .compileCache = false}};
    const auto coldResults = sweep(cold, req);
    EXPECT_EQ(csvOf(warm), csvOf(coldResults));
    EXPECT_TRUE(resultsEqual(warm, coldResults));
    EXPECT_EQ(cold.cacheStats().runHits + cold.cacheStats().runMisses,
              0u);

    // The same sweep again simulates nothing and changes nothing.
    const auto again = sweep(cached, req);
    EXPECT_EQ(cached.cacheStats().runHits, 2u);
    EXPECT_EQ(cached.cacheStats().runMisses, 2u);
    EXPECT_EQ(csvOf(again), csvOf(coldResults));
    EXPECT_TRUE(resultsEqual(again, coldResults));
    for (const ExperimentResult &r : again) {
        EXPECT_EQ(r.simulateMs, 0.0) << r.spec.label();
        EXPECT_EQ(r.simulateDatasetMs, std::vector<double>(2, 0.0))
            << r.spec.label();
    }

    // Another data-set list is another cell.
    req.datasets = 1;
    const auto one = sweep(cached, req);
    EXPECT_EQ(cached.cacheStats().runMisses, 4u);
    EXPECT_EQ(csvOf(one), csvOf(sweep(cold, req)));
}

TEST(RunKey, EveryFieldCompileKeyLeavesOutIsKeyed)
{
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    const ToolchainOptions opts;
    const std::vector<std::uint64_t> seeds = {0x51AD};
    const std::string base = engine::runKey(cfg, opts, "gsmdec", seeds);
    EXPECT_EQ(base.rfind(engine::compileKey(cfg, opts, "gsmdec"), 0), 0u);

    const auto expectKeyed = [&](void (*change)(MachineConfig &),
                                 const char *what) {
        MachineConfig changed = cfg;
        change(changed);
        EXPECT_EQ(engine::compileKey(changed, opts, "gsmdec"),
                  engine::compileKey(cfg, opts, "gsmdec"))
            << what << " is in compileKey";
        EXPECT_NE(engine::runKey(changed, opts, "gsmdec", seeds), base)
            << what;
    };
    expectKeyed([](MachineConfig &c) { c.attractionBuffers = false; },
                "attractionBuffers");
    expectKeyed([](MachineConfig &c) { c.abEntries *= 2; }, "abEntries");
    expectKeyed([](MachineConfig &c) { c.abWays *= 2; }, "abWays");
    expectKeyed([](MachineConfig &c) { c.memBuses += 1; }, "memBuses");
    expectKeyed([](MachineConfig &c) { c.memBusOccupancy += 1; },
                "memBusOccupancy");
    expectKeyed([](MachineConfig &c) { c.unifiedPorts += 1; },
                "unifiedPorts");
    expectKeyed([](MachineConfig &c) { c.nextLevelPorts += 1; },
                "nextLevelPorts");

    // The seed list: its values, its order and its length.
    const auto key = [&](std::vector<std::uint64_t> list) {
        return engine::runKey(cfg, opts, "gsmdec", list);
    };
    EXPECT_NE(key({0x51AE}), base);
    EXPECT_NE(key({0x51AD, 0x51AD}), base);
    EXPECT_NE(key({1, 2}), key({2, 1}));
    EXPECT_NE(key({0x12, 0x3}), key({0x1, 0x23}));
    EXPECT_EQ(key({0x51AD}), base);

    // Everything compileKey covers reaches the run key too.
    EXPECT_NE(engine::runKey(cfg, opts, "rasta", seeds), base);
    ToolchainOptions base_heuristic = opts;
    base_heuristic.heuristic = Heuristic::Base;
    EXPECT_NE(engine::runKey(cfg, base_heuristic, "gsmdec", seeds), base);
}

TEST(RunTier, CapacityOneAlternatingCellsEvictWithoutChangingResults)
{
    // Two cells of different artifacts under a bound of one: each
    // evicts the other's runs, so every lookup simulates afresh.
    api::RunRequest gsm;
    gsm.workload = "gsmdec";
    api::RunRequest rasta;
    rasta.workload = "rasta";
    rasta.datasets = 2;

    Session cold{SessionOptions{.jobs = 1, .compileCache = false}};
    std::map<std::string, std::string> want;
    for (const api::RunRequest *req : {&gsm, &rasta}) {
        auto r = cold.run(*req);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        want[req->workload] = csvOf({r.value().experiment});
    }

    Session bounded{SessionOptions{.jobs = 1, .cacheCapacity = 1}};
    for (int round = 0; round < 3; ++round) {
        for (const api::RunRequest *req : {&gsm, &rasta}) {
            auto r = bounded.run(*req);
            ASSERT_TRUE(r.ok()) << r.status().toString();
            EXPECT_EQ(csvOf({r.value().experiment}), want[req->workload])
                << round << "/" << req->workload;
        }
    }
    const CompileCacheStats stats = bounded.cacheStats();
    EXPECT_GT(stats.runEvictions, 0u);
    EXPECT_EQ(stats.runHits, 0u);
    EXPECT_EQ(stats.runMisses, 6u);

    // A repeated cell still hits under the bound.
    auto again = bounded.run(rasta);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(csvOf({again.value().experiment}), want["rasta"]);
    EXPECT_EQ(bounded.cacheStats().runHits, 1u);

    // An artifact's runs are one group: both arch variants of one
    // compile stay resident under the bound.
    SweepRequest variants;
    variants.workloads = {"gsmdec"};
    variants.archs = {"interleaved", "interleaved-ab"};
    const std::string variantsCsv = csvOf(sweep(cold, variants));
    EXPECT_EQ(csvOf(sweep(bounded, variants)), variantsCsv);
    EXPECT_EQ(csvOf(sweep(bounded, variants)), variantsCsv);
    EXPECT_EQ(bounded.cacheStats().runHits, 3u);
}

// ---- eviction policy ----

/** A OnceMemo of empty fronts with one group per key. */
class MemoPolicy : public ::testing::Test
{
  protected:
    using Memo = engine::detail::OnceMemo<LoopFront>;

    static engine::detail::MemoCounters
    counters()
    {
        metrics::Registry &reg = metrics::registry();
        return {&reg.counter("test_memo_hits_total"),
                &reg.counter("test_memo_misses_total"),
                &reg.counter("test_memo_evictions_total"),
                &reg.counter("test_memo_waits_total"),
                &reg.histogram("test_memo_wait_us")};
    }

    /** Look @p key up; true when it was resident (a hit). */
    static bool
    use(Memo &memo, const std::string &key)
    {
        const std::uint64_t hits = memo.hits();
        memo.get(key, key, [] { return std::make_shared<const LoopFront>(); });
        return memo.hits() > hits;
    }
};

TEST_F(MemoPolicy, HotGroupOutlivesOneOffGroups)
{
    constexpr std::size_t kCapacity = 4;
    std::vector<std::string> trace = {"hot", "hot", "hot"};
    for (int i = 0; i < 8; ++i)
        trace.push_back("once" + std::to_string(i));

    // The premise: an LRU bound of the same size drops the hot key,
    // since more than kCapacity one-off keys follow its last use.
    std::list<std::string> lru;
    for (const std::string &key : trace) {
        lru.remove(key);
        lru.push_front(key);
        if (lru.size() > kCapacity)
            lru.pop_back();
    }
    ASSERT_EQ(std::count(lru.begin(), lru.end(), "hot"), 0);

    Memo memo(kCapacity, counters());
    for (const std::string &key : trace)
        use(memo, key);
    EXPECT_EQ(memo.groups(), kCapacity);
    // Nine groups, four resident.
    EXPECT_EQ(memo.evictions(), 9u - kCapacity);
    EXPECT_EQ(memo.uses("hot"), 3u);
    // Each one-off key evicted the least recent one-off instead.
    EXPECT_TRUE(use(memo, "hot"));
    EXPECT_FALSE(use(memo, "once3"));
    EXPECT_TRUE(use(memo, "once7"));
}

TEST_F(MemoPolicy, AgingLetsANewSteadyGroupDisplaceAFormerlyHotOne)
{
    // Capacity 2: "old" was hot; now every other lookup is "new"
    // and the rest are one-off keys. While "new" counts less than
    // "old", each one-off key evicts "new"; once it counts more,
    // the one-off keys evict "old" and each other, and "new" hits.
    constexpr std::size_t kCapacity = 2;
    constexpr int kOldUses = 1000;
    constexpr int kPeriod = 10 * kCapacity;
    Memo memo(kCapacity, counters());
    for (int i = 0; i < kOldUses; ++i)
        use(memo, "old");
    ASSERT_GT(memo.uses("old"), 0u);

    // Without aging "new" would have to outcount kOldUses lookups.
    // With it, a count never stays much above 2 x period, and an
    // unused one halves every period.
    int lookups = 0;
    int firstHit = -1;
    for (int i = 0; firstHit < 0 && lookups < kOldUses; ++i) {
        if (use(memo, "new"))
            firstHit = lookups;
        use(memo, "once" + std::to_string(i));
        lookups += 2;
    }
    ASSERT_GE(firstHit, 0) << "\"new\" never became resident";
    // "old" held for a while (a recency bound lets "new" in on its
    // second lookup), then gave way within a few periods.
    EXPECT_GE(firstHit, kPeriod);
    EXPECT_LT(firstHit, 4 * kPeriod);
    // From then on "new" stays and "old" is gone.
    for (int i = 0; i < 3 * kPeriod; ++i) {
        EXPECT_TRUE(use(memo, "new")) << i;
        use(memo, "later" + std::to_string(i));
    }
    EXPECT_FALSE(use(memo, "old"));
}

TEST_F(MemoPolicy, HistoryStaysBoundedUnderOneOffKeys)
{
    constexpr std::size_t kCapacity = 4;
    Memo memo(kCapacity, counters());
    for (int i = 0; i < 10000; ++i) {
        use(memo, "once" + std::to_string(i));
        // Each period adds 10 x capacity uses and aging halves the
        // total, so at most 20 x capacity names ever have a count.
        ASSERT_LE(memo.history(), 20 * kCapacity) << i;
    }
    EXPECT_EQ(memo.groups(), kCapacity);
    EXPECT_EQ(memo.evictions(), 10000u - kCapacity);
}

TEST_F(MemoPolicy, UnboundedMemoKeepsNoHistory)
{
    Memo memo(/*capacity=*/0, counters());
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 100; ++i)
            use(memo, "key" + std::to_string(i));
    }
    EXPECT_EQ(memo.groups(), 100u);
    EXPECT_EQ(memo.hits(), 200u);
    EXPECT_EQ(memo.evictions(), 0u);
    EXPECT_EQ(memo.uses("key0"), 0u);
    EXPECT_EQ(memo.history(), 0u);
}

// ---- determinism ----

class EngineDeterminism : public ::testing::Test
{
  protected:
    static SweepRequest
    grid()
    {
        SweepRequest req;
        req.workloads = {"gsmdec", "epicdec"};
        req.archs = {"interleaved", "interleaved-ab", "unified5"};
        req.schedulers = {"ipbc"};
        return req;
    }
};

TEST_F(EngineDeterminism, ParallelMatchesSerialBitForBit)
{
    Session serial{SessionOptions{.jobs = 1}};
    Session parallel{SessionOptions{.jobs = 8}};
    EXPECT_TRUE(resultsEqual(sweep(serial, grid()),
                             sweep(parallel, grid())));
}

TEST_F(EngineDeterminism, EngineMatchesDirectToolchain)
{
    Session session{SessionOptions{.jobs = 4}};
    for (const ExperimentResult &r : sweep(session, grid())) {
        const Toolchain chain(r.spec.arch.config, r.spec.opts);
        const BenchmarkRun direct =
            chain.runBenchmark(makeBenchmark(r.spec.bench));
        EXPECT_TRUE(simStatsEqual(direct.total, r.run().total))
            << r.spec.label();
    }
}

TEST_F(EngineDeterminism, RepeatedRunsAreIdentical)
{
    Session session{SessionOptions{.jobs = 8}};
    const auto a = sweep(session, grid());
    const auto b = sweep(session, grid());
    EXPECT_TRUE(resultsEqual(a, b));
}

// Versioning compiles a second loop body per hot chain; it must not
// disturb the determinism contract either.
TEST(EngineDeterminismVersioning, ParallelMatchesSerial)
{
    SweepRequest req;
    req.workloads = {"epicdec"};
    req.archs = {"interleaved"};
    req.versioning = {false, true};
    Session serial{SessionOptions{.jobs = 1}};
    Session parallel{SessionOptions{.jobs = 8}};
    EXPECT_TRUE(resultsEqual(sweep(serial, req), sweep(parallel, req)));
}

// ---- report ----

class ReportTest : public ::testing::Test
{
  protected:
    static const std::vector<ExperimentResult> &
    results()
    {
        static const std::vector<ExperimentResult> r = [] {
            SweepRequest req;
            req.workloads = {"gsmdec"};
            req.archs = {"interleaved", "interleaved-ab"};
            Session session{SessionOptions{.jobs = 2}};
            return sweep(session, req);
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

/**
 * @file
 * Allocation ceilings for the two workspace kernels: the scheduler
 * (sched_workspace.hh) and the simulator (sim_workspace.hh) allocate
 * almost nothing once their per-thread workspaces are warm, and these
 * tests keep it that way. The binary replaces the global operator new
 * with a counting one, so it links no other test. Each test runs its
 * fixed region once to warm up, then once counted:
 *
 *  - simulateBenchmark() over the 14 builtins x {interleaved-ab,
 *    unified1, multivliw}, one per cache-model family;
 *  - simulateBatch() of the interleaved-ab suite over 8 data sets;
 *  - scheduleLoop() over every pre-analysed builtin loop x
 *    {BASE, IBC, IPBC}.
 *
 * Nothing is timed: perfbench (perfbench/README.md) measures speed.
 * Each ceiling is 1.25x the count measured when it was set (59.643
 * per sim run, 548.5 per data set, 5.941 per schedule), so amortised
 * buffer growth never trips it while one allocation per node, per
 * op or per access does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/registries.hh"
#include "core/toolchain.hh"
#include "ddg/mii.hh"
#include "ddg/unroll.hh"
#include "sched/latency_assign.hh"
#include "sched/scheduler.hh"
#include "workloads/address_gen.hh"
#include "workloads/dataset.hh"
#include "workloads/mediabench.hh"
#include "workloads/profiler.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void *
countedNew(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

} // namespace

// Every non-aligned form is replaced, so each block is malloc'ed and
// free'd in pairs the sanitizers agree with.
void *
operator new(std::size_t size)
{
    if (void *p = countedNew(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedNew(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedNew(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace vliw {
namespace {

std::uint64_t
allocsSoFar()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** The builtin suite compiled once under one architecture. */
struct CompiledSuite
{
    Toolchain chain;
    std::vector<BenchmarkSpec> benches = mediabenchSuite();
    std::vector<CompiledBenchmark> compiled;

    explicit CompiledSuite(const std::string &arch)
        : chain(api::builtinRegistries().archs.resolve(arch).value(),
                ToolchainOptions{})
    {
        for (const BenchmarkSpec &bench : benches)
            compiled.push_back(chain.compileBenchmark(bench));
    }
};

TEST(Allocs, SimulateBenchmarkPerRun)
{
    std::vector<CompiledSuite> suites;
    for (const char *arch : {"interleaved-ab", "unified1", "multivliw"})
        suites.emplace_back(arch);

    std::uint64_t runs = 0;
    auto pass = [&] {
        for (const CompiledSuite &s : suites) {
            for (std::size_t i = 0; i < s.benches.size(); ++i) {
                const BenchmarkRun run = s.chain.simulateBenchmark(
                    s.benches[i], s.compiled[i]);
                ASSERT_GT(run.total.totalCycles, 0);
                ++runs;
            }
        }
    };
    pass();
    runs = 0;
    const std::uint64_t before = allocsSoFar();
    pass();
    const double perRun = double(allocsSoFar() - before) / double(runs);
    std::printf("allocations per sim run: %.3f over %llu runs\n",
                perRun, static_cast<unsigned long long>(runs));
    EXPECT_EQ(runs, 42u);
    EXPECT_LE(perRun, 74.554);
}

TEST(Allocs, SimulateBatchPerDataSet)
{
    const CompiledSuite suite("interleaved-ab");
    constexpr int kDataSets = 8;
    std::vector<std::uint64_t> seeds;
    for (int d = 0; d < kDataSets; ++d)
        seeds.push_back(datasetSeed(ToolchainOptions{}.execSeed, d));

    auto pass = [&] {
        for (std::size_t i = 0; i < suite.benches.size(); ++i) {
            const std::vector<BenchmarkRun> runs =
                suite.chain.simulateBatch(suite.benches[i],
                                          suite.compiled[i], seeds);
            ASSERT_EQ(runs.size(), seeds.size());
        }
    };
    pass();
    const std::uint64_t before = allocsSoFar();
    pass();
    const double perDataSet =
        double(allocsSoFar() - before) / double(kDataSets);
    std::printf("allocations per data set: %.3f\n", perDataSet);
    EXPECT_LE(perDataSet, 685.625);
}

/** One builtin loop with every scheduleLoop() input computed. */
struct PreparedLoop
{
    std::string name;
    Ddg ddg;
    ProfileMap profile;
    std::vector<Circuit> circuits;
    LatencyMap latencies;
    int mii = 1;
};

/**
 * The inputs Toolchain::compileLoop feeds the scheduler: unroll by
 * the cluster count when the trip count allows, profile, enumerate
 * circuits, assign latencies, compute the MII.
 */
std::vector<PreparedLoop>
prepareSuite(const MachineConfig &cfg)
{
    std::vector<PreparedLoop> out;
    for (const BenchmarkSpec &bench : mediabenchSuite()) {
        const DataSet ds = makeDataSet(bench, cfg, 0x9E1C, true);
        for (const LoopSpec &loop : bench.loops) {
            PreparedLoop p;
            p.name = bench.name + "/" + loop.name;
            const int factor =
                loop.avgIterations % cfg.numClusters == 0
                    ? cfg.numClusters
                    : 1;
            p.ddg = unrollDdg(loop.body, factor);
            AddressResolver addr(p.ddg, bench, ds);
            p.profile = profileLoop(p.ddg, addr,
                                    loop.avgIterations / factor,
                                    loop.invocations, cfg, {});
            p.circuits = findCircuits(p.ddg);
            LatencyAssignment asg = assignLatencies(
                p.ddg, p.circuits, p.profile,
                LatencyScheme::fourClass(cfg), cfg);
            p.mii = std::max(
                asg.miiTarget,
                computeMii(p.ddg, p.circuits, asg.latencies, cfg));
            p.latencies = std::move(asg.latencies);
            out.push_back(std::move(p));
        }
    }
    return out;
}

TEST(Allocs, ScheduleLoopPerSchedule)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const std::vector<PreparedLoop> loops = prepareSuite(cfg);

    std::uint64_t schedules = 0;
    auto pass = [&] {
        for (const PreparedLoop &p : loops) {
            for (Heuristic h :
                 {Heuristic::Base, Heuristic::Ibc, Heuristic::Ipbc}) {
                SchedulerOptions opts;
                opts.heuristic = h;
                opts.maxIiTries = 128;
                const auto out =
                    scheduleLoop(p.ddg, p.circuits, p.latencies,
                                 p.profile, cfg, p.mii, opts);
                ASSERT_TRUE(out) << p.name << " failed to schedule";
                ++schedules;
            }
        }
    };
    pass();
    schedules = 0;
    const std::uint64_t before = allocsSoFar();
    pass();
    const double perSchedule =
        double(allocsSoFar() - before) / double(schedules);
    std::printf("allocations per schedule: %.3f over %llu schedules\n",
                perSchedule, static_cast<unsigned long long>(schedules));
    EXPECT_EQ(schedules, 153u);
    EXPECT_LE(perSchedule, 7.426);
}

} // namespace
} // namespace vliw

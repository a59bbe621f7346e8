/**
 * @file
 * Properties of the batched simulation path and the simulation
 * workspace:
 *
 *  - simulateBatch() over N data sets is bit-identical to N
 *    sequential simulateBenchmark() calls, each under options whose
 *    execSeed is the corresponding batch seed;
 *  - workspace reuse is state-clean across architectures: running
 *    interleaved -> unified -> coherent back-to-back on one thread
 *    (one thread_local workspace, one kernel pool) matches runs on
 *    fresh threads (fresh workspaces);
 *  - MemSystem::resetAll() returns every model to its
 *    just-constructed state;
 *  - datasetSeed() keeps index 0 the base input.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/registries.hh"
#include "core/toolchain.hh"
#include "workloads/dataset.hh"
#include "workloads/mediabench.hh"

namespace vliw {
namespace {

/** A built-in architecture's configuration. */
MachineConfig
archConfig(const std::string &arch)
{
    return api::builtinRegistries().archs.resolve(arch).value();
}

::testing::AssertionResult
statsEqual(const SimStats &a, const SimStats &b)
{
    if (a.totalCycles != b.totalCycles)
        return ::testing::AssertionFailure()
            << "totalCycles " << a.totalCycles << " vs "
            << b.totalCycles;
    if (a.stallCycles != b.stallCycles)
        return ::testing::AssertionFailure() << "stallCycles";
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
    if (a.dynamicOps != b.dynamicOps ||
        a.dynamicCopies != b.dynamicCopies)
        return ::testing::AssertionFailure() << "dynamic op counts";
    if (a.memAccesses != b.memAccesses || a.abHits != b.abHits)
        return ::testing::AssertionFailure() << "memAccesses/abHits";
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
runsEqual(const BenchmarkRun &a, const BenchmarkRun &b)
{
    auto total = statsEqual(a.total, b.total);
    if (!total)
        return ::testing::AssertionFailure()
            << a.name << " total: " << total.message();
    if (a.loops.size() != b.loops.size())
        return ::testing::AssertionFailure()
            << a.name << ": loop counts differ";
    for (std::size_t l = 0; l < a.loops.size(); ++l) {
        auto loop = statsEqual(a.loops[l].sim, b.loops[l].sim);
        if (!loop)
            return ::testing::AssertionFailure()
                << a.name << "/" << a.loops[l].name << ": "
                << loop.message();
        if (a.loops[l].unchainedInvocations !=
            b.loops[l].unchainedInvocations)
            return ::testing::AssertionFailure()
                << a.name << "/" << a.loops[l].name
                << ": unchainedInvocations differ";
    }
    if (a.workloadBalance != b.workloadBalance)
        return ::testing::AssertionFailure()
            << a.name << ": workloadBalance differs";
    return ::testing::AssertionSuccess();
}

TEST(DatasetSeed, IndexZeroIsBase)
{
    EXPECT_EQ(datasetSeed(0x51AD, 0), 0x51ADu);
    EXPECT_NE(datasetSeed(0x51AD, 1), 0x51ADu);
    EXPECT_NE(datasetSeed(0x51AD, 1), datasetSeed(0x51AD, 2));
    // Deterministic: same inputs, same seed.
    EXPECT_EQ(datasetSeed(0x51AD, 3), datasetSeed(0x51AD, 3));
}

/** Batch over N seeds == N sequential single-dataset simulations. */
TEST(SimBatch, MatchesSequentialRuns)
{
    // g721dec's indirect table walks make the data sets genuinely
    // different; gsmdec covers the strided (dataset-invariant)
    // case. multivliw exercises the coherent model in the same
    // batch contract.
    const struct
    {
        const char *bench;
        const char *arch;
    } cases[] = {
        {"g721dec", "interleaved-ab"},
        {"gsmdec", "interleaved"},
        {"jpegdec", "multivliw"},
    };

    for (const auto &c : cases) {
        const BenchmarkSpec bench = makeBenchmark(c.bench);
        const MachineConfig cfg = archConfig(c.arch);
        ToolchainOptions opts;
        const Toolchain chain(cfg, opts);
        const CompiledBenchmark compiled =
            chain.compileBenchmark(bench);

        std::vector<std::uint64_t> seeds;
        for (int d = 0; d < 3; ++d)
            seeds.push_back(datasetSeed(opts.execSeed, d));

        const std::vector<BenchmarkRun> batch =
            chain.simulateBatch(bench, compiled, seeds);
        ASSERT_EQ(batch.size(), seeds.size());

        for (std::size_t d = 0; d < seeds.size(); ++d) {
            ToolchainOptions seq_opts = opts;
            seq_opts.execSeed = seeds[d];
            const BenchmarkRun sequential =
                Toolchain(cfg, seq_opts)
                    .simulateBenchmark(bench, compiled);
            EXPECT_TRUE(runsEqual(batch[d], sequential))
                << c.bench << "/" << c.arch << " dataset " << d;
        }
    }
}

/** Batching must also hold under loop versioning (two kernels per
 *  loop, invocation-dependent selection). */
TEST(SimBatch, MatchesSequentialRunsWithVersioning)
{
    const BenchmarkSpec bench = makeBenchmark("g721dec");
    const MachineConfig cfg = archConfig("interleaved-ab");
    ToolchainOptions opts;
    opts.loopVersioning = true;
    const Toolchain chain(cfg, opts);
    const CompiledBenchmark compiled = chain.compileBenchmark(bench);

    std::vector<std::uint64_t> seeds;
    for (int d = 0; d < 3; ++d)
        seeds.push_back(datasetSeed(opts.execSeed, d));

    const std::vector<BenchmarkRun> batch =
        chain.simulateBatch(bench, compiled, seeds);
    for (std::size_t d = 0; d < seeds.size(); ++d) {
        ToolchainOptions seq_opts = opts;
        seq_opts.execSeed = seeds[d];
        const BenchmarkRun sequential =
            Toolchain(cfg, seq_opts)
                .simulateBenchmark(bench, compiled);
        EXPECT_TRUE(runsEqual(batch[d], sequential))
            << "versioned dataset " << d;
    }
}

/**
 * Workspace reuse across architectures is state-clean: the same
 * thread simulates interleaved -> unified -> coherent back-to-back
 * (sharing one thread_local workspace), then again in reverse, and
 * every result matches the one computed on a fresh thread whose
 * workspace has never seen another architecture.
 */
TEST(SimBatch, WorkspaceStateCleanAcrossArchitectures)
{
    const BenchmarkSpec bench = makeBenchmark("jpegdec");
    const std::vector<std::string> arch_order = {
        "interleaved", "unified1", "multivliw"};

    auto run_arch = [&](const std::string &arch) {
        const MachineConfig cfg = archConfig(arch);
        const Toolchain chain(cfg, ToolchainOptions{});
        return chain.runBenchmark(bench);
    };

    // Fresh-workspace references, one thread per architecture.
    std::vector<BenchmarkRun> fresh(arch_order.size());
    for (std::size_t i = 0; i < arch_order.size(); ++i) {
        std::thread t([&, i] { fresh[i] = run_arch(arch_order[i]); });
        t.join();
    }

    // Shared workspace, forward then reverse order.
    for (std::size_t i = 0; i < arch_order.size(); ++i) {
        EXPECT_TRUE(runsEqual(run_arch(arch_order[i]), fresh[i]))
            << arch_order[i] << " (forward pass)";
    }
    for (std::size_t i = arch_order.size(); i-- > 0;) {
        EXPECT_TRUE(runsEqual(run_arch(arch_order[i]), fresh[i]))
            << arch_order[i] << " (reverse pass)";
    }
}

/** resetAll() == freshly constructed model, for all three orgs. */
TEST(SimBatch, ResetAllRestoresConstructionState)
{
    const BenchmarkSpec bench = makeBenchmark("pegwitenc");
    for (const std::string &arch :
         {std::string("interleaved-ab"), std::string("unified5"),
          std::string("multivliw")}) {
        const MachineConfig cfg = archConfig(arch);
        const Toolchain chain(cfg, ToolchainOptions{});
        const CompiledBenchmark compiled =
            chain.compileBenchmark(bench);

        // A batch that repeats the same seed: the second run only
        // matches the first if resetAll() really rewinds the model
        // (tag LRU clock, bus timing, pending tables, AB state).
        const std::vector<std::uint64_t> seeds = {
            0x51AD, 0x51AD, 0x51AD};
        const std::vector<BenchmarkRun> batch =
            chain.simulateBatch(bench, compiled, seeds);
        ASSERT_EQ(batch.size(), 3u);
        EXPECT_TRUE(runsEqual(batch[1], batch[0])) << arch;
        EXPECT_TRUE(runsEqual(batch[2], batch[0])) << arch;
    }
}

} // namespace
} // namespace vliw

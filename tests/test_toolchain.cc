/**
 * @file
 * Integration tests: the full compile-and-simulate pipeline on the
 * Mediabench-like suite, checking schedule validity everywhere and
 * the headline qualitative shapes of the paper's evaluation.
 */

#include <gtest/gtest.h>

#include "core/toolchain.hh"
#include "sched/schedule.hh"
#include "support/stats.hh"

namespace vliw {
namespace {

ToolchainOptions
baseOptions(Heuristic h, UnrollPolicy u = UnrollPolicy::Selective)
{
    ToolchainOptions opts;
    opts.heuristic = h;
    opts.unroll = u;
    opts.varAlignment = true;
    return opts;
}

double
suiteLocalHitAmean(const std::vector<BenchmarkRun> &runs)
{
    std::vector<double> vals;
    for (const BenchmarkRun &r : runs)
        vals.push_back(r.total.localHitRatio());
    return amean(vals);
}

Cycles
suiteCycles(const std::vector<BenchmarkRun> &runs)
{
    Cycles total = 0;
    for (const BenchmarkRun &r : runs)
        total += r.total.totalCycles;
    return total;
}

TEST(Toolchain, EveryLoopCompilesToAValidSchedule)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const Toolchain chain(cfg, baseOptions(Heuristic::Ipbc));
    for (const BenchmarkSpec &bench : mediabenchSuite()) {
        for (const LoopSpec &loop : bench.loops) {
            const CompiledLoop compiled =
                chain.compileLoop(bench, loop);
            EXPECT_GE(compiled.sched.schedule.ii, compiled.mii);
            MemChains chains(compiled.ddg);
            const auto err = validateSchedule(
                compiled.ddg, compiled.latency.latencies, cfg,
                compiled.sched.schedule, &chains);
            EXPECT_FALSE(err.has_value())
                << bench.name << "/" << loop.name << ": "
                << err.value_or("");
        }
    }
}

TEST(Toolchain, UnifiedPipelineCompiles)
{
    const MachineConfig cfg = MachineConfig::paperUnified(1);
    const Toolchain chain(cfg, baseOptions(Heuristic::Base));
    const BenchmarkSpec bench = makeBenchmark("gsmdec");
    for (const LoopSpec &loop : bench.loops) {
        const CompiledLoop compiled = chain.compileLoop(bench, loop);
        const auto err = validateSchedule(
            compiled.ddg, compiled.latency.latencies, cfg,
            compiled.sched.schedule, nullptr);
        EXPECT_FALSE(err.has_value()) << err.value_or("");
    }
}

TEST(Toolchain, ExhaustedIiBudgetThrowsCompileError)
{
    // gsmdec's deemphasis loop needs 2 II attempts on the
    // interleaved machine; a 1-attempt budget is a user-input
    // failure and must throw (catchable, façade-convertible), not
    // terminate the process the way vliw_fatal would.
    ToolchainOptions opts = baseOptions(Heuristic::Ipbc);
    opts.maxIiTries = 1;
    const Toolchain chain(MachineConfig::paperInterleaved(), opts);
    EXPECT_THROW(chain.compileBenchmark(makeBenchmark("gsmdec")),
                 CompileError);
}

TEST(Toolchain, RunBenchmarkProducesSaneStats)
{
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    const Toolchain chain(cfg, baseOptions(Heuristic::Ipbc));
    const BenchmarkRun run =
        chain.runBenchmark(makeBenchmark("rasta"));
    EXPECT_GT(run.total.totalCycles, 0);
    EXPECT_GT(run.total.memAccesses, 0u);
    EXPECT_GE(run.total.stallCycles, 0);
    EXPECT_LT(run.total.stallCycles, run.total.totalCycles);
    EXPECT_GE(run.workloadBalance, 0.25);
    EXPECT_LE(run.workloadBalance, 1.0);
    EXPECT_EQ(run.loops.size(),
              makeBenchmark("rasta").loops.size());
}

TEST(Toolchain, SelectiveUnrollingNeverLosesToFixedPolicies)
{
    // Selective picks per loop the best of {1, xN, OUF} by the
    // Texec estimate; its chosen factor must be one of those.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const Toolchain chain(cfg, baseOptions(Heuristic::Ipbc));
    const BenchmarkSpec bench = makeBenchmark("gsmdec");
    for (const LoopSpec &loop : bench.loops) {
        const CompiledLoop sel = chain.compileLoop(bench, loop);
        EXPECT_TRUE(sel.unrollFactor == 1 ||
                    sel.unrollFactor == cfg.numClusters ||
                    sel.unrollFactor == 8 ||
                    sel.unrollFactor == 16)
            << loop.name << " factor " << sel.unrollFactor;
    }
}

// ---- Paper-shape integration checks (Figures 4, 6, 8) ----

class PaperShapes : public ::testing::Test
{
  protected:
    static std::vector<BenchmarkRun>
    run(const MachineConfig &cfg, const ToolchainOptions &opts)
    {
        const Toolchain chain(cfg, opts);
        std::vector<BenchmarkRun> runs;
        for (const BenchmarkSpec &bench : mediabenchSuite())
            runs.push_back(chain.runBenchmark(bench));
        return runs;
    }
};

TEST_F(PaperShapes, OufUnrollingRaisesLocalHits)
{
    // Figure 4: local hits grow by >25% from no-unrolling to OUF.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const auto none =
        run(cfg, baseOptions(Heuristic::Ipbc, UnrollPolicy::None));
    const auto ouf =
        run(cfg, baseOptions(Heuristic::Ipbc, UnrollPolicy::Ouf));
    EXPECT_GT(suiteLocalHitAmean(ouf),
              suiteLocalHitAmean(none) + 0.10);
}

TEST_F(PaperShapes, VariableAlignmentRaisesLocalHits)
{
    // Figure 4: +20% local hits from variable alignment under OUF.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    ToolchainOptions aligned =
        baseOptions(Heuristic::Ipbc, UnrollPolicy::Ouf);
    ToolchainOptions unaligned = aligned;
    unaligned.varAlignment = false;
    EXPECT_GT(suiteLocalHitAmean(run(cfg, aligned)),
              suiteLocalHitAmean(run(cfg, unaligned)) + 0.05);
}

TEST_F(PaperShapes, IbcHasFewerLocalHitsThanIpbc)
{
    // Section 5.2: IBC ignores preferred clusters; its local hit
    // ratio sits near 25-35%.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const auto ipbc = run(cfg, baseOptions(Heuristic::Ipbc));
    const auto ibc = run(cfg, baseOptions(Heuristic::Ibc));
    EXPECT_LT(suiteLocalHitAmean(ibc), suiteLocalHitAmean(ipbc));
}

TEST_F(PaperShapes, AttractionBuffersReduceStall)
{
    // Figure 6: Attraction Buffers cut stall time substantially.
    const MachineConfig no_ab = MachineConfig::paperInterleaved();
    const MachineConfig ab = MachineConfig::paperInterleavedAb();
    for (Heuristic h : {Heuristic::Ibc, Heuristic::Ipbc}) {
        Cycles stall_no_ab = 0;
        Cycles stall_ab = 0;
        for (const auto &r : run(no_ab, baseOptions(h)))
            stall_no_ab += r.total.stallCycles;
        for (const auto &r : run(ab, baseOptions(h)))
            stall_ab += r.total.stallCycles;
        EXPECT_LT(double(stall_ab), 0.8 * double(stall_no_ab))
            << heuristicName(h);
    }
}

TEST_F(PaperShapes, RemoteHitsDominateStallTime)
{
    // Figure 6: remote hits cause ~3/4 of all stall time.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const auto runs = run(cfg, baseOptions(Heuristic::Ipbc));
    Cycles remote_hit = 0;
    Cycles total = 0;
    for (const auto &r : runs) {
        remote_hit += r.total.stallByClass[std::size_t(
            AccessClass::RemoteHit)];
        for (Cycles c : r.total.stallByClass)
            total += c;
    }
    ASSERT_GT(total, 0);
    EXPECT_GT(double(remote_hit) / double(total), 0.5);
}

TEST_F(PaperShapes, RealisticUnifiedCacheIsSlower)
{
    // Figure 8: the 5-cycle unified cache loses to the 1-cycle one.
    const auto u1 = run(MachineConfig::paperUnified(1),
                        baseOptions(Heuristic::Base));
    const auto u5 = run(MachineConfig::paperUnified(5),
                        baseOptions(Heuristic::Base));
    EXPECT_GT(suiteCycles(u5), suiteCycles(u1));
}

TEST_F(PaperShapes, InterleavedBeatsRealisticUnified)
{
    // Figure 8: word-interleaved + ABs outperforms unified(L=5).
    const auto inter = run(MachineConfig::paperInterleavedAb(),
                           baseOptions(Heuristic::Ipbc));
    const auto u5 = run(MachineConfig::paperUnified(5),
                        baseOptions(Heuristic::Base));
    EXPECT_LT(suiteCycles(inter), suiteCycles(u5));
}

TEST_F(PaperShapes, WorkloadBalanceNearPerfect)
{
    // Figure 7: balance sits near 0.25 for most benchmarks.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const auto runs = run(cfg, baseOptions(Heuristic::Ipbc));
    std::vector<double> balances;
    for (const auto &r : runs)
        balances.push_back(r.workloadBalance);
    EXPECT_LT(amean(balances), 0.45);
}

TEST_F(PaperShapes, MultiVliwIsCompetitive)
{
    // Figure 8: the interleaved cache performs within ~25% of the
    // multiVLIW (paper: 7% cycle-count degradation).
    const auto mv = run(MachineConfig::paperMultiVliw(),
                        baseOptions(Heuristic::Ibc));
    const auto inter = run(MachineConfig::paperInterleavedAb(),
                           baseOptions(Heuristic::Ipbc));
    EXPECT_LT(double(suiteCycles(inter)),
              1.30 * double(suiteCycles(mv)));
}

} // namespace
} // namespace vliw

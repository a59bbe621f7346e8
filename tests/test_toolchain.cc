/**
 * @file
 * Integration tests: the full compile-and-simulate pipeline on the
 * Mediabench-like suite, checking schedule validity everywhere and
 * the headline qualitative shapes of the paper's evaluation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <sstream>

#include "api/registries.hh"
#include "core/toolchain.hh"
#include "sched/schedule.hh"
#include "support/stats.hh"
#include "util_golden.hh"
#include "util_random_ddg.hh"
#include "util_schedule_digest.hh"

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

// ---- Selective unrolling against an exhaustive reference ----

/** What selective unrolling decides for one loop. */
struct UnrollChoice
{
    int factor = 0;
    int ii = 0;
    int stageCount = 0;
    std::uint64_t digest = 0;

    bool operator==(const UnrollChoice &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const UnrollChoice &c)
{
    return os << "uf=" << c.factor << " ii=" << c.ii
              << " sc=" << c.stageCount << " digest=" << c.digest;
}

UnrollChoice
choiceOf(const CompiledLoop &loop)
{
    return {loop.unrollFactor, loop.sched.schedule.ii,
            loop.sched.schedule.stageCount,
            testutil::digestSchedule(loop.sched.schedule)};
}

/**
 * The selective choice by brute force: compile @p loop under each
 * fixed policy (none, xN, OUF) and keep the first minimum of
 * estimateTexec in that order, over the policies that compile.
 */
struct ExhaustiveChoice
{
    std::optional<UnrollChoice> best;
    /** Some policy threw CompileError. */
    bool anyFailed = false;
};

ExhaustiveChoice
exhaustiveChoice(const MachineConfig &cfg, ToolchainOptions opts,
                 const BenchmarkSpec &bench, const LoopSpec &loop)
{
    ExhaustiveChoice out;
    double best_cost = 0.0;
    for (UnrollPolicy policy : {UnrollPolicy::None,
                                UnrollPolicy::TimesN,
                                UnrollPolicy::Ouf}) {
        opts.unroll = policy;
        try {
            const CompiledLoop compiled =
                Toolchain(cfg, opts).compileLoop(bench, loop);
            const double cost = estimateTexec(
                double(loop.avgIterations), compiled.unrollFactor,
                compiled.sched.schedule.stageCount,
                compiled.sched.schedule.ii);
            if (!out.best || cost < best_cost) {
                out.best = choiceOf(compiled);
                best_cost = cost;
            }
        } catch (const CompileError &) {
            out.anyFailed = true;
        }
    }
    return out;
}

/**
 * Selective unrolling must pick the exhaustive choice. A candidate
 * that fails to compile may only be skipped when its bound already
 * lost, so a selective compile that throws needs a failing policy,
 * and one that succeeds is the first minimum of the others. Returns
 * how many loops compiled.
 */
int
expectSelectiveMatchesExhaustive(const MachineConfig &cfg,
                                 const ToolchainOptions &opts,
                                 const BenchmarkSpec &bench,
                                 const std::string &label)
{
    int compiled = 0;
    const Toolchain chain(cfg, opts);
    for (const LoopSpec &loop : bench.loops) {
        const ExhaustiveChoice want =
            exhaustiveChoice(cfg, opts, bench, loop);
        try {
            const UnrollChoice got =
                choiceOf(chain.compileLoop(bench, loop));
            EXPECT_TRUE(want.best) << label << "/" << loop.name;
            if (want.best) {
                EXPECT_EQ(got, *want.best)
                    << label << "/" << loop.name;
            }
            ++compiled;
        } catch (const CompileError &e) {
            EXPECT_TRUE(want.anyFailed)
                << label << "/" << loop.name << ": " << e.what();
        }
    }
    return compiled;
}

TEST(SelectiveUnroll, BuiltinsMatchExhaustiveReference)
{
    const api::Registries &reg = api::builtinRegistries();
    for (const std::string &arch : reg.archs.names()) {
        const MachineConfig cfg = reg.archs.resolve(arch).value();
        for (Heuristic h : {Heuristic::Base, Heuristic::Ipbc}) {
            for (const BenchmarkSpec &bench : mediabenchSuite()) {
                EXPECT_EQ(std::size_t(expectSelectiveMatchesExhaustive(
                    cfg, baseOptions(h), bench,
                    arch + "/" + heuristicName(h) + "/" + bench.name)),
                    bench.loops.size());
            }
        }
    }
}

/**
 * A one-loop benchmark around generated loop @p seed. Bodies stay
 * small: unrolling multiplies the circuits of a dense random graph
 * past findCircuits' cap.
 */
BenchmarkSpec
randomBench(std::uint64_t seed, const MachineConfig &cfg,
            std::int64_t trip_count)
{
    testutil::RandomDdgOptions shape;
    shape.minNodes = 4;
    shape.maxNodes = 10;
    shape.backEdgeChance = 0.15;
    shape.maxDistance = 2;
    BenchmarkSpec bench;
    bench.name = "random" + std::to_string(seed);
    bench.addSymbol("a", 4096, SymbolSpec::Storage::Heap);
    LoopSpec loop;
    loop.name = "loop";
    loop.body = testutil::makeRandomLoop(seed, cfg.numClusters, shape).ddg;
    loop.avgIterations = trip_count;
    loop.invocations = 2;
    bench.loops.push_back(std::move(loop));
    return bench;
}

TEST(SelectiveUnroll, RandomLoopsMatchExhaustiveReference)
{
    // Trip counts divisible by every candidate factor (powers of two
    // up to the mapping period), short and long so that both the
    // unrolled and the plain bodies win some loops.
    const std::int64_t trips[] = {16, 64, 256, 4096};
    const api::Registries &reg = api::builtinRegistries();
    const std::vector<std::string> &archs = reg.archs.names();
    int compiled = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const std::string &arch = archs[seed % archs.size()];
        const MachineConfig cfg = reg.archs.resolve(arch).value();
        const BenchmarkSpec bench = randomBench(seed, cfg, trips[seed % 4]);
        compiled += expectSelectiveMatchesExhaustive(
            cfg, baseOptions(seed % 2 ? Heuristic::Ipbc
                                      : Heuristic::Base),
            bench, arch + "/" + bench.name);
    }
    // Nearly every generated loop schedules, so the comparison
    // above is not vacuous.
    EXPECT_GE(compiled, 45);
}

/** Texec lower bound of @p loop under @p policy: its MII at SC 1. */
double
policyBound(const MachineConfig &cfg, UnrollPolicy policy,
            const BenchmarkSpec &bench)
{
    const LoopSpec &loop = bench.loops.front();
    const CompiledLoop compiled =
        Toolchain(cfg, baseOptions(Heuristic::Ipbc, policy))
            .compileLoop(bench, loop);
    return estimateTexec(double(loop.avgIterations),
                         compiled.unrollFactor, 1, compiled.mii);
}

TEST(SelectiveUnroll, RuledOutCandidateMayExhaustItsIiBudget)
{
    // Generated loop 5 needs two II attempts without unrolling, one
    // at x4, and its x4 cost already beats the plain body's bound:
    // the plain body is never scheduled, so its budget cannot fail
    // the loop.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec bench = randomBench(5, cfg, 64);
    const LoopSpec &loop = bench.loops.front();
    ToolchainOptions opts = baseOptions(Heuristic::Ipbc);
    opts.maxIiTries = 1;

    ToolchainOptions plain = opts;
    plain.unroll = UnrollPolicy::None;
    ASSERT_THROW(Toolchain(cfg, plain).compileLoop(bench, loop),
                 CompileError);

    const CompiledLoop sel = Toolchain(cfg, opts).compileLoop(bench, loop);
    EXPECT_EQ(sel.unrollFactor, cfg.numClusters);
    EXPECT_LT(estimateTexec(double(loop.avgIterations),
                            sel.unrollFactor,
                            sel.sched.schedule.stageCount,
                            sel.sched.schedule.ii),
              policyBound(cfg, UnrollPolicy::None, bench));
}

TEST(SelectiveUnroll, BestBoundCandidateExhaustingItsBudgetThrows)
{
    // Generated loop 2 schedules without unrolling in two attempts
    // but not at x4, whose bound is the lowest: it is scheduled
    // first, so its failure fails the loop.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec bench = randomBench(2, cfg, 16);
    const LoopSpec &loop = bench.loops.front();
    ToolchainOptions opts = baseOptions(Heuristic::Ipbc);
    opts.maxIiTries = 2;

    ToolchainOptions plain = opts;
    plain.unroll = UnrollPolicy::None;
    EXPECT_NO_THROW(Toolchain(cfg, plain).compileLoop(bench, loop));
    ToolchainOptions times_n = opts;
    times_n.unroll = UnrollPolicy::TimesN;
    ASSERT_THROW(Toolchain(cfg, times_n).compileLoop(bench, loop),
                 CompileError);
    ASSERT_LT(policyBound(cfg, UnrollPolicy::TimesN, bench),
              policyBound(cfg, UnrollPolicy::None, bench));

    EXPECT_THROW(Toolchain(cfg, opts).compileLoop(bench, loop),
                 CompileError);
}

// ---- Attraction Buffer hints, pinned byte for byte ----

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif

TEST(AbHintsGolden, HintedCompilesMatchGolden)
{
    // No CLI flag reaches the hints, so this is their only golden:
    // per loop the attractable flag of every memory node (1/0 in
    // node order, '-' for a store) and the schedule, plus the
    // simulated cycles the hints steer.
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    ToolchainOptions opts = baseOptions(Heuristic::Ipbc);
    opts.abHints = true;
    const Toolchain chain(cfg, opts);
    std::ostringstream os;
    for (const BenchmarkSpec &bench : mediabenchSuite()) {
        const CompiledBenchmark compiled =
            chain.compileBenchmark(bench);
        for (const CompiledLoopVersions &v : compiled.loops) {
            const CompiledLoop &loop = v.primary;
            std::string flags;
            for (NodeId n : loop.ddg.memNodes()) {
                flags += loop.ddg.node(n).kind == OpKind::Store
                    ? '-'
                    : loop.ddg.memInfo(n).attractable ? '1' : '0';
            }
            char digest[32];
            std::snprintf(digest, sizeof(digest), "%016llx",
                          static_cast<unsigned long long>(
                              testutil::digestSchedule(
                                  loop.sched.schedule)));
            os << bench.name << ' ' << loop.name
               << " uf=" << loop.unrollFactor
               << " ii=" << loop.sched.schedule.ii
               << " attract=" << flags << " sched=" << digest
               << '\n';
        }
        os << bench.name << " cycles="
           << chain.simulateBenchmark(bench, compiled).cycles()
           << '\n';
    }
    testutil::expectMatchesGolden(WIVLIW_GOLDEN_DIR "/ab_hints.txt",
                                  os.str());
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

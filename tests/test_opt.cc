/**
 * @file
 * Tests for the exact modulo-scheduling solver (src/opt/): the
 * budget-key grammar, the optimality properties of proven outcomes
 * against every heuristic, certificate legality under the shared
 * schedule validator, deterministic budget exhaustion across worker
 * counts, cooperative cancellation, the optimality-gap report, and
 * a golden that pins every search counter and certificate of the
 * solver on random loops (regenerate deliberately with
 * WIVLIW_REGEN_GOLDEN=1 ./test_opt).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "api/api.hh"
#include "core/toolchain.hh"
#include "ddg/chains.hh"
#include "ddg/circuits.hh"
#include "ddg/mii.hh"
#include "engine/report.hh"
#include "opt/budget.hh"
#include "opt/gap_report.hh"
#include "opt/solver.hh"
#include "sched/latency_assign.hh"
#include "sched/schedule.hh"
#include "support/errors.hh"
#include "util_golden.hh"
#include "util_random_ddg.hh"
#include "util_schedule_digest.hh"

namespace vliw {
namespace {

using api::Registries;
using api::StatusCode;

// ---- budget-key grammar ----

TEST(BudgetKeys, ResolveParsesAndCanonicalizes)
{
    const Registries reg = Registries::builtin();

    auto plain = reg.schedulers.resolve("optimal");
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(plain.value().optimal);
    EXPECT_EQ(plain.value().budget.maxMillis, 0u);
    EXPECT_EQ(plain.value().budget.maxNodes,
              opt::SolverBudget::kDefaultNodes);
    EXPECT_EQ(plain.value().name, "optimal");

    auto keyed = reg.schedulers.resolve("optimal:b5000ms:n1e7");
    ASSERT_TRUE(keyed.ok()) << keyed.status().toString();
    EXPECT_TRUE(keyed.value().optimal);
    EXPECT_EQ(keyed.value().budget.maxMillis, 5000u);
    EXPECT_EQ(keyed.value().budget.maxNodes, 10'000'000ull);
    // Canonical form: plain digits, modifiers in grammar order.
    EXPECT_EQ(keyed.value().name, "optimal:b5000ms:n10000000");

    auto digits = reg.schedulers.resolve("optimal:n250");
    ASSERT_TRUE(digits.ok());
    EXPECT_EQ(digits.value().budget.maxNodes, 250ull);
    EXPECT_EQ(digits.value().name, "optimal:n250");
}

TEST(BudgetKeys, MalformedKeysAreInvalidArgument)
{
    const Registries reg = Registries::builtin();
    for (const char *key :
         {"optimal:", "optimal:z9", "optimal:b", "optimal:bms",
          "optimal:b0ms", "optimal:b86400001ms", "optimal:n0",
          "optimal:n", "optimal:n1e19", "optimal:n9e18",
          "optimal:n1e", "optimal:b5000"}) {
        auto r = reg.schedulers.resolve(key);
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument)
            << key << ": " << r.status().toString();
        // The grammar always rides along as the hint.
        EXPECT_NE(r.status().context().find("optimal[:b<N>ms]"),
                  std::string::npos)
            << key;
    }
    // Unknown base stays NotFound with the registry names.
    EXPECT_EQ(reg.schedulers.resolve("nope:b5ms").status().code(),
              StatusCode::NotFound);
}

TEST(BudgetKeys, HeuristicsRejectModifiers)
{
    const Registries reg = Registries::builtin();
    for (const char *key : {"ipbc:b5ms", "base:n100", "ibc:n1e6"}) {
        auto r = reg.schedulers.resolve(key);
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument)
            << key;
        EXPECT_NE(r.status()
                      .message()
                      .find("does not take budget modifiers"),
                  std::string::npos)
            << key;
    }
}

// ---- solver properties on the builtin suite ----

ToolchainOptions
solverOptions()
{
    ToolchainOptions opts;
    opts.unroll = UnrollPolicy::None;
    opts.optimalSolver = true;
    return opts;
}

/**
 * Where the solver claims a proof, its II must be minimal: no
 * heuristic may beat it, and the certificate must satisfy the same
 * validator every heuristic schedule is held to.
 */
TEST(ExactSolver, ProvenCellsAreOptimalAndCertified)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const Toolchain solver_chain(cfg, solverOptions());
    int proven = 0;
    for (const char *name :
         {"g721dec", "gsmenc", "mpeg2dec", "pgpdec", "gsmdec"}) {
        const BenchmarkSpec bench = makeBenchmark(name);
        for (const LoopSpec &loop : bench.loops) {
            const CompiledLoop solved =
                solver_chain.compileLoop(bench, loop);
            EXPECT_FALSE(solved.solverOutcome.empty());
            EXPECT_GE(solved.sched.schedule.ii, solved.mii);

            // Whatever ships — certificate or seed — is legal.
            MemChains chains(solved.ddg);
            const auto err = validateSchedule(
                solved.ddg, solved.latency.latencies, cfg,
                solved.sched.schedule, &chains);
            EXPECT_FALSE(err.has_value())
                << name << "/" << loop.name << ": "
                << err.value_or("");

            if (solved.solverOutcome != "proven")
                continue;
            ++proven;
            for (const Heuristic h :
                 {Heuristic::Base, Heuristic::Ibc,
                  Heuristic::Ipbc}) {
                ToolchainOptions hopts;
                hopts.unroll = UnrollPolicy::None;
                hopts.heuristic = h;
                const CompiledLoop heur = Toolchain(cfg, hopts)
                    .compileLoop(bench, loop);
                EXPECT_LE(solved.sched.schedule.ii,
                          heur.sched.schedule.ii)
                    << name << "/" << loop.name << " vs "
                    << heuristicName(h);
            }
        }
    }
    // The suite must actually exercise the proof path.
    EXPECT_GE(proven, 3);
}

/** Proven means the lower bound met the schedule. */
TEST(ExactSolver, ProofInvariantsHold)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    ToolchainOptions opts;
    opts.unroll = UnrollPolicy::None;
    const Toolchain chain(cfg, opts);
    const BenchmarkSpec bench = makeBenchmark("g721dec");
    for (const LoopSpec &loop : bench.loops) {
        const CompiledLoop seed = chain.compileLoop(bench, loop);
        SchedulerOptions sopts;
        sopts.heuristic = opts.heuristic;
        const opt::SolveOutcome out = opt::solveLoop(
            seed.ddg, seed.latency.latencies, cfg, sopts,
            opt::SolverBudget{}, seed.sched.schedule, seed.mii);
        EXPECT_GE(out.lowerBound, seed.mii);
        EXPECT_LE(out.lowerBound, out.schedule.ii);
        EXPECT_LE(out.schedule.ii, seed.sched.schedule.ii);
        if (out.status == opt::SolveStatus::Proven)
            EXPECT_EQ(out.schedule.ii, out.lowerBound);
    }
}

// ---- determinism of budget exhaustion across worker counts ----

TEST(ExactSolver, BudgetExhaustionDeterministicAcrossJobs)
{
    std::string csv[2];
    int slot = 0;
    for (const int jobs : {1, 8}) {
        api::SessionOptions sopts;
        sopts.jobs = jobs;
        api::Session session(sopts);
        api::SweepRequest req;
        req.workloads = {"g721dec", "gsmenc", "epicdec"};
        req.archs = {"interleaved"};
        // A node budget this small exhausts on every non-trivial
        // loop; the outcome must not depend on the worker count.
        req.schedulers = {"ipbc", "optimal:n200"};
        req.unrolls = {"none"};
        req.jobs = jobs;
        auto res = session.sweep(req);
        ASSERT_TRUE(res.ok()) << res.status().toString();
        std::ostringstream os;
        engine::writeCsv(os, res.value().experiments);
        csv[slot++] = os.str();
    }
    EXPECT_EQ(csv[0], csv[1]);
    EXPECT_NE(csv[0].find("budget-exhausted"), std::string::npos);
    // The solver column appears (a solver arm ran), and heuristic
    // rows leave it empty.
    EXPECT_NE(csv[0].find(",solver"), std::string::npos);
}

TEST(Reports, HeuristicOnlySweepKeepsClassicColumns)
{
    api::Session session{api::SessionOptions{}};
    api::SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved"};
    req.schedulers = {"ipbc"};
    req.unrolls = {"none"};
    auto res = session.sweep(req);
    ASSERT_TRUE(res.ok());
    std::ostringstream os;
    engine::writeCsv(os, res.value().experiments);
    // No solver arm ran: the header must stay byte-identical to
    // the pre-solver format (golden CSV compatibility).
    EXPECT_EQ(os.str().find(",solver"), std::string::npos);
}

// ---- cooperative cancellation ----

TEST(ExactSolver, CancellationUnwindsAndLeavesNoState)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    ToolchainOptions opts;
    opts.unroll = UnrollPolicy::None;
    const Toolchain chain(cfg, opts);

    // Pick a loop whose search provably outlives the first cancel
    // probe (its full-budget run exhausts the default node cap).
    const Toolchain probe(cfg, solverOptions());
    const BenchmarkSpec bench = makeBenchmark("epicdec");
    const LoopSpec *big = nullptr;
    for (const LoopSpec &loop : bench.loops) {
        if (probe.compileLoop(bench, loop).solverOutcome ==
            "budget-exhausted") {
            big = &loop;
            break;
        }
    }
    ASSERT_NE(big, nullptr);

    const CompiledLoop seed = chain.compileLoop(bench, *big);
    SchedulerOptions sopts;
    sopts.heuristic = opts.heuristic;
    std::atomic<bool> cancel{true};
    sopts.cancel = &cancel;
    EXPECT_THROW(
        opt::solveLoop(seed.ddg, seed.latency.latencies, cfg, sopts,
                       opt::SolverBudget{}, seed.sched.schedule,
                       seed.mii),
        CancelledError);

    // The solver owns all of its scratch: after the unwind, two
    // fresh runs agree exactly (nothing leaked into shared state).
    sopts.cancel = nullptr;
    opt::SolverBudget small;
    small.maxNodes = 50'000;
    const opt::SolveOutcome a = opt::solveLoop(
        seed.ddg, seed.latency.latencies, cfg, sopts, small,
        seed.sched.schedule, seed.mii);
    const opt::SolveOutcome b = opt::solveLoop(
        seed.ddg, seed.latency.latencies, cfg, sopts, small,
        seed.sched.schedule, seed.mii);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stats.nodes, b.stats.nodes);
    EXPECT_EQ(a.stats.prunes, b.stats.prunes);
    EXPECT_EQ(a.lowerBound, b.lowerBound);
    EXPECT_EQ(a.schedule.ii, b.schedule.ii);
}

// ---- the gap report ----

TEST(GapReport, MeasuresEveryHeuristicAgainstTheSolver)
{
    api::Session session{api::SessionOptions{}};
    opt::GapReportOptions gopts;
    gopts.benches = {"g721dec", "gsmenc"};
    auto res = opt::runGapReport(session, gopts);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    const opt::GapReport &report = res.value();
    // 2 benches x 2 default archs x 3 heuristics.
    ASSERT_EQ(report.cells.size(), 12u);
    for (const opt::GapCell &c : report.cells) {
        EXPECT_EQ(c.solver, "proven") << c.bench << "/" << c.arch;
        EXPECT_GE(c.iiGap, 0) << c.bench << "/" << c.scheduler;
        EXPECT_EQ(c.iiGap, c.ii - c.iiOptimal);
        EXPECT_GE(c.lowerBound, 0);
    }
    EXPECT_EQ(report.provenCount(), 4u);
    EXPECT_TRUE(report.gatePasses());
}

TEST(GapReport, BadSchedulerKeyFailsAtomically)
{
    api::Session session{api::SessionOptions{}};
    opt::GapReportOptions gopts;
    gopts.benches = {"g721dec"};
    gopts.optimalKey = "optimal:z9";
    auto res = opt::runGapReport(session, gopts);
    EXPECT_EQ(res.status().code(), StatusCode::InvalidArgument);
}

TEST(GapReport, CsvAndJsonCarryTheGapColumns)
{
    api::Session session{api::SessionOptions{}};
    opt::GapReportOptions gopts;
    gopts.benches = {"g721dec"};
    gopts.archs = {"interleaved"};
    auto res = opt::runGapReport(session, gopts);
    ASSERT_TRUE(res.ok());

    std::ostringstream csv;
    opt::writeGapCsv(csv, res.value());
    EXPECT_NE(csv.str().find(
                  "benchmark,arch,scheduler,ii,ii_optimal,ii_gap,"
                  "cycles,cycles_optimal,cycle_gap_pct,solver,"
                  "lower_bound,solver_nodes"),
              std::string::npos);
    EXPECT_NE(csv.str().find("proven"), std::string::npos);

    std::ostringstream json;
    opt::writeGapJson(json, res.value());
    EXPECT_NE(json.str().find("\"gap_report\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"gate\": true"),
              std::string::npos);
}

// ---- search equivalence: every counter and certificate pinned ----

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif

/**
 * One golden line per (random loop, arch, node budget): the solver's
 * status, II, lower bound, search counters and a digest of the
 * schedule it returns. The search visits nodes in a fixed order, so
 * a change that only makes a node cheaper leaves every line as is.
 */
std::string
renderSolverRuns()
{
    const api::Registries &reg = api::builtinRegistries();
    std::ostringstream os;
    for (const char *arch : {"interleaved", "unified1", "multivliw"}) {
        const MachineConfig cfg = reg.archs.resolve(arch).value();
        for (int seed = 1; seed <= 50; ++seed) {
            testutil::RandomDdgOptions ropts;
            ropts.minNodes = 10;
            ropts.maxNodes = 40;
            const testutil::RandomLoop loop = testutil::makeRandomLoop(
                std::uint64_t(seed), cfg.numClusters, ropts);
            const auto circuits = findCircuits(loop.ddg);
            const LatencyAssignment lat = assignLatencies(
                loop.ddg, circuits, loop.profile,
                testutil::schemeFor(cfg), cfg);
            const int mii = std::max(
                lat.miiTarget,
                computeMii(loop.ddg, circuits, lat.latencies, cfg));
            SchedulerOptions sopts;
            sopts.heuristic = Heuristic::Base;
            sopts.useChains = cfg.cacheOrg != CacheOrg::Unified;
            sopts.maxIiTries = 128;
            const auto seedSched =
                scheduleLoop(loop.ddg, circuits, lat.latencies,
                             loop.profile, cfg, mii, sopts);
            if (!seedSched) {
                os << arch << " seed=" << seed << " unschedulable\n";
                continue;
            }
            for (const std::uint64_t nodes : {2000u, 20000u}) {
                opt::SolverBudget budget;
                budget.maxNodes = nodes;
                const opt::SolveOutcome out = opt::solveLoop(
                    loop.ddg, lat.latencies, cfg, sopts, budget,
                    seedSched->schedule, mii);
                char digest[17];
                std::snprintf(digest, sizeof(digest), "%016llx",
                              static_cast<unsigned long long>(
                                  testutil::digestSchedule(out.schedule)));
                os << arch << " seed=" << seed
                   << " n=" << loop.ddg.numNodes() << " budget=n"
                   << nodes << " mii=" << mii
                   << " seed_ii=" << seedSched->schedule.ii << ' '
                   << opt::solveStatusName(out.status)
                   << " ii=" << out.schedule.ii
                   << " lb=" << out.lowerBound
                   << " nodes=" << out.stats.nodes
                   << " prunes=" << out.stats.prunes
                   << " refuted=" << out.stats.iisRefuted
                   << " copies=" << out.schedule.numCopies()
                   << " sched=" << digest << '\n';
            }
        }
    }
    return os.str();
}

TEST(SolverEquivalence, RandomLoopsMatchGolden)
{
    const std::string path =
        std::string(WIVLIW_GOLDEN_DIR) + "/solver_equivalence.txt";
    testutil::expectMatchesGolden(path, renderSolverRuns());
}

} // namespace
} // namespace vliw

/**
 * @file
 * Tests for the latency scheme and the benefit-driven latency
 * assignment, anchored on the paper's Section 4.3.3 worked example:
 * the benefit table values, the chosen reduction sequence, and the
 * final latencies (n2 = local hit, n1 = 4 cycles, n6 = local hit).
 */

#include <gtest/gtest.h>

#include "ddg/circuits.hh"
#include "sched/lat_scheme.hh"
#include "sched/latency_assign.hh"
#include "support/math_util.hh"
#include "support/random.hh"
#include "util_paper_example.hh"
#include "util_random_ddg.hh"

namespace vliw {
namespace {

using testutil::makePaperExample;

class LatencySchemeTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = MachineConfig::paperInterleaved();
};

TEST_F(LatencySchemeTest, FourClassLatencies)
{
    const LatencyScheme s = LatencyScheme::fourClass(cfg);
    ASSERT_EQ(s.numClasses(), 4);
    EXPECT_EQ(s.classLatency(0), 1);
    EXPECT_EQ(s.classLatency(1), 5);
    EXPECT_EQ(s.classLatency(2), 10);
    EXPECT_EQ(s.classLatency(3), 15);
    EXPECT_EQ(s.className(0), "LH");
    EXPECT_EQ(s.className(3), "RM");
    EXPECT_EQ(s.worstClass(), 3);
}

TEST_F(LatencySchemeTest, TwoClassLatencies)
{
    MachineConfig u5 = MachineConfig::paperUnified(5);
    const LatencyScheme s = LatencyScheme::twoClassUnified(u5);
    ASSERT_EQ(s.numClasses(), 2);
    EXPECT_EQ(s.classLatency(0), 5);
    EXPECT_EQ(s.classLatency(1), 15);
}

TEST_F(LatencySchemeTest, ClassProbabilities)
{
    const LatencyScheme s = LatencyScheme::fourClass(cfg);
    MemProfile p;
    p.hitRate = 0.9;
    p.localRatio = 0.5;
    const auto probs = s.classProbabilities(p);
    ASSERT_EQ(probs.size(), 4u);
    EXPECT_DOUBLE_EQ(probs[0], 0.45);   // local hit
    EXPECT_DOUBLE_EQ(probs[1], 0.45);   // remote hit
    EXPECT_DOUBLE_EQ(probs[2], 0.05);   // local miss
    EXPECT_DOUBLE_EQ(probs[3], 0.05);   // remote miss
}

/**
 * The paper's benefit table (STEP 1), n2 row: hit rate 0.9, local
 * ratio 0.5, scheduled latency dropping from RM(15):
 *   to LM: stall 0.25, to RH: 0.75, to LH: 2.95.
 */
TEST_F(LatencySchemeTest, PaperStallEstimatesN2)
{
    const LatencyScheme s = LatencyScheme::fourClass(cfg);
    MemProfile p;
    p.hitRate = 0.9;
    p.localRatio = 0.5;
    EXPECT_NEAR(s.expectedStall(p, 15), 0.0, 1e-12);
    EXPECT_NEAR(s.expectedStall(p, 10), 0.25, 1e-12);
    EXPECT_NEAR(s.expectedStall(p, 5), 0.75, 1e-12);
    EXPECT_NEAR(s.expectedStall(p, 1), 2.95, 1e-12);
}

/**
 * n1 row: hit rate 0.6, local ratio 0.5: to LM 1, to RH 3. (The
 * paper prints 6.8 for "to LH" where the mixture model gives 5.8;
 * all other published entries match -- see EXPERIMENTS.md.)
 */
TEST_F(LatencySchemeTest, PaperStallEstimatesN1)
{
    const LatencyScheme s = LatencyScheme::fourClass(cfg);
    MemProfile p;
    p.hitRate = 0.6;
    p.localRatio = 0.5;
    EXPECT_NEAR(s.expectedStall(p, 10), 1.0, 1e-12);
    EXPECT_NEAR(s.expectedStall(p, 5), 3.0, 1e-12);
    EXPECT_NEAR(s.expectedStall(p, 1), 5.8, 1e-12);
}

class LatencyAssignTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ex = makePaperExample();
        circuits = findCircuits(ex.ddg);
        scheme = std::make_unique<LatencyScheme>(
            LatencyScheme::fourClass(cfg));
    }

    MachineConfig cfg = MachineConfig::paperInterleaved();
    testutil::PaperExample ex;
    std::vector<Circuit> circuits;
    std::unique_ptr<LatencyScheme> scheme;
};

TEST_F(LatencyAssignTest, MiiTargetIsEight)
{
    const LatencyAssignment out = assignLatencies(
        ex.ddg, circuits, ex.profile, *scheme, cfg);
    EXPECT_EQ(out.miiTarget, 8);
}

TEST_F(LatencyAssignTest, FinalLatenciesMatchPaper)
{
    const LatencyAssignment out = assignLatencies(
        ex.ddg, circuits, ex.profile, *scheme, cfg);
    // n2 ends at the local-hit latency; n1 is raised to 4 cycles by
    // slack removal (footnote 3); n6 ends at the local-hit latency.
    EXPECT_EQ(out.latencies(ex.n2), 1);
    EXPECT_EQ(out.latencies(ex.n1), 4);
    EXPECT_EQ(out.latencies(ex.n6), 1);
    // Stores keep their fixed 1-cycle latency.
    EXPECT_EQ(out.latencies(ex.n4), 1);
}

TEST_F(LatencyAssignTest, RecurrencesReachTheTargetExactly)
{
    const LatencyAssignment out = assignLatencies(
        ex.ddg, circuits, ex.profile, *scheme, cfg);
    // No circuit exceeds the target and the binding ones (the full
    // REC1 and REC2) sit exactly on it.
    int max_ii = 0;
    for (const Circuit &c : circuits) {
        const int ii = c.recurrenceIi(out.latencies);
        EXPECT_LE(ii, 8);
        max_ii = std::max(max_ii, ii);
    }
    EXPECT_EQ(max_ii, 8);
}

TEST_F(LatencyAssignTest, FirstReductionIsN2ToLocalMiss)
{
    // STEP 1 of the paper's table: the best benefit is 20 for
    // n2: RM -> LM (dII 5 / dstall 0.25).
    const LatencyAssignment out = assignLatencies(
        ex.ddg, circuits, ex.profile, *scheme, cfg);
    ASSERT_FALSE(out.trace.empty());
    const LatencyStep &first = out.trace.front();
    EXPECT_EQ(first.node, ex.n2);
    EXPECT_EQ(first.toClass, 2);           // LM
    EXPECT_EQ(first.iiBefore, 33);
    EXPECT_EQ(first.iiAfter, 28);
    EXPECT_NEAR(first.benefit, 20.0, 1e-9);
}

TEST_F(LatencyAssignTest, SecondReductionIsN2ToRemoteHit)
{
    // STEP 2: n2 LM -> RH has benefit 5 / 0.5 = 10, beating n1's 5.
    const LatencyAssignment out = assignLatencies(
        ex.ddg, circuits, ex.profile, *scheme, cfg);
    ASSERT_GE(out.trace.size(), 2u);
    const LatencyStep &second = out.trace[1];
    EXPECT_EQ(second.node, ex.n2);
    EXPECT_EQ(second.toClass, 1);          // RH
    EXPECT_NEAR(second.benefit, 10.0, 1e-9);
}

TEST_F(LatencyAssignTest, BenefitTableStep1)
{
    // Recreate STEP 1 of the paper's table via enumerateBenefits.
    const LatencyScheme &s = *scheme;
    LatencyMap current(ex.ddg, s.classLatency(s.worstClass()));
    std::vector<LatClass> class_of(std::size_t(ex.ddg.numNodes()),
                                   s.worstClass());

    // REC1 = the most constraining circuit through n1.
    const Circuit *rec1 = nullptr;
    for (const Circuit &c : circuits) {
        if (c.contains(ex.n1) &&
            (!rec1 || c.recurrenceIi(current) >
                 rec1->recurrenceIi(current)))
            rec1 = &c;
    }
    ASSERT_NE(rec1, nullptr);
    ASSERT_EQ(rec1->recurrenceIi(current), 33);

    const auto steps = enumerateBenefits(ex.ddg, *rec1, ex.profile,
                                         s, current, class_of);
    // Two loads x three lower classes.
    ASSERT_EQ(steps.size(), 6u);
    auto find = [&](NodeId node, LatClass to) -> const LatencyStep & {
        for (const LatencyStep &st : steps) {
            if (st.node == node && st.toClass == to)
                return st;
        }
        throw std::logic_error("step not found");
    };
    // n1 rows: B = 5/1, 10/3, 14/5.8.
    EXPECT_NEAR(find(ex.n1, 2).benefit, 5.0, 1e-9);
    EXPECT_NEAR(find(ex.n1, 1).benefit, 10.0 / 3.0, 1e-9);
    EXPECT_NEAR(find(ex.n1, 0).benefit, 14.0 / 5.8, 1e-9);
    // n2 rows: B = 20, 13.3, 4.75.
    EXPECT_NEAR(find(ex.n2, 2).benefit, 20.0, 1e-9);
    EXPECT_NEAR(find(ex.n2, 1).benefit, 10.0 / 0.75, 1e-9);
    EXPECT_NEAR(find(ex.n2, 0).benefit, 14.0 / 2.95, 1e-9);
}

TEST_F(LatencyAssignTest, NonRecurrenceLoadsKeepWorstLatency)
{
    // A load outside every recurrence must stay at remote miss.
    Ddg g;
    MemAccessInfo info;
    info.granularity = 4;
    info.symbol = 0;
    info.stride = 4;
    const NodeId ld = g.addMemNode(OpKind::Load, info, "ld");
    const NodeId use = g.addNode(OpKind::IntAlu, "use");
    g.addEdge(ld, use, DepKind::RegFlow, 0);

    ProfileMap prof(g.numNodes());
    prof.at(ld).hitRate = 0.95;
    prof.at(ld).localRatio = 0.9;

    const auto circuits2 = findCircuits(g);
    const LatencyAssignment out = assignLatencies(
        g, circuits2, prof, *scheme, cfg);
    EXPECT_EQ(out.latencies(ld), 15);
    EXPECT_TRUE(out.trace.empty());
}

TEST_F(LatencyAssignTest, TwoClassSchemeOnUnified)
{
    MachineConfig u5 = MachineConfig::paperUnified(5);
    const LatencyScheme two = LatencyScheme::twoClassUnified(u5);
    const LatencyAssignment out = assignLatencies(
        ex.ddg, circuits, ex.profile, two, u5);
    // Target: all loads at hit latency 5: REC1 = 2+5+5+1+0 = 13,
    // REC2 = 5+6+1 = 12 -> MII 13.
    EXPECT_EQ(out.miiTarget, 13);
    for (const Circuit &c : circuits) {
        EXPECT_LE(c.recurrenceIi(out.latencies),
                  out.miiTarget);
    }
}

TEST_F(LatencyAssignTest, SharedLoadGuardsOtherCircuits)
{
    // A load on two circuits: slack removal on one circuit must not
    // push the other circuit above the target.
    Ddg g;
    MemAccessInfo info;
    info.granularity = 4;
    info.symbol = 0;
    info.stride = 4;
    const NodeId ld = g.addMemNode(OpKind::Load, info, "ld");
    const NodeId a = g.addNode(OpKind::IntAlu, "a", 1);
    const NodeId b = g.addNode(OpKind::IntAlu, "b", 6);
    g.addEdge(ld, a, DepKind::RegFlow, 0);
    g.addEdge(a, ld, DepKind::RegFlow, 1);   // circuit 1: ld+a
    g.addEdge(ld, b, DepKind::RegFlow, 0);
    g.addEdge(b, ld, DepKind::RegFlow, 1);   // circuit 2: ld+b

    ProfileMap prof(g.numNodes());
    prof.at(ld).hitRate = 0.9;
    prof.at(ld).localRatio = 0.5;

    const auto cs = findCircuits(g);
    const LatencyAssignment out = assignLatencies(
        g, cs, prof, *scheme, cfg);
    for (const Circuit &c : cs) {
        EXPECT_LE(c.recurrenceIi(out.latencies),
                  out.miiTarget);
    }
}

/** A circuit's latency sum by walking its edges. */
int
walkedLatencySum(const Ddg &ddg, const Circuit &c, const LatencyMap &lat)
{
    int sum = 0;
    for (int e : c.edgeIdxs)
        sum += edgeLatency(ddg, ddg.edge(e), lat);
    return sum;
}

TEST(LatencyAssign, IncrementalTrialsMatchCopiedMaps)
{
    // enumerateBenefits prices each trial from the circuit's sum
    // plus one delta; the reference copies the map, edits the one
    // load and walks every edge again.
    int trials = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const testutil::RandomLoop loop =
            testutil::makeRandomLoop(seed, 4);
        const Ddg &ddg = loop.ddg;
        const MachineConfig cfg = seed % 2
            ? MachineConfig::paperInterleaved()
            : MachineConfig::paperUnified(5);
        const LatencyScheme scheme = testutil::schemeFor(cfg);
        const std::vector<Circuit> circuits = findCircuits(ddg);

        // A random current state: every load at some class.
        Rng rng(seed * 977);
        LatencyMap current(ddg, 0);
        std::vector<LatClass> class_of(std::size_t(ddg.numNodes()),
                                       scheme.worstClass());
        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            if (ddg.node(v).kind != OpKind::Load)
                continue;
            class_of[std::size_t(v)] = LatClass(
                rng.nextBelow(std::uint64_t(scheme.numClasses())));
            current.set(v, scheme.classLatency(
                               class_of[std::size_t(v)]));
        }

        for (const Circuit &c : circuits) {
            const int walked = walkedLatencySum(ddg, c, current);
            ASSERT_EQ(c.latencySum(current), walked);
            for (const LatencyStep &step :
                 enumerateBenefits(ddg, c, loop.profile, scheme,
                                   current, class_of)) {
                LatencyMap trial = current;
                trial.set(step.node,
                          scheme.classLatency(step.toClass));
                EXPECT_EQ(step.iiBefore,
                          ceilDiv(walked, c.totalDistance));
                EXPECT_EQ(step.iiAfter,
                          ceilDiv(walkedLatencySum(ddg, c, trial),
                                  c.totalDistance))
                    << "seed " << seed << " node " << step.node;
                EXPECT_EQ(step.iiAfter, c.recurrenceIi(trial));
                ++trials;
            }
        }
    }
    EXPECT_GT(trials, 1000);
}

} // namespace
} // namespace vliw

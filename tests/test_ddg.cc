/** @file Unit tests for the DDG IR, chains, unrolling and MII. */

#include <gtest/gtest.h>

#include <set>

#include "ddg/chains.hh"
#include "ddg/circuits.hh"
#include "ddg/ddg.hh"
#include "ddg/mii.hh"
#include "ddg/unroll.hh"
#include "support/errors.hh"
#include "util_paper_example.hh"

namespace vliw {
namespace {

using testutil::makePaperExample;

MemAccessInfo
loadInfo(std::int64_t stride, int gran = 4)
{
    MemAccessInfo info;
    info.granularity = gran;
    info.symbol = 0;
    info.stride = stride;
    return info;
}

TEST(Ddg, BuildAndQuery)
{
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a");
    const NodeId b = g.addMemNode(OpKind::Load, loadInfo(4), "b");
    g.addEdge(a, b, DepKind::RegFlow, 0);

    EXPECT_EQ(g.numNodes(), 2);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_FALSE(g.isMemNode(a));
    EXPECT_TRUE(g.isMemNode(b));
    EXPECT_EQ(g.memNodes().size(), 1u);
    EXPECT_EQ(g.outEdges(a).size(), 1u);
    EXPECT_EQ(g.inEdges(b).size(), 1u);
    EXPECT_EQ(g.node(a).name, "a");
}

TEST(Ddg, CountByFu)
{
    Ddg g;
    g.addNode(OpKind::IntAlu);
    g.addNode(OpKind::IntMul);
    g.addNode(OpKind::FpDiv);
    g.addMemNode(OpKind::Load, loadInfo(4));
    EXPECT_EQ(g.countByFu(FuKind::Int), 2);
    EXPECT_EQ(g.countByFu(FuKind::Fp), 1);
    EXPECT_EQ(g.countByFu(FuKind::Mem), 1);
}

TEST(Ddg, RejectsMemDepBetweenNonMemNodes)
{
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu);
    const NodeId b = g.addNode(OpKind::IntAlu);
    EXPECT_THROW(g.addEdge(a, b, DepKind::MemAnti, 0),
                 std::logic_error);
}

TEST(Ddg, DefaultLatencies)
{
    EXPECT_EQ(defaultLatency(OpKind::IntAlu), 1);
    EXPECT_EQ(defaultLatency(OpKind::FpDiv), 6);
    EXPECT_EQ(defaultLatency(OpKind::Store), 1);
}

TEST(LatencyMap, LoadsGetDefault)
{
    Ddg g;
    const NodeId a = g.addNode(OpKind::FpMul, "a");
    const NodeId b = g.addMemNode(OpKind::Load, loadInfo(4), "b");
    LatencyMap lat(g, 15);
    EXPECT_EQ(lat(a), defaultLatency(OpKind::FpMul));
    EXPECT_EQ(lat(b), 15);
    lat.set(b, 4);
    EXPECT_EQ(lat(b), 4);
}

TEST(EdgeLatency, PerKindRules)
{
    Ddg g;
    const NodeId ld = g.addMemNode(OpKind::Load, loadInfo(4), "ld");
    const NodeId add = g.addNode(OpKind::IntAlu, "add");
    MemAccessInfo st_info = loadInfo(4);
    st_info.isStore = true;
    const NodeId st = g.addMemNode(OpKind::Store, st_info, "st");
    g.addEdge(ld, add, DepKind::RegFlow, 0);   // producer latency
    g.addEdge(add, st, DepKind::RegAnti, 0);   // 0
    g.addEdge(ld, st, DepKind::MemAnti, 0);    // 1
    g.addEdge(add, add, DepKind::RegOut, 1);   // 1

    LatencyMap lat(g, 10);
    EXPECT_EQ(edgeLatency(g, g.edge(0), lat), 10);
    EXPECT_EQ(edgeLatency(g, g.edge(1), lat), 0);
    EXPECT_EQ(edgeLatency(g, g.edge(2), lat), 1);
    EXPECT_EQ(edgeLatency(g, g.edge(3), lat), 1);
}

TEST(Circuits, PaperExampleRecurrences)
{
    // The figure's two recurrences contain parallel memory edges,
    // so edge-level enumeration sees five elementary circuits: the
    // full REC1, three MA-shortcut variants of it, and REC2. All
    // cross one iteration boundary.
    auto ex = makePaperExample();
    const auto circuits = findCircuits(ex.ddg);
    ASSERT_EQ(circuits.size(), 5u);
    for (const Circuit &c : circuits)
        EXPECT_EQ(c.totalDistance, 1);
    // Node-level (SCC) view: exactly the two recurrences.
    const auto comp = stronglyConnectedComponents(ex.ddg);
    std::set<int> rec_comps;
    for (const Circuit &c : circuits)
        rec_comps.insert(comp[std::size_t(c.nodes.front())]);
    EXPECT_EQ(rec_comps.size(), 2u);
}

TEST(Circuits, PaperExampleIiValues)
{
    auto ex = makePaperExample();
    const auto circuits = findCircuits(ex.ddg);

    const LatencyMap local_hit(ex.ddg, 1);
    const LatencyMap remote_miss(ex.ddg, 15);

    // Identify REC1 (the most constraining circuit through n1,
    // i.e. the all-register-flow one) and REC2 (contains n6).
    const Circuit *rec1 = nullptr;
    const Circuit *rec2 = nullptr;
    for (const Circuit &c : circuits) {
        if (c.contains(ex.n1) &&
            (!rec1 || c.recurrenceIi(remote_miss) >
                 rec1->recurrenceIi(remote_miss)))
            rec1 = &c;
        if (c.contains(ex.n6))
            rec2 = &c;
    }
    ASSERT_NE(rec1, nullptr);
    ASSERT_NE(rec2, nullptr);

    EXPECT_EQ(rec1->recurrenceIi(local_hit), 5);
    EXPECT_EQ(rec1->recurrenceIi(remote_miss), 33);
    EXPECT_EQ(rec2->recurrenceIi(local_hit), 8);
    EXPECT_EQ(rec2->recurrenceIi(remote_miss), 22);
}

TEST(Circuits, SelfLoop)
{
    Ddg g;
    const NodeId acc = g.addNode(OpKind::IntAlu, "acc");
    g.addEdge(acc, acc, DepKind::RegFlow, 1);
    const auto circuits = findCircuits(g);
    ASSERT_EQ(circuits.size(), 1u);
    EXPECT_EQ(circuits[0].nodes.size(), 1u);
    EXPECT_EQ(circuits[0].totalDistance, 1);
}

TEST(Circuits, ZeroDistanceCycleIsACompileError)
{
    // A same-iteration cycle is a malformed user loop body; it
    // must refuse with the catchable CompileError the api façade
    // converts to a Status, not a panic.
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu);
    const NodeId b = g.addNode(OpKind::IntAlu);
    g.addEdge(a, b, DepKind::RegFlow, 0);
    g.addEdge(b, a, DepKind::RegFlow, 0);
    EXPECT_THROW(findCircuits(g), CompileError);
}

TEST(Circuits, SccSeparatesComponents)
{
    auto ex = makePaperExample();
    const auto comp = stronglyConnectedComponents(ex.ddg);
    EXPECT_EQ(comp[std::size_t(ex.n1)], comp[std::size_t(ex.n5)]);
    EXPECT_EQ(comp[std::size_t(ex.n6)], comp[std::size_t(ex.n8)]);
    EXPECT_NE(comp[std::size_t(ex.n1)], comp[std::size_t(ex.n6)]);
}

TEST(Mii, ResMiiByFuClass)
{
    MachineConfig cfg = MachineConfig::paperInterleaved();
    Ddg g;
    for (int i = 0; i < 9; ++i)
        g.addMemNode(OpKind::Load, loadInfo(4));
    // 9 memory ops over 4 memory units -> ResMII 3.
    EXPECT_EQ(resMii(g, cfg), 3);
    for (int i = 0; i < 3; ++i)
        g.addNode(OpKind::IntAlu);
    EXPECT_EQ(resMii(g, cfg), 3);   // int still below mem
}

TEST(Mii, PaperExampleMiiTarget)
{
    auto ex = makePaperExample();
    const auto circuits = findCircuits(ex.ddg);
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const LatencyMap local_hit(ex.ddg, 1);
    EXPECT_EQ(computeMii(ex.ddg, circuits, local_hit, cfg), 8);
}

TEST(Chains, PaperExampleChain)
{
    auto ex = makePaperExample();
    MemChains chains(ex.ddg);
    // {n1, n2, n4} together; n6 alone.
    EXPECT_EQ(chains.chainOf(ex.n1), chains.chainOf(ex.n2));
    EXPECT_EQ(chains.chainOf(ex.n1), chains.chainOf(ex.n4));
    EXPECT_NE(chains.chainOf(ex.n1), chains.chainOf(ex.n6));
    EXPECT_TRUE(chains.inSharedChain(ex.n1));
    EXPECT_FALSE(chains.inSharedChain(ex.n6));
    EXPECT_EQ(chains.maxChainSize(), 3);
    EXPECT_EQ(chains.numChains(), 2);
}

TEST(Chains, NonMemNodeRejected)
{
    auto ex = makePaperExample();
    MemChains chains(ex.ddg);
    EXPECT_THROW(chains.chainOf(ex.n3), std::logic_error);
}

TEST(Unroll, NodeAndEdgeCounts)
{
    auto ex = makePaperExample();
    UnrollMap map;
    const Ddg u = unrollDdg(ex.ddg, 4, &map);
    EXPECT_EQ(u.numNodes(), ex.ddg.numNodes() * 4);
    EXPECT_EQ(u.numEdges(), ex.ddg.numEdges() * 4);
    EXPECT_EQ(map.factor, 4);
}

TEST(Unroll, DistanceRewiring)
{
    // a -RF(d=1)-> b unrolled by 3: a_k -> b_{(k+1)%3} with
    // distance (k+1)/3.
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a");
    const NodeId b = g.addNode(OpKind::IntAlu, "b");
    g.addEdge(a, b, DepKind::RegFlow, 1);

    UnrollMap map;
    const Ddg u = unrollDdg(g, 3, &map);
    ASSERT_EQ(u.numEdges(), 3);
    for (const DdgEdge &e : u.edges()) {
        const int k = map.phaseOf[std::size_t(e.src)];
        EXPECT_EQ(map.originalOf[std::size_t(e.src)], a);
        EXPECT_EQ(map.originalOf[std::size_t(e.dst)], b);
        EXPECT_EQ(map.phaseOf[std::size_t(e.dst)], (k + 1) % 3);
        EXPECT_EQ(e.distance, (k + 1) / 3);
    }
}

TEST(Unroll, RecurrenceIiInvariant)
{
    // Unrolling a 1-node recurrence by U turns II=L into a circuit
    // of U nodes with total distance 1 and the same per-original-
    // iteration cost: II_U = U * II_1.
    Ddg g;
    const NodeId acc = g.addNode(OpKind::IntAlu, "acc", 2);
    g.addEdge(acc, acc, DepKind::RegFlow, 1);

    const Ddg u = unrollDdg(g, 4);
    const auto circuits = findCircuits(u);
    ASSERT_EQ(circuits.size(), 1u);
    const LatencyMap lat(u, 1);
    EXPECT_EQ(circuits[0].recurrenceIi(lat), 8);  // 4 * 2
}

TEST(Unroll, MemInfoPhases)
{
    Ddg g;
    g.addMemNode(OpKind::Load, loadInfo(2, 2), "ld");
    UnrollMap map;
    const Ddg u = unrollDdg(g, 8, &map);
    for (NodeId v = 0; v < u.numNodes(); ++v) {
        const MemAccessInfo &info = u.memInfo(v);
        EXPECT_EQ(info.unrollFactor, 8);
        EXPECT_EQ(info.unrollPhase, map.phaseOf[std::size_t(v)]);
        EXPECT_EQ(info.effectiveStride(), 16);
        EXPECT_EQ(info.effectiveOffset(),
                  2 * map.phaseOf[std::size_t(v)]);
    }
}

TEST(Unroll, ComposesAcrossTwoLevels)
{
    Ddg g;
    g.addMemNode(OpKind::Load, loadInfo(4), "ld");
    const Ddg u2 = unrollDdg(g, 2);
    const Ddg u4 = unrollDdg(u2, 2);
    ASSERT_EQ(u4.numNodes(), 4);
    std::vector<int> phases;
    for (NodeId v = 0; v < 4; ++v) {
        EXPECT_EQ(u4.memInfo(v).unrollFactor, 4);
        phases.push_back(u4.memInfo(v).unrollPhase);
    }
    std::sort(phases.begin(), phases.end());
    EXPECT_EQ(phases, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Unroll, FactorOneIsIdentity)
{
    auto ex = makePaperExample();
    const Ddg u = unrollDdg(ex.ddg, 1);
    EXPECT_EQ(u.numNodes(), ex.ddg.numNodes());
    EXPECT_EQ(u.numEdges(), ex.ddg.numEdges());
    for (NodeId v = 0; v < u.numNodes(); ++v)
        EXPECT_EQ(u.node(v).name, ex.ddg.node(v).name);
}

TEST(Unroll, MemFlowDistanceOneLinksCopies)
{
    // st -MF(d=1)-> ld unrolled by 4 rewires across copies:
    // st_k -> ld_{(k+1)%4}, pairing each store with the NEXT
    // phase's load (the original pair splits into per-phase
    // chains of two).
    Ddg g;
    MemAccessInfo li = loadInfo(4);
    MemAccessInfo si = loadInfo(4);
    si.isStore = true;
    const NodeId ld = g.addMemNode(OpKind::Load, li, "ld");
    const NodeId st = g.addMemNode(OpKind::Store, si, "st");
    g.addEdge(ld, st, DepKind::RegFlow, 0);
    g.addEdge(st, ld, DepKind::MemFlow, 1);

    UnrollMap map;
    const Ddg u = unrollDdg(g, 4, &map);
    MemChains chains(u);
    EXPECT_EQ(chains.numChains(), 4);
    EXPECT_EQ(chains.maxChainSize(), 2);
    // Each store shares its chain with the next phase's load.
    for (int k = 0; k < 4; ++k) {
        const NodeId st_k = map.copies[std::size_t(st)][std::size_t(k)];
        const NodeId ld_next =
            map.copies[std::size_t(ld)][std::size_t((k + 1) % 4)];
        EXPECT_EQ(chains.chainOf(st_k), chains.chainOf(ld_next));
    }
}

} // namespace
} // namespace vliw

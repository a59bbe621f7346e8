/** @file Tests for time frames and the SMS node ordering. */

#include <gtest/gtest.h>

#include "ddg/circuits.hh"
#include "sched/sms_order.hh"
#include "sched/time_frames.hh"
#include "util_paper_example.hh"
#include "util_random_ddg.hh"

namespace vliw {
namespace {

using testutil::makePaperExample;
using testutil::makeRandomLoop;

TEST(TimeFrames, SimpleChain)
{
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a", 1);
    const NodeId b = g.addNode(OpKind::FpMul, "b", 4);
    const NodeId c = g.addNode(OpKind::IntAlu, "c", 1);
    g.addEdge(a, b, DepKind::RegFlow, 0);
    g.addEdge(b, c, DepKind::RegFlow, 0);

    const LatencyMap lat(g, 1);
    const TimeFrames f = computeTimeFrames(g, lat, 4);
    EXPECT_EQ(f.asap[std::size_t(a)], 0);
    EXPECT_EQ(f.asap[std::size_t(b)], 1);
    EXPECT_EQ(f.asap[std::size_t(c)], 5);
    EXPECT_EQ(f.length, 5);
    EXPECT_EQ(f.alap[std::size_t(c)], 5);
    EXPECT_EQ(f.alap[std::size_t(b)], 1);
    EXPECT_EQ(f.alap[std::size_t(a)], 0);
    EXPECT_EQ(f.mobility(a), 0);
    EXPECT_EQ(f.height(a), 5);
    EXPECT_EQ(f.depth(c), 5);
}

TEST(TimeFrames, MobilityNonNegativeAtRecMii)
{
    auto ex = makePaperExample();
    LatencyMap lat(ex.ddg, 1);
    lat.set(ex.n1, 4);   // the paper's final assignment
    const TimeFrames f = computeTimeFrames(ex.ddg, lat, 8);
    for (NodeId v = 0; v < ex.ddg.numNodes(); ++v)
        EXPECT_GE(f.mobility(v), 0) << ex.ddg.node(v).name;
}

TEST(TimeFrames, DivergesBelowRecMii)
{
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a", 4);
    g.addEdge(a, a, DepKind::RegFlow, 1);
    const LatencyMap lat(g, 1);
    EXPECT_NO_THROW(computeTimeFrames(g, lat, 4));
    EXPECT_THROW(computeTimeFrames(g, lat, 3), std::logic_error);
}

TEST(SmsOrder, PaperExampleSetPriorities)
{
    auto ex = makePaperExample();
    const auto circuits = findCircuits(ex.ddg);
    LatencyMap lat(ex.ddg, 1);
    lat.set(ex.n1, 4);

    const OrderSets sets = buildOrderSets(ex.ddg, circuits, lat);
    ASSERT_EQ(sets.sets.size(), 2u);
    // Both recurrences have II 8 after assignment; the larger one
    // (REC1, 5 nodes) is ordered first.
    EXPECT_EQ(sets.sets[0].size(), 5u);
    EXPECT_EQ(sets.sets[1].size(), 3u);
    EXPECT_EQ(sets.setOf[std::size_t(ex.n1)], 0);
    EXPECT_EQ(sets.setOf[std::size_t(ex.n6)], 1);
}

TEST(SmsOrder, PaperExampleOrder)
{
    auto ex = makePaperExample();
    const auto circuits = findCircuits(ex.ddg);
    LatencyMap lat(ex.ddg, 1);
    lat.set(ex.n1, 4);

    const std::vector<NodeId> order =
        smsOrder(ex.ddg, circuits, lat, 8);
    ASSERT_EQ(order.size(), 8u);

    // REC1's nodes come first, REC2's afterwards.
    std::vector<int> pos(std::size_t(ex.ddg.numNodes()));
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[std::size_t(order[i])] = int(i);
    for (NodeId rec1 : {ex.n1, ex.n2, ex.n3, ex.n4, ex.n5}) {
        for (NodeId rec2 : {ex.n6, ex.n7, ex.n8})
            EXPECT_LT(pos[std::size_t(rec1)], pos[std::size_t(rec2)]);
    }

    // REC2 is ordered bottom-up from the highest-ASAP node:
    // {n8, n7, n6} (the paper's printed order).
    EXPECT_LT(pos[std::size_t(ex.n8)], pos[std::size_t(ex.n7)]);
    EXPECT_LT(pos[std::size_t(ex.n7)], pos[std::size_t(ex.n6)]);

    // Inside REC1 the dependence chain is swept bottom-up:
    // n4 before n3 before n2 before n1.
    EXPECT_LT(pos[std::size_t(ex.n4)], pos[std::size_t(ex.n3)]);
    EXPECT_LT(pos[std::size_t(ex.n3)], pos[std::size_t(ex.n2)]);
    EXPECT_LT(pos[std::size_t(ex.n2)], pos[std::size_t(ex.n1)]);

    const OrderSets sets = buildOrderSets(ex.ddg, circuits, lat);
    EXPECT_TRUE(checkOrderInvariant(ex.ddg, sets, order));
}

TEST(SmsOrder, PathNodesJoinTheLaterRecurrenceSet)
{
    // Two recurrences connected by a path: the bridge node joins
    // the second recurrence's set (SMS set construction).
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a", 6);
    g.addEdge(a, a, DepKind::RegFlow, 1);      // II 6
    const NodeId bridge = g.addNode(OpKind::IntAlu, "bridge");
    const NodeId b = g.addNode(OpKind::IntAlu, "b", 3);
    g.addEdge(b, b, DepKind::RegFlow, 1);      // II 3
    g.addEdge(a, bridge, DepKind::RegFlow, 0);
    g.addEdge(bridge, b, DepKind::RegFlow, 0);

    const auto circuits = findCircuits(g);
    const LatencyMap lat(g, 1);
    const OrderSets sets = buildOrderSets(g, circuits, lat);
    ASSERT_EQ(sets.sets.size(), 2u);
    EXPECT_EQ(sets.setOf[std::size_t(a)], 0);
    EXPECT_EQ(sets.setOf[std::size_t(b)], 1);
    EXPECT_EQ(sets.setOf[std::size_t(bridge)], 1);
}

TEST(SmsOrder, NonRecurrenceComponentsGetOwnSets)
{
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a");
    const NodeId b = g.addNode(OpKind::IntAlu, "b");
    g.addEdge(a, b, DepKind::RegFlow, 0);
    const NodeId c = g.addNode(OpKind::IntAlu, "c");   // isolated

    const auto circuits = findCircuits(g);
    const LatencyMap lat(g, 1);
    const OrderSets sets = buildOrderSets(g, circuits, lat);
    ASSERT_EQ(sets.sets.size(), 2u);
    EXPECT_NE(sets.setOf[std::size_t(a)],
              sets.setOf[std::size_t(c)]);
    EXPECT_EQ(sets.setOf[std::size_t(a)],
              sets.setOf[std::size_t(b)]);
}

class SmsOrderProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SmsOrderProperty, OrdersAllNodesAndKeepsConnectivity)
{
    const auto loop = makeRandomLoop(std::uint64_t(GetParam()), 4);
    const auto circuits = findCircuits(loop.ddg);
    const LatencyMap lat(loop.ddg, 5);

    // Any II at or above RecMII must order every node exactly once
    // and keep the sweep connected (the strict one-exception SMS
    // invariant only holds on well-formed codes; random multigraphs
    // with arbitrary cross-set edges can exceed it).
    int rec_mii = 1;
    for (const Circuit &c : circuits) {
        rec_mii = std::max(rec_mii,
                           c.recurrenceIi(lat));
    }
    const std::vector<NodeId> order =
        smsOrder(loop.ddg, circuits, lat, rec_mii);
    ASSERT_EQ(int(order.size()), loop.ddg.numNodes());

    std::vector<bool> seen(std::size_t(loop.ddg.numNodes()), false);
    for (NodeId v : order) {
        EXPECT_FALSE(seen[std::size_t(v)]);
        seen[std::size_t(v)] = true;
    }

    const OrderSets sets = buildOrderSets(loop.ddg, circuits, lat);
    EXPECT_TRUE(checkOrderConnectivity(loop.ddg, sets, order));
}

TEST_P(SmsOrderProperty, FallbackTopologicalOrderIsSound)
{
    const auto loop = makeRandomLoop(std::uint64_t(GetParam()), 4);
    const LatencyMap lat(loop.ddg, 5);
    const auto circuits = findCircuits(loop.ddg);
    int rec_mii = 1;
    for (const Circuit &c : circuits) {
        rec_mii = std::max(rec_mii,
                           c.recurrenceIi(lat));
    }

    const std::vector<NodeId> order =
        topologicalOrder(loop.ddg, lat, rec_mii);
    ASSERT_EQ(int(order.size()), loop.ddg.numNodes());

    // Same-iteration dependences are respected by the order, so a
    // node's placed successors can only be loop-carried.
    std::vector<int> pos(std::size_t(loop.ddg.numNodes()), -1);
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[std::size_t(order[i])] = int(i);
    for (const DdgEdge &e : loop.ddg.edges()) {
        if (e.distance == 0 && e.src != e.dst) {
            EXPECT_LT(pos[std::size_t(e.src)],
                      pos[std::size_t(e.dst)]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SmsOrderProperty,
                         ::testing::Range(0, 40));

} // namespace
} // namespace vliw

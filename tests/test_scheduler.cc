/**
 * @file
 * Tests for the MRT and the clustered modulo scheduler: paper-example
 * behaviour of IBC/IPBC, copy insertion, chain pinning, register
 * pressure, and schedule validity over random graphs (property).
 */

#include <gtest/gtest.h>

#include "ddg/mii.hh"
#include "sched/latency_assign.hh"
#include "sched/mrt.hh"
#include "sched/reg_pressure.hh"
#include "sched/sched_workspace.hh"
#include "sched/scheduler.hh"
#include "util_paper_example.hh"
#include "util_random_ddg.hh"

namespace vliw {
namespace {

using testutil::makePaperExample;
using testutil::makeRandomLoop;

TEST(Mrt, FuCapacityPerRow)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    Mrt mrt(cfg, 4);
    EXPECT_TRUE(mrt.fuFree(0, FuKind::Mem, 2));
    mrt.reserveFu(0, FuKind::Mem, 2);
    EXPECT_FALSE(mrt.fuFree(0, FuKind::Mem, 2));
    EXPECT_FALSE(mrt.fuFree(0, FuKind::Mem, 6));   // same row mod 4
    EXPECT_TRUE(mrt.fuFree(0, FuKind::Mem, 3));
    EXPECT_TRUE(mrt.fuFree(1, FuKind::Mem, 2));    // other cluster
    mrt.releaseFu(0, FuKind::Mem, 2);
    EXPECT_TRUE(mrt.fuFree(0, FuKind::Mem, 2));
}

TEST(Mrt, ClusterLoadTracksReservations)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    Mrt mrt(cfg, 3);
    EXPECT_EQ(mrt.clusterLoad(2), 0);
    mrt.reserveFu(2, FuKind::Int, 0);
    mrt.reserveFu(2, FuKind::Fp, 1);
    EXPECT_EQ(mrt.clusterLoad(2), 2);
}

TEST(Mrt, BusOccupancySpansRows)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    Mrt mrt(cfg, 4);
    // 4 buses, each transfer holds one for 2 rows.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(mrt.busFree(1));
        mrt.reserveBus(1);
    }
    EXPECT_FALSE(mrt.busFree(1));
    EXPECT_FALSE(mrt.busFree(2));   // row 2 shared with row 1 slots
    EXPECT_TRUE(mrt.busFree(3));    // rows 3,0 are free
    mrt.releaseBus(1);
    EXPECT_TRUE(mrt.busFree(1));
}

TEST(Mrt, BusImpossibleWhenOccupancyExceedsIi)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    Mrt mrt(cfg, 1);   // II 1 < occupancy 2
    EXPECT_FALSE(mrt.busFree(0));
}

TEST(Mrt, BusKindIsNotAnFuSlot)
{
    // Bus transfers book through reserveBus(); asking for a Bus FU
    // is a caller bug and must stop the run, not read as "full".
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    Mrt mrt(cfg, 4);
    EXPECT_THROW(mrt.fuFree(0, FuKind::Bus, 1), std::logic_error);
    EXPECT_THROW(mrt.reserveFu(0, FuKind::Bus, 1), std::logic_error);
    EXPECT_THROW(mrt.fuFreeAtRow(0, FuKind::Bus, 1), std::logic_error);
    EXPECT_EQ(mrt.clusterLoad(0), 0);
}

class SchedulerPaperTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ex = makePaperExample();
        circuits = findCircuits(ex.ddg);
        const LatencyScheme scheme = LatencyScheme::fourClass(cfg);
        assignment = std::make_unique<LatencyAssignment>(
            assignLatencies(ex.ddg, circuits, ex.profile, scheme,
                            cfg));
        mii = std::max(assignment->miiTarget,
                       computeMii(ex.ddg, circuits,
                                  assignment->latencies, cfg));
    }

    ScheduleOutcome
    schedule(Heuristic h)
    {
        SchedulerOptions opts;
        opts.heuristic = h;
        opts.useChains = true;
        auto out = scheduleLoop(ex.ddg, circuits,
                                assignment->latencies, ex.profile,
                                cfg, mii, opts);
        EXPECT_TRUE(out.has_value());
        return std::move(*out);
    }

    MachineConfig cfg = MachineConfig::paperInterleaved();
    testutil::PaperExample ex;
    std::vector<Circuit> circuits;
    std::unique_ptr<LatencyAssignment> assignment;
    int mii = 0;
};

TEST_F(SchedulerPaperTest, AchievesMiiOfEight)
{
    const ScheduleOutcome out = schedule(Heuristic::Ipbc);
    EXPECT_EQ(out.schedule.ii, 8);
    EXPECT_EQ(out.attempts, 1);
}

TEST_F(SchedulerPaperTest, ScheduleIsValid)
{
    for (Heuristic h : {Heuristic::Base, Heuristic::Ibc,
                        Heuristic::Ipbc}) {
        const ScheduleOutcome out = schedule(h);
        MemChains chains(ex.ddg);
        const auto err = validateSchedule(
            ex.ddg, assignment->latencies, cfg, out.schedule,
            h == Heuristic::Base ? nullptr : &chains);
        EXPECT_FALSE(err.has_value()) << heuristicName(h) << ": "
                                      << err.value_or("");
    }
}

TEST_F(SchedulerPaperTest, IpbcHonoursPreferredClusters)
{
    const ScheduleOutcome out = schedule(Heuristic::Ipbc);
    // The chain {n1, n2, n4} goes to its average preferred cluster
    // (cluster 1: n1 and n2 prefer it).
    EXPECT_EQ(out.schedule.clusterOf(ex.n1), 1);
    EXPECT_EQ(out.schedule.clusterOf(ex.n2), 1);
    EXPECT_EQ(out.schedule.clusterOf(ex.n4), 1);
    // REC2 runs at zero slack (its recurrence II equals the loop
    // MII), so no inter-cluster copy fits inside it: wherever n6
    // lands, n7 and n8 must be co-located. (The paper puts the
    // whole recurrence in n6's preferred cluster 2; whether the
    // earlier-placed n7/n8 land there is a balance tie-break.)
    EXPECT_EQ(out.schedule.clusterOf(ex.n6),
              out.schedule.clusterOf(ex.n7));
    EXPECT_EQ(out.schedule.clusterOf(ex.n6),
              out.schedule.clusterOf(ex.n8));
}

TEST_F(SchedulerPaperTest, IpbcPrefersClusterWhenSlackAllows)
{
    // A stand-alone load with a strong preferred cluster and no
    // recurrence pressure must land on that cluster under IPBC.
    Ddg g;
    MemAccessInfo info;
    info.granularity = 4;
    info.symbol = 0;
    info.stride = 16;
    const NodeId ld = g.addMemNode(OpKind::Load, info, "ld");
    const NodeId use = g.addNode(OpKind::IntAlu, "use");
    g.addEdge(ld, use, DepKind::RegFlow, 0);

    ProfileMap prof(g.numNodes());
    prof.at(ld).hitRate = 0.95;
    prof.at(ld).localRatio = 1.0;
    prof.at(ld).distribution = 1.0;
    prof.at(ld).preferredCluster = 3;
    prof.at(ld).clusterCounts = {0, 0, 0, 1000};

    const auto circuits2 = findCircuits(g);
    const LatencyMap lat(g, 15);
    SchedulerOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    opts.useChains = true;
    // II >= 2 so an inter-cluster copy can occupy a bus (at II = 1
    // a 2-cycle transfer would overlap itself and IPBC has to fall
    // back to the consumer's cluster).
    const auto out = scheduleLoop(g, circuits2, lat, prof, cfg, 2,
                                  opts);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->schedule.clusterOf(ld), 3);
}

TEST_F(SchedulerPaperTest, WorkspaceChainsMatchReferenceImpl)
{
    // The scheduler's hot path derives chains and IPBC targets
    // inside SchedWorkspace; MemChains + ipbcChainTargets() stay
    // the reference implementations. Pin them together so neither
    // can drift silently.
    MemChains chains(ex.ddg);
    const std::vector<int> reference =
        ipbcChainTargets(chains, ex.profile, cfg.numClusters);

    SchedWorkspace ws;
    ws.beginLoop(ex.ddg, circuits, assignment->latencies, cfg,
                 /*build_chains=*/true);
    EXPECT_EQ(ws.numChains(), chains.numChains());
    for (NodeId v : ex.ddg.memNodes())
        EXPECT_EQ(ws.chainOf(v), chains.chainOf(v));
    EXPECT_EQ(ws.ipbcTargets(ex.profile, cfg.numClusters),
              reference);
}

TEST_F(SchedulerPaperTest, ChainMembersShareClusterUnderIbc)
{
    const ScheduleOutcome out = schedule(Heuristic::Ibc);
    EXPECT_EQ(out.schedule.clusterOf(ex.n1),
              out.schedule.clusterOf(ex.n2));
    EXPECT_EQ(out.schedule.clusterOf(ex.n1),
              out.schedule.clusterOf(ex.n4));
}

TEST_F(SchedulerPaperTest, CrossClusterFlowsAreRouted)
{
    const ScheduleOutcome out = schedule(Heuristic::Ipbc);
    // Every cross-cluster register flow must have a copy that fits
    // its producer/consumer window (validateSchedule checks the
    // timing; here we check reuse does not duplicate).
    for (const DdgEdge &e : ex.ddg.edges()) {
        if (e.kind != DepKind::RegFlow)
            continue;
        if (out.schedule.clusterOf(e.src) ==
            out.schedule.clusterOf(e.dst))
            continue;
        EXPECT_NE(out.schedule.findCopy(
                      e.src, out.schedule.clusterOf(e.dst)),
                  nullptr);
    }
}

TEST(Scheduler, IiEscalatesWhenResourcesAreScarce)
{
    // 9 loads on a 4-cluster machine: ResMII 3; II must be >= 3 and
    // the scheduler may need escalation to fit buses.
    MachineConfig cfg = MachineConfig::paperInterleaved();
    Ddg g;
    MemAccessInfo info;
    info.granularity = 4;
    info.symbol = 0;
    info.stride = 4;
    std::vector<NodeId> loads;
    for (int i = 0; i < 9; ++i)
        loads.push_back(g.addMemNode(OpKind::Load, info));
    NodeId sum = g.addNode(OpKind::IntAlu);
    for (NodeId ld : loads)
        g.addEdge(ld, sum, DepKind::RegFlow, 0);

    ProfileMap prof(g.numNodes());
    for (NodeId ld : loads) {
        prof.at(ld).hitRate = 1.0;
        prof.at(ld).localRatio = 1.0;
    }

    const auto circuits = findCircuits(g);
    const LatencyMap lat(g, 1);
    SchedulerOptions opts;
    opts.heuristic = Heuristic::Base;
    opts.useChains = false;
    const auto out = scheduleLoop(g, circuits, lat, prof, cfg,
                                  resMii(g, cfg), opts);
    ASSERT_TRUE(out.has_value());
    EXPECT_GE(out->schedule.ii, 3);
    const auto err = validateSchedule(g, lat, cfg, out->schedule);
    EXPECT_FALSE(err.has_value()) << err.value_or("");
}

TEST(Scheduler, RespectsRegisterPressureLimit)
{
    // A wide fan-in graph on a machine with very few registers must
    // either escalate the II or fail -- never return an over-
    // pressured schedule.
    MachineConfig cfg = MachineConfig::paperInterleaved();
    cfg.regsPerCluster = 8;
    Ddg g;
    std::vector<NodeId> vals;
    for (int i = 0; i < 24; ++i)
        vals.push_back(g.addNode(OpKind::IntAlu));
    NodeId sink = g.addNode(OpKind::IntAlu);
    for (NodeId v : vals)
        g.addEdge(v, sink, DepKind::RegFlow, 0);

    ProfileMap prof(g.numNodes());
    const auto circuits = findCircuits(g);
    const LatencyMap lat(g, 1);
    SchedulerOptions opts;
    opts.heuristic = Heuristic::Base;
    opts.useChains = false;
    const auto out = scheduleLoop(g, circuits, lat, prof, cfg, 1,
                                  opts);
    if (out) {
        const auto live = maxLivePerCluster(g, lat, cfg,
                                            out->schedule);
        for (int l : live)
            EXPECT_LE(l, cfg.regsPerCluster);
    }
}

TEST(Scheduler, WorkloadBalanceOnUniformGraph)
{
    // 16 independent load->add->store strands spread evenly.
    MachineConfig cfg = MachineConfig::paperInterleaved();
    Ddg g;
    MemAccessInfo info;
    info.granularity = 4;
    info.symbol = 0;
    info.stride = 4;
    ProfileMap prof(16 * 2);
    Ddg tmp;
    for (int i = 0; i < 8; ++i) {
        const NodeId ld = g.addMemNode(OpKind::Load, info);
        const NodeId add = g.addNode(OpKind::IntAlu);
        g.addEdge(ld, add, DepKind::RegFlow, 0);
    }
    ProfileMap prof2(g.numNodes());
    for (NodeId v : g.memNodes()) {
        prof2.at(v).hitRate = 1.0;
        prof2.at(v).localRatio = 1.0;
    }
    const auto circuits = findCircuits(g);
    const LatencyMap lat(g, 1);
    SchedulerOptions opts;
    opts.heuristic = Heuristic::Base;
    opts.useChains = false;
    const auto out = scheduleLoop(g, circuits, lat, prof2, cfg, 2,
                                  opts);
    ASSERT_TRUE(out.has_value());
    // Perfectly balanceable: no cluster should hold more than half.
    EXPECT_LE(out->schedule.workloadBalance(cfg.numClusters), 0.5);
}

TEST(RegPressure, SingleChainLifetime)
{
    MachineConfig cfg = MachineConfig::paperInterleaved();
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a", 1);
    const NodeId b = g.addNode(OpKind::IntAlu, "b", 1);
    g.addEdge(a, b, DepKind::RegFlow, 0);

    Schedule s;
    s.ii = 2;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(a)] = {0, 0};
    s.ops[std::size_t(b)] = {1, 0};
    s.length = 2;
    s.stageCount = 1;

    const LatencyMap lat(g, 1);
    const auto live = maxLivePerCluster(g, lat, cfg, s);
    EXPECT_EQ(live[0], 2);   // a's value and b's value overlap at 1
    EXPECT_EQ(live[1], 0);
}

TEST(RegPressure, LongLifetimeOverlapsItself)
{
    // A value alive for 3*II cycles occupies 3 registers.
    MachineConfig cfg = MachineConfig::paperInterleaved();
    Ddg g;
    const NodeId a = g.addNode(OpKind::IntAlu, "a", 1);
    const NodeId b = g.addNode(OpKind::IntAlu, "b", 1);
    g.addEdge(a, b, DepKind::RegFlow, 0);

    Schedule s;
    s.ii = 2;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(a)] = {0, 0};
    s.ops[std::size_t(b)] = {6, 0};
    s.length = 7;
    s.stageCount = 4;

    const LatencyMap lat(g, 1);
    const auto live = maxLivePerCluster(g, lat, cfg, s);
    EXPECT_EQ(live[0], 5);   // a spans [0,6]: 4 overlapping + b
}

struct PropertyParam
{
    int seed;
    Heuristic heuristic;
};

class SchedulerProperty
    : public ::testing::TestWithParam<PropertyParam>
{};

TEST_P(SchedulerProperty, RandomGraphsScheduleValidly)
{
    const auto param = GetParam();
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    auto loop = makeRandomLoop(std::uint64_t(param.seed),
                               cfg.numClusters);
    const auto circuits = findCircuits(loop.ddg);
    const LatencyScheme scheme = LatencyScheme::fourClass(cfg);
    const LatencyAssignment assignment = assignLatencies(
        loop.ddg, circuits, loop.profile, scheme, cfg);
    const int mii = std::max(
        assignment.miiTarget,
        computeMii(loop.ddg, circuits, assignment.latencies, cfg));

    SchedulerOptions opts;
    opts.heuristic = param.heuristic;
    opts.useChains = true;
    opts.maxIiTries = 128;
    const auto out = scheduleLoop(loop.ddg, circuits,
                                  assignment.latencies, loop.profile,
                                  cfg, mii, opts);
    ASSERT_TRUE(out.has_value()) << "seed " << param.seed;

    MemChains chains(loop.ddg);
    const auto err = validateSchedule(loop.ddg, assignment.latencies,
                                      cfg, out->schedule, &chains);
    EXPECT_FALSE(err.has_value())
        << "seed " << param.seed << " ("
        << heuristicName(param.heuristic)
        << "): " << err.value_or("");

    const auto live = maxLivePerCluster(loop.ddg,
                                        assignment.latencies, cfg,
                                        out->schedule);
    for (int l : live)
        EXPECT_LE(l, cfg.regsPerCluster);
}

std::vector<PropertyParam>
propertyParams()
{
    std::vector<PropertyParam> params;
    for (int seed = 0; seed < 25; ++seed) {
        for (Heuristic h : {Heuristic::Base, Heuristic::Ibc,
                            Heuristic::Ipbc}) {
            params.push_back({seed, h});
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, SchedulerProperty,
    ::testing::ValuesIn(propertyParams()),
    [](const ::testing::TestParamInfo<PropertyParam> &info) {
        return std::string(heuristicName(info.param.heuristic)) +
            "_seed" + std::to_string(info.param.seed);
    });

} // namespace
} // namespace vliw

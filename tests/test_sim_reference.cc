/**
 * @file
 * SimWorkspace against the reference simulator (reference_sim.hh):
 *
 *  - every SimStats field and the end cycle match on random loops
 *    (util_random_ddg.hh) scheduled by scheduleLoop for the five
 *    paper architectures under BASE and IPBC, over two address
 *    seeds, against the real memory models;
 *  - a schedule that violates a compute latency still panics, so
 *    the run plan never hides an illegal schedule;
 *  - one prepared kernel run under two register-bus latencies gives
 *    the same results (or the same panic) as fresh workspaces.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "api/registries.hh"
#include "ddg/circuits.hh"
#include "ddg/mii.hh"
#include "reference_sim.hh"
#include "sched/latency_assign.hh"
#include "sched/scheduler.hh"
#include "sim/sim_workspace.hh"
#include "util_random_ddg.hh"

namespace vliw {
namespace {

using testutil::makeRandomLoop;
using testutil::referenceSimulate;

constexpr int kLoops = 50;
constexpr std::int64_t kIterations = 24;

const char *const kArchs[] = {"interleaved", "interleaved-ab",
                              "unified1", "unified5", "multivliw"};

MachineConfig
archConfig(const std::string &arch)
{
    return api::builtinRegistries().archs.resolve(arch).value();
}

LatencyScheme
schemeFor(const MachineConfig &cfg)
{
    switch (cfg.cacheOrg) {
      case CacheOrg::Interleaved:
        return LatencyScheme::fourClass(cfg);
      case CacheOrg::Unified:
        return LatencyScheme::twoClassUnified(cfg);
      case CacheOrg::MultiVliw:
        return LatencyScheme::twoClassCoherent(cfg);
    }
    throw std::logic_error("unknown cache organisation");
}

/** Strided addresses per symbol, hashed ones for indirect ops;
 *  every address is aligned to its (at most 8-byte) element. */
std::uint64_t
addressOf(const Ddg &ddg, std::uint64_t seed, NodeId v,
          std::int64_t iter)
{
    const MemAccessInfo &info = ddg.memInfo(v);
    const std::uint64_t base =
        0x10000 * std::uint64_t(info.symbol + 1) + 8 * seed;
    if (!info.strideKnown()) {
        std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL +
            std::uint64_t(v) * 0xbf58476d1ce4e5b9ULL +
            std::uint64_t(iter);
        h ^= h >> 31;
        h *= 0x94d049bb133111ebULL;
        h ^= h >> 29;
        const std::uint64_t range =
            std::uint64_t(std::max<std::int64_t>(info.indexRange, 1));
        return base + (h % range) * std::uint64_t(info.granularity);
    }
    return base + std::uint64_t(info.offset + iter * info.stride);
}

/** A compiled random loop ready to simulate. */
struct Compiled
{
    testutil::RandomLoop loop;
    LatencyMap latencies;
    Schedule schedule;
};

Compiled
compileRandom(int seed, const MachineConfig &cfg, Heuristic h)
{
    Compiled out{makeRandomLoop(std::uint64_t(seed), cfg.numClusters),
                 {}, {}};
    const auto circuits = findCircuits(out.loop.ddg);
    const LatencyAssignment assignment =
        assignLatencies(out.loop.ddg, circuits, out.loop.profile,
                        schemeFor(cfg), cfg);
    out.latencies = assignment.latencies;
    const int mii = std::max(
        assignment.miiTarget,
        computeMii(out.loop.ddg, circuits, out.latencies, cfg));
    SchedulerOptions opts;
    opts.heuristic = h;
    opts.useChains = cfg.cacheOrg != CacheOrg::Unified;
    opts.maxIiTries = 128;
    auto sched = scheduleLoop(out.loop.ddg, circuits, out.latencies,
                              out.loop.profile, cfg, mii, opts);
    if (!sched)
        throw std::runtime_error("random loop failed to schedule");
    out.schedule = std::move(sched->schedule);
    return out;
}

LoopExecution
execution(const Compiled &c, std::uint64_t seed, Cycles start)
{
    LoopExecution e;
    e.ddg = &c.loop.ddg;
    e.schedule = &c.schedule;
    e.latencies = &c.latencies;
    e.profile = &c.loop.profile;
    e.iterations = kIterations;
    e.startCycle = start;
    const Ddg *ddg = &c.loop.ddg;
    e.addressOf = [ddg, seed](NodeId v, std::int64_t iter) {
        return addressOf(*ddg, seed, v, iter);
    };
    return e;
}

std::string
show(const SimStats &s)
{
    std::ostringstream os;
    os << "total=" << s.totalCycles << " stall=" << s.stallCycles
       << " ops=" << s.dynamicOps << " copies=" << s.dynamicCopies
       << " mem=" << s.memAccesses << " ab=" << s.abHits << " cls=";
    for (std::size_t i = 0; i < s.accessesByClass.size(); ++i)
        os << s.accessesByClass[i] << "/" << s.stallByClass[i] << ",";
    os << " factors=" << s.remoteHitFactors.multiCluster << ","
       << s.remoteHitFactors.unclearPreferred << ","
       << s.remoteHitFactors.notInPreferred << ","
       << s.remoteHitFactors.granularity;
    return os.str();
}

/** Two invocations back to back, as the toolchain runs a loop. */
std::string
runWorkspace(SimWorkspace &ws, int kernel, const Compiled &c,
             std::uint64_t seed, const MachineConfig &cfg)
{
    const auto mem = makeMemSystem(cfg);
    std::string out;
    Cycles clock = 0;
    for (int inv = 0; inv < 2; ++inv) {
        const LoopExecution e = execution(c, seed + inv, clock);
        SimRunParams params;
        params.profile = e.profile;
        params.iterations = e.iterations;
        params.startCycle = e.startCycle;
        AddressSource addr;
        addr.ctx = &e.addressOf;
        addr.fn = [](const void *ctx, NodeId v, std::int64_t iter) {
            return (*static_cast<const AddressFn *>(ctx))(v, iter);
        };
        const SimRunResult r = ws.run(kernel, params, addr, *mem, cfg);
        out += show(r.stats) + " end=" + std::to_string(r.endCycle) +
            "\n";
        clock = r.endCycle;
        mem->loopBoundary();
    }
    return out;
}

std::string
runReference(const Compiled &c, std::uint64_t seed,
             const MachineConfig &cfg, SimStats *total = nullptr)
{
    const auto mem = makeMemSystem(cfg);
    std::string out;
    Cycles clock = 0;
    for (int inv = 0; inv < 2; ++inv) {
        const LoopSimResult r =
            referenceSimulate(execution(c, seed + inv, clock), *mem, cfg);
        if (total)
            total->merge(r.stats);
        out += show(r.stats) + " end=" + std::to_string(r.endCycle) +
            "\n";
        clock = r.endCycle;
        mem->loopBoundary();
    }
    return out;
}

TEST(SimReference, WorkspaceMatchesReferenceOnRandomLoops)
{
    SimWorkspace ws;
    SimStats total;
    int compared = 0;
    for (const char *arch : kArchs) {
        const MachineConfig cfg = archConfig(arch);
        for (const Heuristic h : {Heuristic::Base, Heuristic::Ipbc}) {
            for (int seed = 1; seed <= kLoops; ++seed) {
                const Compiled c = compileRandom(seed, cfg, h);
                ws.clearKernels();
                const int kernel = ws.prepare(c.loop.ddg, c.schedule,
                                              c.latencies);
                for (const std::uint64_t exec : {11u, 29u}) {
                    const std::string want =
                        runReference(c, exec, cfg, &total);
                    ASSERT_EQ(runWorkspace(ws, kernel, c, exec, cfg),
                              want)
                        << arch << " " << heuristicName(h) << " loop "
                        << seed << " exec " << exec;
                    ++compared;
                }
            }
        }
    }
    EXPECT_EQ(compared, 5 * 2 * kLoops * 2);
    // The comparison must exercise stalls and copies, not only the
    // stall-free path.
    EXPECT_GT(total.stallCycles, 0);
    EXPECT_GT(total.stallByClass[std::size_t(AccessClass::RemoteHit)], 0);
    EXPECT_GT(total.dynamicCopies, 0u);
}

TEST(SimReference, ViolatedComputeLatencyStillPanics)
{
    // mul (latency 3) at cycle 0 feeds add at cycle 1: the schedule
    // breaks a fixed latency, so the add would stall on a non-load.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    Ddg g;
    const NodeId mul = g.addNode(OpKind::IntMul, "mul");
    const NodeId add = g.addNode(OpKind::IntAlu, "add");
    g.addEdge(mul, add, DepKind::RegFlow, 0);
    Schedule s;
    s.ii = 2;
    s.ops.assign(2, PlacedOp{});
    s.ops[std::size_t(mul)] = {0, 0};
    s.ops[std::size_t(add)] = {1, 0};
    s.length = 2;
    s.stageCount = 1;
    LatencyMap lat(g, 1);
    lat.set(mul, 3);

    LoopExecution e;
    e.ddg = &g;
    e.schedule = &s;
    e.latencies = &lat;
    e.iterations = 4;
    e.addressOf = [](NodeId, std::int64_t) { return std::uint64_t(0); };
    const auto mem = makeMemSystem(cfg);
    for (const bool reference : {false, true}) {
        try {
            if (reference)
                referenceSimulate(e, *mem, cfg);
            else
                simulateLoop(e, *mem, cfg);
            ADD_FAILURE() << "no panic (reference " << reference << ")";
        } catch (const std::logic_error &err) {
            EXPECT_NE(std::string(err.what())
                          .find("stall blocked by a non-load value"),
                      std::string::npos)
                << err.what();
        }
    }
}

/** What @p run returned, or "panic" when it stalled on a non-load. */
template <class Run>
std::string
outcome(Run &&run)
{
    try {
        return run();
    } catch (const std::logic_error &err) {
        if (std::string(err.what()).find(
                "stall blocked by a non-load value") == std::string::npos)
            throw;
        return "panic";
    }
}

TEST(SimReference, OneKernelUnderTwoBusLatencies)
{
    // The loops are scheduled for a 1-cycle bus. On a 2-cycle bus a
    // consumer placed one cycle after its copy waits on the copy, a
    // non-load, and must panic; the 1-cycle plan would have pruned
    // that operand. Runs alternate between the two latencies on one
    // prepared kernel, so each run must pick its own latency's plan.
    MachineConfig fast = MachineConfig::paperInterleaved();
    fast.regBusLatency = 1;
    MachineConfig slow = fast;
    slow.regBusLatency = 2;
    int withCopies = 0;
    int panics = 0;
    for (int seed = 1; seed <= kLoops; ++seed) {
        const Compiled c = compileRandom(seed, fast, Heuristic::Ipbc);
        if (c.schedule.copies.empty())
            continue;
        ++withCopies;

        SimWorkspace shared;
        const int kernel =
            shared.prepare(c.loop.ddg, c.schedule, c.latencies);
        for (const MachineConfig *cfg : {&fast, &slow, &fast, &slow}) {
            SimWorkspace fresh;
            const int own =
                fresh.prepare(c.loop.ddg, c.schedule, c.latencies);
            const std::string want = outcome(
                [&] { return runWorkspace(fresh, own, c, 7, *cfg); });
            EXPECT_EQ(outcome([&] {
                          return runWorkspace(shared, kernel, c, 7, *cfg);
                      }),
                      want)
                << "loop " << seed << " bus " << cfg->regBusLatency;
            EXPECT_EQ(outcome([&] { return runReference(c, 7, *cfg); }),
                      want)
                << "loop " << seed << " bus " << cfg->regBusLatency;
            panics += want == "panic";
        }
    }
    EXPECT_GT(withCopies, 0);
    EXPECT_GT(panics, 0);
}

} // namespace
} // namespace vliw

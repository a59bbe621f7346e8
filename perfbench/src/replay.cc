#include "replay.hh"

#include <algorithm>

#include "ddg/chains.hh"
#include "ddg/circuits.hh"
#include "ddg/mii.hh"
#include "ddg/unroll.hh"
#include "engine/compile_cache.hh"
#include "mem/mem_system.hh"
#include "opt/solver.hh"
#include "sched/lat_scheme.hh"
#include "sched/latency_assign.hh"
#include "sched/schedule.hh"
#include "sched/scheduler.hh"
#include "sched/unroll_policy.hh"
#include "sim/sim_workspace.hh"
#include "workloads/address_gen.hh"
#include "workloads/dataset.hh"
#include "workloads/profiler.hh"

using namespace vliw;

namespace perfbench {

namespace {

LatencyScheme
schemeFor(const MachineConfig &cfg)
{
    switch (cfg.cacheOrg) {
      case CacheOrg::Interleaved: return LatencyScheme::fourClass(cfg);
      case CacheOrg::Unified:     return LatencyScheme::twoClassUnified(cfg);
      case CacheOrg::MultiVliw:   return LatencyScheme::twoClassCoherent(cfg);
    }
    checkFailed("unknown cache organisation");
}

bool
chainsEnabled(const MachineConfig &cfg, const ToolchainOptions &opts)
{
    return opts.memChains && cfg.cacheOrg != CacheOrg::Unified;
}

AddressSource
resolverSource(const AddressResolver &addr)
{
    AddressSource src;
    src.ctx = &addr;
    src.fn = [](const void *ctx, NodeId v, std::int64_t iter) {
        return static_cast<const AddressResolver *>(ctx)->addressOf(v, iter);
    };
    return src;
}

} // namespace

std::string
cellCompileKey(const engine::ExperimentResult &cell)
{
    const BenchmarkSpec &bench = *cell.spec.workload;
    return engine::compileKey(cell.spec.arch.config, cell.spec.opts,
                              bench.fingerprint.empty()
                                  ? bench.name
                                  : bench.name + "@" + bench.fingerprint);
}

bool
sameSchedule(const Schedule &a, const Schedule &b)
{
    if (a.ii != b.ii || a.length != b.length ||
        a.stageCount != b.stageCount || a.ops.size() != b.ops.size() ||
        a.copies.size() != b.copies.size())
        return false;
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
        if (a.ops[i].cycle != b.ops[i].cycle ||
            a.ops[i].cluster != b.ops[i].cluster)
            return false;
    }
    for (std::size_t i = 0; i < a.copies.size(); ++i) {
        const CopyOp &x = a.copies[i];
        const CopyOp &y = b.copies[i];
        if (x.producer != y.producer || x.fromCluster != y.fromCluster ||
            x.toCluster != y.toCluster || x.busStart != y.busStart ||
            x.readyCycle != y.readyCycle)
            return false;
    }
    return true;
}

bool
sameStats(const SimStats &a, const SimStats &b)
{
    return a.totalCycles == b.totalCycles &&
        a.stallCycles == b.stallCycles &&
        a.accessesByClass == b.accessesByClass &&
        a.stallByClass == b.stallByClass &&
        a.remoteHitFactors.multiCluster == b.remoteHitFactors.multiCluster &&
        a.remoteHitFactors.unclearPreferred ==
            b.remoteHitFactors.unclearPreferred &&
        a.remoteHitFactors.notInPreferred ==
            b.remoteHitFactors.notInPreferred &&
        a.remoteHitFactors.granularity == b.remoteHitFactors.granularity &&
        a.dynamicOps == b.dynamicOps && a.dynamicCopies == b.dynamicCopies &&
        a.memAccesses == b.memAccesses && a.abHits == b.abHits;
}

void
validateArtifact(const MachineConfig &cfg, const ToolchainOptions &opts,
                 const CompiledBenchmark &compiled)
{
    for (const CompiledLoopVersions &v : compiled.loops) {
        const CompiledLoop &loop = v.primary;
        std::optional<MemChains> chains;
        if (chainsEnabled(cfg, opts))
            chains.emplace(loop.ddg);
        if (auto why = validateSchedule(loop.ddg, loop.latency.latencies,
                                        cfg, loop.sched.schedule,
                                        chains ? &*chains : nullptr)) {
            checkFailed("validateSchedule rejects " + compiled.name + "/" +
                        loop.name + ": " + *why);
        }
    }
}

CompiledLoop
Replay::compileAt(const MachineConfig &cfg, const ToolchainOptions &opts,
                  const BenchmarkSpec &bench, const LoopSpec &loop,
                  int factor)
{
    CompiledLoop out;
    out.name = loop.name;
    out.unrollFactor = factor;
    out.invocations = loop.invocations;
    if (loop.avgIterations % factor != 0)
        checkFailed("replay: indivisible unroll in " + bench.name);
    out.kernelIterations = loop.avgIterations / factor;

    {
        ScopedSpan s(rec_, "ddg.unroll");
        out.ddg = unrollDdg(loop.body, factor);
    }
    DataSet profDs;
    {
        ScopedSpan s(rec_, "workloads.dataset");
        profDs = makeDataSet(bench, cfg, opts.profileSeed, opts.varAlignment);
    }
    {
        ScopedSpan s(rec_, "workloads.profile");
        AddressResolver addr(out.ddg, bench, profDs);
        out.profile = profileLoop(out.ddg, addr, out.kernelIterations,
                                  loop.invocations, cfg, opts.profile);
        ++counts.profileCalls;
    }
    std::vector<Circuit> circuits;
    {
        ScopedSpan s(rec_, "ddg.circuits");
        circuits = findCircuits(out.ddg);
        counts.circuits += circuits.size();
    }
    {
        ScopedSpan s(rec_, "sched.latency");
        out.latency = assignLatencies(out.ddg, circuits, out.profile,
                                      schemeFor(cfg), cfg);
    }
    {
        ScopedSpan s(rec_, "ddg.mii");
        out.mii = std::max(out.latency.miiTarget,
                           computeMii(out.ddg, circuits,
                                      out.latency.latencies, cfg));
    }

    SchedulerOptions schedOpts;
    schedOpts.heuristic = opts.heuristic;
    schedOpts.useChains = chainsEnabled(cfg, opts);
    schedOpts.maxIiTries = opts.maxIiTries;
    {
        ScopedSpan s(rec_, "sched.schedule");
        const std::uint64_t allocs0 = allocCount();
        auto outcome = scheduleLoop(out.ddg, circuits, out.latency.latencies,
                                    out.profile, cfg, out.mii, schedOpts);
        counts.scheduleAllocs += allocCount() - allocs0;
        ++counts.schedules;
        if (!outcome)
            checkFailed("replay: " + bench.name + "/" + loop.name +
                        " failed to schedule");
        counts.iiTries += std::uint64_t(outcome->attempts);
        out.sched = std::move(*outcome);
    }

    if (opts.optimalSolver) {
        ScopedSpan s(rec_, "opt.solve");
        const opt::SolveOutcome solved =
            opt::solveLoop(out.ddg, out.latency.latencies, cfg, schedOpts,
                           opts.solverBudget, out.sched.schedule, out.mii);
        ++counts.solves;
        counts.solverNodes += solved.stats.nodes;
        counts.proven += solved.status == opt::SolveStatus::Proven;
        counts.budgetExhausted +=
            solved.status == opt::SolveStatus::BudgetExhausted;
        out.solverOutcome = opt::solveStatusName(solved.status);
        out.solverLowerBound = solved.lowerBound;
        out.solverNodes = solved.stats.nodes;
        if (solved.schedule.ii < out.sched.schedule.ii)
            out.sched.schedule = solved.schedule;
    }
    return out;
}

CompiledLoop
Replay::compileLoop(const MachineConfig &cfg, const ToolchainOptions &opts,
                    const BenchmarkSpec &bench, const LoopSpec &loop)
{
    DataSet profDs;
    {
        ScopedSpan s(rec_, "workloads.dataset");
        profDs = makeDataSet(bench, cfg, opts.profileSeed, opts.varAlignment);
    }
    ProfileMap origProf;
    {
        ScopedSpan s(rec_, "workloads.profile");
        AddressResolver addr(loop.body, bench, profDs);
        origProf = profileLoop(loop.body, addr, loop.avgIterations,
                               loop.invocations, cfg, opts.profile);
        ++counts.profileCalls;
    }
    const int ouf = computeOuf(loop.body, origProf, cfg);
    auto factorOf = [&](UnrollPolicy policy) {
        switch (policy) {
          case UnrollPolicy::None:      return 1;
          case UnrollPolicy::TimesN:    return cfg.numClusters;
          case UnrollPolicy::Ouf:       return ouf;
          case UnrollPolicy::Selective: break;
        }
        return 1;
    };

    if (opts.unroll != UnrollPolicy::Selective) {
        CompiledLoop out =
            compileAt(cfg, opts, bench, loop, factorOf(opts.unroll));
        out.policyChosen = opts.unroll;
        return out;
    }
    CompiledLoop best;
    double bestCost = 0.0;
    bool first = true;
    for (UnrollPolicy policy :
         {UnrollPolicy::None, UnrollPolicy::TimesN, UnrollPolicy::Ouf}) {
        const int factor = factorOf(policy);
        if (!first && factor == best.unrollFactor)
            continue;
        CompiledLoop cand = compileAt(cfg, opts, bench, loop, factor);
        const double cost =
            estimateTexec(double(loop.avgIterations), factor,
                          cand.sched.schedule.stageCount,
                          cand.sched.schedule.ii);
        if (first || cost < bestCost) {
            best = std::move(cand);
            bestCost = cost;
            best.policyChosen = UnrollPolicy::Selective;
        }
        first = false;
    }
    return best;
}

const CompiledBenchmark &
Replay::artifact(const engine::ExperimentResult &cell) const
{
    return *artifacts_.at(cellCompileKey(cell));
}

void
Replay::replayCell(const engine::ExperimentResult &cell)
{
    const engine::ExperimentSpec &spec = cell.spec;
    const MachineConfig &cfg = spec.arch.config;
    const ToolchainOptions &opts = spec.opts;
    const BenchmarkSpec &bench = *spec.workload;
    if (opts.loopVersioning || opts.abHints)
        checkFailed("replay covers neither versioning nor AB hints");
    if (cell.failed())
        checkFailed("replay of failed cell " + spec.label());

    ScopedSpan cellSpan(rec_, "replay.cell");

    std::shared_ptr<CompiledBenchmark> &compiled =
        artifacts_[cellCompileKey(cell)];
    if (!compiled) {
        ScopedSpan s(rec_, "core.compile");
        compiled = std::make_shared<CompiledBenchmark>();
        compiled->name = bench.name;
        for (const LoopSpec &loop : bench.loops) {
            CompiledLoopVersions v;
            v.primary = compileLoop(cfg, opts, bench, loop);
            compiled->loops.push_back(std::move(v));
        }
    }

    ScopedSpan simSpan(rec_, "core.simulate");
    SimWorkspace &ws = threadSimWorkspace();
    std::vector<int> kernels;
    {
        ScopedSpan s(rec_, "sim.prepare");
        ws.clearKernels();
        for (const CompiledLoopVersions &v : compiled->loops)
            kernels.push_back(ws.prepare(v.primary.ddg,
                                         v.primary.sched.schedule,
                                         v.primary.latency.latencies));
    }
    std::unique_ptr<MemSystem> mem;
    {
        ScopedSpan s(rec_, "mem.reset");
        mem = makeMemSystem(cfg);
    }

    const std::vector<std::uint64_t> seeds = spec.execSeeds.empty()
        ? std::vector<std::uint64_t>{opts.execSeed}
        : spec.execSeeds;
    if (seeds.size() != cell.datasetRuns.size())
        checkFailed("replay: data set count differs for " + spec.label());

    for (std::size_t d = 0; d < seeds.size(); ++d) {
        const std::uint64_t allocs0 = allocCount();
        {
            ScopedSpan s(rec_, "mem.reset");
            mem->resetAll();
        }
        DataSet execDs;
        {
            ScopedSpan s(rec_, "workloads.dataset");
            execDs = makeDataSet(bench, cfg, seeds[d], opts.varAlignment);
        }
        const BenchmarkRun &expect = cell.datasetRuns[d];
        SimStats total;
        {
            ScopedSpan s(rec_, "sim.run");
            Cycles clock = 0;
            for (std::size_t li = 0; li < bench.loops.size(); ++li) {
                const CompiledLoop &loop = compiled->loops[li].primary;
                AddressResolver addr(loop.ddg, bench, execDs);
                SimStats loopStats;
                for (int inv = 0; inv < loop.invocations; ++inv) {
                    addr.setInvocation(inv);
                    SimRunParams params;
                    params.profile = &loop.profile;
                    params.iterations = loop.kernelIterations;
                    params.startCycle = clock;
                    const SimRunResult r = ws.run(
                        kernels[li], params, resolverSource(addr), *mem, cfg);
                    loopStats.merge(r.stats);
                    clock = r.endCycle;
                    mem->loopBoundary();
                }
                const LoopRun &lr = expect.loops[li];
                if (lr.ii != loop.sched.schedule.ii ||
                    lr.stageCount != loop.sched.schedule.stageCount ||
                    lr.copies != loop.sched.schedule.numCopies() ||
                    lr.unrollFactor != loop.unrollFactor ||
                    lr.solverNodes != loop.solverNodes ||
                    !sameStats(lr.sim, loopStats)) {
                    checkFailed("replay differs from the toolchain on " +
                                spec.label() + " loop " + loop.name);
                }
                total.merge(loopStats);
            }
        }
        if (!sameStats(total, expect.total))
            checkFailed("replay SimStats differ on " + spec.label());
        counts.datasetAllocs += allocCount() - allocs0;
        ++counts.datasets;

        for (const CompiledLoopVersions &v : compiled->loops) {
            counts.iiSum += std::uint64_t(v.primary.sched.schedule.ii);
            counts.copiesSum +=
                std::uint64_t(v.primary.sched.schedule.numCopies());
        }
        counts.dynamicOps += total.dynamicOps;
        counts.stallCycles += std::uint64_t(total.stallCycles);
        counts.computeCycles += std::uint64_t(total.computeCycles());
        counts.memAccesses += total.memAccesses;
        counts.localHits += total.accessesByClass[std::size_t(
            AccessClass::LocalHit)];
        for (Counter n : total.accessesByClass)
            counts.classifiedAccesses += n;
        counts.abHits += total.abHits;
    }
}

} // namespace perfbench

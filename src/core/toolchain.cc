#include "toolchain.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "core/versioning.hh"
#include "ddg/mii.hh"
#include "engine/compile_cache.hh"
#include "opt/solver.hh"
#include "ddg/unroll.hh"
#include "sim/sim_workspace.hh"
#include "support/logging.hh"
#include "workloads/address_gen.hh"
#include "workloads/dataset.hh"

namespace vliw {

Toolchain::Toolchain(const MachineConfig &cfg,
                     const ToolchainOptions &opts,
                     std::shared_ptr<engine::FrontCache> fronts)
    : cfg_(cfg), opts_(opts), fronts_(std::move(fronts))
{
    cfg_.validate();
}

std::shared_ptr<const LoopFront>
Toolchain::frontAt(engine::FrontCache &fronts,
                   const BenchmarkSpec &bench, const LoopSpec &loop,
                   std::size_t index, int factor) const
{
    return fronts.front(cfg_, opts_, bench, index, factor, [&] {
        LoopFront front;
        front.ddg = unrollDdg(loop.body, factor);
        // Profile the unrolled body on the profile data set.
        const DataSet prof_ds = makeDataSet(bench, cfg_,
                                            opts_.profileSeed,
                                            opts_.varAlignment);
        AddressResolver prof_addr(front.ddg, bench, prof_ds);
        front.profile = profileLoop(front.ddg, prof_addr,
                                    loop.avgIterations / factor,
                                    loop.invocations, cfg_,
                                    opts_.profile);
        front.circuits = findCircuits(front.ddg);
        return front;
    });
}

LatencyScheme
Toolchain::makeScheme() const
{
    switch (cfg_.cacheOrg) {
      case CacheOrg::Interleaved:
        return LatencyScheme::fourClass(cfg_);
      case CacheOrg::Unified:
        return LatencyScheme::twoClassUnified(cfg_);
      case CacheOrg::MultiVliw:
        return LatencyScheme::twoClassCoherent(cfg_);
    }
    vliw_panic("unknown cache organisation");
}

bool
Toolchain::chainsEnabled() const
{
    // The unified cache serialises everything centrally; chains are
    // an interleaved/multiVLIW compiler constraint.
    return opts_.memChains && cfg_.cacheOrg != CacheOrg::Unified;
}

Toolchain::UnrollCandidate
Toolchain::planAt(engine::FrontCache &fronts, const BenchmarkSpec &bench,
                  const LoopSpec &loop, std::size_t index, int factor,
                  const LatencyScheme &scheme) const
{
    // User workloads pick their own trip counts; an indivisible
    // unroll factor is their mistake to hear about, not a wivliw
    // invariant.
    if (loop.avgIterations % factor != 0) {
        throw CompileError(detail::concat(
            "loop ", bench.name, "/", loop.name, ": trip count ",
            loop.avgIterations, " not divisible by unroll factor ",
            factor));
    }
    UnrollCandidate cand;
    cand.factor = factor;
    cand.front = frontAt(fronts, bench, loop, index, factor);
    const LoopFront &front = *cand.front;
    cand.latency = assignLatencies(front.ddg, front.circuits,
                                   front.profile, scheme, cfg_);
    // Recurrences that could not reach the target keep the MII up.
    cand.mii = std::max(cand.latency.miiTarget,
                        computeMii(front.ddg, front.circuits,
                                   cand.latency.latencies, cfg_));
    cand.bound = estimateTexec(double(loop.avgIterations), factor, 1,
                               cand.mii);
    return cand;
}

CompiledLoop
Toolchain::scheduleCandidate(const BenchmarkSpec &bench,
                             const LoopSpec &loop,
                             const UnrollCandidate &cand) const
{
    const LoopFront &front = *cand.front;
    const LatencyMap &lat = cand.latency.latencies;
    CompiledLoop out;
    out.name = loop.name;
    out.unrollFactor = cand.factor;
    out.policyChosen = opts_.unroll;
    out.invocations = loop.invocations;
    out.kernelIterations = loop.avgIterations / cand.factor;
    out.mii = cand.mii;

    SchedulerOptions sched_opts;
    sched_opts.heuristic = opts_.heuristic;
    sched_opts.useChains = chainsEnabled();
    sched_opts.maxIiTries = opts_.maxIiTries;
    sched_opts.cancel = opts_.cancel;

    auto outcome = scheduleLoop(front.ddg, front.circuits, lat,
                                front.profile, cfg_, out.mii,
                                sched_opts);
    if (!outcome) {
        throw CompileError(detail::concat(
            "loop ", bench.name, "/", loop.name,
            " failed to schedule within ", opts_.maxIiTries,
            " II attempts (mii ", out.mii, ")"));
    }
    out.sched = std::move(*outcome);

    // The exact solver runs after the heuristic: the heuristic
    // schedule is its upper bound and the fallback when the budget
    // runs out, so a CompileError can only come from the seed above.
    if (opts_.optimalSolver) {
        const opt::SolveOutcome solved = opt::solveLoop(
            front.ddg, lat, cfg_, sched_opts, opts_.solverBudget,
            out.sched.schedule, out.mii);
        out.solverOutcome = opt::solveStatusName(solved.status);
        out.solverLowerBound = solved.lowerBound;
        out.solverNodes = solved.stats.nodes;
        if (solved.schedule.ii < out.sched.schedule.ii) {
            out.sched.schedule = solved.schedule;
            // chainClusters is metadata (serialized, not simulated);
            // rebind it to the solver's cluster choices.
            if (sched_opts.useChains) {
                const MemChains chains(front.ddg);
                out.sched.chainClusters.assign(
                    std::size_t(chains.numChains()), -1);
                for (int ch = 0; ch < chains.numChains(); ++ch) {
                    const NodeId member = chains.members(ch).front();
                    out.sched.chainClusters[std::size_t(ch)] =
                        solved.schedule.clusterOf(member);
                }
            }
        }
    }
    // The selective bound's premises.
    vliw_assert(out.sched.schedule.ii >= out.mii &&
                    out.sched.schedule.stageCount >= 1,
                "schedule below its planned bound");
    return out;
}

void
Toolchain::materialise(CompiledLoop &out, UnrollCandidate &cand) const
{
    out.ddg = cand.front->ddg;
    out.profile = cand.front->profile;
    out.latency = std::move(cand.latency);
    // Attraction hints need the assigned latencies: only loads
    // scheduled below the remote-hit latency can stall on remote
    // hits, so only those benefit from buffer capacity. Only the
    // simulator reads the flags, so the schedule is the same.
    if (opts_.abHints && cfg_.attractionBuffers &&
        opts_.abHintBudget > 0) {
        applyAbHints(out.ddg, out.profile, out.latency.latencies);
    }
}

void
Toolchain::applyAbHints(Ddg &ddg, const ProfileMap &prof,
                        const LatencyMap &lat) const
{
    // Rank loads by the stall the buffer can actually save: the
    // expected remote accesses times the remote-hit exposure of the
    // assigned latency (a load scheduled at or above the remote-hit
    // latency never stalls on a remote hit).
    std::vector<std::pair<double, NodeId>> ranked;
    for (NodeId v : ddg.memNodes()) {
        if (ddg.node(v).kind != OpKind::Load)
            continue;
        const MemProfile &p = prof.at(v);
        const double exposure = std::max(
            0, cfg_.latRemoteHit - lat(v));
        ranked.emplace_back(
            double(p.executions) * (1.0 - p.localRatio) * exposure,
            v);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        ddg.memInfo(ranked[i].second).attractable =
            i < std::size_t(opts_.abHintBudget);
    }
}

CompiledLoop
Toolchain::compileLoop(const BenchmarkSpec &bench,
                       const LoopSpec &loop) const
{
    // A private tier: @p loop need not be one of bench.loops, so it
    // has no index a shared tier could key it by.
    engine::FrontCache fronts;
    return compileLoop(fronts, bench, loop, 0);
}

CompiledLoop
Toolchain::compileLoop(engine::FrontCache &fronts,
                       const BenchmarkSpec &bench, const LoopSpec &loop,
                       std::size_t index) const
{
    auto policy_factor = [&](UnrollPolicy policy) {
        switch (policy) {
          case UnrollPolicy::None:   return 1;
          case UnrollPolicy::TimesN: return cfg_.numClusters;
          case UnrollPolicy::Ouf:
            // Per-instruction analysis wants the original loop's
            // profile: the factor-1 front's, since unrolling by 1
            // reproduces the body node for node.
            return computeOuf(
                loop.body,
                frontAt(fronts, bench, loop, index, 1)->profile, cfg_);
          case UnrollPolicy::Selective: break;
        }
        return 1;
    };
    const LatencyScheme scheme = makeScheme();

    if (opts_.unroll != UnrollPolicy::Selective) {
        UnrollCandidate cand = planAt(fronts, bench, loop, index,
                                      policy_factor(opts_.unroll),
                                      scheme);
        CompiledLoop out = scheduleCandidate(bench, loop, cand);
        materialise(out, cand);
        return out;
    }

    // Selective unrolling: estimate Texec for the distinct candidate
    // factors and keep the first minimum in none/xN/OUF order (paper
    // Section 4.3.1 step 1). Every candidate is planned first, so a
    // trip count a factor does not divide always throws. Scheduling
    // then goes in bound order and skips a candidate whose bound
    // already loses to the best cost -- ties go to the earlier
    // candidate -- so a skipped candidate never runs the scheduler
    // and cannot fail the loop by exhausting its II budget.
    std::vector<UnrollCandidate> cands;
    cands.reserve(3);
    for (UnrollPolicy policy : {UnrollPolicy::None,
                                UnrollPolicy::TimesN,
                                UnrollPolicy::Ouf}) {
        const int factor = policy_factor(policy);
        const bool seen = std::any_of(
            cands.begin(), cands.end(),
            [&](const UnrollCandidate &c) { return c.factor == factor; });
        if (!seen) {
            cands.push_back(
                planAt(fronts, bench, loop, index, factor, scheme));
        }
    }
    std::vector<std::size_t> order(cands.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cands[a].bound < cands[b].bound;
                     });

    CompiledLoop best;
    std::size_t best_idx = cands.size();
    double best_cost = 0.0;
    for (std::size_t idx : order) {
        const UnrollCandidate &cand = cands[idx];
        if (best_idx < cands.size() &&
            (cand.bound > best_cost ||
             (cand.bound == best_cost && idx > best_idx))) {
            continue;
        }
        CompiledLoop out = scheduleCandidate(bench, loop, cand);
        const double cost = estimateTexec(
            double(loop.avgIterations), cand.factor,
            out.sched.schedule.stageCount, out.sched.schedule.ii);
        if (best_idx == cands.size() || cost < best_cost ||
            (cost == best_cost && idx < best_idx)) {
            best = std::move(out);
            best_idx = idx;
            best_cost = cost;
        }
    }
    materialise(best, cands[best_idx]);
    return best;
}

CompiledBenchmark
Toolchain::compileBenchmark(const BenchmarkSpec &bench) const
{
    CompiledBenchmark out;
    out.name = bench.name;
    out.loops.reserve(bench.loops.size());

    // A private tier lives for this call only: a loop index names
    // a loop unambiguously only within one benchmark.
    const std::shared_ptr<engine::FrontCache> fronts =
        fronts_ ? fronts_ : std::make_shared<engine::FrontCache>();
    for (std::size_t li = 0; li < bench.loops.size(); ++li) {
        const LoopSpec &loop = bench.loops[li];
        if (opts_.cancel &&
            opts_.cancel->load(std::memory_order_relaxed)) {
            throw CancelledError(detail::concat(
                "compile of ", bench.name, " cancelled"));
        }
        CompiledLoopVersions v;
        v.primary = compileLoop(*fronts, bench, loop, li);

        // Loop versioning (Section 5.4): a chain-free second
        // version plus the dynamic disjointness check. It shares
        // the primary's fronts: chains are not a front-end input.
        if (opts_.loopVersioning && chainsEnabled()) {
            v.chains.emplace(v.primary.ddg);
            if (v.chains->maxChainSize() > 1) {
                ToolchainOptions no_chain_opts = opts_;
                no_chain_opts.memChains = false;
                no_chain_opts.loopVersioning = false;
                v.unchained = Toolchain(cfg_, no_chain_opts)
                    .compileLoop(*fronts, bench, loop, li);
            }
        }
        out.loops.push_back(std::move(v));
    }
    return out;
}

namespace {

/** Kernel handles of one loop's compiled versions. */
struct LoopKernels
{
    int primary = -1;
    int unchained = -1;
};

/**
 * Simulate every loop of a compiled benchmark against one execution
 * data set, using kernels previously prepared on @p ws. This is
 * simulateBatch()'s per-dataset body; @p mem must be freshly
 * constructed or resetAll().
 */
BenchmarkRun
simulateDataset(const MachineConfig &cfg, const BenchmarkSpec &bench,
                const CompiledBenchmark &compiledBench,
                const std::vector<LoopKernels> &kernels,
                SimWorkspace &ws, MemSystem &mem,
                const DataSet &exec_ds)
{
    BenchmarkRun run;
    run.name = bench.name;
    Cycles clock = 0;

    std::vector<double> balances;
    std::vector<double> weights;

    for (std::size_t li = 0; li < bench.loops.size(); ++li) {
        const LoopSpec &loop = bench.loops[li];
        const CompiledLoopVersions &versions = compiledBench.loops[li];
        const CompiledLoop &compiled = versions.primary;
        const std::optional<MemChains> &chains = versions.chains;
        const std::optional<CompiledLoop> &unchained =
            versions.unchained;

        AddressResolver exec_addr(compiled.ddg, bench, exec_ds);
        std::optional<AddressResolver> unchained_addr;
        if (unchained)
            unchained_addr.emplace(unchained->ddg, bench, exec_ds);

        LoopRun lr;
        lr.name = loop.name;
        lr.unrollFactor = compiled.unrollFactor;
        lr.ii = compiled.sched.schedule.ii;
        lr.stageCount = compiled.sched.schedule.stageCount;
        lr.copies = compiled.sched.schedule.numCopies();
        lr.workloadBalance =
            compiled.sched.schedule.workloadBalance(cfg.numClusters);
        lr.solverLowerBound = compiled.solverLowerBound;
        lr.solverNodes = compiled.solverNodes;

        for (int inv = 0; inv < compiled.invocations; ++inv) {
            exec_addr.setInvocation(inv);

            // The check code: run the unchained version when its
            // chained references are dynamically disjoint.
            const CompiledLoop *version = &compiled;
            int kernel = kernels[li].primary;
            const AddressResolver *addr = &exec_addr;
            if (unchained) {
                unchained_addr->setInvocation(inv);
                if (chainsDynamicallyDisjoint(
                        compiled.ddg, *chains, exec_addr,
                        compiled.kernelIterations)) {
                    version = &*unchained;
                    kernel = kernels[li].unchained;
                    addr = &*unchained_addr;
                    lr.unchainedInvocations += 1;
                }
            }

            SimRunParams params;
            params.profile = &version->profile;
            params.iterations = version->kernelIterations;
            params.startCycle = clock;
            const SimRunResult result =
                ws.run(kernel, params, AddressSource(*addr), mem,
                       cfg);
            lr.sim.merge(result.stats);
            clock = result.endCycle;
            // Attraction Buffers flush when a loop finishes.
            mem.loopBoundary();
        }

        lr.dynamicInsts = lr.sim.dynamicOps;
        balances.push_back(lr.workloadBalance);
        weights.push_back(double(lr.dynamicInsts));
        run.total.merge(lr.sim);
        run.loops.push_back(std::move(lr));
    }

    run.workloadBalance = balances.empty()
        ? 0.0 : weightedMean(balances, weights);
    return run;
}

/** Decode every compiled loop (and versioned body) once. */
std::vector<LoopKernels>
prepareKernels(const CompiledBenchmark &compiledBench,
               SimWorkspace &ws)
{
    std::vector<LoopKernels> kernels;
    kernels.reserve(compiledBench.loops.size());
    for (const CompiledLoopVersions &versions : compiledBench.loops) {
        LoopKernels lk;
        lk.primary = ws.prepare(versions.primary.ddg,
                                versions.primary.sched.schedule,
                                versions.primary.latency.latencies);
        if (versions.unchained) {
            lk.unchained =
                ws.prepare(versions.unchained->ddg,
                           versions.unchained->sched.schedule,
                           versions.unchained->latency.latencies);
        }
        kernels.push_back(lk);
    }
    return kernels;
}

} // namespace

BenchmarkRun
Toolchain::simulateBenchmark(const BenchmarkSpec &bench,
                             const CompiledBenchmark &compiledBench) const
{
    return simulateBatch(bench, compiledBench, {opts_.execSeed}).front();
}

std::vector<BenchmarkRun>
Toolchain::simulateBatch(const BenchmarkSpec &bench,
                         const CompiledBenchmark &compiledBench,
                         const std::vector<std::uint64_t> &seeds,
                         std::vector<double> *dataset_ms,
                         double *setup_ms) const
{
    vliw_assert(compiledBench.loops.size() == bench.loops.size(),
                "compiled benchmark ", compiledBench.name,
                " does not match spec ", bench.name);

    // Decode the schedules and build the memory model once; every
    // data set reuses them, so the per-dataset cost is simulation
    // proper plus one resetAll().
    const auto setup_start = std::chrono::steady_clock::now();
    SimWorkspace &ws = threadSimWorkspace();
    ws.clearKernels();
    const std::vector<LoopKernels> kernels =
        prepareKernels(compiledBench, ws);
    auto mem = makeMemSystem(cfg_);
    if (setup_ms) {
        *setup_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() -
                        setup_start)
                        .count();
    }

    if (dataset_ms) {
        dataset_ms->clear();
        dataset_ms->reserve(seeds.size());
    }
    std::vector<BenchmarkRun> runs;
    runs.reserve(seeds.size());
    for (std::uint64_t seed : seeds) {
        const auto t0 = std::chrono::steady_clock::now();
        mem->resetAll();
        const DataSet exec_ds =
            makeDataSet(bench, cfg_, seed, opts_.varAlignment);
        runs.push_back(simulateDataset(cfg_, bench, compiledBench,
                                       kernels, ws, *mem, exec_ds));
        if (dataset_ms) {
            dataset_ms->push_back(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
    }
    return runs;
}

BenchmarkRun
Toolchain::runBenchmark(const BenchmarkSpec &bench) const
{
    return simulateBenchmark(bench, compileBenchmark(bench));
}

} // namespace vliw

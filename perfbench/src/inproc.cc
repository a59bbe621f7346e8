/**
 * @file
 * The in-process workloads: paper-grid and synth-gap.
 * They drive the library through api::Session, engine::writeCsv and
 * opt::runGapReport only; the traced run adds the stage replay.
 */

#include <algorithm>
#include <cctype>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "api/session.hh"
#include "engine/report.hh"
#include "opt/gap_report.hh"
#include "replay.hh"
#include "workloads.hh"
#include "workloads/dataset.hh"
#include "wvlgen.hh"

using namespace vliw;

namespace perfbench {

namespace {

/** How one pass is run. */
struct PassCtx
{
    /** Non-null in traced passes: api/engine/lang spans go here. */
    SpanRecorder *rec = nullptr;
    int jobs = 1;
    bool compileCache = true;
    /** Return the engine cells (and their session artifacts). */
    bool wantCells = false;
};

struct PassOut
{
    /** The report bytes the pass produced. */
    std::string report;
    /** Wall time from inputs in to report bytes out. */
    double ms = 0.0;
    std::vector<engine::ExperimentResult> cells;
    std::vector<std::shared_ptr<const CompiledBenchmark>> artifacts;
    std::size_t cellCount = 0;
    std::size_t failed = 0;
    // Traced passes only.
    double sweepMs = 0.0;
    double reportMs = 0.0;
    double registerUs = 0.0;
    double registerBytes = 0.0;
    engine::CompileCacheStats cache;
    metrics::Snapshot before, after;
};

struct Hooks
{
    /** One set-up unit: what precedes the first timed pass. */
    std::function<void()> setupUnit;
    std::function<PassOut(const PassCtx &)> pass;
};

std::uint64_t
execSeedFor(std::uint64_t seed)
{
    return datasetSeed(ToolchainOptions{}.execSeed, int(seed % 1000000));
}

/** A Session call that must succeed; anything else fails the run. */
template <typename T>
T
must(api::Result<T> r, const std::string &what)
{
    if (!r.ok())
        checkFailed(what + ": " + r.status().message());
    return std::move(r).value();
}

const metrics::Snapshot::HistogramValue *
findHistogram(const metrics::Snapshot &s, const std::string &name)
{
    for (const auto &h : s.histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

double
histogramSumMsDelta(const PassOut &p, const std::string &name)
{
    const auto *a = findHistogram(p.before, name);
    const auto *b = findHistogram(p.after, name);
    return b ? (b->sumUs - (a ? a->sumUs : 0.0)) / 1e3 : 0.0;
}

/** p50 of the observations added between two snapshots (bucket bound). */
double
histogramP50Delta(const PassOut &p, const std::string &name)
{
    const auto *a = findHistogram(p.before, name);
    const auto *b = findHistogram(p.after, name);
    if (!b)
        return 0.0;
    std::array<std::uint64_t, metrics::Histogram::kBuckets> d{};
    std::uint64_t total = 0;
    for (int i = 0; i < metrics::Histogram::kBuckets; ++i) {
        d[std::size_t(i)] = b->buckets[std::size_t(i)] -
            (a ? a->buckets[std::size_t(i)] : 0);
        total += d[std::size_t(i)];
    }
    std::uint64_t seen = 0;
    for (int i = 0; i < metrics::Histogram::kBuckets; ++i) {
        seen += d[std::size_t(i)];
        if (total > 0 && 2 * seen >= total)
            return metrics::Histogram::bucketUpperUs(i);
    }
    return 0.0;
}

/** Sweep through @p session, timing api and engine spans. */
PassOut
sweepPass(api::Session &session, const api::SweepRequest &req,
          const PassCtx &ctx, Clock::time_point start)
{
    PassOut out;
    engine::CompileCacheStats cacheBefore;
    if (ctx.rec) {
        out.before = session.metricsSnapshot();
        cacheBefore = session.cacheStats();
    }
    api::SweepResult result;
    {
        ScopedSpan s(ctx.rec, "api.sweep");
        const Clock::time_point t0 = Clock::now();
        result = must(session.sweep(req), "sweep");
        out.sweepMs = msBetween(t0, Clock::now());
    }
    {
        ScopedSpan s(ctx.rec, "engine.report");
        const Clock::time_point t0 = Clock::now();
        std::ostringstream os;
        engine::writeCsv(os, result.experiments);
        out.report = os.str();
        out.reportMs = msBetween(t0, Clock::now());
    }
    out.ms = msBetween(start, Clock::now());
    if (ctx.rec) {
        out.after = session.metricsSnapshot();
        const engine::CompileCacheStats after = session.cacheStats();
        out.cache.hits = after.hits - cacheBefore.hits;
        out.cache.misses = after.misses - cacheBefore.misses;
        out.cache.evictions = after.evictions - cacheBefore.evictions;
    }
    out.cellCount = result.experiments.size();
    out.failed = result.failedCount();
    if (ctx.wantCells) {
        for (const engine::ExperimentResult &cell : result.experiments) {
            api::RunRequest rr;
            rr.workload = cell.spec.bench;
            rr.arch = cell.spec.arch.name;
            // Registry names are the lower-case labels.
            rr.scheduler = engine::schedulerLabel(cell.spec.opts);
            std::transform(rr.scheduler.begin(), rr.scheduler.end(),
                           rr.scheduler.begin(),
                           [](unsigned char ch) { return char(std::tolower(ch)); });
            rr.unroll = req.unrolls.front();
            rr.options = cell.spec.opts;
            out.artifacts.push_back(
                must(session.compile(rr), "compile " + cell.spec.label()));
        }
        out.cells = std::move(result.experiments);
    }
    return out;
}

void
addLayerMetrics(std::map<std::string, std::vector<double>> &perPass,
                const PassOut &p, const SpanRecorder &rec,
                std::size_t replayFirst, const ReplayCounts &c)
{
    auto put = [&](const std::string &name, double v) {
        perPass[name].push_back(v);
    };
    put("api.sweep_ms", p.sweepMs);
    put("api.pool_wait_us.p50", histogramP50Delta(p, "wivliw_pool_wait_us"));
    put("api.cells", double(p.cellCount));
    put("api.cells_failed", double(p.failed));
    put("engine.cache_hits", double(p.cache.hits));
    put("engine.cache_misses", double(p.cache.misses));
    put("engine.cache_evictions", double(p.cache.evictions));
    put("engine.cache_hit_ratio",
        p.cache.hits + p.cache.misses
            ? double(p.cache.hits) / double(p.cache.hits + p.cache.misses)
            : 0.0);
    put("engine.report_ms", p.reportMs);
    put("engine.report_bytes", double(p.report.size()));
    put("core.compile_ms", histogramSumMsDelta(p, "wivliw_compile_us"));
    put("core.simulate_ms", histogramSumMsDelta(p, "wivliw_simulate_us"));
    put("lang.register_us", p.registerUs);
    put("lang.bytes", p.registerBytes);
    put("lang.mb_per_s",
        p.registerUs > 0 ? p.registerBytes / p.registerUs : 0.0);

    const std::map<std::string, double> self = rec.selfUs(replayFirst);
    auto us = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    put("workloads.profile_us", us("workloads.profile"));
    put("workloads.profile_calls", double(c.profileCalls));
    put("workloads.dataset_us", us("workloads.dataset"));
    put("ddg.unroll_us", us("ddg.unroll"));
    put("ddg.circuits_us", us("ddg.circuits"));
    put("ddg.circuits", double(c.circuits));
    put("ddg.mii_us", us("ddg.mii"));
    put("sched.latency_us", us("sched.latency"));
    put("sched.schedule_us", us("sched.schedule"));
    put("sched.schedules", double(c.schedules));
    put("sched.ii_tries", double(c.iiTries));
    put("sched.allocs_per_schedule",
        c.schedules ? double(c.scheduleAllocs) / double(c.schedules) : 0.0);
    put("sched.ii.sum", double(c.iiSum));
    put("sched.copies.sum", double(c.copiesSum));
    put("opt.solve_us", us("opt.solve"));
    put("opt.nodes", double(c.solverNodes));
    put("opt.us_per_node",
        c.solverNodes ? us("opt.solve") / double(c.solverNodes) : 0.0);
    put("opt.proven", double(c.proven));
    put("opt.budget_exhausted", double(c.budgetExhausted));
    put("opt.proven_share",
        c.solves ? double(c.proven) / double(c.solves) : 0.0);
    put("sim.prepare_us", us("sim.prepare"));
    put("sim.run_us", us("sim.run"));
    put("sim.dynamic_ops", double(c.dynamicOps));
    put("sim.ns_per_op",
        c.dynamicOps ? us("sim.run") * 1e3 / double(c.dynamicOps) : 0.0);
    put("sim.allocs_per_dataset",
        c.datasets ? double(c.datasetAllocs) / double(c.datasets) : 0.0);
    put("sim.stall_cycles", double(c.stallCycles));
    put("sim.compute_cycles", double(c.computeCycles));
    put("mem.reset_us", us("mem.reset"));
    put("mem.accesses", double(c.memAccesses));
    put("mem.local_hit_ratio",
        c.classifiedAccesses
            ? double(c.localHits) / double(c.classifiedAccesses)
            : 0.0);
    put("mem.ab_hits", double(c.abHits));
}

/** The shared measurement loop of the in-process workloads. */
RunOutput
runInproc(const Options &opts, const Hooks &hooks)
{
    RunOutput out;

    std::vector<double> setupS;
    for (int r = 0; r < kSetupReps; ++r) {
        const Clock::time_point t0 = Clock::now();
        hooks.setupUnit();
        setupS.push_back(secondsSince(t0));
    }
    out.metrics["setup_s"] = median(setupS);
    std::cerr << "perfbench: set-up s";
    for (double s : setupS)
        std::cerr << " " << s;
    std::cerr << "\n";

    // Output checks: jobs 1 vs jobs N, compile cache on vs off, every
    // compiled loop legal, and the replay equal to the toolchain.
    PassOut ref = hooks.pass({nullptr, opts.jobs, true, true});
    if (ref.failed)
        checkFailed(std::to_string(ref.failed) +
                    " cells failed at set-up; the inputs must compile");
    if (hooks.pass({nullptr, 1, true, false}).report != ref.report)
        checkFailed("report differs between jobs 1 and jobs " +
                    std::to_string(opts.jobs));
    if (hooks.pass({nullptr, opts.jobs, false, false}).report != ref.report)
        checkFailed("report differs with the compile cache off");
    // The check replay also warms the workspaces the traced passes'
    // replay reuses, so their allocation counts are the steady ones.
    Replay replay(nullptr);
    std::vector<double> cycles;
    double opsPerPass = 0.0;
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
        const engine::ExperimentResult &cell = ref.cells[i];
        replay.replayCell(cell);
        validateArtifact(cell.spec.arch.config, cell.spec.opts,
                         *ref.artifacts[i]);
        const CompiledBenchmark &mine = replay.artifact(cell);
        for (std::size_t l = 0; l < mine.loops.size(); ++l) {
            if (!sameSchedule(mine.loops[l].primary.sched.schedule,
                              ref.artifacts[i]->loops[l]
                                  .primary.sched.schedule))
                checkFailed("replayed schedule differs on " +
                            cell.spec.label());
        }
        for (const BenchmarkRun &run : cell.datasetRuns) {
            cycles.push_back(double(run.cycles()));
            opsPerPass += double(run.total.dynamicOps);
        }
    }
    out.metrics["sim_cycles.geomean"] = geomean(cycles);

    // One untimed pass lets lazy set-up (pool threads, workspaces,
    // allocator arenas) finish; then untraced passes give the
    // end-to-end numbers.
    hooks.pass({nullptr, opts.jobs, true, false});
    const double untracedSeconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    std::vector<Sample> passes;
    std::vector<double> passMs;
    Window window;
    while (passMs.size() < 5 || window.elapsed() < untracedSeconds) {
        PassOut p = hooks.pass({nullptr, opts.jobs, true, false});
        if (p.report != ref.report)
            checkFailed("pass report differs from the set-up report");
        passes.push_back({window.elapsed(), p.ms, 0.0, 0.0});
        passMs.push_back(p.ms);
        out.attempted += p.cellCount;
        out.failed += p.failed;
    }
    const double p50 = window.sliceQuantileMs(passes, 0.5);
    out.metrics["pass_ms.p50"] = p50;
    out.metrics["pass_ms.p90"] = window.sliceQuantileMs(passes, 0.9);
    out.metrics["cells_per_s"] = double(ref.cellCount) / (p50 / 1e3);
    out.metrics["sim_mops_per_s"] = opsPerPass / (p50 * 1e3);
    std::cerr << "perfbench: " << passMs.size() << " untraced passes, ms";
    for (double ms : passMs)
        std::cerr << " " << int(ms);
    std::cerr << "\n";

    if (opts.trace) {
        SpanRecorder rec;
        replay.setRecorder(&rec);
        std::map<std::string, std::vector<double>> perPass;
        std::vector<double> tracedMs;
        const Clock::time_point t0 = Clock::now();
        while (tracedMs.size() < 3 || secondsSince(t0) < opts.seconds / 2) {
            PassOut p;
            {
                ScopedSpan s(&rec, "pass");
                p = hooks.pass({&rec, opts.jobs, true, true});
            }
            if (p.report != ref.report)
                checkFailed("traced pass report differs");
            tracedMs.push_back(p.ms);
            out.attempted += p.cellCount;
            out.failed += p.failed;

            // Every pass starts a fresh Session: replay it cold too.
            replay.clearArtifacts();
            replay.counts = {};
            const std::size_t first = rec.size();
            {
                ScopedSpan s(&rec, "replay");
                for (const engine::ExperimentResult &cell : p.cells)
                    replay.replayCell(cell);
            }
            addLayerMetrics(perPass, p, rec, first, replay.counts);
        }
        for (auto &[name, values] : perPass)
            out.metrics[name] = median(values);
        out.metrics["bench.trace_overhead_pct"] =
            (median(tracedMs) / median(passMs) - 1.0) * 100.0;
        std::cerr << "perfbench: " << tracedMs.size() << " traced passes\n";
        const std::string path =
            opts.outDir + "/trace-" + opts.workload + ".json";
        writeChromeTrace(path, {&rec});
        std::cerr << "perfbench: trace written to " << path << "\n";
    }
    out.metrics["peak_rss_mb"] = peakRssMb();
    return out;
}

std::vector<std::string>
builtinArchs()
{
    return {"interleaved", "interleaved-ab", "unified1", "unified5",
            "multivliw"};
}

} // namespace

RunOutput
runPaperGrid(const Options &opts)
{
    // The paper's grid and the compile-heavy path: every pass starts
    // from a fresh Session, so every compile is a cache miss.
    api::SweepRequest req;
    req.archs = builtinArchs();
    req.schedulers = {"base", "ibc", "ipbc"};
    req.unrolls = {"selective"};
    req.options.execSeed = execSeedFor(opts.seed);

    Hooks hooks;
    hooks.pass = [&](const PassCtx &ctx) {
        const Clock::time_point start = Clock::now();
        api::SessionOptions so;
        so.jobs = ctx.jobs;
        so.compileCache = ctx.compileCache;
        std::unique_ptr<api::Session> session;
        {
            ScopedSpan s(ctx.rec, "api.session");
            session = std::make_unique<api::Session>(so);
        }
        api::SweepRequest r = req;
        r.jobs = ctx.jobs;
        return sweepPass(*session, r, ctx, start);
    };
    hooks.setupUnit = [&] { hooks.pass({nullptr, opts.jobs, true, false}); };
    return runInproc(opts, hooks);
}

RunOutput
runSynthGap(const Options &opts)
{
    // Generated 16-96-op kernels through the gap report: the lang,
    // ddg, II-search and solver layers carry the work. A node budget
    // of 20000 keeps the solver's time steady across seeds; at 50000
    // and above some seeds' kernels cost 4x more per node.
    constexpr int kKernels = 24;
    const std::vector<std::string> archs = {"interleaved", "interleaved-ab",
                                            "unified1", "multivliw"};
    const std::string optimalKey = "optimal:n20000";

    std::vector<GeneratedKernel> kernels;
    Hooks hooks;
    hooks.pass = [&](const PassCtx &ctx) {
        PassOut out;
        const Clock::time_point start = Clock::now();
        api::SessionOptions so;
        so.jobs = ctx.jobs;
        so.compileCache = ctx.compileCache;
        so.builtinWorkloads = false;
        std::unique_ptr<api::Session> session;
        {
            ScopedSpan s(ctx.rec, "api.session");
            session = std::make_unique<api::Session>(so);
        }
        opt::GapReportOptions gap;
        gap.archs = archs;
        gap.optimalKey = optimalKey;
        gap.jobs = ctx.jobs;
        {
            ScopedSpan s(ctx.rec, "lang.register");
            const Clock::time_point t0 = Clock::now();
            for (const GeneratedKernel &k : kernels) {
                must(session->registerWorkloadText("", k.text, "file",
                                                   k.name),
                     "register " + k.name);
                gap.benches.push_back(k.name);
                out.registerBytes += double(k.text.size());
            }
            out.registerUs = msBetween(t0, Clock::now()) * 1e3;
        }
        if (ctx.rec)
            out.before = session->metricsSnapshot();
        opt::GapReport report;
        {
            ScopedSpan s(ctx.rec, "api.sweep");
            const Clock::time_point t0 = Clock::now();
            report = must(opt::runGapReport(*session, gap), "gap report");
            out.sweepMs = msBetween(t0, Clock::now());
        }
        {
            ScopedSpan s(ctx.rec, "engine.report");
            const Clock::time_point t0 = Clock::now();
            std::ostringstream os;
            opt::writeGapCsv(os, report);
            out.report = os.str();
            out.reportMs = msBetween(t0, Clock::now());
        }
        out.ms = msBetween(start, Clock::now());
        if (ctx.rec) {
            out.after = session->metricsSnapshot();
            out.cache = report.cache;
        }
        // The gap report's own sweep, re-run on the warm session so
        // the replay and the modelled metrics see its engine cells.
        api::SweepRequest req;
        req.workloads = gap.benches;
        req.archs = archs;
        req.schedulers = gap.heuristics;
        req.schedulers.push_back(optimalKey);
        req.unrolls = {"none"};
        req.jobs = ctx.jobs;
        out.cellCount = report.cells.size() / gap.heuristics.size() *
            req.schedulers.size();
        if (ctx.wantCells) {
            PassCtx quiet = ctx;
            quiet.rec = nullptr;
            PassOut cells = sweepPass(*session, req, quiet, Clock::now());
            out.failed = cells.failed;
            out.cells = std::move(cells.cells);
            out.artifacts = std::move(cells.artifacts);
        }
        return out;
    };
    hooks.setupUnit = [&] {
        kernels = generateKernels(opts.seed, kKernels, "syn");
        hooks.pass({nullptr, opts.jobs, true, false});
    };
    RunOutput out = runInproc(opts, hooks);
    std::cout << "inputs: " << kernels.size()
              << " generated kernels, fingerprint "
              << fingerprint(kernels) << "\n";
    return out;
}

} // namespace perfbench

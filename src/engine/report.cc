#include "report.hh"

#include <ostream>

#include "support/json.hh"
#include "support/logging.hh"

namespace vliw::engine {

ReportRow
makeRow(const ExperimentResult &result)
{
    return makeRow(result, 0);
}

ReportRow
makeRow(const ExperimentResult &result, std::size_t dataset)
{
    vliw_assert(!result.datasetRuns.empty(),
                "report row over a result that never ran");
    const BenchmarkRun &run =
        dataset < result.datasetRuns.size()
            ? result.datasetRuns[dataset] : result.run();

    ReportRow row;
    row.bench = result.spec.bench;
    row.arch = result.spec.arch.name;
    row.heuristic = schedulerLabel(result.spec.opts);
    row.unroll = unrollPolicyName(result.spec.opts.unroll);
    row.varAlignment = result.spec.opts.varAlignment;
    row.memChains = result.spec.opts.memChains;
    row.loopVersioning = result.spec.opts.loopVersioning;
    row.dataset = int(dataset);
    row.cycles = run.total.totalCycles;
    row.computeCycles = run.total.computeCycles();
    row.stallCycles = run.total.stallCycles;
    row.localHitRatio = run.total.localHitRatio();
    row.abHits = run.total.abHits;
    row.memAccesses = run.total.memAccesses;
    row.workloadBalance = run.workloadBalance;
    for (const LoopRun &lr : run.loops)
        row.copies += lr.copies;
    row.solver = result.solverOutcome;
    row.compileMs = result.compileMs;
    // A single-dataset job reports the whole simulate phase (the
    // pre-batch semantics); a multi-dataset row reports its own
    // data set's slice, with the shared setup surfaced separately
    // in the timing totals.
    row.simulateMs =
        result.simulateDatasetMs.size() > 1 &&
            dataset < result.simulateDatasetMs.size()
        ? result.simulateDatasetMs[dataset] : result.simulateMs;
    return row;
}

namespace {

/** Fixed-point milliseconds so table/CSV cells stay stable. */
std::string
msCell(double ms)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
    return buf;
}

struct TimingTotals
{
    double compileMs = 0.0;
    double simulateMs = 0.0;
    /** Shared batch setup (decode + memory model), summed. */
    double simulateSetupMs = 0.0;
    /** Simulate wall time summed per batched data-set index. */
    std::vector<double> simulatePerDataset;
};

TimingTotals
timingTotals(const std::vector<ExperimentResult> &results)
{
    TimingTotals t;
    for (const ExperimentResult &r : results) {
        if (r.failed())
            continue;   // keep totals consistent with emitted rows
        t.compileMs += r.compileMs;
        t.simulateMs += r.simulateMs;
        t.simulateSetupMs += r.simulateSetupMs;
        if (r.simulateDatasetMs.size() > t.simulatePerDataset.size())
            t.simulatePerDataset.resize(r.simulateDatasetMs.size());
        for (std::size_t d = 0; d < r.simulateDatasetMs.size(); ++d)
            t.simulatePerDataset[d] += r.simulateDatasetMs[d];
    }
    return t;
}

/** True when any experiment batches more than one data set. */
bool
multiDataset(const std::vector<ExperimentResult> &results)
{
    for (const ExperimentResult &r : results) {
        if (r.datasetCount() > 1)
            return true;
    }
    return false;
}

/**
 * True when any successful experiment ran the exact solver. Like
 * multiDataset(), this gates a column so heuristic-only reports —
 * including every golden CSV from before the solver existed — stay
 * byte-identical.
 */
bool
anySolver(const std::vector<ExperimentResult> &results)
{
    for (const ExperimentResult &r : results) {
        if (!r.failed() && !r.solverOutcome.empty())
            return true;
    }
    return false;
}

} // namespace

TextTable
sweepTable(const std::vector<ExperimentResult> &results, bool timing)
{
    const bool multi = multiDataset(results);
    const bool solver = anySolver(results);
    std::vector<std::string> headers = {
        "benchmark", "arch", "heuristic", "unroll"};
    if (multi)
        headers.push_back("dataset");
    for (const char *h : {"cycles", "compute", "stall", "local hits",
                          "ab hits", "copies"})
        headers.push_back(h);
    if (solver)
        headers.push_back("solver");
    if (timing) {
        headers.push_back("compile ms");
        headers.push_back("simulate ms");
    }
    TextTable tab(headers);
    for (const ExperimentResult &r : results) {
        if (r.failed())
            continue;   // no run to report; see ExperimentResult::error
        for (std::size_t d = 0; d < r.datasetCount(); ++d) {
            const ReportRow row = makeRow(r, d);
            tab.newRow().cell(row.bench);
            tab.cell(row.arch);
            tab.cell(row.heuristic);
            tab.cell(row.unroll);
            if (multi)
                tab.cell(std::int64_t(row.dataset));
            tab.cell(row.cycles);
            tab.cell(row.computeCycles);
            tab.cell(row.stallCycles);
            tab.percentCell(row.localHitRatio);
            tab.cell(row.abHits);
            tab.cell(row.copies);
            if (solver)
                tab.cell(row.solver);
            if (timing) {
                tab.cell(msCell(row.compileMs));
                tab.cell(msCell(row.simulateMs));
            }
        }
    }
    return tab;
}

void
writeCsv(std::ostream &os,
         const std::vector<ExperimentResult> &results, bool timing)
{
    const bool multi = multiDataset(results);
    const bool solver = anySolver(results);
    os << "benchmark,arch,heuristic,unroll,align,chains,versioning";
    if (multi)
        os << ",dataset";
    os << ",cycles,compute,stall,local_hit_ratio,ab_hits,"
          "mem_accesses,workload_balance,copies";
    if (solver)
        os << ",solver";
    if (timing)
        os << ",compile_ms,simulate_ms";
    os << '\n';
    for (const ExperimentResult &r : results) {
        if (r.failed())
            continue;
        for (std::size_t d = 0; d < r.datasetCount(); ++d) {
            const ReportRow row = makeRow(r, d);
            os << row.bench << ',' << row.arch << ','
               << row.heuristic << ',' << row.unroll << ','
               << int(row.varAlignment) << ',' << int(row.memChains)
               << ',' << int(row.loopVersioning);
            if (multi)
                os << ',' << row.dataset;
            os << ',' << row.cycles << ',' << row.computeCycles
               << ',' << row.stallCycles << ',' << row.localHitRatio
               << ',' << row.abHits << ',' << row.memAccesses << ','
               << row.workloadBalance << ',' << row.copies;
            if (solver)
                os << ',' << row.solver;
            if (timing) {
                os << ',' << msCell(row.compileMs) << ','
                   << msCell(row.simulateMs);
            }
            os << '\n';
        }
    }
}

void
writeJson(std::ostream &os,
          const std::vector<ExperimentResult> &results,
          const CompileCacheStats *cache, bool timing)
{
    const bool multi = multiDataset(results);
    const bool solver = anySolver(results);
    std::string out;
    json::Writer w(out, json::Writer::Layout::Report);
    w.beginObject().key("experiments").beginArray();
    for (const ExperimentResult &r : results) {
        if (r.failed())
            continue;
        for (std::size_t d = 0; d < r.datasetCount(); ++d) {
            const ReportRow row = makeRow(r, d);
            w.beginObject()
                .member("benchmark", row.bench)
                .member("arch", row.arch)
                .member("heuristic", row.heuristic)
                .member("unroll", row.unroll)
                .member("align", row.varAlignment)
                .member("chains", row.memChains)
                .member("versioning", row.loopVersioning);
            if (multi)
                w.member("dataset", row.dataset);
            w.member("cycles", row.cycles)
                .member("compute", row.computeCycles)
                .member("stall", row.stallCycles)
                .member("local_hit_ratio", row.localHitRatio)
                .member("ab_hits", row.abHits)
                .member("mem_accesses", row.memAccesses)
                .member("workload_balance", row.workloadBalance)
                .member("copies", row.copies);
            if (solver)
                w.member("solver", row.solver);
            if (timing) {
                w.key("compile_ms").raw(msCell(row.compileMs));
                w.key("simulate_ms").raw(msCell(row.simulateMs));
            }
            w.endObject();
        }
    }
    w.endArray();
    if (timing) {
        const TimingTotals totals = timingTotals(results);
        w.key("timing").beginObject();
        w.key("compile_ms").raw(msCell(totals.compileMs));
        w.key("simulate_ms").raw(msCell(totals.simulateMs));
        if (totals.simulatePerDataset.size() > 1) {
            w.key("simulate_setup_ms").raw(msCell(totals.simulateSetupMs));
            w.key("simulate_ms_by_dataset").beginArray();
            for (const double ms : totals.simulatePerDataset)
                w.raw(msCell(ms));
            w.endArray();
        }
        w.endObject();
    }
    if (cache) {
        w.key("cache")
            .beginObject()
            .member("hits", cache->hits)
            .member("misses", cache->misses)
            .member("store_hits", cache->storeHits)
            .member("store_misses", cache->storeMisses)
            .member("stores", cache->stores)
            .key("hits_by_benchmark")
            .beginObject();
        for (const auto &[bench, hits] : cache->hitsByBench)
            w.member(bench, hits);
        w.endObject().endObject();
    }
    w.endObject();
    os << out << '\n';
}

void
writeCacheSummary(std::ostream &os, const CompileCacheStats &stats)
{
    os << "compile cache: " << stats.hits << " hits, "
       << stats.misses << " misses\n";
    // Only mention the persistent store when one was attached
    // (any counter nonzero), so memory-only runs keep the classic
    // two-line summary.
    if (stats.storeHits + stats.storeMisses + stats.stores > 0) {
        os << "persistent store: " << stats.storeHits << " hits, "
           << stats.storeMisses << " misses, " << stats.stores
           << " stored\n";
    }
    for (const auto &[bench, hits] : stats.hitsByBench) {
        auto it = stats.missesByBench.find(bench);
        const std::uint64_t misses =
            it == stats.missesByBench.end() ? 0 : it->second;
        os << "  " << bench << ": " << hits << " hits, " << misses
           << " misses\n";
    }
}

void
writeTimingSummary(std::ostream &os,
                   const std::vector<ExperimentResult> &results)
{
    const TimingTotals totals = timingTotals(results);
    os << "timing: compile " << msCell(totals.compileMs)
       << " ms, simulate " << msCell(totals.simulateMs)
       << " ms over " << results.size() << " jobs\n";
    if (totals.simulatePerDataset.size() > 1) {
        os << "timing: simulate per dataset batch: setup="
           << msCell(totals.simulateSetupMs) << " ms";
        for (std::size_t d = 0;
             d < totals.simulatePerDataset.size(); ++d) {
            os << ", d" << d << '='
               << msCell(totals.simulatePerDataset[d]) << " ms";
        }
        os << '\n';
    }
}

} // namespace vliw::engine

#include "gap_report.hh"

#include <map>
#include <ostream>

#include "engine/experiment.hh"
#include "support/json.hh"

namespace vliw::opt {

namespace {

/** Per-(bench, arch) slice of the sweep, in grid order. */
struct CellGroup
{
    /** Sums over the optimal arm's kernels; valid when hasOptimal. */
    bool hasOptimal = false;
    int iiOptimal = 0;
    std::int64_t cyclesOptimal = 0;
    std::string solver;
    int lowerBound = 0;
    std::uint64_t solverNodes = 0;
    /** (scheduler label, II sum, cycles) per heuristic arm. */
    std::vector<GapCell> heuristicRows;
};

/** Fixed-point percentage so CSV cells stay byte-stable. */
std::string
pctCell(double pct)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", pct);
    return buf;
}

int
sumIi(const engine::ExperimentResult &r)
{
    int ii = 0;
    for (const LoopRun &lr : r.run().loops)
        ii += lr.ii;
    return ii;
}

} // namespace

std::size_t
GapReport::provenCount() const
{
    std::size_t n = 0;
    // Each (bench, arch) group repeats the solver outcome on every
    // heuristic row; count distinct groups, not rows.
    const GapCell *last = nullptr;
    for (const GapCell &c : cells) {
        const bool newGroup = !last || last->bench != c.bench ||
            last->arch != c.arch;
        if (newGroup && c.solver == "proven")
            ++n;
        last = &c;
    }
    return n;
}

bool
GapReport::gatePasses() const
{
    if (provenCount() == 0)
        return false;
    for (const GapCell &c : cells) {
        // A heuristic strictly below a *proven* minimal II means
        // the certificate is wrong — fail loudly.
        if (c.solver == "proven" && c.ii < c.iiOptimal)
            return false;
    }
    return true;
}

api::Result<GapReport>
runGapReport(api::Session &session, const GapReportOptions &opts)
{
    api::SweepRequest req;
    req.workloads = opts.benches;
    req.archs = opts.archs;
    req.schedulers = opts.heuristics;
    req.schedulers.push_back(opts.optimalKey);
    // Unrolled kernels explode the solver's search space; the gap
    // is a property of the scheduling problem, so measure it on the
    // un-unrolled loops (where proofs are reachable in budget).
    req.unrolls = {"none"};
    req.jobs = opts.jobs;
    req.options = opts.options;

    auto sweep = session.sweep(req);
    if (!sweep.ok())
        return sweep.status();
    const api::SweepResult &sr = sweep.value();
    if (!sr.status.ok())
        return sr.status;

    // Group the grid-ordered results by (bench, arch). Grid order
    // keeps one group's cells adjacent, so first-encounter order of
    // the keys is the report order.
    std::vector<std::pair<std::string, std::string>> order;
    std::map<std::pair<std::string, std::string>, CellGroup> groups;
    for (const engine::ExperimentResult &r : sr.experiments) {
        if (r.failed())
            continue;   // an errored arm has no row to compare
        const auto key = std::make_pair(r.spec.bench,
                                        r.spec.arch.name);
        auto it = groups.find(key);
        if (it == groups.end()) {
            order.push_back(key);
            it = groups.emplace(key, CellGroup{}).first;
        }
        CellGroup &g = it->second;
        if (r.spec.opts.optimalSolver) {
            g.hasOptimal = true;
            g.iiOptimal = sumIi(r);
            g.cyclesOptimal = r.run().total.totalCycles;
            g.solver = r.solverOutcome;
            for (const LoopRun &lr : r.run().loops) {
                g.lowerBound += lr.solverLowerBound;
                g.solverNodes += lr.solverNodes;
            }
        } else {
            GapCell row;
            row.bench = r.spec.bench;
            row.arch = r.spec.arch.name;
            row.scheduler = engine::schedulerLabel(r.spec.opts);
            row.ii = sumIi(r);
            row.cycles = r.run().total.totalCycles;
            g.heuristicRows.push_back(std::move(row));
        }
    }

    GapReport report;
    report.cache = sr.cache;
    for (const auto &key : order) {
        CellGroup &g = groups[key];
        if (!g.hasOptimal)
            continue;   // nothing to measure the gap against
        for (GapCell &row : g.heuristicRows) {
            row.iiOptimal = g.iiOptimal;
            row.iiGap = row.ii - g.iiOptimal;
            row.cyclesOptimal = g.cyclesOptimal;
            row.cycleGapPct = g.cyclesOptimal > 0
                ? 100.0 *
                    double(row.cycles - g.cyclesOptimal) /
                    double(g.cyclesOptimal)
                : 0.0;
            row.solver = g.solver;
            row.lowerBound = g.lowerBound;
            row.solverNodes = g.solverNodes;
            report.cells.push_back(std::move(row));
        }
    }
    return report;
}

TextTable
gapTable(const GapReport &report)
{
    TextTable tab({"benchmark", "arch", "scheduler", "ii",
                   "ii opt", "ii gap", "cycles", "cycles opt",
                   "gap %", "solver", "lb", "nodes"});
    for (const GapCell &c : report.cells) {
        tab.newRow().cell(c.bench);
        tab.cell(c.arch);
        tab.cell(c.scheduler);
        tab.cell(std::int64_t(c.ii));
        tab.cell(std::int64_t(c.iiOptimal));
        tab.cell(std::int64_t(c.iiGap));
        tab.cell(c.cycles);
        tab.cell(c.cyclesOptimal);
        tab.cell(pctCell(c.cycleGapPct));
        tab.cell(c.solver);
        tab.cell(std::int64_t(c.lowerBound));
        tab.cell(c.solverNodes);
    }
    return tab;
}

void
writeGapCsv(std::ostream &os, const GapReport &report)
{
    os << "benchmark,arch,scheduler,ii,ii_optimal,ii_gap,cycles,"
          "cycles_optimal,cycle_gap_pct,solver,lower_bound,"
          "solver_nodes\n";
    for (const GapCell &c : report.cells) {
        os << c.bench << ',' << c.arch << ',' << c.scheduler << ','
           << c.ii << ',' << c.iiOptimal << ',' << c.iiGap << ','
           << c.cycles << ',' << c.cyclesOptimal << ','
           << pctCell(c.cycleGapPct) << ',' << c.solver << ','
           << c.lowerBound << ',' << c.solverNodes << '\n';
    }
}

void
writeGapJson(std::ostream &os, const GapReport &report)
{
    std::string out;
    json::Writer w(out, json::Writer::Layout::Report);
    w.beginObject().key("gap_report").beginArray();
    for (const GapCell &c : report.cells) {
        w.beginObject()
            .member("benchmark", c.bench)
            .member("arch", c.arch)
            .member("scheduler", c.scheduler)
            .member("ii", c.ii)
            .member("ii_optimal", c.iiOptimal)
            .member("ii_gap", c.iiGap)
            .member("cycles", c.cycles)
            .member("cycles_optimal", c.cyclesOptimal)
            .key("cycle_gap_pct")
            .raw(pctCell(c.cycleGapPct))
            .member("solver", c.solver)
            .member("lower_bound", c.lowerBound)
            .member("solver_nodes", c.solverNodes)
            .endObject();
    }
    w.endArray()
        .member("proven_cells", report.provenCount())
        .member("gate", report.gatePasses())
        .endObject();
    os << out << '\n';
}

} // namespace vliw::opt

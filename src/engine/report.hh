/**
 * @file
 * Aggregation and serialisation of experiment batches: the existing
 * fixed-width table the single-run driver prints, CSV for plotting,
 * and JSON for downstream tooling. All three emit one record per
 * experiment with the same field set, plus optional compile-cache
 * accounting.
 */

#ifndef WIVLIW_ENGINE_REPORT_HH
#define WIVLIW_ENGINE_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "engine/compile_cache.hh"
#include "engine/experiment.hh"
#include "support/table.hh"

namespace vliw::engine {

/** The per-experiment, per-data-set record all formats share. */
struct ReportRow
{
    std::string bench;
    std::string arch;
    std::string heuristic;
    std::string unroll;
    bool varAlignment = true;
    bool memChains = true;
    bool loopVersioning = false;
    /** Index of the batched data set this row describes. */
    int dataset = 0;
    std::int64_t cycles = 0;
    std::int64_t computeCycles = 0;
    std::int64_t stallCycles = 0;
    double localHitRatio = 0.0;
    std::uint64_t abHits = 0;
    std::uint64_t memAccesses = 0;
    double workloadBalance = 0.0;
    /** Inter-cluster copies summed over the benchmark's kernels. */
    std::int64_t copies = 0;
    /**
     * Exact-solver outcome for this cell, ExperimentResult::
     * solverOutcome: the worst outcome over every compiled kernel,
     * both versions of a versioned loop included ("proven" <
     * "feasible" < "budget-exhausted"), empty for heuristic arms;
     * every data set's row repeats it. The solver column appears
     * in the table/CSV/JSON only when some result in the batch ran
     * the solver, so heuristic-only reports stay byte-identical to
     * their pre-solver form.
     */
    std::string solver;
    /**
     * Per-row wall times (reported only with timing enabled).
     * simulateMs is the time of this row's data set alone; the
     * compile happened once per job, so compileMs repeats on every
     * row of a multi-dataset batch.
     */
    double compileMs = 0.0;
    double simulateMs = 0.0;
};

/** Flatten one result's primary data set into the shared record. */
ReportRow makeRow(const ExperimentResult &result);

/** Flatten one result's @p dataset into the shared record. */
ReportRow makeRow(const ExperimentResult &result, std::size_t dataset);

/**
 * Build the aligned text table over @p results. With @p timing,
 * two extra columns carry each job's compile/simulate wall time.
 */
TextTable sweepTable(const std::vector<ExperimentResult> &results,
                     bool timing = false);

/** CSV: header plus one line per experiment. */
void writeCsv(std::ostream &os,
              const std::vector<ExperimentResult> &results,
              bool timing = false);

/**
 * JSON: {"experiments": [...], "cache": {...}}; pass null stats to
 * omit the cache object. With @p timing each experiment carries
 * compile_ms/simulate_ms and a "timing" object holds the totals.
 */
void writeJson(std::ostream &os,
               const std::vector<ExperimentResult> &results,
               const CompileCacheStats *cache = nullptr,
               bool timing = false);

/** Human-readable cache summary (one line + per-bench detail). */
void writeCacheSummary(std::ostream &os,
                       const CompileCacheStats &stats);

/** One-line aggregate of compile/simulate wall time. */
void writeTimingSummary(std::ostream &os,
                        const std::vector<ExperimentResult> &results);

} // namespace vliw::engine

#endif // WIVLIW_ENGINE_REPORT_HH

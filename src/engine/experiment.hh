/**
 * @file
 * Experiment descriptions: a named machine configuration (the
 * paper's Table 2 points), a single experiment cell (benchmark x
 * architecture x toolchain options) and its result. A sweep is the
 * cross-product of named axes; api::Session resolves and expands
 * it into these specs.
 */

#ifndef WIVLIW_ENGINE_EXPERIMENT_HH
#define WIVLIW_ENGINE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "core/toolchain.hh"
#include "machine/machine_config.hh"
#include "support/logging.hh"

namespace vliw::engine {

/** A machine configuration with the CLI name it goes by. */
struct ArchSpec
{
    std::string name;
    MachineConfig config;
};

/**
 * The scheduler column/label of a cell: the canonical budget key
 * for optimal-solver cells, heuristicName() otherwise.
 */
std::string schedulerLabel(const ToolchainOptions &opts);

/** One benchmark under one architecture with one option set. */
struct ExperimentSpec
{
    std::string bench;
    ArchSpec arch;
    ToolchainOptions opts;
    /**
     * Execution data sets this job simulates in one batch (see
     * Toolchain::simulateBatch). Empty means the single data set
     * identified by opts.execSeed -- the classic one-input run.
     */
    std::vector<std::uint64_t> execSeeds;
    /**
     * The resolved workload; required. Session resolution fills it
     * from the workload registry (once per benchmark, shared across
     * the bench's cells, so custom session-registered workloads run
     * like any built-in).
     */
    std::shared_ptr<const BenchmarkSpec> workload;

    /** Stable human-readable identity, unique within any grid. */
    std::string label() const;
};

/**
 * True when @p a and @p b are twin cells: they name the same
 * workload (name and fingerprint, as in compileKey), the same
 * MachineConfig, the same exec seeds and the same ToolchainOptions
 * once the heuristic is mapped through compiledHeuristic() and the
 * cancel token is ignored. Twins compile and simulate to the same
 * result, so an executor may run one and copy it to the others.
 */
bool twinCells(const ExperimentSpec &a, const ExperimentSpec &b);

/** A hash consistent with twinCells(): twins hash equally. */
std::size_t twinHash(const ExperimentSpec &spec);

/** Outcome of one experiment. */
struct ExperimentResult
{
    ExperimentSpec spec;
    /** One result per batched data set; size >= 1 once run. */
    std::vector<BenchmarkRun> datasetRuns;
    /**
     * Empty on success; otherwise the compile/simulate failure of
     * this job (e.g. a CompileError message). A failed job has no
     * datasetRuns; the engine keeps running the rest of the batch
     * and the façade turns any failure into an `api::Status`.
     */
    std::string error;
    /** True when `error` is user-addressable (a CompileError from
     *  the request), false for internal failures. */
    bool userError = false;
    /**
     * True when a cooperative cancellation stopped this cell
     * before it produced results (`error` says at which phase).
     * Cancelled cells are not failures of the request: the façade
     * maps them to StatusCode::Cancelled, and sibling cells that
     * did complete stay valid.
     */
    bool cancelled = false;
    /**
     * Worst exact-solver outcome over the benchmark's compiled
     * kernels ("proven" < "feasible" < "budget-exhausted"); empty
     * for heuristic cells. Filled right after the compile phase,
     * before the compiled hook fires, so event streams can report
     * it without waiting for simulation.
     */
    std::string solverOutcome;

    bool failed() const { return !error.empty(); }
    /**
     * Wall time of this job's compile and simulate phases. The
     * engine always measures them (the cost is two clock reads per
     * phase); reports only show them when asked (--timing). With
     * the compile cache enabled, a memoized compile reports the
     * cache-lookup time — the cost this job actually paid.
     * simulateMs covers the whole batch (kernel decode, memory
     * model construction and every data set); simulateSetupMs is
     * the shared decode/construction slice and simulateDatasetMs
     * one entry per data set, so setup + the per-dataset entries
     * account for the batch total.
     */
    double compileMs = 0.0;
    double simulateMs = 0.0;
    double simulateSetupMs = 0.0;
    std::vector<double> simulateDatasetMs;

    /** Result on the primary (first) data set. */
    const BenchmarkRun &
    run() const
    {
        vliw_assert(!datasetRuns.empty(),
                    "run() on an experiment that never ran");
        return datasetRuns.front();
    }

    std::size_t datasetCount() const { return datasetRuns.size(); }
};

} // namespace vliw::engine

#endif // WIVLIW_ENGINE_EXPERIMENT_HH

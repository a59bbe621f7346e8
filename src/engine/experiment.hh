/**
 * @file
 * Experiment descriptions for the batch engine: a named machine
 * configuration (the paper's Table 2 points), a single experiment
 * (benchmark x architecture x toolchain options), and a declarative
 * grid whose expansion is the cross-product of its axes in a fixed,
 * documented order. The grid is what the paper's evaluation
 * (Figures 4-8, Table 1) actually is: every figure is one slice of
 * benchmarks x architectures x heuristics x unrolling policies.
 */

#ifndef WIVLIW_ENGINE_EXPERIMENT_HH
#define WIVLIW_ENGINE_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/registries.hh"
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

/** The built-in architecture names, in report order. */
const std::vector<std::string> &archNames();

/**
 * Resolve an architecture through the built-in registry (exact
 * names and parametric keys like "interleaved:c8"); nullopt for
 * unknown names. Session-registered architectures resolve through
 * the session's own registries, not here.
 */
std::optional<ArchSpec> findArch(const std::string &name);

/** Like findArch(), but panics for unknown names. */
ArchSpec makeArch(const std::string &name);

/** Resolve a heuristic name through the built-in registry. */
std::optional<Heuristic> findHeuristic(const std::string &name);

/**
 * The scheduler column/label of a cell: the canonical budget key
 * for optimal-solver cells, heuristicName() otherwise.
 */
std::string schedulerLabel(const ToolchainOptions &opts);

/** Resolve an unroll-policy name through the built-in registry. */
std::optional<UnrollPolicy> findUnrollPolicy(const std::string &name);

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
     * The resolved workload. Grid expansion fills this from the
     * workload registry (once per benchmark, shared across the
     * bench's cells, so custom session-registered workloads run
     * through the engine like any built-in). Null makes the engine
     * fall back to the built-in suite lookup by `bench` -- the
     * pre-registry behaviour hand-built specs rely on.
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

/**
 * Declarative cross-product of experiment axes. Expansion order is
 * row-major over (bench, arch, heuristic, unroll, alignment,
 * chains, versioning), with the benchmark as the slowest axis so
 * all arch/option variants of one benchmark are adjacent — that
 * adjacency is what makes the compile cache effective even with a
 * bounded job queue.
 */
struct ExperimentGrid
{
    /** Benchmarks to run; empty means every registered workload. */
    std::vector<std::string> benches;
    /** Architectures; empty means every registered one. */
    std::vector<std::string> archs;
    /** Scheduler names resolved through the registry. */
    std::vector<std::string> heuristics{"ipbc"};
    /** Unroll-policy names resolved through the registry. */
    std::vector<std::string> unrolls{"selective"};
    std::vector<bool> alignment{true};
    std::vector<bool> chains{true};
    std::vector<bool> versioning{false};
    /**
     * Execution data sets per cell, batched within each job: seeds
     * derive from base.execSeed via datasetSeed(), so dataset 0 is
     * the classic single-input run and results for it are identical
     * whatever the batch size.
     */
    int datasets = 1;
    /** Seeds, profiling caps etc. shared by every cell. */
    ToolchainOptions base;
    /**
     * Registries every name axis resolves through; null means the
     * built-in set. `api::Session` points this at its own
     * registries so user-registered entries expand like built-ins.
     */
    const api::Registries *registries = nullptr;

    /** Number of experiments expand() will produce. */
    std::size_t size() const;

    /**
     * Materialise the cross-product. Unknown names panic -- the
     * façade validates every axis up front and reports
     * `api::Status` instead, so only direct library misuse gets
     * here.
     */
    std::vector<ExperimentSpec> expand() const;
};

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

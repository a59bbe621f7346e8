/**
 * @file
 * The batch experiment engine: expands an ExperimentGrid (or takes
 * a pre-built job list), runs every job on a worker pool, and
 * memoizes compilation through the CompileCache.
 *
 * Determinism contract: results are returned in grid order, every
 * job derives all randomness from its own per-experiment seeds, and
 * each job writes only to its own slot — so a `jobs = N` run is
 * bit-identical to a `jobs = 1` run of the same grid, and to the
 * serial Toolchain::runBenchmark() loop the bench harnesses used
 * before this engine existed. runExperiment() is the shared
 * single-cell kernel both this batch path and the async façade
 * (api::Session::submit) execute, so the contract extends to any
 * interleaving of asynchronous jobs.
 */

#ifndef WIVLIW_ENGINE_ENGINE_HH
#define WIVLIW_ENGINE_ENGINE_HH

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "engine/compile_cache.hh"
#include "engine/experiment.hh"

namespace vliw::engine {

/** Execution knobs. */
struct EngineOptions
{
    /** Concurrent workers; 0 picks hardware concurrency. */
    int jobs = 1;
    /** Share work between cells: compiles between arch/AB variants
     *  (see compileKey) and, in api::Session's executor, whole runs
     *  between twin cells (see twinCells). */
    bool compileCache = true;
    /** Compile-cache entry bound; 0 = unbounded (see CompileCache). */
    std::size_t cacheCapacity = 0;
    /**
     * Optional persistent artifact store backing the in-memory
     * cache across processes (see PersistentCompileStore); only
     * consulted when compileCache is on.
     */
    std::shared_ptr<PersistentCompileStore> store;
};

/**
 * Observation and cancellation hooks for one runExperiment() call.
 * All members are optional; a null hooks pointer means "run to
 * completion silently", which is the classic batch behaviour.
 */
struct RunHooks
{
    /**
     * Cooperative cancellation flag: checked before the compile
     * phase, between compile and simulate, and (via
     * ToolchainOptions::cancel) inside the scheduler's II-retry
     * loop. A cell that observes it set comes back with
     * `cancelled` set and no datasetRuns; a compile that had
     * already finished stays in the cache. When null, the spec's
     * own ToolchainOptions::cancel (if any) is the token.
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Called after the compile phase succeeds, before simulation
     * starts; @p result carries the spec and compileMs measured so
     * far. Runs on the worker thread executing the cell.
     */
    std::function<void(const ExperimentResult &result)> compiled;
};

/**
 * Run one experiment cell: resolve the workload, compile (through
 * @p cache when non-null, locally otherwise) and simulate every
 * data set. Never throws: failures land on the result's error
 * slot, cancellation on its `cancelled` flag. This is the one
 * place cell semantics live; the batch engine and the async façade
 * both call it.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               CompileCache *cache,
                               const RunHooks *hooks = nullptr);

/** Runs experiment batches; reusable across batches. */
class ExperimentEngine
{
  public:
    explicit ExperimentEngine(const EngineOptions &opts = {});

    /**
     * Run every spec; results come back in spec order. A job that
     * fails (CompileError, bad custom workload) records its error
     * on its own result slot and the rest of the batch still runs.
     * @p jobsOverride, when given, sizes this batch's worker pool
     * instead of options().jobs (the compile cache is shared
     * either way).
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs,
        std::optional<int> jobsOverride = std::nullopt);

    /** Expand @p grid and run it. */
    std::vector<ExperimentResult>
    run(const ExperimentGrid &grid,
        std::optional<int> jobsOverride = std::nullopt);

    /** Cache accounting accumulated over every run() so far. */
    CompileCacheStats cacheStats() const { return cache_.stats(); }

    /** The memo run() compiles through (compile-only callers). */
    CompileCache &cache() { return cache_; }

    const EngineOptions &options() const { return opts_; }

  private:
    EngineOptions opts_;
    CompileCache cache_;
};

} // namespace vliw::engine

#endif // WIVLIW_ENGINE_ENGINE_HH

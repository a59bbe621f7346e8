/**
 * @file
 * The one experiment-cell kernel: runExperiment() compiles one
 * resolved spec and simulates its data sets, both through a shared
 * CompileCache when given one. api::Session is the only batch runner;
 * it resolves names into specs and its executor calls this for
 * every cell.
 *
 * Determinism contract: a cell derives all randomness from its own
 * spec and writes only its own result, so a sweep's results are
 * bit-identical whatever the worker count or the interleaving of
 * asynchronous jobs, and equal to the serial
 * Toolchain::runBenchmark() of each cell.
 */

#ifndef WIVLIW_ENGINE_ENGINE_HH
#define WIVLIW_ENGINE_ENGINE_HH

#include <atomic>
#include <functional>

#include "engine/compile_cache.hh"
#include "engine/experiment.hh"

namespace vliw::engine {

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
 * Run one experiment cell: compile @p spec's workload and simulate
 * every data set, through @p cache's artifact and run tiers when
 * non-null, locally otherwise. The spec must carry its resolved
 * workload. Never throws: failures land on the result's error
 * slot, cancellation on its `cancelled` flag. This is the one
 * place cell semantics live.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               CompileCache *cache,
                               const RunHooks *hooks = nullptr);

} // namespace vliw::engine

#endif // WIVLIW_ENGINE_ENGINE_HH

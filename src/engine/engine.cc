#include "engine.hh"

#include <chrono>

#include "support/faultpoints.hh"

namespace vliw::engine {

namespace {

double
msSince(std::chrono::steady_clock::time_point from)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - from)
        .count();
}

bool
tokenSet(const std::atomic<bool> *token)
{
    return token && token->load(std::memory_order_relaxed);
}

/** Mark @p result as stopped by cooperative cancellation. */
void
markCancelled(ExperimentResult &result, const char *phase)
{
    result.cancelled = true;
    result.error = std::string("cancelled ") + phase;
    result.datasetRuns.clear();
}

} // namespace

ExperimentResult
runExperiment(const ExperimentSpec &spec, CompileCache *cache,
              const RunHooks *hooks)
{
    ExperimentResult result;
    result.spec = spec;

    // Delay-only test seam, fired before the first cancellation
    // check so an injected slow cell still honours deadlines and
    // cancels cooperatively. Timing only — never results.
    faults::fire("engine.cell");

    // The effective cancellation token: the hooks' token when the
    // caller provided one, else whatever rode in on the spec's own
    // options (a direct library user may set that).
    const std::atomic<bool> *cancel =
        hooks && hooks->cancel ? hooks->cancel : spec.opts.cancel;

    if (tokenSet(cancel)) {
        markCancelled(result, "before compile");
        return result;
    }

    // Nothing here may throw across the pool boundary; anything a
    // bad user input can raise (CompileError from the scheduler, a
    // panic from a malformed custom workload) lands on this cell's
    // error slot instead of taking down the batch.
    try {
        vliw_assert(spec.workload, "cell ", spec.label(),
                    " has no resolved workload");
        const BenchmarkSpec &bench = *spec.workload;

        // The cancel token rides on the options so the scheduler's
        // II-retry loop sees it; compileKey ignores it, so cached
        // artifacts stay shared across differently-tokened jobs.
        ToolchainOptions opts = spec.opts;
        opts.cancel = cancel;
        const Toolchain chain(spec.arch.config, opts);

        const auto compile_start = std::chrono::steady_clock::now();
        // One artifact key per cell, for both cached tiers.
        const std::string key =
            cache ? CompileCache::artifactKey(spec.arch.config, opts, bench)
                  : std::string();
        CompileCache::Entry compiled;
        CompiledBenchmark local;
        // A shared compile can surface another job's cancellation:
        // when the cache owner for this key was cancelled mid-
        // compile, every waiter sees its CancelledError and the
        // failed slot is vacated. A cell whose *own* token is
        // clear simply retries (fresh owner, clear token).
        for (;;) {
            try {
                if (cache) {
                    compiled = cache->compile(key, spec.arch.config,
                                              opts, bench);
                } else {
                    local = chain.compileBenchmark(bench);
                }
                break;
            } catch (const CancelledError &) {
                if (tokenSet(cancel) || !cache) {
                    markCancelled(result, "during compile");
                    return result;
                }
            }
        }
        result.compileMs = msSince(compile_start);

        // Surface the exact solver's worst per-kernel outcome on
        // the result (and thus in CellCompiled events) before the
        // hook fires. Heuristic cells leave it empty.
        {
            auto rank = [](const std::string &s) {
                return s == "budget-exhausted" ? 3
                     : s == "feasible"         ? 2
                     : s == "proven"           ? 1 : 0;
            };
            const CompiledBenchmark &artifact =
                compiled ? *compiled : local;
            for (const CompiledLoopVersions &lv : artifact.loops) {
                if (rank(lv.primary.solverOutcome) >
                    rank(result.solverOutcome))
                    result.solverOutcome = lv.primary.solverOutcome;
                if (lv.unchained &&
                    rank(lv.unchained->solverOutcome) >
                        rank(result.solverOutcome))
                    result.solverOutcome =
                        lv.unchained->solverOutcome;
            }
        }

        if (hooks && hooks->compiled)
            hooks->compiled(result);
        if (tokenSet(cancel)) {
            markCancelled(result, "before simulate");
            return result;
        }

        // Simulation always goes through the batched entry point,
        // one seed per data set (simulateBenchmark() is the
        // one-seed case).
        const std::vector<std::uint64_t> seeds =
            spec.execSeeds.empty()
                ? std::vector<std::uint64_t>{spec.opts.execSeed}
                : spec.execSeeds;
        const auto simulate = [&] {
            const auto sim_start = std::chrono::steady_clock::now();
            std::vector<BenchmarkRun> runs = chain.simulateBatch(
                bench, compiled ? *compiled : local, seeds,
                &result.simulateDatasetMs, &result.simulateSetupMs);
            result.simulateMs = msSince(sim_start);
            return runs;
        };
        if (cache) {
            // A run-tier hit copies the runs and, like a twin
            // follower, reports zero simulate time per data set; a
            // miss overwrites these with its own timings.
            result.simulateDatasetMs.assign(seeds.size(), 0.0);
            result.datasetRuns =
                *cache->runs(key, spec.arch.config, seeds, simulate);
        } else {
            result.datasetRuns = simulate();
        }
    } catch (const CompileError &e) {
        result.error = e.what();
        result.userError = true;
        result.datasetRuns.clear();
    } catch (const std::exception &e) {
        result.error = e.what();
        result.datasetRuns.clear();
    }
    return result;
}

} // namespace vliw::engine

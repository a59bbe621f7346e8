/**
 * @file
 * The stable `vliw::api` façade: one supported entry point for
 * embedding wivliw as a library.
 *
 * An opaque Session wraps the Toolchain, the experiment-cell kernel
 * (engine::runExperiment) and a CompileCache behind value-type
 * requests; it is the one batch runner for single cells and sweeps:
 *
 *   api::Session session;
 *   auto res = session.run({.workload = "gsmdec",
 *                           .arch = "interleaved-ab"});
 *   if (!res.ok()) { ... res.status().message() ... }
 *
 * Long-running work goes through the asynchronous surface instead:
 *
 *   api::BoundedEventQueue events(256);
 *   api::SubmitOptions opts;
 *   opts.priority = 5;
 *   opts.events = &events;
 *   auto job = session.submit(sweepRequest, opts);
 *   // ... consume events, poll progress, maybe job.cancel() ...
 *   auto result = job.take();   // Result<SweepResult>
 *
 * submit() returns immediately with a JobHandle; the job's cells
 * run on the session's shared priority-aware worker pool, stream
 * typed events (JobAccepted, CellCompiled, CellSimulated,
 * CellFailed, Progress, JobFinished) to the configured sink, and
 * honour cooperative cancellation between phases. The blocking
 * run()/sweep() calls are thin wrappers — submit(...).wait().take()
 * — so both surfaces share one execution path and the bit-identity
 * and byte-stable-report guarantees carry over unchanged:
 * priorities, event timing and worker interleaving never influence
 * a result value.
 *
 * Every capability axis (architectures, schedulers, unrolling
 * policies, workloads) resolves by name through the session's
 * registries, which are seeded with the paper's entries and accept
 * user registrations; every fallible path returns an api::Status
 * instead of terminating. One Session may serve many concurrent
 * clients (the `wivliw serve` daemon multiplexes every connection
 * over a single Session precisely so the per-session CompileCache
 * is shared across requests); registrations should happen before
 * concurrent submission starts.
 */

#ifndef WIVLIW_API_SESSION_HH
#define WIVLIW_API_SESSION_HH

#include <memory>
#include <string>
#include <vector>

#include "api/events.hh"
#include "api/jobs.hh"
#include "api/registries.hh"
#include "api/status.hh"
#include "engine/engine.hh"
#include "support/metrics.hh"

namespace vliw::api {

/** Session-wide execution knobs. */
struct SessionOptions
{
    /**
     * Worker threads of the session's shared pool; >= 1. A
     * SweepRequest asking for more grows the pool (never
     * shrinks).
     */
    int jobs = 1;
    /**
     * Share work between cells: compiles between arch/option
     * variants, and whole runs between twin cells of one job
     * (engine::twinCells), which retire with copies of one result.
     * false runs every cell in full.
     */
    bool compileCache = true;
    /**
     * Compile-cache bound for long-lived serving sessions: at most
     * N artifacts, and the loop front ends of at most N workloads,
     * each workload's fronts kept and evicted together (LRU;
     * evictions counted in cacheStats().evictions and, per front,
     * .frontEvictions); 0 = unbounded.
     */
    std::size_t cacheCapacity = 0;
    /**
     * Directory of the persistent content-addressed compile store
     * shared across processes (dist::CompileStore); empty = memory
     * only. Store hit/miss/publication counts surface through
     * cacheStats(). An unusable path degrades to memory-only with
     * a warning on stderr — it never fails session construction.
     */
    std::string storeDir;
    /**
     * Admission control: max unretired cells queued across all
     * admitted jobs (0 = unbounded). A submit that would exceed it
     * comes back as a job born Done with StatusCode::Overloaded
     * (depth and limit in the status context) instead of buffering
     * without bound.
     */
    int maxQueuedCells = 0;
    /** Admission control: max concurrently admitted (not yet Done)
     *  jobs (0 = unbounded); rejections as for maxQueuedCells. */
    int maxQueuedJobs = 0;
    /**
     * Seed the workload registry with the compiled-in mediabench
     * suite. false starts the session with an empty workload axis
     * (arch/scheduler/unroll axes are unaffected), which is how
     * the round-trip golden proves ingested kernels stand alone
     * (`wivliw_run --no-builtin-benches`).
     */
    bool builtinWorkloads = true;
};

/**
 * One benchmark under one architecture. All four names resolve
 * through the session's registries; `arch` also accepts parametric
 * keys ("interleaved:c8:b16k", see ArchRegistry::resolve).
 */
struct RunRequest
{
    std::string workload;
    std::string arch = "interleaved-ab";
    std::string scheduler = "ipbc";
    std::string unroll = "selective";
    /** Execution data sets, batched in one simulation pass. */
    int datasets = 1;
    /**
     * Seeds, alignment, chains, versioning, profiling caps. The
     * heuristic/unroll members are overridden by the resolved
     * `scheduler`/`unroll` names above.
     */
    ToolchainOptions options;
};

/** Result of Session::run(): one experiment, >= 1 data sets. */
struct RunResult
{
    engine::ExperimentResult experiment;

    /** The primary (first) data set's result. */
    const BenchmarkRun &run() const { return experiment.run(); }
    const std::vector<BenchmarkRun> &
    datasetRuns() const
    {
        return experiment.datasetRuns;
    }
};

/**
 * A declarative sweep: the cross-product of the named axes, run on
 * the session's worker pool with compile memoization. Empty
 * workload/arch axes mean "everything registered".
 */
struct SweepRequest
{
    std::vector<std::string> workloads;
    std::vector<std::string> archs;
    std::vector<std::string> schedulers{"ipbc"};
    std::vector<std::string> unrolls{"selective"};
    std::vector<bool> alignment{true};
    std::vector<bool> chains{true};
    std::vector<bool> versioning{false};
    int datasets = 1;
    /**
     * Worker threads this sweep wants available; 0 = the session
     * default. Values above the session's pool size grow the
     * shared pool. Results are identical for every value.
     */
    int jobs = 0;
    ToolchainOptions options;
};

/** Result of Session::sweep()/an async sweep job, in grid order. */
struct SweepResult
{
    std::vector<engine::ExperimentResult> experiments;
    engine::CompileCacheStats cache;
    /**
     * Ok for a sweep that ran to the end (even when individual
     * cells failed — see failedCount()); StatusCode::Cancelled
     * when the job was cancelled, in which case `experiments`
     * still holds every completed cell (bit-identical to the same
     * cells of an uncancelled run) and the skipped cells carry
     * their `cancelled` flag.
     */
    Status status;

    /**
     * Cells whose compile/simulate failed at run time (their
     * `error`/`userError` slots say why). Name and option problems
     * never get this far — sweep() rejects those atomically before
     * any work — but a mid-grid CompileError (e.g. an II budget
     * one cell cannot meet) does not throw away the rest of the
     * grid's completed experiments. Skipped cells of a cancelled
     * sweep count here too (their status maps to Cancelled).
     */
    std::size_t failedCount() const;
    /** Status of the first failed cell, or Ok when all ran. */
    Status firstError() const;
    /** Cells that completed (datasetRuns in place). */
    std::size_t completedCount() const;
};

/**
 * Validate the option subset the pipeline cannot defend itself
 * against: rejects abHintBudget < 0, maxIiTries < 1 and out-of-
 * range profiling caps with InvalidArgument.
 */
Status validateOptions(const ToolchainOptions &opts);

/** The façade. Opaque; movable; one compile cache per session. */
class Session
{
  public:
    explicit Session(const SessionOptions &opts = {});
    ~Session();

    Session(Session &&) noexcept;
    Session &operator=(Session &&) noexcept;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** The session's registries; register custom entries here. */
    Registries &registries();
    const Registries &registries() const;

    /**
     * Register workloads described in the .wvl workload language
     * (docs/WORKLOADS.md) with this session. @p source may define
     * several `benchmark` blocks; with @p name empty every block
     * registers under its own name, otherwise the source must
     * define exactly one block (registered as @p name) or a block
     * named @p name (the others are ignored).
     *
     * Returns the registered names, in source order. All-or-
     * nothing: a parse/validation error (InvalidArgument, message
     * carrying `origin:line:col`, the offending source line and a
     * caret) or a name collision (AlreadyExists) leaves the
     * registry untouched. Re-registering a name with byte-
     * identical content is idempotent (Ok, name not re-listed).
     * @p origin feeds the `--list-benches` source column ("file",
     * "wire", ...); @p label names the source in diagnostics (a
     * file path, "<wire>", ...).
     */
    Result<std::vector<std::string>>
    registerWorkloadText(const std::string &name,
                         const std::string &source,
                         const std::string &origin = "file",
                         const std::string &label = "<wvl>");

    /**
     * Serialize a registered workload (builtin or ingested) to
     * canonical .wvl text (lang::dumpWorkloadText). Feeding the
     * dump back through registerWorkloadText() yields an engine-
     * identical workload — the round-trip the golden test pins.
     */
    Result<std::string>
    dumpWorkloadText(const std::string &workload) const;

    /** Resolve an architecture name/key to its configuration. */
    Result<MachineConfig> resolveArch(const std::string &key) const;

    /**
     * Compile one workload without simulating it (schedules,
     * latencies and unroll decisions for inspection). Served from
     * the session's compile cache; the returned artifact is
     * immutable and safe to read from any thread.
     */
    Result<std::shared_ptr<const CompiledBenchmark>>
    compile(const RunRequest &req);

    /**
     * Submit one run asynchronously. Never fails synchronously: a
     * request with a bad name/option comes back as a job that is
     * already Done carrying the error, so callers need one error
     * path (take(), or the JobFinished event). The handle's
     * take() yields what the blocking run() would have returned.
     */
    JobHandle<RunResult> submit(const RunRequest &req,
                                const SubmitOptions &opts = {});

    /**
     * Submit a whole grid asynchronously. Cells run on the
     * session's shared pool at the submission's priority,
     * streaming events to opts.events; cancel() stops scheduling
     * new cells, drains in-flight ones, and take() then yields the
     * partial SweepResult with StatusCode::Cancelled. Results are
     * independent of priorities, event timing and concurrency.
     */
    JobHandle<SweepResult> submit(const SweepRequest &req,
                                  const SubmitOptions &opts = {});

    /** Compile and simulate one workload (submit + wait + take). */
    Result<RunResult> run(const RunRequest &req);

    /**
     * Run a whole grid, blocking (submit + wait + take). Fails
     * atomically (no work started) on any bad name or option;
     * per-cell runtime failures come back inside the SweepResult
     * (see SweepResult::firstError) next to the cells that did
     * complete.
     */
    Result<SweepResult> sweep(const SweepRequest &req);

    /**
     * Compile-cache accounting accumulated over this session:
     * hits, misses and (for capacity-bounded caches) evictions.
     * Also attached to every JobFinished event.
     */
    engine::CompileCacheStats cacheStats() const;

    /**
     * Point-in-time copy of the metrics registry: every counter,
     * gauge and latency histogram the executor, pool, cache, store
     * and fault layer maintain (names and semantics in
     * docs/OPERATIONS.md). The registry is process-wide — sessions
     * share it — and counters are monotonic, so consumers diff two
     * snapshots to attribute activity to an interval.
     */
    metrics::Snapshot metricsSnapshot() const;

    /** metricsSnapshot() rendered in Prometheus text format. */
    std::string metricsText() const;

    const SessionOptions &options() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace vliw::api

#endif // WIVLIW_API_SESSION_HH

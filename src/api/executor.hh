/**
 * @file
 * The session's asynchronous executor (internal): one shared
 * priority-aware WorkerPool that multiplexes every submitted job's
 * cells, plus the per-job bookkeeping that turns retired cells
 * into the ordered event stream and the final JobCore state.
 *
 * Scheduling model: a job's cells enter the pool at the job's
 * priority (higher first, FIFO within a priority). An admission
 * cap (SubmitOptions::maxInFlight) enqueues only that many cells
 * up front and tops the window up as cells retire, so a huge sweep
 * cannot starve later, higher-priority submissions. Cancellation
 * is observed cooperatively by every cell; queued cells of a
 * cancelled job drain as cheap skips so accounting always reaches
 * the total. None of this machinery can change a result value:
 * cells write only their own slot and derive all randomness from
 * their spec (the engine's determinism contract).
 *
 * Twin collapse: when the session shares work between cells
 * (SessionOptions::compileCache), cells of one job that are
 * engine::twinCells run once. Only each twin set's leader enters
 * the pool (and counts against maxInFlight); when it retires, its
 * followers retire right after it with copies of its result under
 * their own specs, each emitting the usual CellCompiled,
 * CellSimulated (or CellFailed) and Progress events.
 *
 * Dispatch window: with twin collapse on, an unbounded cache and
 * more than one worker, leaders enter the pool round-robin over a
 * window of as many workloads as the pool has threads
 * (dispatchOrder). Every compile a cell shares — artifacts and
 * loop fronts — belongs to one workload, so cells running at the
 * same time rarely wait on each other's compiles. A bounded cache
 * keeps grid order: interleaving more workloads than it holds
 * would evict fronts a later cell still needs.
 *
 * Overload safety: session-wide admission limits
 * (AdmissionLimits, wired from SessionOptions) bound how much work
 * may be queued at once. A submission over the limit is born Done
 * with StatusCode::Overloaded — nothing is enqueued — so a serving
 * frontend sheds load with a structured error instead of buffering
 * without bound. Deadlines (SubmitOptions::deadlineMs) are
 * enforced by a lazily-started watchdog thread that raises the
 * job's cooperative cancel flag when the deadline passes; the
 * normal cancel drain then finishes the job with
 * StatusCode::DeadlineExceeded and its partial results.
 */

#ifndef WIVLIW_API_EXECUTOR_HH
#define WIVLIW_API_EXECUTOR_HH

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/jobs.hh"
#include "engine/engine.hh"
#include "engine/worker_pool.hh"

namespace vliw::api::detail {

/** Session-wide queue-depth bounds; 0 disables a limit. */
struct AdmissionLimits
{
    /** Max unretired cells across all admitted jobs. */
    int maxQueuedCells = 0;
    /** Max jobs admitted but not yet Done. */
    int maxQueuedJobs = 0;
};

/**
 * The order in which a job's @p leaders (cell indices, in grid
 * order) enter the pool. @p workloadOf maps each cell to its
 * workload. With @p threads > 1 and an unbounded cache
 * (@p cacheCapacity 0), the leaders are dealt round-robin over a
 * sliding window of @p threads workloads: each pass takes the next
 * leader of every workload in the window, and a workload that runs
 * out hands its place to the next workload in grid order. Leaders
 * keep grid order within each workload. Otherwise the order is
 * @p leaders unchanged: a bounded cache holds the fronts of only
 * @p cacheCapacity workloads (and as many artifacts), and a window
 * near or above that bound would evict entries later cells of the
 * same workload still need, while grid order has only one or two
 * workloads in flight at a time.
 */
std::vector<int> dispatchOrder(const std::vector<int> &leaders,
                               const std::vector<int> &workloadOf,
                               int threads, std::size_t cacheCapacity);

class AsyncExecutor
{
  public:
    /** @p cache is shared by every cell; null runs every cell in
     *  full, compiling locally, with twin collapse off. */
    AsyncExecutor(engine::CompileCache *cache, int threads,
                  AdmissionLimits limits = {});

    /** Drains every queued cell, then joins the pool. */
    ~AsyncExecutor();

    /**
     * Admit one job over @p specs (already validated/resolved).
     * When @p rejected is an error the job is born Done carrying
     * it — submission itself never fails, bad requests surface
     * through take() and the JobFinished event. An over-limit
     * submission is born Done with StatusCode::Overloaded the same
     * way.
     */
    std::shared_ptr<JobCore>
    submit(std::vector<engine::ExperimentSpec> specs, bool isSweep,
           const SubmitOptions &opts, Status rejected = Status());

    /** Grow the shared pool (never shrinks). */
    void ensureThreads(int threads);

    int threadCount() const { return pool_.threadCount(); }

    /** Unretired cells across admitted jobs (observability). */
    int queuedCells() const
    {
        return queuedCells_.load(std::memory_order_relaxed);
    }

    /** Admitted jobs not yet Done (observability). */
    int activeJobs() const
    {
        return activeJobs_.load(std::memory_order_relaxed);
    }

  private:
    void runCell(const std::shared_ptr<JobCore> &core, int cell);
    void enqueueCell(const std::shared_ptr<JobCore> &core, int cell);
    /** Store @p cell's result, count it and emit its events; the
     *  caller holds core->emitMu. Returns the job's progress. */
    Progress retireLocked(const std::shared_ptr<JobCore> &core,
                          int cell, engine::ExperimentResult result);
    /** The job epilogue after its last retirement (emitMu held). */
    void finishLocked(const std::shared_ptr<JobCore> &core,
                      Progress progress);
    /** Deliver one event, absorbing sink exceptions. */
    static void emit(const std::shared_ptr<JobCore> &core,
                     JobEvent event);
    /** Register @p core with the deadline watchdog. */
    void armDeadline(const std::shared_ptr<JobCore> &core);
    void watchdogMain();

    /** Cache accounting for JobFinished (zeros without a cache). */
    engine::CompileCacheStats cacheStats() const;

    engine::CompileCache *const cache_;
    std::atomic<JobId> nextId_{1};

    const AdmissionLimits limits_;
    /** Serialises the check-then-admit step so concurrent submits
     *  cannot both squeeze past a nearly-full limit. */
    std::mutex admitMu_;
    std::atomic<int> queuedCells_{0};
    std::atomic<int> activeJobs_{0};

    /** Fairness lanes: client id string -> stable pool key. Interned
     *  under admitMu_ on the submit path only. */
    std::map<std::string, std::uint64_t> clientKeys_;
    std::uint64_t nextClientKey_ = 1;

    /** Deadline watchdog: jobs with a deadline, earliest first.
     *  The thread starts lazily on the first armed deadline and is
     *  joined by the destructor before the pool drains. */
    std::mutex dlMu_;
    std::condition_variable dlCv_;
    std::vector<std::pair<std::chrono::steady_clock::time_point,
                          std::weak_ptr<JobCore>>>
        dlQueue_;
    bool dlStop_ = false;
    std::thread dlThread_;

    /** Last member: its destructor drains cells that still
     *  reference the fields above. */
    engine::WorkerPool pool_;
};

} // namespace vliw::api::detail

#endif // WIVLIW_API_EXECUTOR_HH

/**
 * @file
 * Job handles for asynchronous submission (api::Session::submit):
 * SubmitOptions carries the scheduling knobs (priority, event
 * sink, admission cap), JobHandle<T> is the caller's view of one
 * in-flight job — wait()/poll()/cancel() and a one-shot
 * Result<T> take().
 *
 * Cancellation is cooperative: cancel() raises a flag the workers
 * check between the compile and simulate phases of every cell and
 * inside the scheduler's II-retry loop. No in-flight work is
 * interrupted mid-phase; cells that already completed stay valid,
 * cells that never started are skipped, and the job finishes with
 * StatusCode::Cancelled carrying the partial results.
 */

#ifndef WIVLIW_API_JOBS_HH
#define WIVLIW_API_JOBS_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/events.hh"
#include "engine/experiment.hh"

namespace vliw::api {

struct RunResult;
struct SweepResult;

/** Lifecycle of one submitted job, as reported by poll(). */
enum class JobPhase
{
    /** Accepted; no cell has started executing yet. */
    Queued,
    /** At least one cell is executing or retired. */
    Running,
    /** cancel() was requested and the job is still draining. */
    Cancelling,
    /** All cells retired; take() will not block. */
    Done,
};

const char *jobPhaseName(JobPhase phase);

/** Per-submission scheduling knobs. */
struct SubmitOptions
{
    /**
     * Higher-priority jobs' cells run before lower-priority work
     * still queued on the session's pool (FIFO within a
     * priority). Priorities change only *when* cells execute,
     * never their results.
     */
    int priority = 0;
    /**
     * Receiver for this job's event stream (see events.hh); null
     * means no events. Borrowed — must outlive the job.
     */
    EventSink *events = nullptr;
    /**
     * Admission control: at most this many of the job's cells are
     * in the session's queue/workers at once (0 = no per-job cap),
     * so one huge sweep cannot monopolise a shared serving
     * session's pool.
     */
    int maxInFlight = 0;
    /**
     * Wall-clock budget for the whole job (0 = none). Enforced
     * cooperatively through the same flag cancel() raises: workers
     * check it between the compile and simulate phases and inside
     * the scheduler's II-retry loop, so no cell is interrupted
     * mid-phase. Cells that finished in time stay valid and the job
     * completes with StatusCode::DeadlineExceeded.
     */
    int deadlineMs = 0;
    /**
     * Fairness key: jobs sharing a client id share one FIFO lane,
     * and the pool round-robins across lanes within a priority
     * band, so one greedy client's backlog interleaves with other
     * clients' work instead of starving it. Empty (the default)
     * is the shared anonymous lane — single-client workloads keep
     * the classic priority-then-FIFO order exactly. Scheduling
     * only; never affects any result value.
     */
    std::string clientId;
};

namespace detail {

/**
 * Shared state of one job; owned jointly by the session's executor
 * and every JobHandle. Lock order: emitMu before mu. `emitMu`
 * serialises event delivery with the progress counters so sinks
 * observe a consistent, ordered stream; `mu` guards the mutable
 * fields and pairs with `cv` for wait().
 */
struct JobCore
{
    JobId id = 0;
    int priority = 0;
    int maxInFlight = 0;
    EventSink *sink = nullptr;
    bool isSweep = false;
    int total = 0;
    /** Interned fairness lane (0 = anonymous), set at admission. */
    std::uint64_t clientKey = 0;
    /** Admission timestamp; feeds the wivliw_job_us histogram. */
    std::chrono::steady_clock::time_point submittedAt{};

    /** The cooperative cancellation flag the workers poll. */
    std::atomic<bool> cancelRequested{false};
    /** Set by the deadline watchdog before it raises the cancel
     *  flag, so the epilogue can tell a deadline from a cancel. */
    std::atomic<bool> deadlineHit{false};
    /** Absolute deadline; meaningful only when hasDeadline. */
    std::chrono::steady_clock::time_point deadlineAt{};
    bool hasDeadline = false;

    std::mutex emitMu;
    mutable std::mutex mu;
    std::condition_variable cv;
    JobPhase phase = JobPhase::Queued;
    int done = 0;
    /** The cells that run on the pool, in grid order: every cell,
     *  or one per twin set (engine::twinCells) when the session
     *  shares work between cells. Fixed at admission. */
    std::vector<int> leaders;
    /** followers[c]: the twins retired with copies of leader c's
     *  result. Fixed at admission. */
    std::vector<std::vector<int>> followers;
    /** Next index into `leaders` not yet handed to the pool. */
    std::size_t nextLeader = 0;
    std::vector<engine::ExperimentSpec> specs;
    /** One slot per cell, written only by the cell's worker. */
    std::vector<engine::ExperimentResult> experiments;
    engine::CompileCacheStats cacheAtFinish;
    Status finalStatus;
    bool taken = false;
};

void coreWait(JobCore &core);
bool coreWaitFor(JobCore &core, std::chrono::milliseconds timeout);
JobPhase corePoll(const JobCore &core);
Progress coreProgress(const JobCore &core);
void coreCancel(JobCore &core);
std::optional<Status> coreFinalStatus(const JobCore &core);

/** Map one retired cell to the Status a caller would see. */
Status cellStatus(const engine::ExperimentResult &result);

template <typename T> Result<T> coreTake(JobCore &core);
template <> Result<RunResult> coreTake<RunResult>(JobCore &core);
template <> Result<SweepResult> coreTake<SweepResult>(JobCore &core);

} // namespace detail

/**
 * The caller's view of one submitted job. Cheap to copy (shared
 * state); valid() is false only for a default-constructed handle.
 * T is RunResult or SweepResult, matching the request submitted.
 */
template <typename T>
class JobHandle
{
  public:
    JobHandle() = default;

    bool valid() const { return core_ != nullptr; }

    /** The session-scoped job id (also on every event). */
    JobId
    id() const
    {
        return core_ ? core_->id : 0;
    }

    /**
     * Block until the job is done (including the delivery of its
     * JobFinished event). Chainable: submit(r).wait().take().
     */
    JobHandle &
    wait()
    {
        detail::coreWait(*core_);
        return *this;
    }

    /** wait() with a timeout; true when the job is done. */
    bool
    waitFor(std::chrono::milliseconds timeout)
    {
        return detail::coreWaitFor(*core_, timeout);
    }

    /** Non-blocking lifecycle probe. */
    JobPhase
    poll() const
    {
        return detail::corePoll(*core_);
    }

    /** Cells retired so far / total. */
    Progress
    progress() const
    {
        return detail::coreProgress(*core_);
    }

    /**
     * Request cooperative cancellation (idempotent, never blocks).
     * Already-completed cells stay valid; take() returns the
     * partial results with StatusCode::Cancelled.
     */
    void
    cancel()
    {
        detail::coreCancel(*core_);
    }

    /**
     * Peek at the job's final Status without consuming the result:
     * nullopt while the job is still running, the terminal Status
     * once it is Done. Lets a server distinguish an admission
     * rejection (StatusCode::Overloaded on a born-done job) from a
     * job it should track, before any take().
     */
    std::optional<Status>
    finalStatus() const
    {
        return detail::coreFinalStatus(*core_);
    }

    /**
     * Wait for completion and move the result out (one-shot; a
     * second take comes back FailedPrecondition). A cancelled
     * sweep yields an Ok Result whose SweepResult::status is
     * Cancelled next to the valid partial cells.
     */
    Result<T>
    take()
    {
        wait();
        return detail::coreTake<T>(*core_);
    }

  private:
    friend class Session;
    explicit JobHandle(std::shared_ptr<detail::JobCore> core)
        : core_(std::move(core))
    {
    }

    std::shared_ptr<detail::JobCore> core_;
};

} // namespace vliw::api

#endif // WIVLIW_API_JOBS_HH

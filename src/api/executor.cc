#include "executor.hh"

#include "support/metrics.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

namespace vliw::api::detail {

namespace {

/**
 * Executor instrumentation, resolved once. Counters are process
 * monotonic (consumers diff snapshots); gauges mirror the admission
 * atomics so a scrape shows live depth.
 */
struct ExecMetrics
{
    metrics::Counter &jobsSubmitted;
    metrics::Counter &jobsFinished;
    metrics::Counter &jobsCancelled;
    metrics::Counter &shedsJobs;
    metrics::Counter &shedsCells;
    metrics::Counter &deadlineExpired;
    metrics::Counter &cellsRetired;
    metrics::Counter &cellsCollapsed;
    metrics::Gauge &queuedCells;
    metrics::Gauge &activeJobs;
    metrics::Histogram &cellUs;
    metrics::Histogram &compileUs;
    metrics::Histogram &simulateUs;
    metrics::Histogram &jobUs;
};

ExecMetrics &
execMetrics()
{
    metrics::Registry &reg = metrics::registry();
    static ExecMetrics m{
        reg.counter("wivliw_jobs_submitted_total"),
        reg.counter("wivliw_jobs_finished_total"),
        reg.counter("wivliw_jobs_cancelled_total"),
        reg.counter("wivliw_admission_sheds_total{kind=\"jobs\"}"),
        reg.counter("wivliw_admission_sheds_total{kind=\"cells\"}"),
        reg.counter("wivliw_deadline_expired_total"),
        reg.counter("wivliw_cells_retired_total"),
        reg.counter("wivliw_cells_collapsed_total"),
        reg.gauge("wivliw_queued_cells"),
        reg.gauge("wivliw_active_jobs"),
        reg.histogram("wivliw_cell_us"),
        reg.histogram("wivliw_compile_us"),
        reg.histogram("wivliw_simulate_us"),
        reg.histogram("wivliw_job_us"),
    };
    return m;
}

/** Count a deadline expiry exactly once per job. */
void
markDeadlineHit(JobCore &core)
{
    if (!core.deadlineHit.exchange(true,
                                   std::memory_order_relaxed))
        execMetrics().deadlineExpired.add();
}

/**
 * Fill core.leaders and core.followers. With a @p cache, each set of
 * twin cells (engine::twinCells) gets one leader, its first cell in
 * grid order; specs are grouped by engine::twinHash() so only
 * same-hash cells are compared. The leaders are then put in
 * dispatchOrder(). Without a cache every cell leads, in grid order.
 */
void
planCells(JobCore &core, const engine::CompileCache *cache,
          int threads)
{
    const bool collapse = cache != nullptr;
    const std::size_t n = core.specs.size();
    core.leaders.clear();
    core.followers.assign(n, {});
    std::unordered_map<std::size_t, std::vector<int>> buckets;
    std::map<std::pair<std::string, std::string>, int> workloads;
    std::vector<int> workloadOf(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const engine::ExperimentSpec &spec = core.specs[i];
        if (collapse) {
            std::vector<int> &bucket =
                buckets[engine::twinHash(spec)];
            const auto twin = std::find_if(
                bucket.begin(), bucket.end(), [&](int leader) {
                    return engine::twinCells(
                        core.specs[std::size_t(leader)], spec);
                });
            if (twin != bucket.end()) {
                core.followers[std::size_t(*twin)].push_back(int(i));
                continue;
            }
            bucket.push_back(int(i));
            workloadOf[i] =
                workloads
                    .try_emplace({spec.workload->name,
                                  spec.workload->fingerprint},
                                 int(workloads.size()))
                    .first->second;
        }
        core.leaders.push_back(int(i));
    }
    if (collapse) {
        core.leaders = dispatchOrder(core.leaders, workloadOf, threads,
                                     cache->capacity());
    }
}

/**
 * Follower @p cell's result: a copy of its leader's @p led under the
 * follower's own spec, with zero timings because no work was done.
 * When the leader got as far as compiling (@p compiled), the
 * follower's CellCompiled goes out first, delivered like the
 * leader's: a sink that throws fails the cell. The caller holds
 * core.emitMu.
 */
engine::ExperimentResult
followerResult(JobCore &core, int cell,
               const engine::ExperimentResult &led, bool compiled)
{
    engine::ExperimentResult result = led;
    result.spec = core.specs[std::size_t(cell)];
    result.compileMs = 0.0;
    result.simulateMs = 0.0;
    result.simulateSetupMs = 0.0;
    std::fill(result.simulateDatasetMs.begin(),
              result.simulateDatasetMs.end(), 0.0);
    if (!compiled || !core.sink)
        return result;
    JobEvent ev;
    ev.kind = EventKind::CellCompiled;
    ev.job = core.id;
    ev.cell = std::size_t(cell);
    ev.label = result.spec.label();
    ev.solver = result.solverOutcome;
    try {
        core.sink->handle(ev);
    } catch (const std::exception &e) {
        result.error = e.what();
        result.userError = false;
        result.datasetRuns.clear();
    } catch (...) {
        result.error = "internal: exception escaped cell execution";
        result.userError = false;
        result.datasetRuns.clear();
    }
    return result;
}

} // namespace

std::vector<int>
dispatchOrder(const std::vector<int> &leaders,
              const std::vector<int> &workloadOf, int threads,
              std::size_t cacheCapacity)
{
    if (threads <= 1 || cacheCapacity != 0)
        return leaders;

    // Each workload's leaders, workloads in order of first leader.
    std::vector<std::vector<int>> queues;
    std::unordered_map<int, std::size_t> queueOf;
    for (int cell : leaders) {
        const auto [it, fresh] = queueOf.try_emplace(
            workloadOf[std::size_t(cell)], queues.size());
        if (fresh)
            queues.emplace_back();
        queues[it->second].push_back(cell);
    }

    constexpr std::size_t kIdle = ~std::size_t(0);
    std::vector<std::size_t> window;
    std::size_t next = 0;
    while (next < queues.size() && window.size() < std::size_t(threads))
        window.push_back(next++);
    std::vector<std::size_t> taken(queues.size(), 0);
    std::vector<int> order;
    order.reserve(leaders.size());
    while (order.size() < leaders.size()) {
        for (std::size_t &q : window) {
            if (q == kIdle)
                continue;
            order.push_back(queues[q][taken[q]++]);
            if (taken[q] == queues[q].size())
                q = next < queues.size() ? next++ : kIdle;
        }
    }
    return order;
}

AsyncExecutor::AsyncExecutor(engine::CompileCache *cache, int threads,
                             AdmissionLimits limits)
    : cache_(cache), limits_(limits), pool_(std::max(1, threads))
{
}

engine::CompileCacheStats
AsyncExecutor::cacheStats() const
{
    return cache_ ? cache_->stats() : engine::CompileCacheStats{};
}

AsyncExecutor::~AsyncExecutor()
{
    {
        std::lock_guard<std::mutex> lock(dlMu_);
        dlStop_ = true;
    }
    dlCv_.notify_all();
    if (dlThread_.joinable())
        dlThread_.join();
    // pool_ is the last member: its destructor now drains every
    // queued cell. Deadlines that pass during that drain are not
    // enforced — teardown already implies no one is waiting.
}

void
AsyncExecutor::emit(const std::shared_ptr<JobCore> &core,
                    JobEvent event)
{
    if (!core->sink)
        return;
    event.job = core->id;
    try {
        core->sink->handle(event);
    } catch (...) {
        // A sink that throws broke its own contract; results are
        // never altered by a reporting failure. (An exception from
        // the CellCompiled delivery does fail its cell: that event
        // fires on the cell's execution path, inside
        // runExperiment's catch.)
    }
}

namespace {

Status
overloadedStatus(const char *kind, int depth, int limit)
{
    std::ostringstream msg;
    msg << "session is overloaded: " << depth << " " << kind
        << " queued, limit " << limit << "; retry after backoff";
    std::ostringstream ctx;
    ctx << "kind=" << kind << " depth=" << depth
        << " limit=" << limit;
    return Status::overloaded(msg.str(), ctx.str());
}

} // namespace

std::shared_ptr<JobCore>
AsyncExecutor::submit(std::vector<engine::ExperimentSpec> specs,
                      bool isSweep, const SubmitOptions &opts,
                      Status rejected)
{
    ExecMetrics &em = execMetrics();
    em.jobsSubmitted.add();
    auto core = std::make_shared<JobCore>();
    core->id = nextId_.fetch_add(1, std::memory_order_relaxed);
    core->priority = opts.priority;
    core->maxInFlight = opts.maxInFlight;
    core->sink = opts.events;
    core->isSweep = isSweep;
    core->total = int(specs.size());
    core->submittedAt = std::chrono::steady_clock::now();
    core->specs = std::move(specs);
    core->experiments.resize(core->specs.size());
    for (std::size_t i = 0; i < core->specs.size(); ++i)
        core->experiments[i].spec = core->specs[i];
    if (!opts.clientId.empty()) {
        std::lock_guard<std::mutex> admitLock(admitMu_);
        auto ins = clientKeys_.emplace(opts.clientId, nextClientKey_);
        if (ins.second)
            ++nextClientKey_;
        core->clientKey = ins.first->second;
    }

    // Admission control: a well-formed job must also fit under the
    // session's queue-depth limits or it is shed right here, before
    // anything is enqueued. The check-then-admit step is serialised
    // so two concurrent submits cannot both pass a nearly-full
    // limit; the counters themselves are atomics so the hot retire
    // path never takes admitMu_.
    if (rejected.ok() && core->total > 0) {
        std::lock_guard<std::mutex> admitLock(admitMu_);
        const int jobsNow =
            activeJobs_.load(std::memory_order_relaxed);
        const int cellsNow =
            queuedCells_.load(std::memory_order_relaxed);
        if (limits_.maxQueuedJobs > 0 &&
            jobsNow >= limits_.maxQueuedJobs) {
            rejected = overloadedStatus("jobs", jobsNow,
                                        limits_.maxQueuedJobs);
            em.shedsJobs.add();
        } else if (limits_.maxQueuedCells > 0 &&
                   cellsNow + core->total >
                       limits_.maxQueuedCells) {
            rejected = overloadedStatus("cells", cellsNow,
                                        limits_.maxQueuedCells);
            em.shedsCells.add();
        } else {
            activeJobs_.fetch_add(1, std::memory_order_relaxed);
            queuedCells_.fetch_add(core->total,
                                   std::memory_order_relaxed);
            em.activeJobs.add();
            em.queuedCells.add(core->total);
        }
    }

    JobEvent accepted;
    accepted.kind = EventKind::JobAccepted;
    accepted.progress = Progress{0, core->total};

    if (!rejected.ok() || core->total == 0) {
        // Born done: a rejected request (or an empty grid) still
        // produces the full accepted/finished event envelope so
        // consumers need only one code path.
        std::lock_guard<std::mutex> emitLock(core->emitMu);
        emit(core, accepted);
        {
            std::lock_guard<std::mutex> lock(core->mu);
            core->finalStatus = rejected;
            core->cacheAtFinish = cacheStats();
        }
        JobEvent finished;
        finished.kind = EventKind::JobFinished;
        finished.status = rejected;
        finished.progress = Progress{0, core->total};
        finished.cache = core->cacheAtFinish;
        emit(core, finished);
        {
            std::lock_guard<std::mutex> lock(core->mu);
            core->phase = JobPhase::Done;
        }
        core->cv.notify_all();
        em.jobsFinished.add();
        return core;
    }

    if (opts.deadlineMs > 0) {
        core->hasDeadline = true;
        core->deadlineAt =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(opts.deadlineMs);
        armDeadline(core);
    }

    {
        std::lock_guard<std::mutex> emitLock(core->emitMu);
        emit(core, accepted);
    }

    // Admission: enqueue every leader, or just the first window
    // when capped; runCell tops the window up as leaders retire and
    // retires each leader's twins with it.
    planCells(*core, cache_, pool_.threadCount());
    const std::size_t window =
        core->maxInFlight > 0
            ? std::min(std::size_t(core->maxInFlight),
                       core->leaders.size())
            : core->leaders.size();
    {
        std::lock_guard<std::mutex> lock(core->mu);
        core->nextLeader = window;
    }
    for (std::size_t i = 0; i < window; ++i)
        enqueueCell(core, core->leaders[i]);
    return core;
}

void
AsyncExecutor::armDeadline(const std::shared_ptr<JobCore> &core)
{
    std::lock_guard<std::mutex> lock(dlMu_);
    dlQueue_.emplace_back(core->deadlineAt, core);
    if (!dlThread_.joinable())
        dlThread_ = std::thread([this] { watchdogMain(); });
    dlCv_.notify_all();
}

void
AsyncExecutor::watchdogMain()
{
    std::unique_lock<std::mutex> lock(dlMu_);
    while (!dlStop_) {
        if (dlQueue_.empty()) {
            dlCv_.wait(lock, [this] {
                return dlStop_ || !dlQueue_.empty();
            });
            continue;
        }
        auto earliest = dlQueue_.front().first;
        for (const auto &entry : dlQueue_)
            earliest = std::min(earliest, entry.first);
        dlCv_.wait_until(lock, earliest);
        if (dlStop_)
            break;

        const auto now = std::chrono::steady_clock::now();
        std::vector<std::shared_ptr<JobCore>> fired;
        auto keep = dlQueue_.begin();
        for (auto &entry : dlQueue_) {
            if (entry.first > now) {
                *keep++ = std::move(entry);
                continue;
            }
            if (auto core = entry.second.lock())
                fired.push_back(std::move(core));
            // Dead weak_ptrs (job already destroyed) just drop.
        }
        dlQueue_.erase(keep, dlQueue_.end());

        // Fire outside dlMu_: coreCancel takes the job's own mutex
        // and nothing here may nest the two.
        lock.unlock();
        for (const auto &core : fired) {
            if (corePoll(*core) == JobPhase::Done)
                continue;
            // deadlineHit first: the epilogue reads it only after
            // observing the cancel flag's effects.
            markDeadlineHit(*core);
            coreCancel(*core);
        }
        lock.lock();
    }
}

void
AsyncExecutor::enqueueCell(const std::shared_ptr<JobCore> &core,
                           int cell)
{
    pool_.submit([this, core, cell] { runCell(core, cell); },
                 core->priority, core->clientKey);
}

void
AsyncExecutor::runCell(const std::shared_ptr<JobCore> &core, int cell)
{
    {
        std::lock_guard<std::mutex> lock(core->mu);
        if (core->phase == JobPhase::Queued)
            core->phase = JobPhase::Running;
    }

    // Belt-and-braces deadline check: a cell that waited in the
    // queue past the deadline must not start even if the watchdog
    // has not fired yet.
    if (core->hasDeadline &&
        !core->cancelRequested.load(std::memory_order_relaxed) &&
        std::chrono::steady_clock::now() >= core->deadlineAt) {
        markDeadlineHit(*core);
        coreCancel(*core);
    }

    ExecMetrics &em = execMetrics();
    engine::ExperimentResult result;
    bool compiled = false;
    if (core->cancelRequested.load(std::memory_order_relaxed)) {
        // Cancelled before this cell started: retire it as a skip
        // so accounting reaches the total and the job finishes.
        result.spec = core->specs[std::size_t(cell)];
        result.cancelled = true;
        result.error = "cancelled before start";
    } else {
        engine::RunHooks hooks;
        hooks.cancel = &core->cancelRequested;
        hooks.compiled = [&](const engine::ExperimentResult &r) {
            compiled = true;
            if (!core->sink)
                return;
            JobEvent ev;
            ev.kind = EventKind::CellCompiled;
            ev.job = core->id;
            ev.cell = std::size_t(cell);
            ev.label = r.spec.label();
            ev.solver = r.solverOutcome;
            std::lock_guard<std::mutex> emitLock(core->emitMu);
            // Deliberately unabsorbed: this delivery runs on the
            // cell's execution path, so a sink that throws fails
            // the cell as Internal (see EventSink's contract).
            core->sink->handle(ev);
        };
        // runExperiment never throws std exceptions past its own
        // catch; this backstop covers everything else (a sink
        // throwing a non-std type from the CellCompiled delivery)
        // so the cell ALWAYS retires — a lost retirement would
        // leave done < total and wedge wait() forever.
        const auto cellStart = std::chrono::steady_clock::now();
        try {
            result = engine::runExperiment(
                core->specs[std::size_t(cell)], cache_, &hooks);
        } catch (...) {
            result.spec = core->specs[std::size_t(cell)];
            result.error = "internal: exception escaped cell "
                           "execution";
            result.datasetRuns.clear();
        }
        em.cellUs.observe(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - cellStart)
                .count());
        em.compileUs.observe(result.compileMs * 1e3);
        em.simulateUs.observe(result.simulateMs * 1e3);
    }
    em.cellsRetired.add();

    // Retire the cell, then its twins: slot writes, progress, events
    // and (after the last cell) the job epilogue happen under emitMu
    // so the sink sees one ordered, consistent stream per job.
    std::size_t topUp = core->leaders.size();
    {
        std::lock_guard<std::mutex> emitLock(core->emitMu);
        Progress progress = retireLocked(core, cell, std::move(result));
        const engine::ExperimentResult &led =
            core->experiments[std::size_t(cell)];
        for (int twin : core->followers[std::size_t(cell)]) {
            em.cellsRetired.add();
            em.cellsCollapsed.add();
            progress = retireLocked(
                core, twin, followerResult(*core, twin, led, compiled));
        }
        if (progress.done == progress.total) {
            finishLocked(core, progress);
        } else if (core->maxInFlight > 0) {
            std::lock_guard<std::mutex> lock(core->mu);
            if (core->nextLeader < core->leaders.size())
                topUp = core->nextLeader++;
        }
    }
    if (topUp < core->leaders.size())
        enqueueCell(core, core->leaders[topUp]);
}

Progress
AsyncExecutor::retireLocked(const std::shared_ptr<JobCore> &core,
                            int cell, engine::ExperimentResult result)
{
    ExecMetrics &em = execMetrics();
    Progress progress;
    bool last = false;
    {
        std::lock_guard<std::mutex> lock(core->mu);
        core->experiments[std::size_t(cell)] = std::move(result);
        core->done += 1;
        progress = Progress{core->done, core->total};
        last = core->done == core->total;
    }
    queuedCells_.fetch_sub(1, std::memory_order_relaxed);
    em.queuedCells.sub();
    if (last) {
        activeJobs_.fetch_sub(1, std::memory_order_relaxed);
        em.activeJobs.sub();
    }

    // Event construction allocates (labels, stats copies); a
    // bad_alloc here must not skip the accounting above or the job
    // would never reach Done. Reporting is best-effort, liveness is
    // not.
    try {
        const engine::ExperimentResult &retired =
            core->experiments[std::size_t(cell)];
        if (!retired.failed()) {
            JobEvent ev;
            ev.kind = EventKind::CellSimulated;
            ev.cell = std::size_t(cell);
            ev.label = retired.spec.label();
            ev.progress = progress;
            emit(core, ev);
        } else if (!retired.cancelled) {
            JobEvent ev;
            ev.kind = EventKind::CellFailed;
            ev.cell = std::size_t(cell);
            ev.label = retired.spec.label();
            ev.status = cellStatus(retired);
            ev.progress = progress;
            emit(core, ev);
        }
        // Skipped (cancelled) cells advance progress silently.
        JobEvent tick;
        tick.kind = EventKind::Progress;
        tick.progress = progress;
        emit(core, tick);
    } catch (...) {
    }
    return progress;
}

void
AsyncExecutor::finishLocked(const std::shared_ptr<JobCore> &core,
                            Progress progress)
{
    ExecMetrics &em = execMetrics();
    try {
        const bool deadline =
            core->deadlineHit.load(std::memory_order_relaxed);
        const bool cancelled =
            core->cancelRequested.load(std::memory_order_relaxed);
        Status final =
            deadline ? Status::deadlineExceeded(
                           "job deadline exceeded; partial results "
                           "kept")
            : cancelled
                ? Status::cancelled("job cancelled; partial results "
                                    "kept")
                : Status();
        em.jobsFinished.add();
        if (!deadline && cancelled)
            em.jobsCancelled.add();
        em.jobUs.observe(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() -
                             core->submittedAt)
                             .count());
        JobEvent finished;
        finished.kind = EventKind::JobFinished;
        finished.status = final;
        finished.progress = progress;
        finished.cache = cacheStats();
        {
            std::lock_guard<std::mutex> lock(core->mu);
            core->finalStatus = final;
            core->cacheAtFinish = finished.cache;
        }
        emit(core, finished);
    } catch (...) {
    }
    {
        std::lock_guard<std::mutex> lock(core->mu);
        core->phase = JobPhase::Done;
    }
    core->cv.notify_all();
}

void
AsyncExecutor::ensureThreads(int threads)
{
    pool_.ensureThreads(threads);
}

} // namespace vliw::api::detail

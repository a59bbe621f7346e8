/**
 * @file
 * Tests for the asynchronous façade surface: Session::submit job
 * handles (wait/poll/cancel/take), the typed event stream and its
 * ordering contract, bounded-queue backpressure, priority-shuffled
 * determinism (a full sweep submitted as prioritised per-benchmark
 * jobs is byte-identical to the blocking sweep's CSV), and
 * cancellation semantics (partial results bit-identical to the
 * corresponding cells of an uncancelled run, final status
 * Cancelled), and the executor's dispatch order.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "api/api.hh"
#include "api/executor.hh"
#include "engine/report.hh"
#include "support/faultpoints.hh"

namespace vliw {
namespace {

using api::BoundedEventQueue;
using api::EventKind;
using api::JobEvent;
using api::JobPhase;
using api::RunRequest;
using api::Session;
using api::SessionOptions;
using api::StatusCode;
using api::SubmitOptions;
using api::SweepRequest;

std::string
csvOf(const std::vector<engine::ExperimentResult> &results)
{
    std::ostringstream os;
    engine::writeCsv(os, results);
    return os.str();
}

/** Thread-safe unbounded recorder (tests only; no backpressure). */
class RecordingSink : public api::EventSink
{
  public:
    void
    handle(const JobEvent &event) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        events_.push_back(event);
    }

    std::vector<JobEvent>
    events() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return events_;
    }

    std::size_t
    count(EventKind kind) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::size_t n = 0;
        for (const JobEvent &e : events_)
            n += e.kind == kind ? 1 : 0;
        return n;
    }

  private:
    mutable std::mutex mu_;
    std::vector<JobEvent> events_;
};

// ---- blocking wrappers == async path ----

TEST(AsyncApi, SubmitWaitTakeMatchesBlockingRun)
{
    Session session;
    RunRequest req;
    req.workload = "gsmdec";
    req.arch = "interleaved-ab";

    auto blocking = session.run(req);
    ASSERT_TRUE(blocking.ok()) << blocking.status().toString();

    auto handle = session.submit(req);
    EXPECT_GT(handle.id(), 0u);
    auto async = handle.wait().take();
    ASSERT_TRUE(async.ok()) << async.status().toString();
    EXPECT_EQ(handle.poll(), JobPhase::Done);

    EXPECT_EQ(async.value().run().total.totalCycles,
              blocking.value().run().total.totalCycles);
    EXPECT_EQ(async.value().run().total.stallCycles,
              blocking.value().run().total.stallCycles);
    EXPECT_EQ(csvOf({async.value().experiment}),
              csvOf({blocking.value().experiment}));
}

// ---- the headline determinism contract ----

TEST(AsyncApi, ShuffledPrioritySubmissionsMatchBlockingSweepCsv)
{
    // The blocking full 14x5 sweep at --jobs 8...
    Session blocking{SessionOptions{/*jobs=*/8, true}};
    SweepRequest full;    // empty axes = every workload x arch
    auto reference = blocking.sweep(full);
    ASSERT_TRUE(reference.ok()) << reference.status().toString();
    const std::string referenceCsv =
        csvOf(reference.value().experiments);

    // ...vs the same grid submitted as one async job per benchmark
    // with shuffled priorities on one shared session. Priorities
    // reorder execution, never results; and the per-bench jobs
    // concatenated in registry order ARE the bench-major grid.
    Session async{SessionOptions{/*jobs=*/8, true}};
    const std::vector<std::string> benches =
        async.registries().workloads.names();
    ASSERT_EQ(benches.size(), 14u);
    const int priorities[14] = {3,  -7, 12, 0,  9, -2, 5,
                                -9, 1,  8,  -4, 7, 2,  -1};

    std::vector<api::JobHandle<api::SweepResult>> jobs;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        SweepRequest per;
        per.workloads = {benches[i]};
        SubmitOptions opts;
        opts.priority = priorities[i];
        jobs.push_back(async.submit(per, opts));
    }

    std::vector<engine::ExperimentResult> merged;
    for (auto &job : jobs) {
        auto result = job.take();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_TRUE(result.value().status.ok());
        for (engine::ExperimentResult &r :
             result.value().experiments)
            merged.push_back(std::move(r));
    }
    EXPECT_EQ(merged.size(), reference.value().experiments.size());
    EXPECT_EQ(csvOf(merged), referenceCsv);
}

// ---- cancellation semantics ----

/** Blocks inside the Nth CellSimulated delivery, runs the cancel
 *  callback once the test provides it, then lets the job drain. */
class CancelAfterSink : public api::EventSink
{
  public:
    explicit CancelAfterSink(int limit) : limit_(limit) {}

    void
    armCancel(std::function<void()> fn)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            cancel_ = std::move(fn);
        }
        cv_.notify_all();
    }

    void
    handle(const JobEvent &event) override
    {
        if (event.kind != EventKind::CellSimulated)
            return;
        if (simulated_.fetch_add(1) + 1 != limit_)
            return;
        // Backpressure doubles as a determinism anchor: this
        // worker stays parked mid-delivery until the handle
        // exists, so cancellation always lands mid-sweep.
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return bool(cancel_); });
        cancel_();
    }

  private:
    const int limit_;
    std::atomic<int> simulated_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    std::function<void()> cancel_;
};

TEST(AsyncApi, CancelMidSweepKeepsCompletedCellsBitIdentical)
{
    // Uncancelled reference for per-cell comparison.
    Session reference{SessionOptions{/*jobs=*/8, true}};
    SweepRequest full;
    auto expected = reference.sweep(full);
    ASSERT_TRUE(expected.ok());

    Session session{SessionOptions{/*jobs=*/8, true}};
    CancelAfterSink sink(/*limit=*/6);
    SubmitOptions opts;
    opts.events = &sink;
    auto job = session.submit(full, opts);
    sink.armCancel([&job] { job.cancel(); });

    auto result = job.take();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const api::SweepResult &sweep = result.value();

    // Cancelled, with partial results: at least the 6 cells that
    // were simulated before the cancel, not the whole grid.
    EXPECT_EQ(sweep.status.code(), StatusCode::Cancelled);
    EXPECT_EQ(sweep.experiments.size(),
              expected.value().experiments.size());
    EXPECT_GE(sweep.completedCount(), 6u);
    EXPECT_LT(sweep.completedCount(), sweep.experiments.size());
    EXPECT_FALSE(sweep.firstError().ok());

    // Every completed cell is bit-identical to the same cell of
    // the uncancelled run; every skipped cell says it was
    // cancelled and maps to a Cancelled status.
    for (std::size_t i = 0; i < sweep.experiments.size(); ++i) {
        const engine::ExperimentResult &cell = sweep.experiments[i];
        if (!cell.failed()) {
            EXPECT_EQ(csvOf({cell}),
                      csvOf({expected.value().experiments[i]}))
                << "cell " << i;
        } else {
            EXPECT_TRUE(cell.cancelled) << "cell " << i;
            EXPECT_EQ(api::detail::cellStatus(cell).code(),
                      StatusCode::Cancelled);
        }
    }
}

TEST(AsyncApi, CancelBeforeStartSkipsEveryCell)
{
    // One worker, parked inside job A's CellCompiled delivery:
    // job B is submitted and cancelled while nothing of it can
    // have started, deterministically.
    Session session{SessionOptions{/*jobs=*/1, true}};

    class GateSink : public api::EventSink
    {
      public:
        std::promise<void> reached;
        std::promise<void> release;

        void
        handle(const JobEvent &event) override
        {
            if (event.kind != EventKind::CellCompiled ||
                entered_.exchange(true))
                return;
            reached.set_value();
            release.get_future().wait();
        }

      private:
        std::atomic<bool> entered_{false};
    };

    GateSink gate;
    RunRequest runReq;
    runReq.workload = "gsmdec";
    runReq.arch = "interleaved";
    SubmitOptions runOpts;
    runOpts.events = &gate;
    auto jobA = session.submit(runReq, runOpts);
    gate.reached.get_future().wait();

    SweepRequest sweepReq;
    sweepReq.workloads = {"gsmdec"};
    sweepReq.archs = {"interleaved", "unified5"};
    // IBC cells follow their BASE twins: skipped leaders must skip
    // their followers too.
    sweepReq.schedulers = {"base", "ibc"};
    auto jobB = session.submit(sweepReq);
    jobB.cancel();
    EXPECT_EQ(jobB.poll(), JobPhase::Cancelling);

    gate.release.set_value();
    auto resultB = jobB.take();
    ASSERT_TRUE(resultB.ok());
    EXPECT_EQ(resultB.value().status.code(), StatusCode::Cancelled);
    EXPECT_EQ(resultB.value().completedCount(), 0u);
    EXPECT_EQ(resultB.value().experiments.size(), 4u);
    for (const engine::ExperimentResult &cell :
         resultB.value().experiments)
        EXPECT_TRUE(cell.cancelled);

    auto resultA = jobA.take();
    EXPECT_TRUE(resultA.ok()) << resultA.status().toString();
}

// ---- event stream contract ----

TEST(AsyncApi, EventStreamIsOrderedWithMonotonicProgress)
{
    Session session{SessionOptions{/*jobs=*/4, true}};
    RecordingSink sink;
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved", "interleaved-ab", "unified5"};
    SubmitOptions opts;
    opts.events = &sink;
    auto job = session.submit(req, opts);
    ASSERT_TRUE(job.take().ok());

    const std::vector<JobEvent> events = sink.events();
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events.front().kind, EventKind::JobAccepted);
    EXPECT_EQ(events.front().progress.total, 3);
    EXPECT_EQ(events.back().kind, EventKind::JobFinished);
    EXPECT_TRUE(events.back().status.ok());
    EXPECT_EQ(events.back().progress.done, 3);

    EXPECT_EQ(sink.count(EventKind::JobAccepted), 1u);
    EXPECT_EQ(sink.count(EventKind::JobFinished), 1u);
    EXPECT_EQ(sink.count(EventKind::CellCompiled), 3u);
    EXPECT_EQ(sink.count(EventKind::CellSimulated), 3u);
    EXPECT_EQ(sink.count(EventKind::CellFailed), 0u);
    EXPECT_EQ(sink.count(EventKind::Progress), 3u);

    // Progress counts every retirement exactly once, in order.
    int done = 0;
    for (const JobEvent &e : events) {
        if (e.kind != EventKind::Progress)
            continue;
        EXPECT_EQ(e.progress.done, done + 1);
        done = e.progress.done;
    }
    // Per cell: compiled strictly before simulated.
    for (std::size_t cell = 0; cell < 3; ++cell) {
        std::ptrdiff_t compiledAt = -1, simulatedAt = -1;
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i].cell != cell)
                continue;
            if (events[i].kind == EventKind::CellCompiled)
                compiledAt = std::ptrdiff_t(i);
            if (events[i].kind == EventKind::CellSimulated)
                simulatedAt = std::ptrdiff_t(i);
        }
        EXPECT_GE(compiledAt, 0) << "cell " << cell;
        EXPECT_GT(simulatedAt, compiledAt) << "cell " << cell;
    }
}

TEST(AsyncApi, BoundedQueueBackpressureDeliversEverything)
{
    Session session{SessionOptions{/*jobs=*/2, true}};
    BoundedEventQueue queue(/*capacity=*/1);

    std::vector<JobEvent> received;
    std::thread consumer([&] {
        JobEvent ev;
        while (queue.pop(ev)) {
            // A deliberately slow consumer: producers must block
            // on the full queue, not drop or buffer unboundedly.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            received.push_back(ev);
            if (ev.kind == EventKind::JobFinished)
                break;
        }
    });

    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved", "unified5"};
    SubmitOptions opts;
    opts.events = &queue;
    auto result = session.submit(req, opts).take();
    ASSERT_TRUE(result.ok());
    consumer.join();
    queue.close();

    // accepted + 2x(compiled, simulated, progress) + finished.
    EXPECT_EQ(received.size(), 8u);
    EXPECT_EQ(received.front().kind, EventKind::JobAccepted);
    EXPECT_EQ(received.back().kind, EventKind::JobFinished);
}

// ---- failure surfacing ----

TEST(AsyncApi, ValidationErrorSurfacesThroughTakeAndEvents)
{
    Session session;
    RecordingSink sink;
    RunRequest req;
    req.workload = "quake3";
    SubmitOptions opts;
    opts.events = &sink;
    auto job = session.submit(req, opts);

    // Born done; no cells ever ran.
    job.wait();
    EXPECT_EQ(job.poll(), JobPhase::Done);
    auto result = job.take();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);

    const std::vector<JobEvent> events = sink.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events.front().kind, EventKind::JobAccepted);
    EXPECT_EQ(events.back().kind, EventKind::JobFinished);
    EXPECT_EQ(events.back().status.code(), StatusCode::NotFound);
}

TEST(AsyncApi, ThrowingSinkFailsTheCellAsInternal)
{
    class ThrowingSink : public api::EventSink
    {
      public:
        void
        handle(const JobEvent &event) override
        {
            // The CellCompiled delivery runs on the cell's own
            // execution path; throwing there must fail the cell,
            // not the process ("jobs must not throw" enforcement).
            if (event.kind == EventKind::CellCompiled)
                throw std::runtime_error("sink exploded");
        }
    };

    Session session;
    ThrowingSink sink;
    RunRequest req;
    req.workload = "gsmdec";
    SubmitOptions opts;
    opts.events = &sink;
    auto result = session.submit(req, opts).take();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::Internal);
    EXPECT_NE(result.status().message().find("sink exploded"),
              std::string::npos);
}

TEST(AsyncApi, TakeIsOneShot)
{
    Session session;
    RunRequest req;
    req.workload = "gsmdec";
    auto job = session.submit(req);
    ASSERT_TRUE(job.take().ok());
    auto again = job.take();
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::FailedPrecondition);
}

// ---- cache statistics on the async surface ----

TEST(AsyncApi, RepeatedSweepReportsCacheHitsInFinishedEvent)
{
    Session session{SessionOptions{/*jobs=*/2, true}};
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved", "interleaved-ab"};

    RecordingSink first;
    SubmitOptions firstOpts;
    firstOpts.events = &first;
    ASSERT_TRUE(session.submit(req, firstOpts).take().ok());

    RecordingSink second;
    SubmitOptions secondOpts;
    secondOpts.events = &second;
    auto result = session.submit(req, secondOpts).take();
    ASSERT_TRUE(result.ok());

    const std::vector<JobEvent> firstEvents = first.events();
    const std::vector<JobEvent> secondEvents = second.events();
    const engine::CompileCacheStats &before =
        firstEvents.back().cache;
    const engine::CompileCacheStats &after =
        secondEvents.back().cache;
    // interleaved and interleaved-ab share one compile: already a
    // hit in job one; job two hits on every cell.
    EXPECT_EQ(before.misses, 1u);
    EXPECT_GE(before.hits, 1u);
    EXPECT_EQ(after.misses, 1u);
    EXPECT_GE(after.hits, before.hits + 2);
    EXPECT_EQ(after.evictions, 0u);

    const engine::CompileCacheStats direct = session.cacheStats();
    EXPECT_EQ(direct.hits, after.hits);
    EXPECT_EQ(direct.misses, after.misses);
    // The sweep's own result carries the same accounting.
    EXPECT_EQ(result.value().cache.hits, after.hits);

    // A blocking sweep is one more batch over the same cache.
    ASSERT_TRUE(session.sweep(req).ok());
    EXPECT_EQ(session.cacheStats().misses, 1u);
    EXPECT_EQ(session.cacheStats().hits, after.hits + 2);
}

// ---- twin collapse: BASE and IBC cells run once ----

/** Six cells, two twin sets: ibc follows base on each arch. */
SweepRequest
twinSweep()
{
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved", "unified5"};
    req.schedulers = {"base", "ibc", "ipbc"};
    return req;
}

std::uint64_t
collapsedCells(const Session &session)
{
    const metrics::Snapshot snap = session.metricsSnapshot();
    const auto it = snap.counters.find("wivliw_cells_collapsed_total");
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(TwinCollapse, CollapsedSweepMatchesUncollapsedReportBytes)
{
    Session uncollapsed{SessionOptions{.jobs = 2, .compileCache = false}};
    const std::uint64_t before = collapsedCells(uncollapsed);
    auto expected = uncollapsed.sweep(twinSweep());
    ASSERT_TRUE(expected.ok()) << expected.status().toString();
    EXPECT_EQ(collapsedCells(uncollapsed), before);

    Session session{SessionOptions{.jobs = 2}};
    auto got = session.sweep(twinSweep());
    ASSERT_TRUE(got.ok()) << got.status().toString();
    ASSERT_EQ(got.value().experiments.size(), 6u);
    EXPECT_EQ(csvOf(got.value().experiments),
              csvOf(expected.value().experiments));
    // One follower per arch, and only the four leaders compiled.
    EXPECT_EQ(collapsedCells(session), before + 2);
    EXPECT_EQ(got.value().cache.hits + got.value().cache.misses, 4u);
}

TEST(TwinCollapse, EveryCellStreamsItsOwnEventsInOrder)
{
    Session session{SessionOptions{.jobs = 2}};
    RecordingSink sink;
    SubmitOptions opts;
    opts.events = &sink;
    auto result = session.submit(twinSweep(), opts).take();
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const std::vector<engine::ExperimentResult> &cells =
        result.value().experiments;
    ASSERT_EQ(cells.size(), 6u);

    const std::vector<JobEvent> events = sink.events();
    EXPECT_EQ(events.front().progress.total, 6);
    EXPECT_EQ(sink.count(EventKind::CellCompiled), 6u);
    EXPECT_EQ(sink.count(EventKind::CellSimulated), 6u);
    EXPECT_EQ(sink.count(EventKind::Progress), 6u);
    int done = 0;
    for (const JobEvent &e : events) {
        if (e.kind != EventKind::Progress)
            continue;
        EXPECT_EQ(e.progress.done, done + 1);
        done = e.progress.done;
    }
    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
        std::ptrdiff_t compiledAt = -1, simulatedAt = -1;
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i].cell != cell ||
                (events[i].kind != EventKind::CellCompiled &&
                 events[i].kind != EventKind::CellSimulated))
                continue;
            EXPECT_EQ(events[i].label, cells[cell].spec.label());
            (events[i].kind == EventKind::CellCompiled ? compiledAt
                                                       : simulatedAt) =
                std::ptrdiff_t(i);
        }
        EXPECT_GE(compiledAt, 0) << "cell " << cell;
        EXPECT_GT(simulatedAt, compiledAt) << "cell " << cell;
    }

    // Grid order is arch-major: cells 1 and 4 are the IBC followers.
    for (const std::size_t follower : {1u, 4u}) {
        const engine::ExperimentResult &cell = cells[follower];
        EXPECT_EQ(cell.spec.opts.heuristic, Heuristic::Ibc);
        EXPECT_EQ(cell.compileMs, 0.0);
        EXPECT_EQ(cell.simulateMs, 0.0);
        engine::ExperimentResult leader = cells[follower - 1];
        EXPECT_EQ(leader.spec.opts.heuristic, Heuristic::Base);
        leader.spec = cell.spec;
        EXPECT_EQ(csvOf({cell}), csvOf({leader}))
            << "a follower is its leader's result under its own spec";
    }
}

TEST(TwinCollapse, DeadlineOnTheLeaderReachesItsFollower)
{
    // The only leader sleeps through the deadline before its first
    // cancellation check, deterministically on any build.
    struct FaultGuard
    {
        FaultGuard() { faults::disarm(); }
        ~FaultGuard() { faults::disarm(); }
    } guard;
    ASSERT_TRUE(faults::arm("engine.cell=delay:600"));
    Session session{SessionOptions{.jobs = 1}};
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved"};
    req.schedulers = {"base", "ibc"};
    SubmitOptions opts;
    opts.deadlineMs = 100;
    auto result = session.submit(req, opts).take();

    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().status.code(),
              StatusCode::DeadlineExceeded);
    ASSERT_EQ(result.value().experiments.size(), 2u);
    for (const engine::ExperimentResult &cell :
         result.value().experiments)
        EXPECT_TRUE(cell.cancelled) << cell.spec.label();
}

TEST(TwinCollapse, FailedLeaderFailsItsFollower)
{
    class ThrowingSink : public api::EventSink
    {
      public:
        void
        handle(const JobEvent &event) override
        {
            if (event.kind == EventKind::CellCompiled)
                throw std::runtime_error("sink exploded");
        }
    };
    Session session;
    ThrowingSink sink;
    SweepRequest req;
    req.workloads = {"gsmdec"};
    req.archs = {"interleaved"};
    req.schedulers = {"base", "ibc"};
    SubmitOptions opts;
    opts.events = &sink;
    auto result = session.submit(req, opts).take();
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().experiments.size(), 2u);
    for (const engine::ExperimentResult &cell :
         result.value().experiments) {
        EXPECT_FALSE(cell.cancelled);
        EXPECT_EQ(api::detail::cellStatus(cell).code(),
                  StatusCode::Internal);
        EXPECT_NE(cell.error.find("sink exploded"), std::string::npos);
    }
}

TEST(TwinCollapse, CappedJobCountsLeadersAndFinishes)
{
    Session session{SessionOptions{.jobs = 2}};
    auto expected = session.sweep(twinSweep());
    ASSERT_TRUE(expected.ok());

    SubmitOptions opts;
    opts.maxInFlight = 1;
    auto job = session.submit(twinSweep(), opts);
    ASSERT_TRUE(job.waitFor(std::chrono::seconds(60)))
        << "capped twin job never finished";
    auto result = job.take();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().completedCount(), 6u);
    EXPECT_EQ(csvOf(result.value().experiments),
              csvOf(expected.value().experiments));
}

// ---- dispatch order ----

using api::detail::dispatchOrder;

TEST(DispatchOrder, OneThreadKeepsGridOrder)
{
    const std::vector<int> leaders{0, 1, 2, 3, 4, 5};
    const std::vector<int> workloadOf{0, 0, 1, 1, 2, 2};
    EXPECT_EQ(dispatchOrder(leaders, workloadOf, 1, 0), leaders);
}

TEST(DispatchOrder, BoundedCacheKeepsGridOrder)
{
    const std::vector<int> leaders{0, 1, 2, 3, 4, 5};
    const std::vector<int> workloadOf{0, 0, 1, 1, 2, 2};
    EXPECT_EQ(dispatchOrder(leaders, workloadOf, 4, 24), leaders);
}

TEST(DispatchOrder, UnevenWorkloadsRotateThroughTheWindow)
{
    // Workloads A = {0, 1, 2}, B = {3}, C = {4, 5}; window 2. B runs
    // out after one pass and C takes its place.
    const std::vector<int> leaders{0, 1, 2, 3, 4, 5};
    const std::vector<int> workloadOf{0, 0, 0, 1, 2, 2};
    EXPECT_EQ(dispatchOrder(leaders, workloadOf, 2, 0),
              (std::vector<int>{0, 3, 1, 4, 2, 5}));
}

TEST(DispatchOrder, EveryLeaderOnceInGridOrderPerWorkload)
{
    // Followers (cells 1, 6, 9) are absent from the leader list.
    const std::vector<int> leaders{0, 2, 3, 4, 5, 7, 8, 10, 11};
    const std::vector<int> workloadOf{0, 0, 0, 1, 1, 2,
                                      2, 2, 3, 3, 3, 3};
    for (const int threads : {2, 3, 4, 8}) {
        const std::vector<int> order =
            dispatchOrder(leaders, workloadOf, threads, 0);
        std::vector<int> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, leaders) << threads << " threads";
        for (int w = 0; w < 4; ++w) {
            std::vector<int> inGrid;
            std::vector<int> inOrder;
            for (const int cell : leaders) {
                if (workloadOf[std::size_t(cell)] == w)
                    inGrid.push_back(cell);
            }
            for (const int cell : order) {
                if (workloadOf[std::size_t(cell)] == w)
                    inOrder.push_back(cell);
            }
            EXPECT_EQ(inOrder, inGrid)
                << "workload " << w << ", " << threads << " threads";
        }
    }
}

/** The paper grid: every built-in bench x five archs x 3 heuristics. */
SweepRequest
paperGrid()
{
    SweepRequest req;
    req.archs = {"interleaved", "interleaved-ab", "unified1",
                 "unified5", "multivliw"};
    req.schedulers = {"base", "ibc", "ipbc"};
    req.unrolls = {"selective"};
    return req;
}

TEST(DispatchOrder, BoundedCacheDoesNotThrashTheFrontTier)
{
    // Interleaving workloads through a 24-entry cache would evict
    // fronts a later cell of the same workload still needs: about
    // 815 front misses against 130 at jobs 1. Grid order keeps jobs 4
    // near the jobs-1 count, but not always at it: when two
    // neighbouring workloads' compiles overlap, LRU eviction depends
    // on timing (130-136 measured), hence the quarter of slack.
    std::uint64_t misses[2] = {0, 0};
    std::string csv[2];
    for (const int jobs : {1, 4}) {
        Session session{
            SessionOptions{.jobs = jobs, .cacheCapacity = 24}};
        auto result = session.sweep(paperGrid());
        ASSERT_TRUE(result.ok());
        misses[jobs == 4] = session.cacheStats().frontMisses;
        csv[jobs == 4] = csvOf(result.value().experiments);
    }
    EXPECT_EQ(csv[1], csv[0]);
    EXPECT_EQ(misses[0], 130u);
    EXPECT_LE(misses[1], misses[0] + misses[0] / 4);
}

} // namespace
} // namespace vliw

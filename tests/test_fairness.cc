/**
 * @file
 * Per-client fair scheduling: the WorkerPool's deficit-round-robin
 * dispatch across client lanes within a priority band, and the
 * end-to-end contract through api::Session — under a greedy
 * client's backlog, a small client's job completes within a
 * bounded window (not after the whole backlog), while every
 * result stays byte-identical to a solo run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hh"
#include "engine/report.hh"
#include "engine/worker_pool.hh"

namespace vliw {
namespace {

using api::EventKind;
using api::JobEvent;
using api::RunRequest;
using api::Session;
using api::SessionOptions;
using api::SubmitOptions;
using api::SweepRequest;

std::string
csvOf(const std::vector<engine::ExperimentResult> &results)
{
    std::ostringstream os;
    engine::writeCsv(os, results);
    return os.str();
}

/**
 * Release-on-command gate to park the single worker. park() queues
 * the gate job and returns once the worker is inside it, so every
 * job queued afterwards waits behind it (a worker still idle would
 * dequeue each job as it arrives, in arrival order).
 */
class Gate
{
  public:
    void
    park(engine::WorkerPool &pool)
    {
        pool.submit([this] {
            parked_.count_down();
            wait();
        });
        parked_.wait();
    }

    void
    open()
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_ = true;
        cv_.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return open_; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool open_ = false;
    std::latch parked_{1};
};

TEST(Fairness, PoolRoundRobinsClientsWithinAPriorityBand)
{
    engine::WorkerPool pool(1);
    Gate gate;
    std::mutex mu;
    std::vector<std::string> order;
    const auto record = [&](std::string tag) {
        return [&mu, &order, tag = std::move(tag)] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(tag);
        };
    };

    // Park the worker so the queue fills deterministically, then
    // let a greedy client stack 6 jobs before a small client adds
    // 2. Quantum-1 round-robin must interleave the small client's
    // jobs instead of appending them after the backlog.
    gate.park(pool);
    for (int i = 0; i < 6; ++i)
        pool.submit(record("g" + std::to_string(i)), 0, 1);
    pool.submit(record("s0"), 0, 2);
    pool.submit(record("s1"), 0, 2);
    gate.open();
    pool.wait();

    const std::vector<std::string> want = {"g0", "s0", "g1", "s1",
                                           "g2", "g3", "g4", "g5"};
    EXPECT_EQ(order, want);
}

TEST(Fairness, SingleClientKeepsPriorityThenFifoOrder)
{
    engine::WorkerPool pool(1);
    Gate gate;
    std::mutex mu;
    std::vector<int> order;
    const auto record = [&](int tag) {
        return [&mu, &order, tag] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(tag);
        };
    };

    gate.park(pool);
    // One (anonymous) client across three priorities: the classic
    // highest-priority-first, FIFO-within-priority order must be
    // exactly preserved.
    pool.submit(record(1), 1);
    pool.submit(record(50), 5);
    pool.submit(record(51), 5);
    pool.submit(record(3), 3);
    gate.open();
    pool.wait();

    const std::vector<int> want = {50, 51, 3, 1};
    EXPECT_EQ(order, want);
}

TEST(Fairness, HigherPriorityBandDrainsBeforeFairnessApplies)
{
    engine::WorkerPool pool(1);
    Gate gate;
    std::mutex mu;
    std::vector<std::string> order;
    const auto record = [&](std::string tag) {
        return [&mu, &order, tag = std::move(tag)] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(tag);
        };
    };

    gate.park(pool);
    pool.submit(record("low-a"), 0, 1);
    pool.submit(record("high-b"), 5, 2);
    pool.submit(record("low-b"), 0, 2);
    pool.submit(record("high-a"), 5, 1);
    gate.open();
    pool.wait();

    // Priority 5 drains first (round-robin inside: b then a, by
    // ring arrival), then priority 0 (a then b).
    const std::vector<std::string> want = {"high-b", "high-a",
                                           "low-a", "low-b"};
    EXPECT_EQ(order, want);
}

/** Records retirement-ordered events from several jobs at once. */
class MergedSink : public api::EventSink
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

  private:
    mutable std::mutex mu_;
    std::vector<JobEvent> events_;
};

/**
 * The acceptance drill: one greedy client saturates a serial
 * session with a 12-cell sweep; a small client then submits a
 * single run. Retirement order (recorded at emit time, so no
 * observer-scheduling race) must show the small job finishing
 * after at most a bounded handful of greedy cells — p99 over the
 * iterations — and every payload must be byte-identical to a solo
 * run of the same request.
 */
TEST(Fairness, SmallClientFinishesInBoundedWindowUnderGreedyLoad)
{
    SweepRequest greedy;
    greedy.workloads = {"gsmdec"};
    greedy.archs = {"interleaved", "interleaved-ab", "multivliw"};
    greedy.schedulers = {"base", "ipbc"};
    greedy.alignment = {true, false};    // 3*2*2 = 12 distinct cells

    RunRequest small;
    small.workload = "gsmdec";
    small.arch = "interleaved-ab";

    // Solo baselines for byte-identity.
    std::string soloSweepCsv;
    std::string soloRunCsv;
    {
        Session solo(SessionOptions{.jobs = 1});
        auto sweep = solo.sweep(greedy);
        ASSERT_TRUE(sweep.ok()) << sweep.status().message();
        soloSweepCsv = csvOf(sweep.value().experiments);
        auto run = solo.run(small);
        ASSERT_TRUE(run.ok()) << run.status().message();
        soloRunCsv = csvOf({run.value().experiment});
    }

    constexpr int kIterations = 12;
    std::vector<int> greedyCellsBeforeSmall;
    for (int iter = 0; iter < kIterations; ++iter) {
        Session session(SessionOptions{.jobs = 1});
        MergedSink sink;
        SubmitOptions greedyOpts;
        greedyOpts.clientId = "greedy";
        greedyOpts.events = &sink;
        SubmitOptions smallOpts;
        smallOpts.clientId = "small";
        smallOpts.events = &sink;

        auto greedyJob = session.submit(greedy, greedyOpts);
        auto smallJob = session.submit(small, smallOpts);

        auto smallResult = smallJob.take();
        ASSERT_TRUE(smallResult.ok())
            << smallResult.status().message();
        auto greedyResult = greedyJob.take();
        ASSERT_TRUE(greedyResult.ok())
            << greedyResult.status().message();

        // Byte-identity per job: fairness reorders execution,
        // never payloads.
        EXPECT_EQ(csvOf({smallResult.value().experiment}),
                  soloRunCsv);
        EXPECT_EQ(csvOf(greedyResult.value().experiments),
                  soloSweepCsv);

        // Count greedy cells retired before the small job's
        // finished event, in emit order.
        int greedyCells = 0;
        bool smallBeforeGreedyDone = false;
        for (const JobEvent &ev : sink.events()) {
            if (ev.kind == EventKind::JobFinished &&
                ev.job == smallJob.id()) {
                smallBeforeGreedyDone = true;
                break;
            }
            if (ev.kind == EventKind::CellSimulated &&
                ev.job == greedyJob.id()) {
                ++greedyCells;
            }
        }
        ASSERT_TRUE(smallBeforeGreedyDone);
        greedyCellsBeforeSmall.push_back(greedyCells);
    }

    // p99 (= max at this sample count) completion bound: the small
    // client waits out at most the greedy cell in flight at submit
    // time plus one round-robin slot — with slack for the submit
    // racing past an extra retirement, 3 of the 12-cell backlog.
    std::sort(greedyCellsBeforeSmall.begin(),
              greedyCellsBeforeSmall.end());
    const int p99 = greedyCellsBeforeSmall.back();
    EXPECT_LE(p99, 3) << "small client starved behind the greedy "
                         "backlog";
}

} // namespace
} // namespace vliw

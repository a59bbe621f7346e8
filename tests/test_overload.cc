/**
 * @file
 * Robustness-under-load tests for the overload-safe serving
 * machinery, at the library level (the daemon-protocol versions
 * live in test_serve_daemon.cc):
 *
 *   - admission control: saturated sessions shed submits with a
 *     structured StatusCode::Overloaded (depth and limit in the
 *     status context) and recover once capacity frees up;
 *   - deadlines: SubmitOptions.deadlineMs turns into
 *     StatusCode::DeadlineExceeded with the completed prefix of
 *     the sweep kept, through the same cooperative cancel plumbing
 *     cancellation uses;
 *   - backoff: capped exponential delays with deterministic
 *     jitter, tested against a virtual clock — no wall-clock
 *     sleeps anywhere in these tests;
 *   - fault points: spec parsing, deterministic selective firing,
 *     atomic rejection of malformed specs;
 *   - degradation: a corrupted persistent-store entry silently
 *     becomes a recompile with identical results (the store is an
 *     accelerator, never an oracle);
 *   - identity: results computed under load, admission pressure
 *     and injected delays are byte-identical to an unloaded run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hh"
#include "dist/backoff.hh"
#include "engine/report.hh"
#include "support/faultpoints.hh"

namespace vliw {
namespace {

/** Every test leaves the process-global fault registry clean. */
struct FaultGuard
{
    FaultGuard() { faults::disarm(); }
    ~FaultGuard() { faults::disarm(); }
};

// ---- backoff ---------------------------------------------------------

TEST(Backoff, DelaysAreBoundedCappedAndDeterministic)
{
    dist::BackoffPolicy policy;
    policy.baseMs = 25;
    policy.capMs = 2000;
    policy.multiplier = 2.0;
    policy.seed = 7;
    const dist::Backoff backoff(policy);

    double ceil = 25.0;
    for (int attempt = 1; attempt <= 10; ++attempt) {
        const int delay = backoff.delayMs(attempt, /*stream=*/3);
        const int window = int(std::min(ceil, 2000.0));
        EXPECT_GE(delay, window / 2)
            << "attempt " << attempt << " under the jitter floor";
        EXPECT_LE(delay, window)
            << "attempt " << attempt << " over the ceiling";
        ceil *= 2.0;
    }

    // Same policy, seed and stream: the exact same schedule.
    const dist::Backoff again(policy);
    for (int attempt = 1; attempt <= 10; ++attempt)
        EXPECT_EQ(backoff.delayMs(attempt, 3),
                  again.delayMs(attempt, 3));

    // Different streams decorrelate (that is the point of the
    // jitter: a fleet must not retry in lockstep).
    bool anyDiffer = false;
    for (int attempt = 1; attempt <= 10 && !anyDiffer; ++attempt)
        anyDiffer = backoff.delayMs(attempt, 3) !=
            backoff.delayMs(attempt, 4);
    EXPECT_TRUE(anyDiffer);
}

TEST(Backoff, SleepsThroughTheInjectedVirtualClock)
{
    dist::BackoffPolicy policy;
    policy.baseMs = 10;
    policy.capMs = 80;
    policy.seed = 1;
    std::vector<int> slept;
    const dist::Backoff backoff(
        policy, [&slept](int ms) { slept.push_back(ms); });

    backoff.sleepFor(1, 9);
    backoff.sleepFor(2, 9);
    backoff.sleepFor(3, 9);
    ASSERT_EQ(slept.size(), 3u);
    EXPECT_EQ(slept[0], backoff.delayMs(1, 9));
    EXPECT_EQ(slept[1], backoff.delayMs(2, 9));
    EXPECT_EQ(slept[2], backoff.delayMs(3, 9));
}

TEST(Backoff, AttemptBudgetExhaustion)
{
    dist::BackoffPolicy policy;
    policy.maxAttempts = 3;
    const dist::Backoff backoff(policy);
    EXPECT_FALSE(backoff.exhausted(2));
    EXPECT_TRUE(backoff.exhausted(3));
    EXPECT_TRUE(backoff.exhausted(4));

    // 0/negative budgets degrade to one attempt, never zero.
    policy.maxAttempts = 0;
    EXPECT_TRUE(dist::Backoff(policy).exhausted(1));
}

// ---- fault points ----------------------------------------------------

TEST(FaultPoints, MalformedSpecsAreRejectedAtomically)
{
    FaultGuard guard;
    std::string error;
    EXPECT_FALSE(faults::arm("nonsense", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(faults::arm("p=frobnicate", &error));
    EXPECT_FALSE(faults::arm("p=error@0", &error));
    EXPECT_FALSE(faults::arm("p=error%150", &error));
    // A bad entry anywhere in the list arms NOTHING.
    EXPECT_FALSE(faults::arm("a=error,b=frobnicate", &error));
    EXPECT_FALSE(faults::anyArmed());
    EXPECT_EQ(faults::fire("a").action, faults::Action::None);
}

TEST(FaultPoints, EveryNthAndLimitModifiersFireDeterministically)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::arm("test.point=error@2*2"));
    std::vector<bool> fired;
    for (int i = 0; i < 8; ++i)
        fired.push_back(faults::fire("test.point").fired());
    // Occurrences 2 and 4 fire; the *2 limit stops the rest.
    const std::vector<bool> expected{false, true, false, true,
                                     false, false, false, false};
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(faults::fireCount("test.point"), 2u);

    faults::disarm();
    EXPECT_FALSE(faults::anyArmed());
    EXPECT_FALSE(faults::fire("test.point").fired());
}

TEST(FaultPoints, PercentFiringIsAPureFunctionOfTheSeed)
{
    FaultGuard guard;
    const auto pattern = [] {
        std::vector<bool> out;
        for (int i = 0; i < 32; ++i)
            out.push_back(faults::fire("test.pct").fired());
        return out;
    };
    ASSERT_TRUE(faults::arm("test.pct=error%50~42"));
    const std::vector<bool> first = pattern();
    faults::disarm();
    ASSERT_TRUE(faults::arm("test.pct=error%50~42"));
    EXPECT_EQ(pattern(), first);

    // Not degenerate: a 50% pattern fires somewhere, skips
    // somewhere.
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultPoints, DescribeNamesArmedPoints)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::arm("store.load=corrupt@2"));
    const std::string desc = faults::describe();
    EXPECT_NE(desc.find("store.load"), std::string::npos);
    EXPECT_NE(desc.find("corrupt"), std::string::npos);
}

// ---- admission control -----------------------------------------------

TEST(Admission, SaturatedCellQueueShedsWithOverloadedStatus)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::arm("engine.cell=delay:300"));

    api::SessionOptions opts;
    opts.jobs = 1;
    opts.maxQueuedCells = 2;
    api::Session session(opts);

    api::SweepRequest sweep;
    sweep.workloads = {"gsmdec"};
    sweep.archs = {"interleaved"};
    sweep.schedulers = {"base", "ipbc"};
    auto admitted = session.submit(sweep);
    EXPECT_FALSE(admitted.finalStatus().has_value());

    // Those two slow cells hold the whole budget: one more cell
    // has nowhere to queue.
    api::RunRequest run;
    run.workload = "gsmdec";
    run.arch = "interleaved";
    auto shed = session.submit(run);
    const std::optional<api::Status> born = shed.finalStatus();
    ASSERT_TRUE(born.has_value());
    EXPECT_EQ(born->code(), api::StatusCode::Overloaded);
    EXPECT_NE(born->context().find("kind=cells"),
              std::string::npos);
    EXPECT_NE(born->context().find("limit=2"), std::string::npos);
    const auto taken = shed.take();
    EXPECT_FALSE(taken.ok());
    EXPECT_EQ(taken.status().code(), api::StatusCode::Overloaded);

    // The admitted job is untouched by the shed and the counters
    // recover: the same submit is admitted afterwards.
    admitted.wait();
    EXPECT_TRUE(admitted.take().ok());
    faults::disarm();
    auto retry = session.submit(run);
    retry.wait();
    EXPECT_TRUE(retry.take().ok());
}

TEST(Admission, JobCountLimitShedsIndependentlyOfCells)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::arm("engine.cell=delay:200"));

    api::SessionOptions opts;
    opts.jobs = 1;
    opts.maxQueuedJobs = 1;
    api::Session session(opts);

    api::RunRequest run;
    run.workload = "gsmdec";
    run.arch = "interleaved";
    auto first = session.submit(run);
    auto second = session.submit(run);
    const std::optional<api::Status> born = second.finalStatus();
    ASSERT_TRUE(born.has_value());
    EXPECT_EQ(born->code(), api::StatusCode::Overloaded);
    EXPECT_NE(born->context().find("kind=jobs"), std::string::npos);

    first.wait();
    EXPECT_TRUE(first.take().ok());
    auto third = session.submit(run);
    third.wait();
    EXPECT_TRUE(third.take().ok());
}

// ---- deadlines -------------------------------------------------------

TEST(Deadline, SweepKeepsCompletedPrefixOnDeadlineExceeded)
{
    FaultGuard guard;
    // Cell 0 runs clean; cell 1 (occurrence 2) sleeps through the
    // deadline; cell 2 is skipped by the tripped cancel token.
    ASSERT_TRUE(faults::arm("engine.cell=delay:1500@2"));

    api::Session session(api::SessionOptions{});
    api::SweepRequest sweep;
    sweep.workloads = {"gsmdec"};
    // Three distinct cells: each runs (and fires engine.cell) itself.
    sweep.archs = {"interleaved", "interleaved-ab", "unified5"};
    api::SubmitOptions submit;
    submit.deadlineMs = 700;
    auto handle = session.submit(sweep, submit);
    handle.wait();

    const auto result = handle.take();
    ASSERT_TRUE(result.ok());
    const api::SweepResult &got = result.value();
    EXPECT_EQ(got.status.code(), api::StatusCode::DeadlineExceeded);
    EXPECT_EQ(got.completedCount(), 1u);
    ASSERT_EQ(got.experiments.size(), 3u);
    EXPECT_FALSE(got.experiments[0].failed());
    EXPECT_TRUE(got.experiments[1].cancelled);
    EXPECT_TRUE(got.experiments[2].cancelled);
}

TEST(Deadline, SingleRunReportsDeadlineExceeded)
{
    FaultGuard guard;
    ASSERT_TRUE(faults::arm("engine.cell=delay:1000"));

    api::Session session(api::SessionOptions{});
    api::RunRequest run;
    run.workload = "gsmdec";
    run.arch = "interleaved";
    api::SubmitOptions submit;
    submit.deadlineMs = 200;
    auto handle = session.submit(run, submit);
    handle.wait();

    const auto result = handle.take();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              api::StatusCode::DeadlineExceeded);
}

TEST(Deadline, GenerousDeadlineChangesNothing)
{
    api::Session session(api::SessionOptions{});
    api::RunRequest run;
    run.workload = "gsmdec";
    run.arch = "interleaved";
    api::SubmitOptions submit;
    submit.deadlineMs = 600000;
    auto handle = session.submit(run, submit);
    handle.wait();
    const auto timed = handle.take();
    ASSERT_TRUE(timed.ok());

    const auto plain = session.run(run);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(timed.value().run().total.totalCycles,
              plain.value().run().total.totalCycles);
}

// ---- degradation and identity ----------------------------------------

TEST(Degradation, CorruptStoreEntryDegradesToARecompile)
{
    FaultGuard guard;
    char tmpl[] = "/tmp/wivliw_overload_store_XXXXXX";
    const std::string dir = mkdtemp(tmpl);

    api::RunRequest run;
    run.workload = "gsmdec";
    run.arch = "interleaved";

    std::uint64_t cleanCycles = 0;
    {
        api::SessionOptions opts;
        opts.storeDir = dir;
        api::Session publisher(opts);
        const auto res = publisher.run(run);
        ASSERT_TRUE(res.ok());
        cleanCycles =
            std::uint64_t(res.value().run().total.totalCycles);
        EXPECT_GT(publisher.cacheStats().stores, 0u);
    }

    // A fresh process-equivalent (new Session, same directory)
    // would normally warm-start from the store; with every load
    // corrupted it must silently recompile — identical results,
    // the miss and the re-publication visible in the stats.
    ASSERT_TRUE(faults::arm("store.load=corrupt"));
    api::SessionOptions opts;
    opts.storeDir = dir;
    api::Session reader(opts);
    const auto res = reader.run(run);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(std::uint64_t(res.value().run().total.totalCycles),
              cleanCycles);
    const engine::CompileCacheStats stats = reader.cacheStats();
    EXPECT_EQ(stats.storeHits, 0u);
    EXPECT_GT(stats.storeMisses, 0u);
    EXPECT_GT(stats.stores, 0u);

    const std::string cleanup = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
}

std::string
sweepCsv(const api::SweepResult &sweep)
{
    std::ostringstream os;
    engine::writeCsv(os, sweep.experiments);
    return os.str();
}

TEST(Identity, LoadedAndShedSessionsReturnByteIdenticalResults)
{
    api::SweepRequest sweep;
    sweep.workloads = {"gsmdec"};
    sweep.archs = {"interleaved", "interleaved-ab"};
    sweep.schedulers = {"base", "ipbc"};

    std::string unloaded;
    {
        api::SessionOptions opts;
        opts.jobs = 2;
        api::Session calm(opts);
        const auto res = calm.sweep(sweep);
        ASSERT_TRUE(res.ok());
        unloaded = sweepCsv(res.value());
    }

    // Same sweep on a session under admission pressure, injected
    // per-cell delays and a pile of competing jobs — some of which
    // get shed. Accepted work must come out byte-identical.
    FaultGuard guard;
    ASSERT_TRUE(faults::arm("engine.cell=delay:10"));
    api::SessionOptions opts;
    opts.jobs = 2;
    opts.maxQueuedCells = 6;
    api::Session busy(opts);

    auto primary = busy.submit(sweep);    // 4 cells of the budget
    api::RunRequest noise;
    noise.workload = "gsmdec";
    noise.arch = "interleaved";
    std::vector<api::JobHandle<api::RunResult>> competitors;
    for (int i = 0; i < 6; ++i)
        competitors.push_back(busy.submit(noise));

    int shed = 0;
    for (auto &job : competitors) {
        job.wait();
        const auto r = job.take();
        if (!r.ok() &&
            r.status().code() == api::StatusCode::Overloaded)
            ++shed;
        else
            EXPECT_TRUE(r.ok());
    }
    EXPECT_GT(shed, 0) << "admission pressure never materialised";

    primary.wait();
    const auto loaded = primary.take();
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().status.code(), api::StatusCode::Ok);
    EXPECT_EQ(sweepCsv(loaded.value()), unloaded);
}

} // namespace
} // namespace vliw

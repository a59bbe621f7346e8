/**
 * @file
 * Protocol tests for the `wivliw_serve` NDJSON daemon, driving the
 * real binary (path injected by CMake as WIVLIW_SERVE_BIN) over
 * stdin/stdout pipes: request/response shapes, the streamed event
 * envelope and its ordering (accepted first, finished last),
 * compile-cache sharing across jobs of one daemon session,
 * mid-sweep cancellation through the protocol, soft handling of
 * malformed requests, and clean exit on shutdown/EOF.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/json.hh"

namespace vliw {
namespace {

/** The daemon as a child process with line-based pipe I/O. */
class DaemonClient
{
  public:
    explicit DaemonClient(std::vector<std::string> args = {})
    {
        int toChild[2], fromChild[2];
        if (pipe(toChild) != 0 || pipe(fromChild) != 0) {
            perror("pipe");
            std::abort();
        }
        pid_ = fork();
        if (pid_ < 0) {
            perror("fork");
            std::abort();
        }
        if (pid_ == 0) {
            dup2(toChild[0], STDIN_FILENO);
            dup2(fromChild[1], STDOUT_FILENO);
            close(toChild[0]);
            close(toChild[1]);
            close(fromChild[0]);
            close(fromChild[1]);
            std::vector<char *> argv;
            static std::string bin = WIVLIW_SERVE_BIN;
            argv.push_back(bin.data());
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            execv(bin.c_str(), argv.data());
            _exit(127);
        }
        close(toChild[0]);
        close(fromChild[1]);
        writeFd_ = toChild[1];
        readFd_ = fromChild[0];
    }

    ~DaemonClient()
    {
        if (writeFd_ >= 0)
            close(writeFd_);
        if (readFd_ >= 0)
            close(readFd_);
        if (pid_ > 0 && exitCode_ < 0) {
            kill(pid_, SIGKILL);
            int status = 0;
            waitpid(pid_, &status, 0);
        }
    }

    void
    send(const std::string &line)
    {
        const std::string payload = line + "\n";
        ASSERT_EQ(write(writeFd_, payload.data(), payload.size()),
                  ssize_t(payload.size()));
    }

    /**
     * Next request *response* (a line with an "ok" member). Event
     * lines encountered on the way are queued for readEvent():
     * events stream asynchronously from the daemon's writer
     * thread, so they may interleave with responses arbitrarily.
     */
    json::Value
    readResponse(int timeoutMs = 60000)
    {
        for (;;) {
            json::Value line = readLine(timeoutMs);
            if (line.find("event")) {
                events_.push_back(std::move(line));
                continue;
            }
            return line;
        }
    }

    /** Next event line (queued or fresh); responses may not
     *  arrive while waiting (send no request before this). */
    json::Value
    readEvent(int timeoutMs = 60000)
    {
        if (!events_.empty()) {
            json::Value front = std::move(events_.front());
            events_.erase(events_.begin());
            return front;
        }
        for (;;) {
            json::Value line = readLine(timeoutMs);
            if (line.find("event"))
                return line;
            ADD_FAILURE() << "unexpected response while waiting "
                             "for an event";
        }
    }

    /** Events until (and including) the first of @p kind. */
    std::vector<json::Value>
    readEventsUntil(const std::string &kind, int timeoutMs = 120000)
    {
        std::vector<json::Value> out;
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeoutMs);
        for (;;) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            EXPECT_GT(left, 0) << "no '" << kind << "' event";
            if (left <= 0)
                return out;
            out.push_back(readEvent(int(left)));
            if (out.back().getString("event") == kind)
                return out;
        }
    }

    /** Close stdin (EOF) and reap the exit code. */
    int
    finish()
    {
        close(writeFd_);
        writeFd_ = -1;
        int status = 0;
        waitpid(pid_, &status, 0);
        exitCode_ = WIFEXITED(status) ? WEXITSTATUS(status) : -2;
        return exitCode_;
    }

    /** Deliver SIGTERM (the daemon must drain and exit 0). */
    void
    terminate()
    {
        ASSERT_EQ(kill(pid_, SIGTERM), 0);
    }

  private:
    /**
     * Next stdout line as parsed JSON; fails the test on timeout,
     * EOF or malformed output.
     */
    json::Value
    readLine(int timeoutMs = 60000)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeoutMs);
        for (;;) {
            const std::size_t eol = buffer_.find('\n');
            if (eol != std::string::npos) {
                const std::string line = buffer_.substr(0, eol);
                buffer_.erase(0, eol + 1);
                std::string error;
                auto parsed = json::parse(line, &error);
                EXPECT_TRUE(parsed) << error << ": " << line;
                return parsed ? *parsed : json::Value();
            }
            const auto left =
                deadline - std::chrono::steady_clock::now();
            EXPECT_GT(left.count(), 0) << "daemon output timeout";
            if (left.count() <= 0)
                return json::Value();
            pollfd pfd{readFd_, POLLIN, 0};
            const int ms = int(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    left)
                    .count());
            if (poll(&pfd, 1, std::max(1, ms)) <= 0)
                continue;
            char chunk[4096];
            const ssize_t n = read(readFd_, chunk, sizeof chunk);
            EXPECT_GT(n, 0) << "daemon closed stdout";
            if (n <= 0)
                return json::Value();
            buffer_.append(chunk, std::size_t(n));
        }
    }

    pid_t pid_ = -1;
    int writeFd_ = -1;
    int readFd_ = -1;
    int exitCode_ = -1;
    std::string buffer_;
    /** Events read past while looking for a response. */
    std::vector<json::Value> events_;
};

TEST(ServeDaemon, VersionListOpsAndCleanEofExit)
{
    DaemonClient daemon;
    daemon.send(R"({"op":"version"})");
    const json::Value version = daemon.readResponse();
    EXPECT_TRUE(version.getBool("ok"));
    EXPECT_FALSE(version.getString("version").empty());
    EXPECT_FALSE(version.getString("build").empty());

    daemon.send(R"({"op":"list-archs"})");
    const json::Value archs = daemon.readResponse();
    EXPECT_TRUE(archs.getBool("ok"));
    const std::vector<std::string> names = archs.getStrings("names");
    EXPECT_EQ(names.size(), 5u);
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "interleaved-ab"),
              names.end());

    daemon.send(R"({"op":"list-benches"})");
    EXPECT_EQ(daemon.readResponse().getStrings("names").size(), 14u);

    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, SubmitStreamsOrderedEventsAndServesCsvResult)
{
    DaemonClient daemon({"--jobs", "2"});
    daemon.send(R"({"op":"submit","id":"t1",)"
                R"("workloads":["gsmdec"],)"
                R"("archs":["interleaved","interleaved-ab"]})");

    const json::Value submitted = daemon.readResponse();
    EXPECT_TRUE(submitted.getBool("ok"));
    EXPECT_EQ(submitted.getString("id"), "t1");
    const std::int64_t job = submitted.getInt("job");
    EXPECT_GT(job, 0);
    EXPECT_EQ(submitted.getInt("total"), 2);

    // Event envelope: accepted first, then cell/progress events,
    // finished last with the cache counters.
    const std::vector<json::Value> events =
        daemon.readEventsUntil("finished");
    std::vector<std::string> kinds;
    for (const json::Value &e : events) {
        EXPECT_EQ(e.getInt("job"), job);
        kinds.push_back(e.getString("event"));
    }
    ASSERT_GE(kinds.size(), 2u);
    EXPECT_EQ(kinds.front(), "accepted");
    EXPECT_EQ(std::count(kinds.begin(), kinds.end(),
                         "cell-simulated"),
              2);
    const json::Value &finished = events.back();
    EXPECT_EQ(finished.getString("status"), "ok");
    const json::Value *cache = finished.find("cache");
    ASSERT_NE(cache, nullptr);
    // interleaved / interleaved-ab share one compile.
    EXPECT_EQ(cache->getInt("misses"), 1);
    EXPECT_GE(cache->getInt("hits"), 1);

    daemon.send(R"({"op":"status","job":)" + std::to_string(job) +
                "}");
    const json::Value status = daemon.readResponse();
    EXPECT_TRUE(status.getBool("ok"));
    EXPECT_EQ(status.getString("state"), "done");
    EXPECT_EQ(status.getInt("done"), 2);

    daemon.send(R"({"op":"result","job":)" + std::to_string(job) +
                "}");
    const json::Value result = daemon.readResponse();
    EXPECT_TRUE(result.getBool("ok"));
    EXPECT_EQ(result.getString("status"), "ok");
    EXPECT_EQ(result.getInt("completed"), 2);
    const std::string csv = result.getString("csv");
    EXPECT_NE(csv.find("bench"), std::string::npos);
    EXPECT_NE(csv.find("gsmdec"), std::string::npos);

    // The result is one-shot.
    daemon.send(R"({"op":"result","job":)" + std::to_string(job) +
                "}");
    EXPECT_FALSE(daemon.readResponse().getBool("ok"));

    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, OneSessionSharesCompileCacheAcrossJobs)
{
    DaemonClient daemon({"--jobs", "2"});
    const std::string submit =
        R"({"op":"submit","workloads":["gsmdec"],)"
        R"("archs":["interleaved"]})";

    daemon.send(submit);
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    const json::Value firstFinished =
        daemon.readEventsUntil("finished").back();
    const json::Value *firstCache = firstFinished.find("cache");
    ASSERT_NE(firstCache, nullptr);
    EXPECT_EQ(firstCache->getInt("hits"), 0);
    EXPECT_EQ(firstCache->getInt("misses"), 1);

    // Same sweep again on the same daemon session: the shared
    // per-session CompileCache serves it without recompiling.
    daemon.send(submit);
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    const json::Value secondFinished =
        daemon.readEventsUntil("finished").back();
    const json::Value *secondCache = secondFinished.find("cache");
    ASSERT_NE(secondCache, nullptr);
    EXPECT_GE(secondCache->getInt("hits"), 1);
    EXPECT_EQ(secondCache->getInt("misses"), 1);

    daemon.send(R"({"op":"cache-stats"})");
    const json::Value stats = daemon.readResponse();
    EXPECT_TRUE(stats.getBool("ok"));
    ASSERT_NE(stats.find("cache"), nullptr);
    EXPECT_GE(stats.find("cache")->getInt("hits"), 1);

    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, CancelMidSweepDrainsToCancelledFinish)
{
    // One worker and the full 14x5 grid: after the first simulated
    // cell there are dozens pending, so the cancel always lands
    // mid-sweep.
    DaemonClient daemon({"--jobs", "1"});
    daemon.send(R"({"op":"submit"})");    // empty axes = everything
    const json::Value resp = daemon.readResponse();
    EXPECT_TRUE(resp.getBool("ok"));
    const std::int64_t job = resp.getInt("job");
    EXPECT_EQ(resp.getInt("total"), 70);

    daemon.readEventsUntil("cell-simulated");
    daemon.send(R"({"op":"cancel","job":)" + std::to_string(job) +
                "}");
    const json::Value ack = daemon.readResponse();
    EXPECT_TRUE(ack.getBool("ok"));

    const json::Value finished =
        daemon.readEventsUntil("finished").back();
    EXPECT_EQ(finished.getString("status"), "cancelled");

    daemon.send(R"({"op":"result","job":)" + std::to_string(job) +
                "}");
    const json::Value result = daemon.readResponse();
    EXPECT_TRUE(result.getBool("ok"));
    EXPECT_EQ(result.getString("status"), "cancelled");
    EXPECT_GE(result.getInt("completed"), 1);
    EXPECT_LT(result.getInt("completed"), 70);
    // The partial CSV carries the cells that did complete; with
    // one worker the grid's first cell (epicdec) always did.
    EXPECT_NE(result.getString("csv").find("epicdec"),
              std::string::npos);

    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, MalformedAndUnknownRequestsAreSoftErrors)
{
    DaemonClient daemon;
    daemon.send("this is not json");
    const json::Value parseErr = daemon.readResponse();
    EXPECT_FALSE(parseErr.getBool("ok"));
    EXPECT_NE(parseErr.getString("error").find("parse error"),
              std::string::npos);

    daemon.send(R"({"op":"frobnicate"})");
    EXPECT_FALSE(daemon.readResponse().getBool("ok"));

    daemon.send(R"({"op":"status","job":999})");
    const json::Value unknown = daemon.readResponse();
    EXPECT_FALSE(unknown.getBool("ok"));
    EXPECT_NE(unknown.getString("error").find("unknown job"),
              std::string::npos);

    // Still serving after all that.
    daemon.send(R"({"op":"version"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, HostileInputLinesGetStructuredErrorsNotDeath)
{
    DaemonClient daemon;

    // Binary garbage that is nowhere near JSON.
    daemon.send("\x01\x02garbage\xff\xfe not json at all");
    const json::Value garbage = daemon.readResponse();
    EXPECT_FALSE(garbage.getBool("ok"));
    EXPECT_EQ(garbage.getString("op"), "?");
    EXPECT_NE(garbage.getString("error").find("parse error"),
              std::string::npos);

    // A request truncated mid-string (client died while writing).
    daemon.send(R"({"op":"submit","workloads":["gs)");
    const json::Value truncated = daemon.readResponse();
    EXPECT_FALSE(truncated.getBool("ok"));
    EXPECT_NE(truncated.getString("error").find("parse error"),
              std::string::npos);

    // Parseable JSON with a non-string op still echoes something.
    daemon.send(R"({"op":[1,2,3]})");
    const json::Value badOp = daemon.readResponse();
    EXPECT_FALSE(badOp.getBool("ok"));
    EXPECT_NE(badOp.getString("error").find("unknown op"),
              std::string::npos);

    // A 2 MiB line blows the 1 MiB request cap: a structured
    // error naming the limit, not an OOM and not a hang.
    daemon.send(R"({"op":"version","pad":")" +
                std::string(2u << 20, 'x') + R"("})");
    const json::Value oversized = daemon.readResponse();
    EXPECT_FALSE(oversized.getBool("ok"));
    EXPECT_EQ(oversized.getString("op"), "?");
    EXPECT_NE(oversized.getString("error").find("1048576"),
              std::string::npos);

    // The connection survives every one of those.
    daemon.send(R"({"op":"version"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    daemon.send(R"({"op":"submit","workloads":["gsmdec"],)"
                R"("archs":["interleaved"]})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.readEventsUntil("finished")
                  .back()
                  .getString("status"),
              "ok");
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, PersistentStoreWarmsAFreshDaemonProcess)
{
    char tmpl[] = "/tmp/wivliw_serve_store_XXXXXX";
    const std::string dir = mkdtemp(tmpl);
    const std::string submit =
        R"({"op":"submit","workloads":["gsmdec"],)"
        R"("archs":["interleaved","interleaved-ab"]})";

    {
        DaemonClient cold({"--jobs", "2", "--store", dir});
        cold.send(submit);
        EXPECT_TRUE(cold.readResponse().getBool("ok"));
        EXPECT_EQ(cold.readEventsUntil("finished")
                      .back()
                      .getString("status"),
                  "ok");
        cold.send(R"({"op":"cache-stats"})");
        const json::Value stats = cold.readResponse();
        const json::Value *cache = stats.find("cache");
        ASSERT_NE(cache, nullptr);
        EXPECT_GT(cache->getInt("stores"), 0);
        EXPECT_EQ(cache->getInt("store_hits"), 0);
        EXPECT_EQ(cold.finish(), 0);
    }

    // A different PROCESS on the same directory compiles nothing.
    DaemonClient warm({"--jobs", "2", "--store", dir});
    warm.send(submit);
    EXPECT_TRUE(warm.readResponse().getBool("ok"));
    EXPECT_EQ(warm.readEventsUntil("finished")
                  .back()
                  .getString("status"),
              "ok");
    warm.send(R"({"op":"cache-stats"})");
    const json::Value stats = warm.readResponse();
    const json::Value *cache = stats.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_GT(cache->getInt("store_hits"), 0);
    EXPECT_EQ(cache->getInt("stores"), 0);
    EXPECT_EQ(warm.finish(), 0);

    const std::string cleanup = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
}

TEST(ServeDaemon, ShutdownRequestExitsZero)
{
    DaemonClient daemon({"--jobs", "2"});
    daemon.send(R"({"op":"submit","workloads":["gsmdec"],)"
                R"("archs":["interleaved"]})");
    daemon.send(R"({"op":"shutdown"})");
    // Everything drains: both acks arrive, and the job still
    // reaches its finished event (ok or cancelled depending on
    // how far it got) before exit.
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));    // submit
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));    // shutdown
    const json::Value finished =
        daemon.readEventsUntil("finished").back();
    EXPECT_FALSE(finished.getString("status").empty());
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, SigtermDrainsInFlightJobsAndExitsZero)
{
    DaemonClient daemon({"--jobs", "1"});
    daemon.send(R"({"op":"submit","workloads":["gsmdec"],)"
                R"("archs":["interleaved","interleaved-ab"]})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    daemon.terminate();
    // The default --drain-ms budget dwarfs this sweep: the job
    // runs to completion and its finished event still goes out
    // before the graceful exit.
    const json::Value finished =
        daemon.readEventsUntil("finished").back();
    EXPECT_EQ(finished.getString("status"), "ok");
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, DrainBudgetCancelsStragglersOnShutdown)
{
    DaemonClient daemon({"--jobs", "1", "--drain-ms", "200"});
    // Slow every cell down well past the drain budget.
    daemon.send(
        R"({"op":"faults","spec":"engine.cell=delay:500"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    daemon.send(R"({"op":"submit","workloads":["gsmdec"],)"
                R"("archs":["interleaved","interleaved-ab",)"
                R"("unified5"]})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    daemon.send(R"({"op":"shutdown"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    // 3 cells x 500ms against a 200ms budget: the drain must give
    // up and cancel, and the daemon must still exit 0.
    const json::Value finished =
        daemon.readEventsUntil("finished").back();
    EXPECT_EQ(finished.getString("status"), "cancelled");
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, SaturatedQueueShedsWithStructuredOverload)
{
    DaemonClient daemon({"--jobs", "1", "--max-queued-cells", "2"});
    daemon.send(
        R"({"op":"faults","spec":"engine.cell=delay:300"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));

    // Fills the session exactly to the cell limit.
    daemon.send(R"({"op":"submit","id":"full",)"
                R"("workloads":["gsmdec"],"archs":["interleaved"],)"
                R"("schedulers":["base","ipbc"]})");
    const json::Value first = daemon.readResponse();
    EXPECT_TRUE(first.getBool("ok"));
    const std::int64_t admitted = first.getInt("job");

    // One more cell has nowhere to go: a structured shed naming
    // depth and limit, not a hang and not a buffered submit.
    daemon.send(R"({"op":"submit","id":"extra",)"
                R"("workload":"gsmdec","arch":"interleaved"})");
    const json::Value shed = daemon.readResponse();
    EXPECT_FALSE(shed.getBool("ok"));
    EXPECT_EQ(shed.getString("status"), "overloaded");
    EXPECT_EQ(shed.getString("id"), "extra");
    EXPECT_NE(shed.getString("error").find("overloaded"),
              std::string::npos);
    EXPECT_NE(shed.getString("context").find("limit=2"),
              std::string::npos);

    // The rejected job still emits its event envelope (born done,
    // status overloaded); the admitted one then finishes ok.
    const json::Value shedFinished =
        daemon.readEventsUntil("finished").back();
    EXPECT_EQ(shedFinished.getString("status"), "overloaded");
    EXPECT_NE(shedFinished.getInt("job"), admitted);
    const json::Value okFinished =
        daemon.readEventsUntil("finished").back();
    EXPECT_EQ(okFinished.getInt("job"), admitted);
    EXPECT_EQ(okFinished.getString("status"), "ok");

    // Capacity freed: the same submit is admitted now.
    daemon.send(R"({"op":"faults","disarm":true})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    daemon.send(R"({"op":"submit","id":"retry",)"
                R"("workload":"gsmdec","arch":"interleaved"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.readEventsUntil("finished")
                  .back()
                  .getString("status"),
              "ok");
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, DeadlineExceededJobKeepsPartialResults)
{
    DaemonClient daemon({"--jobs", "1"});
    // Only the SECOND cell stalls (occurrence 2 of engine.cell),
    // so the first always beats the deadline and the count of
    // completed cells is deterministic even on a slow sanitizer
    // build: cell 0 retires fast, cell 1 sleeps through the
    // deadline, cell 2 is skipped by the tripped cancel token.
    daemon.send(
        R"({"op":"faults","spec":"engine.cell=delay:2500@2"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));

    daemon.send(R"({"op":"submit","workloads":["gsmdec"],)"
                R"("archs":["interleaved","interleaved-ab",)"
                R"("unified5"],)"
                R"("deadline-ms":1200})");
    const json::Value resp = daemon.readResponse();
    EXPECT_TRUE(resp.getBool("ok"));
    const std::int64_t job = resp.getInt("job");

    const json::Value finished =
        daemon.readEventsUntil("finished").back();
    EXPECT_EQ(finished.getString("status"), "deadline-exceeded");

    daemon.send(R"({"op":"result","job":)" + std::to_string(job) +
                "}");
    const json::Value result = daemon.readResponse();
    EXPECT_TRUE(result.getBool("ok"));
    EXPECT_EQ(result.getString("status"), "deadline-exceeded");
    EXPECT_EQ(result.getInt("completed"), 1);
    EXPECT_NE(result.getString("csv").find("gsmdec"),
              std::string::npos);
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, FaultsOpArmsDescribesAndRejectsBadSpecs)
{
    DaemonClient daemon;
    daemon.send(R"({"op":"faults","spec":"nope"})");
    const json::Value bad = daemon.readResponse();
    EXPECT_FALSE(bad.getBool("ok"));
    EXPECT_FALSE(bad.getString("error").empty());

    daemon.send(
        R"({"op":"faults","spec":"store.load=corrupt@2"})");
    const json::Value armed = daemon.readResponse();
    EXPECT_TRUE(armed.getBool("ok"));
    EXPECT_NE(armed.getString("armed").find("store.load"),
              std::string::npos);

    daemon.send(R"({"op":"faults","disarm":true})");
    const json::Value cleared = daemon.readResponse();
    EXPECT_TRUE(cleared.getBool("ok"));
    EXPECT_EQ(cleared.getString("armed").find("store.load"),
              std::string::npos);
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, InjectedSubmitFaultIsAStructuredError)
{
    DaemonClient daemon;
    // Only the second submit trips (every 2nd occurrence, capped
    // at one firing): deterministic, not statistical.
    daemon.send(
        R"({"op":"faults","spec":"serve.submit=error@2*1"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));

    daemon.send(R"({"op":"submit","workload":"gsmdec",)"
                R"("arch":"interleaved"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.readEventsUntil("finished")
                  .back()
                  .getString("status"),
              "ok");

    daemon.send(R"({"op":"submit","workload":"gsmdec",)"
                R"("arch":"interleaved"})");
    const json::Value faulted = daemon.readResponse();
    EXPECT_FALSE(faulted.getBool("ok"));
    EXPECT_NE(faulted.getString("error").find("injected fault"),
              std::string::npos);

    // The limit spent itself; service continues.
    daemon.send(R"({"op":"submit","workload":"gsmdec",)"
                R"("arch":"interleaved"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.readEventsUntil("finished")
                  .back()
                  .getString("status"),
              "ok");
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, RegisterWorkloadOverTheWireIsSweepable)
{
    DaemonClient daemon({"--jobs", "2"});
    const std::string kernel =
        "benchmark wiretest {\n"
        "  symbol src size 4096\n"
        "  loop l trip 64 {\n"
        "    x = load src gran 4 stride 4\n"
        "    a = intalu from x\n"
        "    dep a -> a kind flow dist 1\n"
        "  }\n"
        "}\n";
    daemon.send(R"({"op":"register-workload","source":)" +
                json::quoted(kernel) + "}");
    const json::Value reg = daemon.readResponse();
    EXPECT_TRUE(reg.getBool("ok"));
    EXPECT_EQ(reg.getString("op"), "register-workload");
    const std::vector<std::string> names =
        reg.getStrings("registered");
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "wiretest");

    // Session-scoped: the registry now lists it next to builtins.
    daemon.send(R"({"op":"list-benches"})");
    const std::vector<std::string> benches =
        daemon.readResponse().getStrings("names");
    EXPECT_EQ(benches.size(), 15u);
    EXPECT_NE(std::find(benches.begin(), benches.end(),
                        "wiretest"),
              benches.end());

    // And it sweeps like any builtin.
    daemon.send(R"({"op":"submit","workloads":["wiretest"],)"
                R"("archs":["interleaved"]})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    const json::Value finished =
        daemon.readEventsUntil("finished").back();
    EXPECT_EQ(finished.getString("status"), "ok");

    // Byte-identical re-registration is idempotent...
    daemon.send(R"({"op":"register-workload","source":)" +
                json::quoted(kernel) + "}");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));

    // ...but the same name with a different body is rejected.
    daemon.send(
        R"({"op":"register-workload","source":)" +
        json::quoted("benchmark wiretest {\n"
                     "  loop l trip 32 {\n"
                     "    a = intalu\n"
                     "  }\n"
                     "}\n") +
        "}");
    const json::Value conflict = daemon.readResponse();
    EXPECT_FALSE(conflict.getBool("ok"));
    EXPECT_NE(conflict.getString("error").find("already"),
              std::string::npos);
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, MalformedWorkloadSourceIsASoftError)
{
    DaemonClient daemon;

    // Missing source entirely.
    daemon.send(R"({"op":"register-workload"})");
    const json::Value missing = daemon.readResponse();
    EXPECT_FALSE(missing.getBool("ok"));
    EXPECT_NE(missing.getString("error").find("source"),
              std::string::npos);

    // Truncated block: the error carries the <wire> origin and a
    // line:col position, and the registry is untouched.
    daemon.send(
        R"({"op":"register-workload","source":)" +
        json::quoted("benchmark broken {\n  loop l trip 16 {\n") +
        "}");
    const json::Value broken = daemon.readResponse();
    EXPECT_FALSE(broken.getBool("ok"));
    EXPECT_NE(broken.getString("error").find("<wire>:"),
              std::string::npos);
    EXPECT_NE(broken.getString("error").find("error:"),
              std::string::npos);

    // Semantically invalid (bad trip count) likewise.
    daemon.send(
        R"({"op":"register-workload","source":)" +
        json::quoted(
            "benchmark bad { loop l trip 7 { a = intalu } }") +
        "}");
    const json::Value bad = daemon.readResponse();
    EXPECT_FALSE(bad.getBool("ok"));
    EXPECT_NE(bad.getString("error").find("trip"),
              std::string::npos);

    daemon.send(R"({"op":"list-benches"})");
    EXPECT_EQ(daemon.readResponse().getStrings("names").size(),
              14u);

    // Still serving.
    daemon.send(R"({"op":"version"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, OversizedWorkloadSourceShedsStructurally)
{
    DaemonClient daemon;
    // A 1.5 MiB .wvl source blows the 1 MiB request-line cap: the
    // daemon sheds the line with a structured error naming the
    // limit — no parse attempt, no OOM, registry untouched.
    std::string big = "benchmark big {\n";
    while (big.size() < (3u << 20) / 2)
        big += "# padding comment to grow the source line\n";
    big += "}\n";
    daemon.send(R"({"op":"register-workload","source":)" +
                json::quoted(big) + "}");
    const json::Value shed = daemon.readResponse();
    EXPECT_FALSE(shed.getBool("ok"));
    EXPECT_NE(shed.getString("error").find("1048576"),
              std::string::npos);

    daemon.send(R"({"op":"list-benches"})");
    EXPECT_EQ(daemon.readResponse().getStrings("names").size(),
              14u);
    daemon.send(R"({"op":"version"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.finish(), 0);
}

TEST(ServeDaemon, MetricsOpExposesDocumentedCountersAndHistograms)
{
    DaemonClient daemon;
    // Run one real job so the registry has traffic, then fire a
    // fault so the per-point counter exists too.
    daemon.send(
        R"({"op":"faults","spec":"serve.submit=error@1*1"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    daemon.send(R"({"op":"submit","workload":"gsmdec",)"
                R"("arch":"interleaved"})");
    EXPECT_FALSE(daemon.readResponse().getBool("ok"));
    daemon.send(R"({"op":"submit","workload":"gsmdec",)"
                R"("arch":"interleaved"})");
    EXPECT_TRUE(daemon.readResponse().getBool("ok"));
    EXPECT_EQ(daemon.readEventsUntil("finished")
                  .back()
                  .getString("status"),
              "ok");

    daemon.send(R"({"op":"metrics"})");
    const json::Value metrics = daemon.readResponse();
    EXPECT_TRUE(metrics.getBool("ok"));
    EXPECT_EQ(metrics.getString("op"), "metrics");

    const json::Value *counters = metrics.find("counters");
    ASSERT_NE(counters, nullptr);
    // The documented core counters, with sane values for this
    // exact transcript: 2 submits (1 faulted), 1 job, 1 cell.
    EXPECT_EQ(counters->getInt("wivliw_jobs_submitted_total"), 1);
    EXPECT_EQ(counters->getInt("wivliw_jobs_finished_total"), 1);
    EXPECT_EQ(counters->getInt("wivliw_cells_retired_total"), 1);
    EXPECT_EQ(counters->getInt("wivliw_compile_cache_misses_total"),
              1);
    EXPECT_EQ(counters->getInt(
                  "wivliw_fault_fires_total{point=\"serve.submit\"}"),
              1);
    EXPECT_EQ(counters->getInt("wivliw_serve_connections_total"), 1);
    // faults + 3 submits (one shed by the fault) + metrics itself.
    EXPECT_GE(counters->getInt("wivliw_serve_requests_total"), 4);
    EXPECT_EQ(counters->getInt("wivliw_pool_jobs_total"), 1);

    const json::Value *gauges = metrics.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->getInt("wivliw_active_jobs"), 0);
    EXPECT_EQ(gauges->getInt("wivliw_queued_cells"), 0);
    EXPECT_EQ(gauges->getInt("wivliw_pool_queue_depth"), 0);

    const json::Value *histograms = metrics.find("histograms");
    ASSERT_NE(histograms, nullptr);
    for (const char *name : {"wivliw_cell_us", "wivliw_compile_us",
                             "wivliw_simulate_us", "wivliw_job_us",
                             "wivliw_pool_wait_us"}) {
        const json::Value *h = histograms->find(name);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_EQ(h->getInt("count"), 1) << name;
        const json::Value *p50 = h->find("p50_us");
        const json::Value *p99 = h->find("p99_us");
        ASSERT_NE(p50, nullptr) << name;
        ASSERT_NE(p99, nullptr) << name;
        EXPECT_GE(p50->asNumber(-1.0), 0.0) << name;
        EXPECT_GE(p99->asNumber(-1.0), p50->asNumber()) << name;
    }
    EXPECT_EQ(daemon.finish(), 0);
}

} // namespace
} // namespace vliw

/**
 * @file
 * docs_protocol_smoke: replays the verified transcript embedded in
 * docs/PROTOCOL.md against a live `wivliw_serve --jobs 1` daemon,
 * line for line, so the documented wire format can never drift
 * from the implementation. CMake injects the daemon binary as
 * WIVLIW_SERVE_BIN and the document as WIVLIW_PROTOCOL_DOC.
 *
 * Transcript grammar (inside ```transcript fences):
 *   "> {json}"  send the line to the daemon
 *   "< {json}"  match the next *response* (line with an "ok" member)
 *   "! {json}"  match the next *event* (line with an "event" member)
 * A pattern without a "*" value must equal the daemon's line byte
 * for byte. A pattern with one is matched structurally: member
 * order is free, "*" matches any value, and otherwise the member
 * sets and values must be exactly equal.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/json.hh"

namespace vliw {
namespace {

struct Step
{
    enum class Kind { Send, ExpectResponse, ExpectEvent };
    Kind kind;
    std::string payload;
    int docLine;
};

/** The ```transcript blocks of the doc, flattened to steps. */
std::vector<Step>
parseTranscript(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<Step> steps;
    std::string line;
    bool inBlock = false;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.rfind("```", 0) == 0) {
            inBlock = line.rfind("```transcript", 0) == 0;
            continue;
        }
        if (!inBlock || line.size() < 2)
            continue;
        const std::string payload = line.substr(2);
        switch (line[0]) {
          case '>':
            steps.push_back(
                {Step::Kind::Send, payload, lineNo});
            break;
          case '<':
            steps.push_back(
                {Step::Kind::ExpectResponse, payload, lineNo});
            break;
          case '!':
            steps.push_back(
                {Step::Kind::ExpectEvent, payload, lineNo});
            break;
          default:
            ADD_FAILURE()
                << path << ":" << lineNo
                << ": transcript line must start with >, < or !";
        }
    }
    return steps;
}

/** Structural pattern match; "*" is the any-value wildcard. */
bool
matches(const json::Value &pattern, const json::Value &actual)
{
    if (pattern.isString() && pattern.asString() == "*")
        return true;
    if (pattern.kind() != actual.kind())
        return false;
    switch (pattern.kind()) {
      case json::Value::Kind::Object: {
        if (pattern.members().size() != actual.members().size())
            return false;
        for (const auto &member : pattern.members()) {
            const json::Value *got = actual.find(member.first);
            if (!got || !matches(member.second, *got))
                return false;
        }
        return true;
      }
      case json::Value::Kind::Array: {
        if (pattern.items().size() != actual.items().size())
            return false;
        for (std::size_t i = 0; i < pattern.items().size(); ++i) {
            if (!matches(pattern.items()[i], actual.items()[i]))
                return false;
        }
        return true;
      }
      case json::Value::Kind::String:
        return pattern.asString() == actual.asString();
      case json::Value::Kind::Number:
        return pattern.asNumber() == actual.asNumber();
      case json::Value::Kind::Bool:
        return pattern.asBool() == actual.asBool();
      case json::Value::Kind::Null:
        return true;
    }
    return false;
}

/** One daemon output line: its bytes and its parse. */
struct Line
{
    std::string raw;
    json::Value value;
};

/** wivliw_serve as a child over stdio pipes (see the daemon
 *  tests); responses and events demultiplexed by member. */
class Daemon
{
  public:
    Daemon()
    {
        int toChild[2], fromChild[2];
        if (pipe(toChild) != 0 || pipe(fromChild) != 0)
            std::abort();
        pid_ = fork();
        if (pid_ < 0)
            std::abort();
        if (pid_ == 0) {
            dup2(toChild[0], STDIN_FILENO);
            dup2(fromChild[1], STDOUT_FILENO);
            close(toChild[0]);
            close(toChild[1]);
            close(fromChild[0]);
            close(fromChild[1]);
            static std::string bin = WIVLIW_SERVE_BIN;
            static std::string jobs = "--jobs";
            static std::string one = "1";
            char *argv[] = {bin.data(), jobs.data(), one.data(),
                            nullptr};
            execv(bin.c_str(), argv);
            _exit(127);
        }
        close(toChild[0]);
        close(fromChild[1]);
        writeFd_ = toChild[1];
        readFd_ = fromChild[0];
    }

    ~Daemon()
    {
        if (writeFd_ >= 0)
            close(writeFd_);
        if (readFd_ >= 0)
            close(readFd_);
        if (pid_ > 0 && !reaped_) {
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

    Line
    readResponse()
    {
        for (;;) {
            Line line = readLine();
            if (line.value.find("event")) {
                events_.push_back(std::move(line));
                continue;
            }
            return line;
        }
    }

    Line
    readEvent()
    {
        if (!events_.empty()) {
            Line front = std::move(events_.front());
            events_.erase(events_.begin());
            return front;
        }
        Line line = readLine();
        EXPECT_TRUE(line.value.find("event"))
            << "expected an event, got a response";
        return line;
    }

    int
    finish()
    {
        close(writeFd_);
        writeFd_ = -1;
        int status = 0;
        waitpid(pid_, &status, 0);
        reaped_ = true;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    }

  private:
    Line
    readLine()
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(120);
        for (;;) {
            const std::size_t eol = buffer_.find('\n');
            if (eol != std::string::npos) {
                Line line{buffer_.substr(0, eol), {}};
                buffer_.erase(0, eol + 1);
                std::string error;
                auto parsed = json::parse(line.raw, &error);
                EXPECT_TRUE(parsed) << error << ": " << line.raw;
                if (parsed)
                    line.value = std::move(*parsed);
                return line;
            }
            const auto left =
                deadline - std::chrono::steady_clock::now();
            EXPECT_GT(left.count(), 0) << "daemon output timeout";
            if (left.count() <= 0)
                return {};
            pollfd pfd{readFd_, POLLIN, 0};
            const int ms = int(
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(left)
                    .count());
            if (poll(&pfd, 1, std::max(1, ms)) <= 0)
                continue;
            char chunk[4096];
            const ssize_t n = read(readFd_, chunk, sizeof chunk);
            EXPECT_GT(n, 0) << "daemon closed stdout";
            if (n <= 0)
                return {};
            buffer_.append(chunk, std::size_t(n));
        }
    }

    pid_t pid_ = -1;
    int writeFd_ = -1;
    int readFd_ = -1;
    bool reaped_ = false;
    std::string buffer_;
    std::vector<Line> events_;
};

TEST(DocsProtocol, TranscriptReplaysAgainstLiveDaemon)
{
    const std::vector<Step> steps =
        parseTranscript(WIVLIW_PROTOCOL_DOC);
    ASSERT_FALSE(steps.empty())
        << "no ```transcript block found in the doc";
    // A transcript that never exercises the daemon is a doc bug.
    std::size_t sends = 0;
    for (const Step &s : steps)
        sends += s.kind == Step::Kind::Send ? 1 : 0;
    ASSERT_GE(sends, 10u) << "transcript looks truncated";

    Daemon daemon;
    for (const Step &step : steps) {
        if (step.kind == Step::Kind::Send) {
            daemon.send(step.payload);
            continue;
        }
        std::string error;
        const auto pattern = json::parse(step.payload, &error);
        ASSERT_TRUE(pattern) << "PROTOCOL.md:" << step.docLine
                             << ": bad pattern: " << error;
        const Line actual = step.kind == Step::Kind::ExpectResponse
                                ? daemon.readResponse()
                                : daemon.readEvent();
        if (step.payload.find("\"*\"") == std::string::npos) {
            EXPECT_EQ(actual.raw, step.payload)
                << "PROTOCOL.md:" << step.docLine;
            continue;
        }
        EXPECT_TRUE(matches(*pattern, actual.value))
            << "PROTOCOL.md:" << step.docLine
            << "\n  expected " << step.payload
            << "\n  actual   " << actual.raw;
    }
    EXPECT_EQ(daemon.finish(), 0);
}

} // namespace
} // namespace vliw

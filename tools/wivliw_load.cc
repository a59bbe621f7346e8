/**
 * @file
 * Load generator for the wivliw_serve NDJSON daemon: the fixed
 * workload behind BENCH_serve.json, and the overload drill for the
 * admission-control / deadline / fault-injection machinery.
 *
 * N concurrent sessions (one unix-socket connection each) drive a
 * deterministic mix of traffic at one daemon:
 *
 *   - single-run submits (the steady state: submit, drain the
 *     event stream to `finished`, collect the result);
 *   - multi-cell sweep submits, optionally carrying a deadline;
 *   - submits that are cancelled immediately after acceptance;
 *   - intentionally oversized (> 1 MiB) request lines that must
 *     come back as a structured error, not a wedged daemon.
 *
 * Everything is seeded: session s uses an LCG keyed on
 * (--seed, s), so two runs against equal daemons issue identical
 * byte streams. Structured `overloaded` sheds and injected-fault
 * errors are counted, not failed on — they are the behaviours
 * under test. Anything else unexpected (dead connection, protocol
 * violation, wrong terminal status) is an error and fails the run.
 *
 * Metrics: per-accepted-job latency (submit write -> result
 * response) p50/p99, accepted-jobs-per-second, shed rate. Wall
 * times are normalised by a fixed integer calibration workload
 * (calibrationMs) timed on the same host, so a slower CI machine
 * does not masquerade as a serving regression. `--baseline FILE` compares
 * ms_per_job against the committed BENCH_serve.json and exits
 * non-zero past --max-regress (CI's serve-load-smoke job).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/ndjson_client.hh"
#include "support/json.hh"

using namespace vliw;

namespace {

struct LoadOptions
{
    std::string socketPath;
    int sessions = 8;
    int requests = 25;    // submits per session
    std::uint64_t seed = 1;
    /** Every Nth submit is a multi-cell sweep (0 = never). */
    int sweepEvery = 5;
    /** Every Nth submit is cancelled right away (0 = never). */
    int cancelEvery = 7;
    /** Every Nth request is an oversized junk line (0 = never). */
    int oversizedEvery = 11;
    /** Deadline attached to sweep submits, ms (0 = none). */
    int deadlineMs = 0;
    int connectWaitMs = 5000;
    std::string outPath;
    std::string baselinePath;
    double maxRegress = 0.25;
    /** Cross-check daemon {"op":"metrics"} deltas vs own tallies. */
    bool checkDaemonMetrics = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: wivliw_load --socket PATH [options]\n"
        "Drive a wivliw_serve daemon with concurrent mixed traffic\n"
        "and report latency/throughput/shed metrics (the workload\n"
        "behind BENCH_serve.json).\n"
        "  --socket PATH      daemon unix socket (required)\n"
        "  --sessions N       concurrent connections (default 8)\n"
        "  --requests N       submits per session (default 25)\n"
        "  --seed N           traffic-mix seed (default 1)\n"
        "  --sweep-every N    every Nth submit is a sweep (0=off)\n"
        "  --cancel-every N   every Nth submit is cancelled (0=off)\n"
        "  --oversized-every N  every Nth request is an oversized\n"
        "                     junk line expecting a structured\n"
        "                     error (0=off)\n"
        "  --deadline-ms N    deadline on sweep submits (0=none)\n"
        "  --connect-wait-ms N  how long to retry the first\n"
        "                     connect while the daemon boots\n"
        "  --out FILE         write the metrics JSON to FILE too\n"
        "  --baseline FILE    compare against a committed baseline\n"
        "  --max-regress X    allowed ms_per_job regression\n"
        "                     (default 0.25)\n"
        "  --check-daemon-metrics  snapshot the daemon's metrics\n"
        "                     op before and after the run and fail\n"
        "                     unless the shed/oversized/fault\n"
        "                     deltas match this harness's own\n"
        "                     counts\n"
        "  --help             this text\n");
    std::exit(code);
}

/** A fixed 20M-step integer spin: normalises wall time. */
double
calibrationMs()
{
    volatile std::uint64_t sink = 0x9E3779B97F4A7C15ull;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = sink;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink = x;
    const auto t1 = std::chrono::steady_clock::now();
    (void)sink;
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

/** What one session tallied; merged after join. */
struct SessionStats
{
    std::vector<double> latenciesMs;    // accepted, uncancelled jobs
    int submits = 0;
    int accepted = 0;
    int shed = 0;
    int cancelled = 0;
    int deadlineExceeded = 0;
    int injectedErrors = 0;
    int oversizedRejected = 0;
    int errors = 0;
    std::string firstError;
};

void
fail(SessionStats &st, const std::string &what)
{
    ++st.errors;
    if (st.firstError.empty())
        st.firstError = what;
}

/**
 * Drain the event stream until job @p id finishes; returns the
 * terminal status string ("ok", "cancelled", "deadline-exceeded",
 * ...), or nullopt when the connection died first.
 */
std::optional<std::string>
drainToFinished(dist::NdjsonClient &client, long long id)
{
    for (;;) {
        const std::optional<std::string> line = client.recvLine();
        if (!line)
            return std::nullopt;
        const std::optional<json::Value> v = json::parse(*line);
        if (!v || !v->isObject())
            continue;
        if (v->getString("event") != "finished")
            continue;
        if (v->getInt("job", -1) != id)
            continue;
        return v->getString("status");
    }
}

void
sessionMain(const LoadOptions &opts, int index, SessionStats &st)
{
    dist::NdjsonClient client;
    const auto connectDeadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts.connectWaitMs);
    while (!client.connect(opts.socketPath)) {
        if (std::chrono::steady_clock::now() >= connectDeadline) {
            fail(st, "cannot connect to " + opts.socketPath);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    // Per-session deterministic stream; nothing here depends on
    // timing, so equal seeds issue byte-identical request lines.
    std::uint64_t rng = opts.seed * 0x9E3779B97F4A7C15ull +
        std::uint64_t(index) * 0xD1B54A32D192ED03ull + 1;
    const auto next = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };

    for (int r = 0; r < opts.requests; ++r) {
        // Oversized junk line: the daemon must answer a structured
        // error and keep the connection usable.
        if (opts.oversizedEvery > 0 &&
            (r + 1) % opts.oversizedEvery == 0) {
            const std::string junk((1u << 20) + 64, 'x');
            if (!client.sendLine(junk)) {
                fail(st, "connection died sending oversized line");
                return;
            }
            const std::optional<json::Value> resp =
                client.recvResponse();
            if (!resp) {
                fail(st, "no response to oversized line");
                return;
            }
            if (resp->getBool("ok", true))
                fail(st, "oversized line was not rejected");
            else
                ++st.oversizedRejected;
            continue;
        }

        const bool isSweep = opts.sweepEvery > 0 &&
            (r + 1) % opts.sweepEvery == 0;
        const bool doCancel = opts.cancelEvery > 0 &&
            (r + 1) % opts.cancelEvery == 0;
        (void)next();    // advance the stream per request

        std::ostringstream req;
        if (isSweep) {
            req << "{\"op\":\"submit\",\"workloads\":[\"gsmdec\"],"
                   "\"archs\":[\"interleaved-ab\"],"
                   "\"schedulers\":[\"base\",\"ipbc\"]";
            if (opts.deadlineMs > 0)
                req << ",\"deadline-ms\":" << opts.deadlineMs;
        } else {
            req << "{\"op\":\"submit\",\"workload\":\"gsmdec\","
                   "\"arch\":\"interleaved-ab\"";
        }
        req << ",\"id\":\"s" << index << "r" << r << "\"}";

        ++st.submits;
        const auto t0 = std::chrono::steady_clock::now();
        if (!client.sendLine(req.str())) {
            fail(st, "connection died on submit");
            return;
        }
        const std::optional<json::Value> resp = client.recvResponse();
        if (!resp) {
            fail(st, "no response to submit");
            return;
        }
        if (!resp->getBool("ok", false)) {
            const std::string status = resp->getString("status");
            const std::string error = resp->getString("error");
            if (status == "overloaded") {
                ++st.shed;    // structured shed: back off, go on
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            } else if (error.find("injected fault") !=
                       std::string::npos) {
                ++st.injectedErrors;
            } else {
                fail(st, "submit rejected: " + error);
            }
            continue;
        }
        const long long id = resp->getInt("job", -1);
        if (id < 0) {
            fail(st, "submit response lacks a job id");
            continue;
        }
        ++st.accepted;

        if (doCancel) {
            if (!client.sendLine("{\"op\":\"cancel\",\"job\":" +
                                 std::to_string(id) + "}") ||
                !client.recvResponse()) {
                fail(st, "connection died on cancel");
                return;
            }
        }

        const std::optional<std::string> status =
            drainToFinished(client, id);
        if (!status) {
            fail(st, "connection died before job finished");
            return;
        }
        if (!client.sendLine("{\"op\":\"result\",\"job\":" +
                             std::to_string(id) + "}")) {
            fail(st, "connection died on result");
            return;
        }
        const std::optional<json::Value> result =
            client.recvResponse();
        if (!result || !result->getBool("ok", false)) {
            fail(st, "result request failed for job " +
                         std::to_string(id));
            continue;
        }
        const auto t1 = std::chrono::steady_clock::now();

        const std::string terminal = result->getString("status");
        if (terminal == "cancelled") {
            ++st.cancelled;
            if (!doCancel && opts.deadlineMs == 0)
                fail(st, "uncancelled job came back cancelled");
        } else if (terminal == "deadline-exceeded") {
            ++st.deadlineExceeded;
        } else if (terminal != "ok") {
            fail(st, "job " + std::to_string(id) +
                         " finished with status " + terminal);
        } else if (!doCancel) {
            st.latenciesMs.push_back(elapsedMs(t0, t1));
        }
    }
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t n = sorted.size();
    std::size_t idx = std::size_t(q * double(n));
    if (idx >= n)
        idx = n - 1;
    return sorted[idx];
}

/**
 * One {"op":"metrics"} snapshot over a dedicated connection. The
 * daemon's counters are monotonic, so the harness diffs a before/
 * after pair to attribute activity to this run.
 */
struct DaemonCounters
{
    bool valid = false;
    std::int64_t shed = 0;
    std::int64_t oversized = 0;
    std::int64_t submitFaults = 0;
    std::int64_t deadlineExpired = 0;
    std::int64_t jobsCancelled = 0;
    std::int64_t jobsSubmitted = 0;
    std::int64_t requests = 0;
};

DaemonCounters
fetchDaemonCounters(const LoadOptions &opts)
{
    DaemonCounters out;
    dist::NdjsonClient client;
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts.connectWaitMs);
    while (!client.connect(opts.socketPath)) {
        if (std::chrono::steady_clock::now() >= deadline)
            return out;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!client.sendLine("{\"op\":\"metrics\"}"))
        return out;
    const std::optional<json::Value> resp = client.recvResponse();
    if (!resp || !resp->getBool("ok", false))
        return out;
    const json::Value *counters = resp->find("counters");
    if (!counters || !counters->isObject())
        return out;
    out.valid = true;
    out.shed = counters->getInt(
                   "wivliw_admission_sheds_total{kind=\"jobs\"}") +
        counters->getInt(
            "wivliw_admission_sheds_total{kind=\"cells\"}");
    out.oversized =
        counters->getInt("wivliw_serve_oversized_total");
    out.submitFaults = counters->getInt(
        "wivliw_fault_fires_total{point=\"serve.submit\"}");
    out.deadlineExpired =
        counters->getInt("wivliw_deadline_expired_total");
    out.jobsCancelled =
        counters->getInt("wivliw_jobs_cancelled_total");
    out.jobsSubmitted =
        counters->getInt("wivliw_jobs_submitted_total");
    out.requests =
        counters->getInt("wivliw_serve_requests_total");
    return out;
}

struct LoadMetrics
{
    double calibrationMs = 0.0;
    double wallMs = 0.0;
    int submits = 0;
    int accepted = 0;
    int shed = 0;
    int cancelled = 0;
    int deadlineExceeded = 0;
    int injectedErrors = 0;
    int oversizedRejected = 0;
    int errors = 0;
    double shedRate = 0.0;
    double jobsPerSec = 0.0;
    double msPerJob = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    /** before/after daemon metric deltas; valid when both
     *  snapshots succeeded. */
    bool daemonValid = false;
    DaemonCounters daemonDelta;
};

void
writeJson(std::ostream &os, const LoadMetrics &m,
          const LoadOptions &opts)
{
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"schema\": 1,\n"
        "  \"sessions\": %d,\n"
        "  \"requests_per_session\": %d,\n"
        "  \"calibration_ms\": %.3f,\n"
        "  \"wall_ms\": %.3f,\n"
        "  \"submits\": %d,\n"
        "  \"accepted\": %d,\n"
        "  \"shed\": %d,\n"
        "  \"cancelled\": %d,\n"
        "  \"deadline_exceeded\": %d,\n"
        "  \"injected_errors\": %d,\n"
        "  \"oversized_rejected\": %d,\n"
        "  \"errors\": %d,\n"
        "  \"shed_rate\": %.4f,\n"
        "  \"jobs_per_sec\": %.3f,\n"
        "  \"ms_per_job\": %.3f,\n"
        "  \"p50_ms\": %.3f,\n"
        "  \"p99_ms\": %.3f",
        opts.sessions, opts.requests, m.calibrationMs, m.wallMs,
        m.submits, m.accepted, m.shed, m.cancelled,
        m.deadlineExceeded, m.injectedErrors, m.oversizedRejected,
        m.errors, m.shedRate, m.jobsPerSec, m.msPerJob, m.p50Ms,
        m.p99Ms);
    os << buf;
    if (m.daemonValid) {
        // The daemon's own view of the run ({"op":"metrics"}
        // deltas), under the same names the Prometheus dump uses.
        char dbuf[1024];
        std::snprintf(
            dbuf, sizeof(dbuf),
            ",\n"
            "  \"daemon\": {\n"
            "    \"admission_sheds\": %lld,\n"
            "    \"serve_oversized\": %lld,\n"
            "    \"submit_fault_fires\": %lld,\n"
            "    \"deadline_expired\": %lld,\n"
            "    \"jobs_cancelled\": %lld,\n"
            "    \"jobs_submitted\": %lld,\n"
            "    \"serve_requests\": %lld\n"
            "  }",
            (long long)m.daemonDelta.shed,
            (long long)m.daemonDelta.oversized,
            (long long)m.daemonDelta.submitFaults,
            (long long)m.daemonDelta.deadlineExpired,
            (long long)m.daemonDelta.jobsCancelled,
            (long long)m.daemonDelta.jobsSubmitted,
            (long long)m.daemonDelta.requests);
        os << dbuf;
    }
    os << "\n}\n";
}

/** Pull "key": value out of a (flat) JSON text; -1 when missing. */
double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    return std::atof(text.c_str() + pos + needle.size());
}

/**
 * Gate ms_per_job (inverse throughput — lower is better, so the
 * >25% regression the CI job cares about is a simple upper bound)
 * against the committed baseline, calibration-normalised on both
 * sides. p50/p99 are reported but not gated: tail latency on a
 * loaded shared CI machine is too noisy to block merges on.
 */
int
checkBaseline(const LoadMetrics &m, const LoadOptions &opts)
{
    std::ifstream in(opts.baselinePath);
    if (!in.good()) {
        std::fprintf(stderr, "load: cannot read baseline %s\n",
                     opts.baselinePath.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string base = ss.str();

    const double base_cal = jsonNumber(base, "calibration_ms");
    const double want = jsonNumber(base, "ms_per_job");
    if (base_cal <= 0.0 || want < 0.0) {
        std::fprintf(stderr,
                     "load: baseline lacks calibration_ms or "
                     "ms_per_job\n");
        return 1;
    }
    const double fresh_n = m.msPerJob / m.calibrationMs;
    const double want_n = want / base_cal;
    const double limit = want_n * (1.0 + opts.maxRegress);
    // Sub-half-millisecond absolute drift is never signal.
    const bool ok = fresh_n <= limit || m.msPerJob - want < 0.5;
    std::fprintf(stderr,
                 "load: ms_per_job %10.3f (baseline %10.3f, "
                 "normalised %.4f vs limit %.4f) %s\n",
                 m.msPerJob, want, fresh_n, limit,
                 ok ? "ok" : "REGRESSED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    LoadOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                usage(2);
            }
            return argv[++i];
        };
        if (arg == "--socket")
            opts.socketPath = value();
        else if (arg == "--sessions")
            opts.sessions = std::atoi(value());
        else if (arg == "--requests")
            opts.requests = std::atoi(value());
        else if (arg == "--seed")
            opts.seed = std::strtoull(value(), nullptr, 10);
        else if (arg == "--sweep-every")
            opts.sweepEvery = std::atoi(value());
        else if (arg == "--cancel-every")
            opts.cancelEvery = std::atoi(value());
        else if (arg == "--oversized-every")
            opts.oversizedEvery = std::atoi(value());
        else if (arg == "--deadline-ms")
            opts.deadlineMs = std::atoi(value());
        else if (arg == "--connect-wait-ms")
            opts.connectWaitMs = std::atoi(value());
        else if (arg == "--out")
            opts.outPath = value();
        else if (arg == "--baseline")
            opts.baselinePath = value();
        else if (arg == "--max-regress")
            opts.maxRegress = std::atof(value());
        else if (arg == "--check-daemon-metrics")
            opts.checkDaemonMetrics = true;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    if (opts.socketPath.empty()) {
        std::fprintf(stderr, "--socket is required\n");
        usage(2);
    }
    if (opts.sessions < 1 || opts.requests < 1) {
        std::fprintf(stderr,
                     "--sessions/--requests want counts >= 1\n");
        usage(2);
    }

    LoadMetrics m;
    m.calibrationMs = calibrationMs();

    const DaemonCounters before = fetchDaemonCounters(opts);

    std::vector<SessionStats> stats(std::size_t(opts.sessions));
    std::vector<std::thread> threads;
    threads.reserve(std::size_t(opts.sessions));
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < opts.sessions; ++s)
        threads.emplace_back(sessionMain, std::cref(opts), s,
                             std::ref(stats[std::size_t(s)]));
    for (std::thread &t : threads)
        t.join();
    m.wallMs = elapsedMs(t0, std::chrono::steady_clock::now());

    std::vector<double> latencies;
    for (const SessionStats &st : stats) {
        m.submits += st.submits;
        m.accepted += st.accepted;
        m.shed += st.shed;
        m.cancelled += st.cancelled;
        m.deadlineExceeded += st.deadlineExceeded;
        m.injectedErrors += st.injectedErrors;
        m.oversizedRejected += st.oversizedRejected;
        m.errors += st.errors;
        if (!st.firstError.empty())
            std::fprintf(stderr, "load: session error: %s\n",
                         st.firstError.c_str());
        latencies.insert(latencies.end(), st.latenciesMs.begin(),
                         st.latenciesMs.end());
    }
    std::sort(latencies.begin(), latencies.end());
    m.shedRate =
        m.submits ? double(m.shed) / double(m.submits) : 0.0;
    m.jobsPerSec = m.wallMs > 0.0
        ? double(m.accepted) * 1000.0 / m.wallMs
        : 0.0;
    m.msPerJob =
        m.accepted ? m.wallMs / double(m.accepted) : 0.0;
    m.p50Ms = percentile(latencies, 0.50);
    m.p99Ms = percentile(latencies, 0.99);

    const DaemonCounters after = fetchDaemonCounters(opts);
    if (before.valid && after.valid) {
        m.daemonValid = true;
        m.daemonDelta.shed = after.shed - before.shed;
        m.daemonDelta.oversized =
            after.oversized - before.oversized;
        m.daemonDelta.submitFaults =
            after.submitFaults - before.submitFaults;
        m.daemonDelta.deadlineExpired =
            after.deadlineExpired - before.deadlineExpired;
        m.daemonDelta.jobsCancelled =
            after.jobsCancelled - before.jobsCancelled;
        m.daemonDelta.jobsSubmitted =
            after.jobsSubmitted - before.jobsSubmitted;
        m.daemonDelta.requests =
            after.requests - before.requests;
    }

    writeJson(std::cout, m, opts);
    if (!opts.outPath.empty()) {
        std::ofstream out(opts.outPath);
        if (!out.good()) {
            std::fprintf(stderr, "load: cannot write %s\n",
                         opts.outPath.c_str());
            return 1;
        }
        writeJson(out, m, opts);
    }
    if (m.errors)
        return 1;
    // Cross-check: the daemon's counters must tell the same story
    // this harness observed on the wire. Only the deterministic
    // counters are asserted — cancel/deadline races are timing-
    // dependent and reported, not gated.
    if (opts.checkDaemonMetrics) {
        if (!m.daemonValid) {
            std::fprintf(stderr,
                         "load: --check-daemon-metrics: could not "
                         "snapshot daemon metrics\n");
            return 1;
        }
        int bad = 0;
        const auto expect = [&bad](const char *what,
                                   long long daemon,
                                   long long harness) {
            if (daemon != harness) {
                std::fprintf(stderr,
                             "load: daemon metric mismatch: %s "
                             "daemon=%lld harness=%lld\n",
                             what, daemon, harness);
                ++bad;
            }
        };
        expect("admission_sheds", m.daemonDelta.shed, m.shed);
        expect("serve_oversized", m.daemonDelta.oversized,
               m.oversizedRejected);
        expect("submit_fault_fires", m.daemonDelta.submitFaults,
               m.injectedErrors);
        if (bad)
            return 1;
        std::fprintf(stderr,
                     "load: daemon metrics match (sheds %lld, "
                     "oversized %lld, submit faults %lld)\n",
                     (long long)m.daemonDelta.shed,
                     (long long)m.daemonDelta.oversized,
                     (long long)m.daemonDelta.submitFaults);
    }
    if (!opts.baselinePath.empty())
        return checkBaseline(m, opts);
    return 0;
}

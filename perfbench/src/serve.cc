/**
 * @file
 * The serve-mixed workload: one real `wivliw_serve --listen` daemon
 * and four closed-loop client connections from this process. Each
 * client stands for a tool that waits for its result before it sends
 * the next request. Every `result` CSV is checked byte for byte
 * against the in-process CSV of the same request.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "api/session.hh"
#include "dist/ndjson_client.hh"
#include "engine/report.hh"
#include "replay.hh"
#include "support/json.hh"
#include "workloads.hh"
#include "wvlgen.hh"

extern char **environ;

using namespace vliw;

namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr int kGenerated = 8;
/** Below the 88 distinct compile keys of the request pool. */
constexpr int kCacheCapacity = 24;

const std::vector<std::string> kArchs = {
    "interleaved", "interleaved-ab", "unified1", "unified5", "multivliw"};

/** The daemon currently running, killed at exit if still alive. */
pid_t g_daemon = -1;

void
killDaemonAtExit()
{
    if (g_daemon > 0) {
        ::kill(g_daemon, SIGKILL);
        ::waitpid(g_daemon, nullptr, 0);
        g_daemon = -1;
    }
}

/** One request a client sends, with what it must get back. */
struct Request
{
    std::string line;
    /** Expected result CSV; empty for non-submit ops. */
    const std::string *csv = nullptr;
    int cells = 0;
    double dynamicOps = 0.0;
};

/** Everything a request stream is drawn from. */
struct Pool
{
    std::vector<std::string> workloads;
    std::vector<GeneratedKernel> kernels;
    /** Zipf cumulative weights over workloads, in rank order. */
    std::vector<double> zipf;
    std::map<std::string, std::string> csv;
    std::map<std::string, const engine::ExperimentResult *> cells;
    api::SweepResult sweep;
};

/** The deterministic request stream of client @p c. */
class Stream
{
  public:
    Stream(const Pool &pool, std::uint64_t seed, int c)
        : pool_(pool), rng_(seed * 0x9E3779B97F4A7C15ull + std::uint64_t(c) + 7)
    {
    }

    Request
    next()
    {
        Request r;
        const int kind = rng_.below(100);
        if (kind < 90) {
            const std::string &w = pickWorkload();
            const std::string &a = kArchs[std::size_t(rng_.below(5))];
            r.line = "{\"op\":\"submit\",\"workload\":" + json::quoted(w) +
                ",\"arch\":" + json::quoted(a) + "}";
            add(r, w, {a});
        } else if (kind < 97) {
            const std::string &w = pickWorkload();
            const int first = rng_.below(5);
            std::vector<std::string> archs;
            std::string list;
            for (int i = 0; i < 3; ++i) {
                archs.push_back(kArchs[std::size_t((first + i) % 5)]);
                list += (i ? "," : "") + json::quoted(archs.back());
            }
            r.line = "{\"op\":\"submit\",\"workload\":" + json::quoted(w) +
                ",\"archs\":[" + list + "]}";
            add(r, w, archs);
        } else if (kind < 99) {
            const GeneratedKernel &k =
                pool_.kernels[std::size_t(rng_.below(int(pool_.kernels.size())))];
            r.line = "{\"op\":\"register-workload\",\"source\":" +
                json::quoted(k.text) + "}";
        } else {
            r.line = "{\"op\":\"metrics\"}";
        }
        return r;
    }

  private:
    const std::string &
    pickWorkload()
    {
        const double u = rng_.unit() * pool_.zipf.back();
        std::size_t i = 0;
        while (pool_.zipf[i] < u)
            ++i;
        return pool_.workloads[i];
    }

    void
    add(Request &r, const std::string &w, const std::vector<std::string> &archs)
    {
        std::string key = w;
        for (const std::string &a : archs)
            key += "|" + a;
        r.csv = &pool_.csv.at(key);
        for (const std::string &a : archs) {
            const engine::ExperimentResult &cell = *pool_.cells.at(w + "|" + a);
            ++r.cells;
            r.dynamicOps += double(cell.run().total.dynamicOps);
        }
    }

    const Pool &pool_;
    Rng rng_;
};

/** The in-process expectations for every request the streams draw. */
void
buildPool(Pool &pool, std::uint64_t seed, int jobs)
{
    pool.kernels = generateKernels(seed, kGenerated, "gen");
    api::SessionOptions so;
    so.jobs = jobs;
    api::Session session(so);
    for (const std::string &name : session.registries().workloads.names())
        pool.workloads.push_back(name);
    for (const GeneratedKernel &k : pool.kernels) {
        if (!session.registerWorkloadText("", k.text, "wire", k.name).ok())
            checkFailed("generated kernel " + k.name + " does not register");
        pool.workloads.push_back(k.name);
    }

    api::SweepRequest req;
    req.workloads = pool.workloads;
    req.archs = kArchs;
    req.jobs = jobs;
    auto r = session.sweep(req);
    if (!r.ok() || r.value().failedCount() != 0)
        checkFailed("serve-mixed pool does not compile in-process");
    pool.sweep = std::move(r).value();
    for (const engine::ExperimentResult &cell : pool.sweep.experiments)
        pool.cells[cell.spec.bench + "|" + cell.spec.arch.name] = &cell;

    for (const std::string &w : pool.workloads) {
        for (int first = 0; first < 5; ++first) {
            const std::string &a = kArchs[std::size_t(first)];
            std::ostringstream one;
            engine::writeCsv(one, {*pool.cells.at(w + "|" + a)});
            pool.csv[w + "|" + a] = one.str();
            std::vector<engine::ExperimentResult> three;
            std::string key = w;
            for (int i = 0; i < 3; ++i) {
                const std::string &ai = kArchs[std::size_t((first + i) % 5)];
                three.push_back(*pool.cells.at(w + "|" + ai));
                key += "|" + ai;
            }
            std::ostringstream os;
            engine::writeCsv(os, three);
            pool.csv[key] = os.str();
        }
    }

    // Zipf(1) popularity in registration order: builtins first, the
    // generated kernels in the tail. The ranking is fixed so that the
    // cost of the mix does not move with the seed; the seed draws the
    // request sequence and the generated kernels.
    double acc = 0.0;
    for (std::size_t i = 0; i < pool.workloads.size(); ++i)
        pool.zipf.push_back(acc += 1.0 / double(i + 1));
}

pid_t
spawnDaemon(const Options &opts, const std::string &sock)
{
    ::unlink(sock.c_str());
    const std::string jobs = std::to_string(opts.jobs);
    const std::string cap = std::to_string(kCacheCapacity);
    std::vector<std::string> args = {opts.serveBin, "--listen", sock,
                                     "--jobs", jobs, "--cache-capacity", cap};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    const std::string log = opts.outDir + "/serve.log";
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, opts.serveBin.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        checkFailed("cannot start " + opts.serveBin);
    g_daemon = pid;
    return pid;
}

void
connectTo(dist::NdjsonClient &client, const std::string &sock)
{
    const Clock::time_point t0 = Clock::now();
    while (!client.connect(sock, 30000)) {
        if (secondsSince(t0) > 10.0)
            checkFailed("daemon did not come up on " + sock);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

json::Value
call(dist::NdjsonClient &client, const std::string &line)
{
    if (!client.sendLine(line))
        checkFailed("daemon connection died");
    std::optional<json::Value> resp = client.recvResponse();
    if (!resp || !resp->getBool("ok", false))
        checkFailed("daemon refused " + line.substr(0, 80));
    return *resp;
}

void
stopDaemon(pid_t pid, const std::string &sock)
{
    {
        dist::NdjsonClient c;
        if (c.connect(sock, 5000) && c.sendLine("{\"op\":\"shutdown\"}"))
            c.recvResponse();
    }
    for (int i = 0; i < 1000; ++i) {
        if (::waitpid(pid, nullptr, WNOHANG) == pid) {
            g_daemon = -1;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    killDaemonAtExit();
}

/** The round trip a failed request counts as: over any limit. */
constexpr double kFailedMs = 1e9;

/** Per-client tallies, merged after the clients join. */
struct ClientStats
{
    std::vector<Sample> done;
    std::vector<double> ackMs, execMs, resultMs;
    double bytes = 0.0;
    double events = 0.0;
    std::uint64_t submits = 0;
    std::uint64_t failed = 0;
    std::string error;
};

void
clientMain(const Pool &pool, const std::string &sock, std::uint64_t seed,
           int c, Clock::time_point opened, const std::atomic<bool> &stop,
           SpanRecorder *rec, ClientStats &st)
{
    dist::NdjsonClient client;
    connectTo(client, sock);
    Stream stream(pool, seed, c);
    while (!stop.load(std::memory_order_relaxed)) {
        const Request req = stream.next();
        ScopedSpan whole(rec, "serve.request");
        const Clock::time_point t0 = Clock::now();
        auto finish = [&](double rttMs, double cells, double ops) {
            st.done.push_back(
                {std::chrono::duration<double>(Clock::now() - opened).count(),
                 rttMs, cells, ops});
        };
        std::optional<json::Value> resp;
        {
            ScopedSpan s(rec, "serve.ack");
            if (!client.sendLine(req.line) || !(resp = client.recvResponse())) {
                st.error = "connection died";
                return;
            }
        }
        const Clock::time_point t1 = Clock::now();
        st.ackMs.push_back(msBetween(t0, t1));
        if (!resp->getBool("ok", false)) {
            ++st.failed;
            finish(kFailedMs, 0, 0);
            continue;
        }
        if (!req.csv) {
            finish(msBetween(t0, t1), 0, 0);
            continue;
        }
        ++st.submits;
        const long long job = resp->getInt("job", -1);
        {
            ScopedSpan s(rec, "serve.exec");
            for (;;) {
                std::optional<std::string> line = client.recvLine();
                if (!line) {
                    st.error = "connection died before finished";
                    return;
                }
                st.bytes += double(line->size() + 1);
                ++st.events;
                std::optional<json::Value> ev = json::parse(*line);
                if (ev && ev->getString("event") == "finished" &&
                    ev->getInt("job", -2) == job)
                    break;
            }
        }
        const Clock::time_point t2 = Clock::now();
        std::optional<json::Value> result;
        {
            ScopedSpan s(rec, "serve.result");
            if (!client.sendLine("{\"op\":\"result\",\"job\":" +
                                 std::to_string(job) + "}") ||
                !(result = client.recvResponse())) {
                st.error = "connection died on result";
                return;
            }
        }
        const Clock::time_point t3 = Clock::now();
        st.execMs.push_back(msBetween(t1, t2));
        st.resultMs.push_back(msBetween(t2, t3));
        if (result->getString("status") != "ok") {
            ++st.failed;
            finish(kFailedMs, 0, 0);
            continue;
        }
        if (result->getString("csv") != *req.csv) {
            st.error = "daemon CSV differs from in-process CSV for " + req.line;
            return;
        }
        st.bytes += double(result->getString("csv").size());
        finish(msBetween(t0, t3), req.cells, req.dynamicOps);
    }
}

/** What the clients measured over one window. */
struct Run
{
    ClientStats all;
    Window window;

    std::vector<double>
    rtts() const
    {
        std::vector<double> v;
        for (const Sample &r : all.done)
            v.push_back(r.ms);
        return v;
    }
};

Run
runClients(const Pool &pool, const std::string &sock, std::uint64_t seed,
           double seconds, std::vector<SpanRecorder> *recs)
{
    std::atomic<bool> stop{false};
    std::vector<ClientStats> stats(kClients);
    std::vector<std::thread> threads;
    Run run;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back(clientMain, std::cref(pool), std::cref(sock),
                             seed, c, run.window.start(), std::cref(stop),
                             recs ? &(*recs)[std::size_t(c)] : nullptr,
                             std::ref(stats[std::size_t(c)]));
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
    for (std::thread &t : threads)
        t.join();
    for (ClientStats &s : stats) {
        if (!s.error.empty())
            checkFailed(s.error);
        auto append = [](std::vector<double> &a, const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        run.all.done.insert(run.all.done.end(), s.done.begin(), s.done.end());
        append(run.all.ackMs, s.ackMs);
        append(run.all.execMs, s.execMs);
        append(run.all.resultMs, s.resultMs);
        run.all.bytes += s.bytes;
        run.all.events += s.events;
        run.all.submits += s.submits;
        run.all.failed += s.failed;
    }
    return run;
}

/** Daemon counters: compile cache and core histograms. */
struct DaemonCounters
{
    double hits = 0, misses = 0, evictions = 0;
    double compileUs = 0, simulateUs = 0, poolWaitP50Us = 0;
};

double
number(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    return v ? v->asNumber() : 0.0;
}

DaemonCounters
readDaemon(dist::NdjsonClient &ctl)
{
    DaemonCounters d;
    const json::Value cache = call(ctl, "{\"op\":\"cache-stats\"}");
    if (const json::Value *c = cache.find("cache")) {
        d.hits = number(*c, "hits");
        d.misses = number(*c, "misses");
        d.evictions = number(*c, "evictions");
    }
    const json::Value m = call(ctl, "{\"op\":\"metrics\"}");
    if (const json::Value *h = m.find("histograms")) {
        if (const json::Value *x = h->find("wivliw_compile_us"))
            d.compileUs = number(*x, "sum_us");
        if (const json::Value *x = h->find("wivliw_simulate_us"))
            d.simulateUs = number(*x, "sum_us");
        if (const json::Value *x = h->find("wivliw_pool_wait_us"))
            d.poolWaitP50Us = number(*x, "p50_us");
    }
    return d;
}

} // namespace

RunOutput
runServeMixed(const Options &opts)
{
    std::atexit(killDaemonAtExit);
    RunOutput out;
    const std::string sock = opts.outDir + "/serve.sock";

    Pool pool;
    buildPool(pool, opts.seed, opts.jobs);
    std::cout << "inputs: " << pool.kernels.size()
              << " generated kernels, fingerprint "
              << fingerprint(pool.kernels) << "\n";

    // Set-up: spawn, first reply, register the generated kernels.
    std::vector<double> setupS;
    pid_t pid = -1;
    for (int r = 0; r < kSetupReps; ++r) {
        if (pid > 0)
            stopDaemon(pid, sock);
        const Clock::time_point t0 = Clock::now();
        pid = spawnDaemon(opts, sock);
        dist::NdjsonClient ctl;
        connectTo(ctl, sock);
        call(ctl, "{\"op\":\"version\"}");
        for (const GeneratedKernel &k : pool.kernels)
            call(ctl, "{\"op\":\"register-workload\",\"source\":" +
                          json::quoted(k.text) + "}");
        setupS.push_back(secondsSince(t0));
    }
    out.metrics["setup_s"] = median(setupS);

    std::vector<double> cycles;
    for (const engine::ExperimentResult &cell : pool.sweep.experiments)
        cycles.push_back(double(cell.run().cycles()));
    out.metrics["sim_cycles.geomean"] = geomean(cycles);

    dist::NdjsonClient ctl;
    connectTo(ctl, sock);
    // Warm-up: fill the compile cache to its steady partial hit ratio.
    runClients(pool, sock, opts.seed + 1000003, 1.0, nullptr);

    const double untracedSeconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    const DaemonCounters d0 = readDaemon(ctl);
    const Run w = runClients(pool, sock, opts.seed, untracedSeconds, nullptr);
    const DaemonCounters d1 = readDaemon(ctl);
    const double reqs = double(w.all.done.size());
    out.attempted = w.all.done.size();
    out.failed = w.all.failed;
    out.metrics["pass_ms.p50"] = w.window.sliceQuantileMs(w.all.done, 0.5);
    out.metrics["pass_ms.p90"] = w.window.sliceQuantileMs(w.all.done, 0.9);
    out.metrics["cells_per_s"] = w.window.sliceRate(w.all.done, &Sample::cells);
    out.metrics["sim_mops_per_s"] =
        w.window.sliceRate(w.all.done, &Sample::ops) / 1e6;
    std::cerr << "perfbench: " << w.all.done.size() << " untraced requests\n";

    if (opts.trace) {
        std::vector<SpanRecorder> recs;
        for (int c = 0; c < kClients; ++c)
            recs.emplace_back(c + 1);
        const Run t =
            runClients(pool, sock, opts.seed, opts.seconds / 2, &recs);
        out.attempted += t.all.done.size();
        out.failed += t.all.failed;
        out.metrics["serve.rtt_ms.p50"] = quantile(w.rtts(), 0.5);
        out.metrics["serve.rtt_ms.p99"] = quantile(w.rtts(), 0.99);
        out.metrics["serve.req_per_s"] = reqs / w.window.elapsed();
        out.metrics["serve.ack_ms"] = median(t.all.ackMs);
        out.metrics["serve.exec_ms"] = median(t.all.execMs);
        out.metrics["serve.result_ms"] = median(t.all.resultMs);
        out.metrics["serve.bytes_per_req"] =
            t.all.bytes / double(t.all.done.size());
        out.metrics["serve.events_per_job"] =
            t.all.submits ? t.all.events / double(t.all.submits) : 0.0;
        out.metrics["bench.trace_overhead_pct"] =
            (t.window.sliceQuantileMs(t.all.done, 0.5) /
                 w.window.sliceQuantileMs(w.all.done, 0.5) -
             1.0) * 100.0;

        // Daemon-side layers over the untraced window, per request.
        double cells = 0.0;
        for (const Sample &r : w.all.done)
            cells += r.cells;
        out.metrics["api.cells"] = cells / reqs;
        out.metrics["api.pool_wait_us.p50"] = d1.poolWaitP50Us;
        out.metrics["engine.cache_hits"] = (d1.hits - d0.hits) / reqs;
        out.metrics["engine.cache_misses"] = (d1.misses - d0.misses) / reqs;
        out.metrics["engine.cache_evictions"] =
            (d1.evictions - d0.evictions) / reqs;
        const double lookups = (d1.hits - d0.hits) + (d1.misses - d0.misses);
        out.metrics["engine.cache_hit_ratio"] =
            lookups > 0 ? (d1.hits - d0.hits) / lookups : 0.0;
        out.metrics["core.compile_ms"] = (d1.compileUs - d0.compileUs) / 1e3 / reqs;
        out.metrics["core.simulate_ms"] =
            (d1.simulateUs - d0.simulateUs) / 1e3 / reqs;

        // Compile and simulator layers per single-cell request: a
        // cold replay of every (workload, arch) cell of the pool.
        SpanRecorder rec(kClients + 1);
        Replay replay(&rec);
        {
            ScopedSpan s(&rec, "replay");
            for (const engine::ExperimentResult &cell : pool.sweep.experiments)
                replay.replayCell(cell);
        }
        const double n = double(pool.sweep.experiments.size());
        const std::map<std::string, double> self = rec.selfUs();
        auto us = [&](const char *name) {
            auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second / n;
        };
        const ReplayCounts &c = replay.counts;
        out.metrics["workloads.profile_us"] = us("workloads.profile");
        out.metrics["workloads.profile_calls"] = double(c.profileCalls) / n;
        out.metrics["workloads.dataset_us"] = us("workloads.dataset");
        out.metrics["ddg.unroll_us"] = us("ddg.unroll");
        out.metrics["ddg.circuits_us"] = us("ddg.circuits");
        out.metrics["ddg.circuits"] = double(c.circuits) / n;
        out.metrics["ddg.mii_us"] = us("ddg.mii");
        out.metrics["sched.latency_us"] = us("sched.latency");
        out.metrics["sched.schedule_us"] = us("sched.schedule");
        out.metrics["sched.schedules"] = double(c.schedules) / n;
        out.metrics["sched.ii_tries"] = double(c.iiTries) / n;
        out.metrics["sched.allocs_per_schedule"] =
            double(c.scheduleAllocs) / double(c.schedules);
        out.metrics["sched.ii.sum"] = double(c.iiSum);
        out.metrics["sched.copies.sum"] = double(c.copiesSum);
        out.metrics["sim.prepare_us"] = us("sim.prepare");
        out.metrics["sim.run_us"] = us("sim.run");
        out.metrics["sim.dynamic_ops"] = double(c.dynamicOps);
        out.metrics["sim.ns_per_op"] =
            us("sim.run") * n * 1e3 / double(c.dynamicOps);
        out.metrics["sim.allocs_per_dataset"] =
            double(c.datasetAllocs) / double(c.datasets);
        out.metrics["sim.stall_cycles"] = double(c.stallCycles);
        out.metrics["sim.compute_cycles"] = double(c.computeCycles);
        out.metrics["mem.reset_us"] = us("mem.reset");
        out.metrics["mem.accesses"] = double(c.memAccesses);
        out.metrics["mem.local_hit_ratio"] =
            double(c.localHits) / double(c.classifiedAccesses);
        out.metrics["mem.ab_hits"] = double(c.abHits);

        std::vector<const SpanRecorder *> all;
        for (const SpanRecorder &r : recs)
            all.push_back(&r);
        all.push_back(&rec);
        const std::string path =
            opts.outDir + "/trace-" + opts.workload + ".json";
        writeChromeTrace(path, all);
        std::cerr << "perfbench: trace written to " << path << "\n";
    }

    out.metrics["peak_rss_mb"] = peakRssMb(pid);
    ctl.close();
    stopDaemon(pid, sock);
    return out;
}

} // namespace perfbench

/**
 * @file
 * `wivliw serve`: a long-running service daemon over the async
 * `vliw::api` façade, speaking NDJSON (one JSON object per line) —
 * the "serve traffic" deployment shape of the codebase. Every
 * client request multiplexes onto ONE shared api::Session, so the
 * per-session CompileCache is shared across all jobs: a repeated
 * sweep compiles nothing the session has seen before.
 *
 *   $ wivliw_serve --jobs 8
 *   > {"op":"submit","workloads":["gsmdec"],"archs":["interleaved"]}
 *   < {"ok":true,"op":"submit","job":1,"total":1}
 *   < {"event":"accepted","job":1,"total":1}
 *   < {"event":"cell-compiled","job":1,"cell":0,"label":"..."}
 *   < {"event":"cell-simulated","job":1,"cell":0,...}
 *   < {"event":"progress","job":1,"done":1,"total":1}
 *   < {"event":"finished","job":1,"status":"ok","cache":{...}}
 *   > {"op":"result","job":1}
 *   < {"ok":true,"job":1,"status":"ok","csv":"bench,arch,..."}
 *
 * Transports: stdin/stdout by default; `--listen PATH` serves the
 * same protocol on a unix-domain socket instead, accepting
 * connections CONCURRENTLY (one thread per connection over the one
 * shared Session), so a slow or hostile client stalls only itself.
 * The session — cache, store, job numbering — persists across
 * connections, so every client lands on a warm process.
 * `--store DIR` additionally shares compiled artifacts across
 * daemons and restarts through the content-addressed persistent
 * store (see README "Persistent compile store").
 *
 * Requests: submit, cancel, status, result, list-jobs, list-archs,
 * list-benches, list-heuristics, list-unrolls, cache-stats,
 * metrics, version, faults, shutdown. Responses carry "ok"; job
 * events stream asynchronously with an "event" member (see
 * docs/PROTOCOL.md for the full schema). Submission never fails for
 * *malformed* work: a bad request is answered ok and finishes
 * immediately with the error on its "finished" event. Admission
 * control is the exception: when `--max-queued-cells` /
 * `--max-queued-jobs` are set and the session is full, submit is
 * answered `{"ok":false,"status":"overloaded",...}` with the
 * current depth and limit — a structured shed the client should
 * back off from, not an error in the request. Events flow through
 * a bounded queue (--queue); when the client reads slowly the
 * queue fills and the workers block instead of buffering without
 * bound.
 *
 * Input hardening: a request line longer than 1 MiB is consumed
 * and answered with a structured error instead of being buffered
 * (a stuck or malicious client cannot balloon the daemon);
 * malformed JSON gets a structured parse-error reply echoing the
 * op when one was parseable. The connection stays usable either
 * way.
 *
 * Exit: 0 on clean stdin EOF (stdio transport), a `shutdown`
 * request, or SIGTERM; 2 on a usage error. Shutdown is graceful
 * and BOUNDED: in-flight jobs drain for up to `--drain-ms`
 * milliseconds, stragglers are then cancelled cooperatively and
 * their partial results discarded, and the daemon exits 0. On the
 * socket transport a client disconnect only ends that connection;
 * `shutdown` (from any connection) or SIGTERM ends the daemon,
 * winding every live connection down through the same bounded
 * drain.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "api/api.hh"
#include "core/versioning.hh"
#include "engine/report.hh"
#include "support/faultpoints.hh"
#include "support/json.hh"
#include "support/metrics.hh"

using namespace vliw;

namespace {

struct ServeOptions
{
    int jobs = 1;
    std::size_t cacheCapacity = 0;
    std::size_t queueCapacity = 256;
    /** Persistent compile-store directory; empty = memory only. */
    std::string storeDir;
    /** Unix-socket path; empty = stdio transport. */
    std::string listenPath;
    /** Admission limits forwarded to SessionOptions; 0 = off. */
    int maxQueuedCells = 0;
    int maxQueuedJobs = 0;
    /** Graceful-shutdown drain budget before stragglers are
     *  cancelled (shutdown op, SIGTERM, and connection EOF). */
    int drainMs = 30000;
    /** Periodic Prometheus text dump; empty = off. */
    std::string metricsFile;
    int metricsIntervalMs = 5000;
};

/** Daemon-level instrumentation shared by every connection. */
struct ServeMetrics
{
    metrics::Counter &connections;
    metrics::Counter &requests;
    metrics::Counter &parseErrors;
    metrics::Counter &oversized;
    metrics::Counter &drainsClean;
    metrics::Counter &drainsCancelled;
};

ServeMetrics &
serveMetrics()
{
    metrics::Registry &reg = metrics::registry();
    static ServeMetrics m{
        reg.counter("wivliw_serve_connections_total"),
        reg.counter("wivliw_serve_requests_total"),
        reg.counter("wivliw_serve_parse_errors_total"),
        reg.counter("wivliw_serve_oversized_total"),
        reg.counter("wivliw_serve_drains_total{outcome=\"clean\"}"),
        reg.counter(
            "wivliw_serve_drains_total{outcome=\"cancelled\"}"),
    };
    return m;
}

/** SIGTERM arrived; the transport loops wind down gracefully. */
std::atomic<bool> gTerm{false};

void
onSigterm(int)
{
    gTerm.store(true);
}

/**
 * Block or unblock SIGTERM on the calling thread. The daemon keeps
 * SIGTERM blocked everywhere except the one thread sitting in the
 * blocking accept()/fgetc() — that way delivery always interrupts
 * the blocking call (the handler is installed without SA_RESTART)
 * instead of landing on a worker that cannot act on it.
 */
void
maskSigterm(bool block)
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(block ? SIG_BLOCK : SIG_UNBLOCK, &set, nullptr);
}

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: wivliw_serve [options]\n"
        "NDJSON service daemon: requests on stdin (one JSON object\n"
        "per line), responses and job events on stdout. All jobs\n"
        "share one api::Session (and so one compile cache).\n"
        "  --jobs N           worker threads (default 1, N >= 1)\n"
        "  --cache-capacity N compile-cache bound: N artifacts, the\n"
        "                     loop front ends of N workloads and\n"
        "                     the runs of N artifacts; evicts\n"
        "                     the least frequently used first\n"
        "                     (default 0 = unbounded)\n"
        "  --queue N          event-queue bound (default 256);\n"
        "                     a full queue blocks workers instead\n"
        "                     of buffering without bound\n"
        "  --store DIR        persistent compile store shared with\n"
        "                     other daemons and runs (see README\n"
        "                     'Persistent compile store')\n"
        "  --listen PATH      serve on a unix socket instead of\n"
        "                     stdio; concurrent connections, the\n"
        "                     session persists across connections\n"
        "  --max-queued-cells N  admission control: reject submits\n"
        "                     that would queue more than N cells\n"
        "                     (structured 'overloaded' error; 0 =\n"
        "                     unbounded)\n"
        "  --max-queued-jobs N   admission control on unfinished\n"
        "                     jobs (0 = unbounded)\n"
        "  --drain-ms N       graceful-shutdown drain budget in ms\n"
        "                     (default 30000); in-flight jobs get\n"
        "                     this long before being cancelled\n"
        "  --metrics-file PATH  periodically dump the metrics\n"
        "                     registry to PATH in Prometheus text\n"
        "                     format (atomic rename; also written\n"
        "                     once at shutdown)\n"
        "  --metrics-interval-ms N  dump period for --metrics-file\n"
        "                     (default 5000)\n"
        "  --version          print version and exit\n"
        "  --help             this text\n");
    std::exit(code);
}

/** Longest request line the daemon will buffer. */
constexpr std::size_t kMaxLineBytes = 1u << 20;

/**
 * Read one newline-terminated request into @p line (newline
 * stripped), never buffering more than kMaxLineBytes of it.
 */
enum class ReadLine { Ok, Eof, Oversized };

ReadLine
readRequestLine(std::FILE *in, std::string &line)
{
    line.clear();
    bool oversized = false;
    int c;
    while ((c = std::fgetc(in)) != EOF) {
        if (c == '\n')
            return oversized ? ReadLine::Oversized : ReadLine::Ok;
        if (line.size() >= kMaxLineBytes) {
            // Keep consuming to the newline so the connection
            // stays framed, but stop growing the buffer.
            oversized = true;
            continue;
        }
        line.push_back(char(c));
    }
    if (!line.empty())
        return oversized ? ReadLine::Oversized : ReadLine::Ok;
    return ReadLine::Eof;
}

/** One submitted job as the daemon tracks it. */
struct ServedJob
{
    api::JobHandle<api::SweepResult> handle;
    std::string tag;    // client-chosen "id" echo
};

/**
 * One client connection: reads requests from `in`, writes
 * responses and the event stream to `out`. Owns its event queue,
 * writer thread and job tables; shares the Session (and so the
 * compile cache and job-id space) with every other connection of
 * the daemon's lifetime.
 */
class Connection
{
  public:
    Connection(api::Session &session, const ServeOptions &opts,
               std::FILE *in, std::FILE *out)
        : session_(session), in_(in), out_(out),
          drainMs_(opts.drainMs), events_(opts.queueCapacity),
          writer_([this] { writerMain(); })
    {
        // Fairness lane: every connection gets its own default
        // client id, so two connections saturating the daemon
        // round-robin instead of queue-position racing. A submit
        // may override it per job with a "client" member.
        static std::atomic<std::uint64_t> nextConn{1};
        clientId_ =
            "conn-" + std::to_string(nextConn.fetch_add(1));
        serveMetrics().connections.add();
    }

    /** Serve until EOF or shutdown; true = shutdown requested. */
    bool
    serve()
    {
        std::string line;
        bool shutdown = false;
        while (!shutdown && !drop_) {
            const ReadLine got = readRequestLine(in_, line);
            if (got == ReadLine::Eof)
                break;
            if (got == ReadLine::Oversized) {
                // The buffered prefix cannot be valid JSON (it was
                // cut mid-object), so no op to echo.
                serveMetrics().oversized.add();
                respondError("?",
                             "request line exceeds " +
                                 std::to_string(kMaxLineBytes) +
                                 " bytes");
                continue;
            }
            if (line.empty())
                continue;
            shutdown = dispatch(line);
        }
        // Graceful, BOUNDED exit: in-flight jobs share one drain
        // budget; whatever is still running when it runs out is
        // cancelled cooperatively (cells retire as skips) and then
        // waited — the writer stops once the stream is empty.
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(drainMs_);
        bool cancelledAny = false;
        for (auto &entry : jobs_) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now());
            if (left.count() < 0)
                left = std::chrono::milliseconds(0);
            if (!entry.second.handle.waitFor(left)) {
                entry.second.handle.cancel();
                cancelledAny = true;
            }
        }
        for (auto &entry : jobs_)
            entry.second.handle.wait();
        if (cancelledAny)
            serveMetrics().drainsCancelled.add();
        else
            serveMetrics().drainsClean.add();
        events_.close();
        writer_.join();
        return shutdown;
    }

  private:
    /** Serialise one output line; responses and events share it.
     *  Write errors (client vanished mid-line) are ignored: the
     *  read side observes the same death as EOF and unwinds. */
    void
    writeLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(outMu_);
        std::fputs(line.c_str(), out_);
        std::fputc('\n', out_);
        std::fflush(out_);
    }

    /** Start `{"ok":<ok>,"op":<op>` in the reader thread's reused
     *  line; respond() closes and sends it. */
    json::Writer
    response(bool ok, std::string_view op)
    {
        responseLine_.clear();
        json::Writer w(responseLine_);
        w.beginObject().member("ok", ok).member("op", op);
        return w;
    }

    void
    respond(json::Writer w)
    {
        w.endObject();
        writeLine(responseLine_);
    }

    void
    respondError(std::string_view op, std::string_view message)
    {
        respond(response(false, op).member("error", message));
    }

    static void
    writeCache(json::Writer &w, const engine::CompileCacheStats &c)
    {
        w.beginObject()
            .member("hits", c.hits)
            .member("misses", c.misses)
            .member("evictions", c.evictions)
            .member("store_hits", c.storeHits)
            .member("store_misses", c.storeMisses)
            .member("stores", c.stores)
            .member("front_hits", c.frontHits)
            .member("front_misses", c.frontMisses)
            .member("front_evictions", c.frontEvictions)
            .member("run_hits", c.runHits)
            .member("run_misses", c.runMisses)
            .member("run_evictions", c.runEvictions)
            .endObject();
    }

    /**
     * True once this job's `finished` event went out. The job's
     * results are final from that moment (the event is emitted
     * after the last cell's slot and status are written), so
     * requests arriving after the client read the event must see
     * the job as done even if its worker has not yet ticked the
     * handle's phase over.
     */
    bool
    finishedWritten(api::JobId id)
    {
        std::lock_guard<std::mutex> lock(finishedMu_);
        return finished_.count(id) != 0;
    }

    void
    writerMain()
    {
        api::JobEvent ev;
        while (events_.pop(ev)) {
            if (ev.kind == api::EventKind::JobFinished) {
                std::lock_guard<std::mutex> lock(finishedMu_);
                finished_.insert(ev.job);
            }
            eventLine_.clear();
            json::Writer w(eventLine_);
            w.beginObject()
                .member("event", api::eventKindName(ev.kind))
                .member("job", ev.job);
            switch (ev.kind) {
              case api::EventKind::JobAccepted:
                w.member("total", ev.progress.total);
                break;
              case api::EventKind::CellCompiled:
                w.member("cell", ev.cell).member("label", ev.label);
                // Only solver cells carry an outcome; heuristic
                // cells keep the documented three-field shape.
                if (!ev.solver.empty())
                    w.member("solver", ev.solver);
                break;
              case api::EventKind::CellSimulated:
                w.member("cell", ev.cell)
                    .member("label", ev.label)
                    .member("done", ev.progress.done)
                    .member("total", ev.progress.total);
                break;
              case api::EventKind::CellFailed:
                w.member("cell", ev.cell)
                    .member("label", ev.label)
                    .member("status",
                            api::statusCodeName(ev.status.code()))
                    .member("message", ev.status.message());
                break;
              case api::EventKind::Progress:
                w.member("done", ev.progress.done)
                    .member("total", ev.progress.total);
                break;
              case api::EventKind::JobFinished:
                w.member("status",
                         api::statusCodeName(ev.status.code()));
                if (!ev.status.ok())
                    w.member("message", ev.status.message());
                writeCache(w.key("cache"), ev.cache);
                break;
            }
            w.endObject();
            writeLine(eventLine_);
        }
    }

    /** Handle one request line; true = shutdown requested. */
    bool
    dispatch(const std::string &line)
    {
        serveMetrics().requests.add();
        std::string parseError;
        const std::optional<json::Value> req =
            json::parse(line, &parseError);
        if (!req || !req->isObject()) {
            serveMetrics().parseErrors.add();
            respondError("?", req ? "request must be a JSON object"
                                  : "parse error: " + parseError);
            return false;
        }
        const std::string op = req->getString("op");
        if (op == "submit") {
            handleSubmit(*req);
        } else if (op == "cancel") {
            handleCancel(*req);
        } else if (op == "status") {
            handleStatus(*req);
        } else if (op == "result") {
            handleResult(*req);
        } else if (op == "list-jobs") {
            handleListJobs();
        } else if (op == "list-archs" || op == "list-benches" ||
                   op == "list-heuristics" || op == "list-unrolls") {
            handleListNames(op);
        } else if (op == "register-workload") {
            handleRegisterWorkload(*req);
        } else if (op == "metrics") {
            handleMetrics();
        } else if (op == "cache-stats") {
            json::Writer w = response(true, op);
            writeCache(w.key("cache"), session_.cacheStats());
            respond(w);
        } else if (op == "version") {
            respond(response(true, op)
                        .member("version", libraryVersion())
                        .member("build", libraryBuildType()));
        } else if (op == "faults") {
            handleFaults(*req);
        } else if (op == "shutdown") {
            // Stop accepting new work; serve() drains what is
            // in flight within the --drain-ms budget and cancels
            // whatever outlives it.
            respond(response(true, op));
            return true;
        } else {
            respondError(op.empty() ? "?" : op,
                         "unknown op '" + op + "'");
        }
        return false;
    }

    /**
     * Bound the connection's tables: keep at most kRetainFinished
     * finished-but-uncollected jobs (their full SweepResults are
     * resident until collected), dropping the oldest first. A
     * monitoring client that only consumes the event stream and
     * never sends `result` must not grow the process forever.
     */
    void
    pruneFinishedJobs()
    {
        static constexpr std::size_t kRetainFinished = 64;
        // Overload-rejected jobs emit their (accepted, finished)
        // envelope like any other job but are never entered into
        // jobs_; drop their finished_ marks so the set cannot grow
        // past the table it indexes. jobs_ only mutates on this
        // (the reader) thread, so the membership test is stable.
        {
            std::lock_guard<std::mutex> lock(finishedMu_);
            for (auto it = finished_.begin();
                 it != finished_.end();) {
                if (jobs_.count(*it) == 0)
                    it = finished_.erase(it);
                else
                    ++it;
            }
        }
        std::vector<api::JobId> done;
        for (const auto &entry : jobs_) {
            if (finishedWritten(entry.first))
                done.push_back(entry.first);    // ascending (map)
        }
        if (done.size() <= kRetainFinished)
            return;
        const std::size_t drop = done.size() - kRetainFinished;
        for (std::size_t i = 0; i < drop; ++i) {
            jobs_.erase(done[i]);
            std::lock_guard<std::mutex> lock(finishedMu_);
            finished_.erase(done[i]);
        }
    }

    void
    handleSubmit(const json::Value &req)
    {
        pruneFinishedJobs();
        // Test seam: an armed serve.submit fault either errors the
        // request (Error) or drops the whole connection mid-
        // conversation (Disconnect) — how clients experience a
        // crashing or flaky daemon.
        const faults::Hit fault = faults::fire("serve.submit");
        if (fault.action == faults::Action::Disconnect) {
            drop_ = true;
            return;
        }
        if (fault.fired()) {
            respondError("submit", "injected fault: serve.submit");
            return;
        }
        api::SweepRequest sweep;
        // Single-run convenience: "workload":"x" == workloads:["x"].
        sweep.workloads = req.getStrings("workloads");
        if (const std::string w = req.getString("workload");
            !w.empty())
            sweep.workloads.push_back(w);
        sweep.archs = req.getStrings("archs");
        if (const std::string a = req.getString("arch"); !a.empty())
            sweep.archs.push_back(a);
        if (const json::Value *v = req.find("schedulers");
            v && v->isArray())
            sweep.schedulers = req.getStrings("schedulers");
        if (const json::Value *v = req.find("unrolls");
            v && v->isArray())
            sweep.unrolls = req.getStrings("unrolls");
        sweep.alignment = {req.getBool("alignment", true)};
        sweep.chains = {req.getBool("chains", true)};
        sweep.versioning = {req.getBool("versioning", false)};
        sweep.datasets = int(req.getInt("datasets", 1));

        api::SubmitOptions submit;
        submit.priority = int(req.getInt("priority", 0));
        submit.maxInFlight = int(req.getInt("max-in-flight", 0));
        submit.deadlineMs = int(req.getInt("deadline-ms", 0));
        submit.clientId = req.getString("client");
        if (submit.clientId.empty())
            submit.clientId = clientId_;
        submit.events = &events_;

        api::JobHandle<api::SweepResult> handle =
            session_.submit(sweep, submit);
        // Admission control: a shed job is born done with an
        // Overloaded status. Answer ok:false with the depth/limit
        // context and keep it out of the tables — the client backs
        // off and resubmits, it does not poll a corpse.
        if (const std::optional<api::Status> fs = handle.finalStatus();
            fs && fs->code() == api::StatusCode::Overloaded) {
            json::Writer w = response(false, "submit");
            w.member("status", "overloaded");
            if (const std::string tag = req.getString("id");
                !tag.empty())
                w.member("id", tag);
            respond(w.member("error", fs->message())
                        .member("context", fs->context()));
            return;
        }
        const api::JobId id = handle.id();
        const int total = handle.progress().total;
        ServedJob job;
        job.handle = handle;
        job.tag = req.getString("id");
        jobs_.emplace(id, std::move(job));

        json::Writer w = response(true, "submit");
        w.member("job", id);
        if (!jobs_[id].tag.empty())
            w.member("id", jobs_[id].tag);
        respond(w.member("total", total));
    }

    /** The jobs_ entry named by the request, or respond+null. */
    ServedJob *
    findJob(const json::Value &req, const std::string &op)
    {
        const api::JobId id = api::JobId(req.getInt("job", 0));
        auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            respondError(op, "unknown job " + std::to_string(id));
            return nullptr;
        }
        return &it->second;
    }

    void
    handleCancel(const json::Value &req)
    {
        ServedJob *job = findJob(req, "cancel");
        if (!job)
            return;
        job->handle.cancel();
        respond(response(true, "cancel")
                    .member("job", job->handle.id())
                    .member("state",
                            api::jobPhaseName(job->handle.poll())));
    }

    void
    handleStatus(const json::Value &req)
    {
        ServedJob *job = findJob(req, "status");
        if (!job)
            return;
        const api::Progress p = job->handle.progress();
        json::Writer w = response(true, "status");
        w.member("job", job->handle.id());
        if (!job->tag.empty())
            w.member("id", job->tag);
        respond(w.member("state", stateName(*job))
                    .member("done", p.done)
                    .member("total", p.total));
    }

    /** The job's state, consistent with the emitted events. */
    const char *
    stateName(ServedJob &job)
    {
        if (finishedWritten(job.handle.id()))
            return api::jobPhaseName(api::JobPhase::Done);
        return api::jobPhaseName(job.handle.poll());
    }

    void
    handleListJobs()
    {
        json::Writer w = response(true, "list-jobs");
        w.key("jobs").beginArray();
        for (auto &entry : jobs_) {
            const api::Progress p = entry.second.handle.progress();
            w.beginObject()
                .member("job", entry.first)
                .member("state", stateName(entry.second))
                .member("done", p.done)
                .member("total", p.total)
                .endObject();
        }
        respond(w.endArray());
    }

    void
    handleListNames(const std::string &op)
    {
        const api::Registries &reg = session_.registries();
        const std::vector<std::string> &names =
            op == "list-archs"        ? reg.archs.names()
            : op == "list-heuristics" ? reg.schedulers.names()
            : op == "list-unrolls"    ? reg.unrolls.names()
                                      : reg.workloads.names();
        json::Writer w = response(true, op);
        w.key("names").beginArray();
        for (const std::string &name : names)
            w.value(name);
        respond(w.endArray());
    }

    /**
     * Ingest a .wvl workload over the wire:
     *   {"op":"register-workload","name":"fir","source":"..."}
     * Registrations are session-scoped — the daemon multiplexes
     * every connection over one Session, so a registered kernel is
     * immediately sweepable by any later connection. The call does
     * all its work inline (no cells queued), so it is never shed
     * by admission control; malformed source is a structured
     * error with file:line:col, never a daemon exit; and pushing
     * the same name+content twice is idempotent. Counted in
     * wivliw_workloads_registered_total /
     * wivliw_workload_parse_errors_total.
     */
    void
    handleRegisterWorkload(const json::Value &req)
    {
        const std::string source = req.getString("source");
        if (source.empty()) {
            respondError("register-workload",
                         "missing 'source' (the .wvl text)");
            return;
        }
        auto res = session_.registerWorkloadText(
            req.getString("name"), source, "wire", "<wire>");
        if (!res.ok()) {
            respondError("register-workload",
                         res.status().message());
            return;
        }
        json::Writer w = response(true, "register-workload");
        w.key("registered").beginArray();
        for (const std::string &name : res.value())
            w.value(name);
        respond(w.endArray());
    }

    /**
     * Arm / disarm fault-injection points at runtime:
     *   {"op":"faults","spec":"store.load=corrupt@2"}
     *   {"op":"faults","disarm":true}
     * The registry is process-global, so faults armed through one
     * connection fire for work submitted through any of them —
     * exactly what a chaos drill against a shared daemon wants.
     */
    void
    handleFaults(const json::Value &req)
    {
        if (req.getBool("disarm", false))
            faults::disarm();
        if (const std::string spec = req.getString("spec");
            !spec.empty()) {
            std::string error;
            if (!faults::arm(spec, &error)) {
                respondError("faults", error);
                return;
            }
        }
        std::string armed = faults::describe();
        for (char &c : armed)
            if (c == '\n')
                c = ';';
        respond(response(true, "faults").member("armed", armed));
    }

    /**
     * Snapshot the process metrics registry:
     *   {"op":"metrics"}
     * Counters and gauges come back as name -> value objects;
     * histograms as name -> {count, sum_us, p50_us, p99_us}.
     * Counters are monotonic over the daemon lifetime — scrapers
     * and the load harness diff snapshots. The same names appear
     * in the --metrics-file Prometheus dump.
     */
    void
    handleMetrics()
    {
        const metrics::Snapshot snap = session_.metricsSnapshot();
        json::Writer w = response(true, "metrics");
        w.key("counters").beginObject();
        for (const auto &[name, value] : snap.counters)
            w.member(name, value);
        w.endObject().key("gauges").beginObject();
        for (const auto &[name, value] : snap.gauges)
            w.member(name, value);
        w.endObject().key("histograms").beginObject();
        for (const auto &hv : snap.histograms) {
            w.key(hv.name)
                .beginObject()
                .member("count", hv.count)
                .member("sum_us", hv.sumUs)
                .member("p50_us", hv.p50Us)
                .member("p99_us", hv.p99Us)
                .endObject();
        }
        respond(w.endObject());
    }

    void
    handleResult(const json::Value &req)
    {
        ServedJob *job = findJob(req, "result");
        if (!job)
            return;
        if (finishedWritten(job->handle.id())) {
            // The client saw the finished event; the handle's
            // phase tick is at most a worker resumption away.
            job->handle.wait();
        } else if (job->handle.poll() != api::JobPhase::Done) {
            respondError("result", "job " +
                                       std::to_string(job->handle.id()) +
                                       " is still running");
            return;
        }
        // Collecting consumes: the job leaves the daemon's tables
        // (a long-running daemon must not accumulate results
        // forever), so a repeat asks for an unknown job.
        const api::JobId id = job->handle.id();
        api::Result<api::SweepResult> result = job->handle.take();
        jobs_.erase(id);
        {
            std::lock_guard<std::mutex> lock(finishedMu_);
            finished_.erase(id);
        }
        json::Writer w = response(true, "result");
        w.member("job", id);
        if (!result.ok()) {
            respond(w.member("status", api::statusCodeName(
                                           result.status().code()))
                        .member("message", result.status().message()));
            return;
        }
        const api::SweepResult &sweep = result.value();
        w.member("status", api::statusCodeName(sweep.status.code()))
            .member("completed", sweep.completedCount())
            .member("failed", sweep.failedCount());
        // CSV of the completed cells (cancelled sweeps keep their
        // partial, bit-identical prefix of results).
        std::vector<engine::ExperimentResult> completed;
        completed.reserve(sweep.experiments.size());
        for (const engine::ExperimentResult &r : sweep.experiments)
            if (!r.failed())
                completed.push_back(r);
        std::ostringstream csv;
        engine::writeCsv(csv, completed);
        respond(w.member("csv", csv.str()));
    }

    api::Session &session_;
    std::FILE *in_;
    std::FILE *out_;
    int drainMs_;
    /** Default fairness lane for this connection's submits. */
    std::string clientId_;
    /** An injected serve.submit=disconnect ends the connection. */
    bool drop_ = false;
    api::BoundedEventQueue events_;
    std::mutex outMu_;
    /** Reused line buffers: responses are written on the reader
     *  thread only, events on the writer thread only. */
    std::string responseLine_;
    std::string eventLine_;
    std::mutex finishedMu_;
    /** Jobs whose finished event already went out. */
    std::set<api::JobId> finished_;
    std::map<api::JobId, ServedJob> jobs_;
    std::thread writer_;
};

/**
 * Periodic Prometheus text dump of the metrics registry. Writes
 * PATH.tmp then renames, so a scraper never reads a torn file; one
 * final dump happens on destruction so a short-lived daemon still
 * leaves its last word. The thread inherits the blocked SIGTERM.
 */
class MetricsDumper
{
  public:
    MetricsDumper(std::string path, int intervalMs)
        : path_(std::move(path)),
          intervalMs_(intervalMs > 0 ? intervalMs : 5000),
          thread_([this] { run(); })
    {
    }

    ~MetricsDumper()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
        dump();
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
            cv_.wait_for(lock,
                         std::chrono::milliseconds(intervalMs_),
                         [this] { return stop_; });
            if (stop_)
                return;
            lock.unlock();
            dump();
            lock.lock();
        }
    }

    void
    dump() const
    {
        const std::string text = metrics::renderPrometheus(
            metrics::registry().snapshot());
        const std::string tmp = path_ + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        if (!f)
            return;     // best-effort: never fail serving over IO
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::rename(tmp.c_str(), path_.c_str());
    }

    std::string path_;
    int intervalMs_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

/** stdio transport: one connection; EOF or SIGTERM ends the
 *  daemon through the bounded drain. */
int
serveStdio(api::Session &session, const ServeOptions &opts)
{
    Connection conn(session, opts, stdin, stdout);
    // The writer thread inherited the blocked SIGTERM; take
    // delivery on this thread so it interrupts the blocking fgetc
    // (EINTR -> EOF) and serve() unwinds into the drain.
    maskSigterm(false);
    conn.serve();
    return 0;
}

/** Wake a blocked accept() on @p path with a throwaway connect.
 *  Portable, unlike shutdown() on a listening socket. */
void
pokeAccept(const std::string &path)
{
    const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (s < 0)
        return;
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::connect(s, reinterpret_cast<const sockaddr *>(&addr),
              sizeof(addr));
    ::close(s);
}

/**
 * Unix-socket transport: accept connections CONCURRENTLY (one
 * thread each over the one shared Session) until a `shutdown`
 * request or SIGTERM. A vanished client ends its connection, not
 * the daemon, so registrations and warm caches outlive any one
 * client. Wind-down: stop accepting, shut the read side of
 * every live connection (its serve loop sees EOF and runs the
 * bounded drain), join everything, exit 0.
 */
int
serveSocket(api::Session &session, const ServeOptions &opts)
{
    // A client that disconnects mid-write must error the write,
    // not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    sockaddr_un addr = {};
    if (opts.listenPath.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "--listen path too long: %s\n",
                     opts.listenPath.c_str());
        return 2;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::perror("socket");
        return 2;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.listenPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opts.listenPath.c_str());    // stale socket from a crash
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        std::fprintf(stderr, "cannot listen on %s: %s\n",
                     opts.listenPath.c_str(), std::strerror(errno));
        ::close(fd);
        return 2;
    }
    std::fprintf(stderr, "wivliw_serve: listening on %s\n",
                 opts.listenPath.c_str());

    std::atomic<bool> shutdownReq{false};
    std::mutex connMu;
    std::set<int> connFds;    // live connection fds, for wind-down
    std::vector<std::thread> threads;

    // Only this (the accepting) thread takes SIGTERM delivery.
    maskSigterm(false);
    while (true) {
        const int conn = ::accept(fd, nullptr, nullptr);
        if (shutdownReq.load() || gTerm.load()) {
            if (conn >= 0)
                ::close(conn);
            break;
        }
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            std::perror("accept");
            break;
        }
        {
            std::lock_guard<std::mutex> lock(connMu);
            connFds.insert(conn);
        }
        // Connection threads must not steal the signal.
        maskSigterm(true);
        threads.emplace_back([&session, &opts, &shutdownReq, &connMu,
                              &connFds, conn] {
            // Distinct FILE streams (separate buffers) over one
            // fd: reads and writes interleave freely.
            std::FILE *in = ::fdopen(conn, "r");
            std::FILE *out = in ? ::fdopen(::dup(conn), "w")
                                : nullptr;
            bool shutdown = false;
            if (in && out) {
                Connection c(session, opts, in, out);
                shutdown = c.serve();
            }
            // Leave the registry before closing so the wind-down
            // sweep can never touch a recycled descriptor.
            {
                std::lock_guard<std::mutex> lock(connMu);
                connFds.erase(conn);
            }
            if (out)
                std::fclose(out);
            if (in)
                std::fclose(in);
            else
                ::close(conn);
            if (shutdown) {
                shutdownReq.store(true);
                pokeAccept(opts.listenPath);
            }
        });
        maskSigterm(false);
    }
    // Wind-down: every live connection's read side sees EOF, its
    // serve loop drains (bounded) and its thread exits.
    {
        std::lock_guard<std::mutex> lock(connMu);
        for (const int c : connFds)
            ::shutdown(c, SHUT_RD);
    }
    for (std::thread &t : threads)
        t.join();
    ::close(fd);
    ::unlink(opts.listenPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ServeOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto count = [&](const char *flag) -> long long {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(2);
            }
            const char *v = argv[++i];
            char *end = nullptr;
            errno = 0;
            const long long n = std::strtoll(v, &end, 10);
            if (end == v || *end != '\0' || errno == ERANGE || n < 0 ||
                n > std::numeric_limits<int>::max()) {
                std::fprintf(stderr, "%s wants a count, got '%s'\n",
                             flag, v);
                usage(2);
            }
            return n;
        };
        auto path = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs")
            opts.jobs = int(count("--jobs"));
        else if (arg == "--cache-capacity")
            opts.cacheCapacity = std::size_t(count("--cache-capacity"));
        else if (arg == "--queue")
            opts.queueCapacity = std::size_t(count("--queue"));
        else if (arg == "--store")
            opts.storeDir = path("--store");
        else if (arg == "--listen")
            opts.listenPath = path("--listen");
        else if (arg == "--max-queued-cells")
            opts.maxQueuedCells = int(count("--max-queued-cells"));
        else if (arg == "--max-queued-jobs")
            opts.maxQueuedJobs = int(count("--max-queued-jobs"));
        else if (arg == "--drain-ms")
            opts.drainMs = int(count("--drain-ms"));
        else if (arg == "--metrics-file")
            opts.metricsFile = path("--metrics-file");
        else if (arg == "--metrics-interval-ms")
            opts.metricsIntervalMs =
                int(count("--metrics-interval-ms"));
        else if (arg == "--version") {
            std::printf("%s\n", libraryVersionLine().c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(2);
        }
    }
    if (opts.jobs < 1) {
        std::fprintf(stderr, "--jobs wants a count >= 1\n");
        usage(2);
    }

    // Graceful SIGTERM: no SA_RESTART, so delivery interrupts the
    // blocking accept()/fgetc() of whichever thread holds the
    // signal unblocked. Block it NOW so every helper thread spawned
    // below (session workers, connection readers and writers)
    // inherits the block; the transport unblocks it on the one
    // thread that can act.
    struct sigaction sa = {};
    sa.sa_handler = onSigterm;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGTERM, &sa, nullptr);
    maskSigterm(true);

    api::SessionOptions sessionOpts;
    sessionOpts.jobs = opts.jobs;
    sessionOpts.cacheCapacity = opts.cacheCapacity;
    sessionOpts.storeDir = opts.storeDir;
    sessionOpts.maxQueuedCells = opts.maxQueuedCells;
    sessionOpts.maxQueuedJobs = opts.maxQueuedJobs;
    api::Session session(sessionOpts);
    std::unique_ptr<MetricsDumper> dumper;
    if (!opts.metricsFile.empty())
        dumper = std::make_unique<MetricsDumper>(
            opts.metricsFile, opts.metricsIntervalMs);
    if (!opts.listenPath.empty())
        return serveSocket(session, opts);
    return serveStdio(session, opts);
}

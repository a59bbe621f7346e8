#include "coordinator.hh"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "dist/ndjson_client.hh"
#include "support/json.hh"
#include "support/metrics.hh"

namespace vliw::dist {

namespace {

/** One grid cell in expansion (= retirement) order. */
struct Cell
{
    std::string workload;
    std::string arch;
    std::string scheduler;
    std::string unroll;
    bool alignment = true;
    bool chains = true;
    bool versioning = false;
};

/**
 * The same row-major cross-product api::Session's sweep expansion
 * produces: benchmark slowest, versioning fastest. The merged
 * report is byte-identical to the single-node sweep *because*
 * these orders agree.
 */
std::vector<Cell>
expandCells(const RemoteSweep &sweep)
{
    std::vector<Cell> cells;
    for (const std::string &w : sweep.workloads)
        for (const std::string &a : sweep.archs)
            for (const std::string &s : sweep.schedulers)
                for (const std::string &u : sweep.unrolls)
                    for (const bool align : sweep.alignment)
                        for (const bool chain : sweep.chains)
                            for (const bool ver : sweep.versioning)
                                cells.push_back(Cell{w, a, s, u,
                                                     align, chain,
                                                     ver});
    return cells;
}

std::string
submitLine(const Cell &cell, int datasets)
{
    std::ostringstream os;
    os << "{\"op\":\"submit\",\"workloads\":["
       << json::quoted(cell.workload) << "],\"archs\":["
       << json::quoted(cell.arch) << "],\"schedulers\":["
       << json::quoted(cell.scheduler) << "],\"unrolls\":["
       << json::quoted(cell.unroll) << "]"
       << ",\"alignment\":" << (cell.alignment ? "true" : "false")
       << ",\"chains\":" << (cell.chains ? "true" : "false")
       << ",\"versioning\":" << (cell.versioning ? "true" : "false")
       << ",\"datasets\":" << datasets << "}";
    return os.str();
}

/** What one cell came back with. */
struct CellOutcome
{
    bool retired = false;
    /** Data rows (no header), possibly empty; newline-terminated. */
    std::string rows;
    /** Daemon-reported deterministic failure, if any. */
    std::string error;
};

/** Work item: a cell index plus how often it bounced back
 *  (transport loss or overload shed). */
struct WorkItem
{
    std::size_t cell = 0;
    int attempts = 0;
};

/** State shared by the per-endpoint worker threads. */
struct Shared
{
    const std::vector<Cell> *cells = nullptr;
    int datasets = 1;
    const CoordinatorOptions *options = nullptr;
    const Backoff *backoff = nullptr;
    std::mutex mu;
    /** Signalled on queue pushes and in-flight completions, so an
     *  idle worker neither exits while a peer's cell might still
     *  bounce back to the queue, nor spins. */
    std::condition_variable cv;
    std::deque<WorkItem> queue;
    /** Cells currently claimed by some worker. */
    std::size_t inFlight = 0;
    std::vector<CellOutcome> outcomes;
    std::size_t retries = 0;
    std::size_t overloadRetries = 0;
    std::size_t workersLost = 0;
    bool attemptsExhausted = false;
};

/** How one attempt at a cell ended. */
enum class CellAttempt
{
    /** Retired with rows or a deterministic failure. */
    Retired,
    /** Connection died; the caller requeues the cell and retires
     *  this worker. */
    TransportLost,
    /** The daemon shed the submission with a structured
     *  `overloaded` error; the connection is still good — back
     *  off and retry in place. */
    Overloaded,
};

/** Run one cell to retirement over an established connection. */
CellAttempt
runCell(NdjsonClient &client, const Cell &cell, int datasets,
        CellOutcome &out)
{
    if (!client.sendLine(submitLine(cell, datasets)))
        return CellAttempt::TransportLost;
    const std::optional<json::Value> submitted =
        client.recvResponse();
    if (!submitted)
        return CellAttempt::TransportLost;
    if (!submitted->getBool("ok") &&
        submitted->getString("status") == "overloaded") {
        // Structured admission rejection: the daemon is healthy
        // but full. Keep the connection; the caller backs off.
        return CellAttempt::Overloaded;
    }
    const std::int64_t job = submitted->getInt("job", -1);
    if (job < 0 || !submitted->getBool("ok"))
        return CellAttempt::TransportLost; // protocol confusion

    // Drain the event stream to this job's finished event,
    // remembering any cell-failed message on the way (the result
    // op reports only the Status code; the event has the text).
    std::string failMessage;
    while (true) {
        const std::optional<std::string> line = client.recvLine();
        if (!line)
            return CellAttempt::TransportLost;
        const std::optional<json::Value> ev = json::parse(*line);
        if (!ev || !ev->isObject())
            continue;
        if (ev->getInt("job", -1) != job)
            continue;
        const std::string kind = ev->getString("event");
        if (kind == "cell-failed")
            failMessage = ev->getString("message");
        if (kind == "finished")
            break;
    }

    if (!client.sendLine("{\"op\":\"result\",\"job\":" +
                         std::to_string(job) + "}"))
        return CellAttempt::TransportLost;
    const std::optional<json::Value> result =
        client.recvResponse();
    if (!result)
        return CellAttempt::TransportLost;
    if (!result->getBool("ok"))
        return CellAttempt::TransportLost;

    out.retired = true;
    const std::string status = result->getString("status");
    if (status != "ok") {
        out.error = status;
        if (!failMessage.empty())
            out.error += ": " + failMessage;
        // Deterministic failure: zero rows, no retry.
        return CellAttempt::Retired;
    }
    // Strip the per-cell CSV header; retirement re-headers once.
    const std::string csv = result->getString("csv");
    const std::size_t nl = csv.find('\n');
    if (nl != std::string::npos)
        out.rows = csv.substr(nl + 1);
    return CellAttempt::Retired;
}

void
workerMain(Shared &shared, const std::string &endpoint)
{
    NdjsonClient client;
    // The daemon may still be binding its socket (the CI smoke
    // test launches daemons and the sweep together): retry the
    // initial connect for a few seconds before declaring the
    // endpoint dead.
    bool up = false;
    for (int attempt = 0; attempt < 100 && !up; ++attempt) {
        up = client.connect(endpoint,
                            shared.options->transportTimeoutMs);
        if (up)
            break;
        {
            // Survivors may drain the whole queue while this
            // endpoint stays down; that is a finished sweep, not
            // a lost worker — stop retrying.
            std::lock_guard<std::mutex> lock(shared.mu);
            if (shared.queue.empty() && shared.inFlight == 0)
                return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    while (up) {
        WorkItem item;
        {
            std::unique_lock<std::mutex> lock(shared.mu);
            // An empty queue is not "done" while peers hold cells
            // in flight — a dying peer hands its cell back here.
            shared.cv.wait(lock, [&shared] {
                return !shared.queue.empty() ||
                       shared.inFlight == 0 ||
                       shared.attemptsExhausted;
            });
            if (shared.queue.empty() || shared.attemptsExhausted)
                return;
            item = shared.queue.front();
            shared.queue.pop_front();
            shared.inFlight += 1;
        }
        // A cell that already bounced (transport loss on a peer,
        // or an earlier shed) waits out its backoff slot before it
        // burns another attempt; the jitter stream is the cell
        // index, so concurrent retriers spread out but any given
        // (seed, cell, attempt) replays exactly.
        if (item.attempts > 0)
            shared.backoff->sleepFor(item.attempts, item.cell);

        CellOutcome out;
        const CellAttempt got = runCell(
            client, (*shared.cells)[item.cell], shared.datasets,
            out);
        if (got == CellAttempt::Retired) {
            std::lock_guard<std::mutex> lock(shared.mu);
            shared.outcomes[item.cell] = std::move(out);
            shared.inFlight -= 1;
            shared.cv.notify_all();
            continue;
        }
        if (got == CellAttempt::Overloaded) {
            // The daemon shed us but is alive: this worker keeps
            // its connection and the cell goes back on the queue
            // with one more attempt on the meter.
            std::lock_guard<std::mutex> lock(shared.mu);
            shared.inFlight -= 1;
            item.attempts += 1;
            shared.overloadRetries += 1;
            metrics::registry()
                .counter("wivliw_coordinator_overload_"
                         "retries_total")
                .add();
            if (item.attempts >=
                std::max(1, shared.options->backoff.maxAttempts)) {
                shared.attemptsExhausted = true;
            } else {
                shared.queue.push_back(item);
            }
            shared.cv.notify_all();
            continue;
        }
        // Transport loss: give the cell back and retire this
        // worker (a daemon that hung up mid-protocol is not worth
        // reconnecting to — survivors absorb its share).
        up = false;
        std::lock_guard<std::mutex> lock(shared.mu);
        shared.inFlight -= 1;
        item.attempts += 1;
        shared.retries += 1;
        metrics::registry()
            .counter("wivliw_coordinator_transport_retries_total")
            .add();
        if (item.attempts >=
            std::max(1, shared.options->backoff.maxAttempts)) {
            shared.attemptsExhausted = true;
        } else {
            shared.queue.push_front(item);
        }
        shared.cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.workersLost += 1;
    metrics::registry()
        .counter("wivliw_coordinator_workers_lost_total")
        .add();
    shared.cv.notify_all();
}

} // namespace

api::Result<RemoteSweepReport>
SweepCoordinator::run(const RemoteSweep &sweep)
{
    if (endpoints_.empty()) {
        return api::Status::invalidArgument(
            "remote sweep needs at least one endpoint");
    }
    if (sweep.workloads.empty() || sweep.archs.empty() ||
        sweep.schedulers.empty() || sweep.unrolls.empty() ||
        sweep.alignment.empty() || sweep.chains.empty() ||
        sweep.versioning.empty() || sweep.datasets < 1) {
        return api::Status::invalidArgument(
            "remote sweep grid is empty");
    }

    const std::vector<Cell> cells = expandCells(sweep);
    const Backoff backoff(options_.backoff);
    Shared shared;
    shared.cells = &cells;
    shared.datasets = sweep.datasets;
    shared.options = &options_;
    shared.backoff = &backoff;
    shared.outcomes.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        shared.queue.push_back(WorkItem{i, 0});

    std::vector<std::thread> workers;
    workers.reserve(endpoints_.size());
    for (const std::string &ep : endpoints_)
        workers.emplace_back(
            [&shared, ep] { workerMain(shared, ep); });
    for (std::thread &t : workers)
        t.join();

    std::size_t unretired = 0;
    for (const CellOutcome &out : shared.outcomes)
        if (!out.retired)
            unretired += 1;
    if (shared.attemptsExhausted) {
        return api::Status::error(
            api::StatusCode::Internal,
            "remote sweep gave up: a cell exhausted its " +
                std::to_string(
                    std::max(1, options_.backoff.maxAttempts)) +
                " attempts (transport losses and overload sheds)");
    }
    if (unretired > 0) {
        return api::Status::error(
            api::StatusCode::Internal,
            "remote sweep lost every worker with " +
                std::to_string(unretired) + " of " +
                std::to_string(cells.size()) +
                " cells unfinished");
    }

    RemoteSweepReport report;
    report.cells = cells.size();
    report.retries = shared.retries;
    report.overloadRetries = shared.overloadRetries;
    report.workersLost = shared.workersLost;
    bool anyRows = false;
    for (const CellOutcome &out : shared.outcomes)
        if (!out.rows.empty())
            anyRows = true;
    // Reproduce engine::writeCsv's header exactly: the dataset
    // column appears only when some completed cell batched more
    // than one data set — i.e. datasets > 1 and at least one cell
    // produced rows (an all-failed sweep keeps the narrow header,
    // just like a single-node run whose every cell failed).
    std::ostringstream os;
    os << "benchmark,arch,heuristic,unroll,align,chains,versioning";
    if (sweep.datasets > 1 && anyRows)
        os << ",dataset";
    os << ",cycles,compute,stall,local_hit_ratio,ab_hits,"
          "mem_accesses,workload_balance,copies\n";
    for (std::size_t i = 0; i < shared.outcomes.size(); ++i) {
        const CellOutcome &out = shared.outcomes[i];
        if (!out.error.empty()) {
            report.failedCells += 1;
            report.cellErrors.push_back(
                cells[i].workload + "/" + cells[i].arch + ": " +
                out.error);
            continue;
        }
        report.completedCells += 1;
        os << out.rows;
    }
    report.csv = os.str();
    return report;
}

} // namespace vliw::dist

/**
 * @file
 * Multi-daemon sweep coordination: shard the cells of one
 * experiment grid across N wivliw_serve endpoints (unix-socket
 * transport, see `wivliw_serve --listen`) and merge the per-cell
 * results into a report **byte-identical** to the single-node
 * sweep.
 *
 * How identity is preserved: the coordinator expands the same
 * cross-product in the same row-major axis order as
 * api::Session's sweep expansion, submits every cell as its own
 * single-cell sweep, and retires the returned CSV rows in cell
 * (emit) order under one locally-built header. Each cell's rows
 * are deterministic functions of the cell alone, so sharding and
 * scheduling cannot perturb them; only the interleaving is the
 * coordinator's to get right, and retirement order fixes that.
 *
 * Fault model: a worker that cannot be reached, dies mid-cell or
 * hangs up simply loses its claim — the cell goes back on the
 * shared queue and a surviving worker picks it up after a capped,
 * deterministically-jittered exponential backoff (BackoffPolicy;
 * this replaced the original fixed 3-attempt loop). A daemon that
 * sheds the submission with a structured `overloaded` error keeps
 * its worker, which backs off and retries the same cell in place.
 * Per-attempt transport timeouts (NdjsonClient) bound how long a
 * wedged daemon can hold a claim. A cell the daemon *completes
 * with a failure status* (compile error, bad name) is
 * deterministic and is not retried: it contributes zero rows,
 * exactly as in a single-node sweep. The coordinator only fails
 * overall when cells remain and no workers survive, or a cell
 * exhausts its attempt budget.
 */

#ifndef WIVLIW_DIST_COORDINATOR_HH
#define WIVLIW_DIST_COORDINATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.hh"
#include "dist/backoff.hh"

namespace vliw::dist {

/**
 * Axes of the sweep to distribute; mirrors api::SweepRequest.
 * Names must already be validated — the coordinator trusts them
 * and a daemon-side resolution failure counts as a failed cell.
 */
struct RemoteSweep
{
    std::vector<std::string> workloads;
    std::vector<std::string> archs;
    std::vector<std::string> schedulers{"ipbc"};
    std::vector<std::string> unrolls{"selective"};
    std::vector<bool> alignment{true};
    std::vector<bool> chains{true};
    std::vector<bool> versioning{false};
    int datasets = 1;
};

/** Outcome of a distributed sweep. */
struct RemoteSweepReport
{
    /** Merged CSV, byte-identical to the single-node sweep. */
    std::string csv;
    /** Cells in the grid / that produced rows / that the daemons
     *  completed with a failure status. */
    std::size_t cells = 0;
    std::size_t completedCells = 0;
    std::size_t failedCells = 0;
    /** Human-readable messages of the failed cells, cell order. */
    std::vector<std::string> cellErrors;
    /** Transport-level requeues (dead/hung-up workers). */
    std::size_t retries = 0;
    /** Submissions a daemon shed with `overloaded` and the
     *  coordinator retried after backoff. */
    std::size_t overloadRetries = 0;
    /** Endpoints that were lost along the way. */
    std::size_t workersLost = 0;
};

/** Fabric knobs for one coordinated sweep. */
struct CoordinatorOptions
{
    /** Retry schedule shared by transport-loss requeues and
     *  overload-shed retries; maxAttempts bounds both. */
    BackoffPolicy backoff;
    /**
     * Per-attempt transport timeout handed to NdjsonClient (ms);
     * bounds a single blocked read/write, not a whole cell. 0
     * disables. Generous by default: gaps between daemon events
     * can legitimately span a full compile.
     */
    int transportTimeoutMs = 30000;
};

class SweepCoordinator
{
  public:
    /**
     * @param endpoints unix-socket paths of the wivliw_serve
     *        workers; at least one.
     */
    explicit SweepCoordinator(std::vector<std::string> endpoints,
                              CoordinatorOptions options = {})
        : endpoints_(std::move(endpoints)),
          options_(std::move(options))
    {
    }

    /** Convenience: default fabric knobs with a custom per-cell
     *  attempt budget (tests mostly want just this). */
    SweepCoordinator(std::vector<std::string> endpoints,
                     int maxAttempts)
        : endpoints_(std::move(endpoints))
    {
        options_.backoff.maxAttempts = maxAttempts;
    }

    /**
     * Run @p sweep across the endpoints. Blocks until every cell
     * retired or the sweep failed. Errors: InvalidArgument for an
     * empty grid or endpoint list, Internal ("all workers lost" /
     * "cell exhausted its attempts") for fabric failures.
     */
    api::Result<RemoteSweepReport> run(const RemoteSweep &sweep);

  private:
    std::vector<std::string> endpoints_;
    CoordinatorOptions options_;
};

} // namespace vliw::dist

#endif // WIVLIW_DIST_COORDINATOR_HH

#include "opt/solver.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <limits>
#include <optional>
#include <vector>

#include "ddg/chains.hh"
#include "sched/mrt.hh"
#include "sched/reg_pressure.hh"
#include "sched/time_frames.hh"
#include "support/errors.hh"
#include "support/metrics.hh"

namespace vliw::opt {

namespace {

/** No-longest-path sentinel, far from any real distance. */
constexpr int kNeg = std::numeric_limits<int>::min() / 4;
/** Extra pipeline stages beyond max(critical path, seed span). */
constexpr int kSlackStages = 4;
/** Budget ticks between cancel / wall-clock probes. */
constexpr std::uint64_t kProbeMask = 1023;
/** MinDist rows are padded to whole blocks of this many lanes. */
constexpr std::size_t kLanes = 8;

struct SolverMetrics
{
    metrics::Counter &nodes;
    metrics::Counter &prunes;
    metrics::Counter &proofs;
    metrics::Counter &feasible;
    metrics::Counter &exhausted;
    metrics::Counter &timeouts;
    metrics::Counter &refutedIis;
};

SolverMetrics &
solverMetrics()
{
    static SolverMetrics m{
        metrics::registry().counter("wivliw_solver_nodes_total"),
        metrics::registry().counter("wivliw_solver_prunes_total"),
        metrics::registry().counter("wivliw_solver_proofs_total"),
        metrics::registry().counter("wivliw_solver_feasible_total"),
        metrics::registry().counter(
            "wivliw_solver_budget_exhausted_total"),
        metrics::registry().counter("wivliw_solver_timeouts_total"),
        metrics::registry().counter(
            "wivliw_solver_iis_refuted_total"),
    };
    return m;
}

/** A cross-cluster transfer the current placement requires. */
struct PendingCopy
{
    NodeId producer;
    int toCluster;
    /** Earliest bus start: producer cycle + producer latency. */
    int valueAt;
    /** Latest ready cycle any requiring consumer tolerates. */
    int need;
};

/**
 * A register-flow arc to a neighbour already placed when dfs()
 * enters a depth, resolved for every (cycle, cluster) tried there.
 */
struct PlacedArc
{
    NodeId other;
    int cluster;
    /** In-arc: producer cycle + latency. Out-arc: consumer cycle +
     *  II * distance, the cycle the value is needed by. */
    int cycle;
    /** In-arc: II * distance. Out-arc: unused. */
    int shift;
};

/**
 * One complete search, reusable across II levels. All scratch is
 * owned here: cancellation unwinds through plain locals and leaves
 * nothing behind for the next compile to trip over.
 */
class ExactSearch
{
  public:
    ExactSearch(const Ddg &ddg, const LatencyMap &lat,
                const MachineConfig &cfg,
                const SchedulerOptions &opts,
                const SolverBudget &budget)
        : ddg_(ddg), lat_(lat), cfg_(cfg), opts_(opts),
          budget_(budget), n_(ddg.numNodes()),
          numClusters_(cfg.numClusters),
          busLat_(cfg.regBusLatency)
    {
        ew_.build(ddg, lat);
        graph_.build(ddg, ew_);
        chainIdOf_.assign(std::size_t(n_), -1);
        if (opts.useChains) {
            chains_.emplace(ddg);
            for (NodeId v = 0; v < n_; ++v)
                if (ddg.isMemNode(v))
                    chainIdOf_[std::size_t(v)] =
                        chains_->chainOf(v);
        }
        fuKind_.resize(std::size_t(n_));
        for (NodeId v = 0; v < n_; ++v)
            fuKind_[std::size_t(v)] = fuForOp(ddg.node(v).kind);
        regFlow_.build(ddg);
        stride_ = (std::size_t(n_) + kLanes - 1) / kLanes * kLanes;
        dist_.assign(std::size_t(n_) * stride_, kNeg);
        fwdAt_.assign(std::size_t(n_) * stride_, kNeg);
        backAt_.assign(std::size_t(n_) * stride_, kNeg);
        cycleAt_.assign(stride_, 0);
        cycle_.assign(std::size_t(n_), 0);
        cluster_.assign(std::size_t(n_), -1);
        copyStart_.assign(std::size_t(n_) * std::size_t(numClusters_),
                          INT_MIN);
        chainCluster_.assign(
            chains_ ? std::size_t(chains_->numChains()) : 0, -1);
        pending_.resize(std::size_t(n_));
        placedIn_.resize(std::size_t(n_));
        placedOut_.resize(std::size_t(n_));
        order_.resize(std::size_t(n_));
        if (budget_.maxMillis > 0)
            deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(budget_.maxMillis);
    }

    enum class LevelResult { Solved, Infeasible, Exhausted };

    /**
     * Complete search for any legal schedule at @p ii, spending
     * global search nodes up to @p nodeCap. Solved leaves the
     * certificate in found().
     */
    LevelResult
    searchII(int ii, std::uint64_t nodeCap, int seedSpan)
    {
        ii_ = ii;
        nodeCap_ = nodeCap;
        exhausted_ = false;
        if (!buildMinDist())
            return LevelResult::Infeasible;

        computeTimeFrames(graph_, ii_, frames_, framesScratch_);
        horizon_ =
            std::max(frames_.length + 1, seedSpan) +
            kSlackStages * ii_;

        for (NodeId v = 0; v < n_; ++v)
            order_[std::size_t(v)] = v;
        std::sort(order_.begin(), order_.end(),
                  [&](NodeId a, NodeId b) {
                      const int ma = frames_.mobility(a);
                      const int mb = frames_.mobility(b);
                      if (ma != mb)
                          return ma < mb;
                      if (frames_.asap[std::size_t(a)] !=
                          frames_.asap[std::size_t(b)])
                          return frames_.asap[std::size_t(a)] <
                              frames_.asap[std::size_t(b)];
                      return a < b;
                  });
        layoutDepthRows();

        mrt_.reset(cfg_, ii_);
        std::fill(cluster_.begin(), cluster_.end(), -1);
        std::fill(copyStart_.begin(), copyStart_.end(), INT_MIN);
        std::fill(chainCluster_.begin(), chainCluster_.end(), -1);
        openClusters_ = 0;
        minCycle_ = INT_MAX;
        maxCycle_ = INT_MIN;

        if (dfs(0))
            return LevelResult::Solved;
        return exhausted_ ? LevelResult::Exhausted
                          : LevelResult::Infeasible;
    }

    const Schedule &found() const { return found_; }
    std::uint64_t nodes() const { return nodes_; }
    std::uint64_t prunes() const { return prunes_; }
    bool timedOut() const { return timedOut_; }

  private:
    /**
     * All-pairs longest paths with weights latency - II * distance
     * (no bus latency: a sound relaxation for window pruning).
     * False when some node reaches itself with positive length —
     * the recurrence proof that @p ii_ is infeasible.
     */
    bool
    buildMinDist()
    {
        const std::size_t n = std::size_t(n_);
        const std::size_t stride = stride_;
        std::fill(dist_.begin(), dist_.end(), kNeg);
        for (std::size_t v = 0; v < n; ++v)
            dist_[v * stride + v] = 0;
        for (NodeId v = 0; v < n_; ++v) {
            const auto first = graph_.outOff[std::size_t(v)];
            const auto last = graph_.outOff[std::size_t(v) + 1];
            for (auto i = first; i < last; ++i) {
                const SchedGraph::Arc &a = graph_.out[std::size_t(i)];
                const int w = a.latency - ii_ * a.distance;
                int &slot = dist_[std::size_t(v) * stride +
                                  std::size_t(a.other)];
                slot = std::max(slot, w);
            }
        }
        // Floyd-Warshall. The padding lanes hold kNeg and stay kNeg,
        // so every row is a whole number of fixed-width blocks and
        // the select below vectorizes at the default optimization
        // level.
        for (std::size_t k = 0; k < n; ++k) {
            const int *rowK = &dist_[k * stride];
            for (std::size_t i = 0; i < n; ++i) {
                const int ik = dist_[i * stride + k];
                if (ik <= kNeg)
                    continue;
                int *rowI = &dist_[i * stride];
                if (i == k) {
                    // rowI aliases rowK: stay scalar.
                    for (std::size_t j = 0; j < n; ++j) {
                        if (rowK[j] <= kNeg)
                            continue;
                        rowI[j] = std::max(rowI[j], ik + rowK[j]);
                    }
                    continue;
                }
                for (std::size_t j = 0; j < stride; j += kLanes)
                    relaxBlock(rowI + j, rowK + j, ik);
            }
        }
        for (std::size_t v = 0; v < n; ++v)
            if (dist_[v * stride + v] > 0)
                return false;
        return true;
    }

    /** rowI[l] = max(rowI[l], ik + rowK[l]) where rowK[l] is a path. */
    static void
    relaxBlock(int *rowI, const int *rowK, int ik)
    {
        int next[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
            const int kj = rowK[l];
            const int cand = kj > kNeg ? ik + kj : kNeg;
            next[l] = std::max(rowI[l], cand);
        }
        for (std::size_t l = 0; l < kLanes; ++l)
            rowI[l] = next[l];
    }

    /**
     * Copy the MinDist entries each depth of order_ reads into
     * contiguous rows: fwdAt_[d * stride_ + j] is the distance from
     * the node at depth j to the node at depth d, backAt_ the
     * reverse, for every j < d. Entries j >= d stay kNeg.
     */
    void
    layoutDepthRows()
    {
        const std::size_t n = std::size_t(n_);
        for (std::size_t d = 0; d < n; ++d) {
            const std::size_t v = std::size_t(order_[d]);
            int *fwd = &fwdAt_[d * stride_];
            int *back = &backAt_[d * stride_];
            for (std::size_t j = 0; j < d; ++j) {
                const std::size_t u = std::size_t(order_[j]);
                fwd[j] = dist_[u * stride_ + v];
                back[j] = dist_[v * stride_ + u];
            }
        }
    }

    /** Count one search node; false when the budget is spent. */
    bool
    tick()
    {
        ++nodes_;
        if (nodes_ > nodeCap_) {
            exhausted_ = true;
            return false;
        }
        if ((nodes_ & kProbeMask) == 0) {
            if (opts_.cancel &&
                opts_.cancel->load(std::memory_order_relaxed))
                throw CancelledError(
                    "exact scheduling cancelled mid-search");
            if (deadline_ &&
                std::chrono::steady_clock::now() > *deadline_) {
                timedOut_ = true;
                exhausted_ = true;
                return false;
            }
        }
        return true;
    }

    /** Place order_[idx] and everything after it. */
    bool
    dfs(int idx)
    {
        if (idx == n_)
            return acceptLeaf();

        const NodeId v = order_[std::size_t(idx)];

        // Dependence window against every placed node, via MinDist.
        // Entries at and past this depth hold kNeg, so whole blocks
        // of lanes can be folded without a tail.
        int lbs[kLanes];
        int ubs[kLanes];
        std::fill(lbs, lbs + kLanes, kNeg);
        std::fill(ubs, ubs + kLanes, -kNeg);
        const int *fwd = &fwdAt_[std::size_t(idx) * stride_];
        const int *back = &backAt_[std::size_t(idx) * stride_];
        const int *cycles = cycleAt_.data();
        for (std::size_t j = 0; j < std::size_t(idx); j += kLanes) {
            for (std::size_t l = 0; l < kLanes; ++l) {
                const int c = cycles[j + l];
                const int f = fwd[j + l];
                const int b = back[j + l];
                lbs[l] = std::max(lbs[l], f > kNeg ? c + f : kNeg);
                ubs[l] = std::min(ubs[l], b > kNeg ? c - b : -kNeg);
            }
        }
        int lb = *std::max_element(lbs, lbs + kLanes);
        int ub = *std::min_element(ubs, ubs + kLanes);
        // The stage horizon tethers components the MinDist matrix
        // does not connect, and bounds the schedule span overall.
        if (idx == 0) {
            lb = ub = 0; // shift-invariance: pin the first node
        } else {
            lb = std::max(lb, maxCycle_ - (horizon_ - 1));
            ub = std::min(ub, minCycle_ + (horizon_ - 1));
        }
        if (lb > ub) {
            ++prunes_;
            return false;
        }

        const int chain = chainIdOf_[std::size_t(v)];
        const int pinned =
            chain >= 0 ? chainCluster_[std::size_t(chain)] : -1;
        gatherPlacedArcs(idx, v);

        int row = mrt_.row(lb);
        for (int t = lb; t <= ub; ++t) {
            // Identical clusters are interchangeable: opening a new
            // one is only tried once per depth (symmetry breaking).
            const int firstCluster = pinned >= 0 ? pinned : 0;
            const int lastCluster = pinned >= 0
                ? pinned
                : std::min(numClusters_ - 1, openClusters_);
            for (int c = firstCluster; c <= lastCluster; ++c) {
                if (!tick())
                    return false;
                if (tryPlace(idx, v, t, row, c, chain))
                    return true;
                if (exhausted_)
                    return false;
            }
            if (++row == ii_)
                row = 0;
        }
        return false;
    }

    /**
     * The register-flow arcs of @p v whose other end is placed, in
     * arc order (in-arcs, then out-arcs). Unplaced neighbours have
     * cluster -1 and never need a copy yet, and no neighbour moves
     * while dfs() tries the placements of depth @p idx.
     */
    void
    gatherPlacedArcs(int idx, NodeId v)
    {
        auto &in = placedIn_[std::size_t(idx)];
        auto &out = placedOut_[std::size_t(idx)];
        in.clear();
        out.clear();
        for (int i = regFlow_.inOff[std::size_t(v)];
             i < regFlow_.inOff[std::size_t(v) + 1]; ++i) {
            const RegFlowCsr::Arc &a = regFlow_.in[std::size_t(i)];
            const int uc = cluster_[std::size_t(a.other)];
            if (uc >= 0)
                in.push_back(PlacedArc{
                    a.other, uc,
                    cycle_[std::size_t(a.other)] + lat_(a.other),
                    ii_ * a.distance});
        }
        for (int i = regFlow_.outOff[std::size_t(v)];
             i < regFlow_.outOff[std::size_t(v) + 1]; ++i) {
            const RegFlowCsr::Arc &a = regFlow_.out[std::size_t(i)];
            const int sc = cluster_[std::size_t(a.other)];
            if (sc >= 0)
                out.push_back(PlacedArc{
                    a.other, sc,
                    cycle_[std::size_t(a.other)] + ii_ * a.distance,
                    0});
        }
    }

    /**
     * Attempt (cycle @p t, cluster @p c) for @p v, where @p row is
     * t's modulo row: FU slot, copy requirements against placed
     * neighbours, then the rest of the tree. Undone completely on
     * failure.
     */
    bool
    tryPlace(int idx, NodeId v, int t, int row, int c, int chain)
    {
        const FuKind kind = fuKind_[std::size_t(v)];
        if (!mrt_.fuFreeAtRow(c, kind, row)) {
            ++prunes_;
            return false;
        }

        // Gather the transfers this placement requires; reject when
        // an already-committed copy arrives too late.
        auto &pend = pending_[std::size_t(idx)];
        pend.clear();
        for (const PlacedArc &a : placedIn_[std::size_t(idx)]) {
            if (a.cluster == c)
                continue;
            const int need = t + a.shift;
            const int committed =
                copyStart_[std::size_t(a.other) *
                               std::size_t(numClusters_) +
                           std::size_t(c)];
            if (committed != INT_MIN) {
                if (committed + busLat_ > need) {
                    ++prunes_;
                    return false;
                }
                continue;
            }
            mergePending(pend, a.other, c, a.cycle, need);
        }
        const int valueAt = t + lat_(v);
        for (const PlacedArc &a : placedOut_[std::size_t(idx)]) {
            if (a.cluster != c)
                mergePending(pend, v, a.cluster, valueAt, a.cycle);
        }
        for (const PendingCopy &pc : pend) {
            if (pc.valueAt + busLat_ > pc.need) {
                ++prunes_;
                return false;
            }
        }

        mrt_.reserveFuAtRow(c, kind, row);
        cycle_[std::size_t(v)] = t;
        cycleAt_[std::size_t(idx)] = t;
        cluster_[std::size_t(v)] = c;
        const bool boundChain =
            chain >= 0 && chainCluster_[std::size_t(chain)] < 0;
        if (boundChain)
            chainCluster_[std::size_t(chain)] = c;
        const bool openedCluster = c == openClusters_;
        if (openedCluster)
            ++openClusters_;
        const int savedMin = minCycle_;
        const int savedMax = maxCycle_;
        minCycle_ = std::min(minCycle_, t);
        maxCycle_ = std::max(maxCycle_, t);

        if (scheduleCopies(idx, 0))
            return true;

        minCycle_ = savedMin;
        maxCycle_ = savedMax;
        if (openedCluster)
            --openClusters_;
        if (boundChain)
            chainCluster_[std::size_t(chain)] = -1;
        cluster_[std::size_t(v)] = -1;
        mrt_.releaseFuAtRow(c, kind, row);
        return false;
    }

    static void
    mergePending(std::vector<PendingCopy> &pend, NodeId producer,
                 int toCluster, int valueAt, int need)
    {
        for (PendingCopy &pc : pend) {
            if (pc.producer == producer &&
                pc.toCluster == toCluster) {
                pc.need = std::min(pc.need, need);
                return;
            }
        }
        pend.push_back(PendingCopy{producer, toCluster, valueAt,
                                   need});
    }

    /**
     * Branch the bus start of pending copy @p k of depth @p idx over
     * every free slot in one II worth of starts (later starts repeat
     * the same modulo rows with a strictly worse ready cycle), then
     * descend to the next DDG node.
     */
    bool
    scheduleCopies(int idx, std::size_t k)
    {
        auto &pend = pending_[std::size_t(idx)];
        if (k == pend.size())
            return dfs(idx + 1);

        const PendingCopy &pc = pend[k];
        const int last =
            std::min(pc.need - busLat_, pc.valueAt + ii_ - 1);
        const std::size_t slot =
            std::size_t(pc.producer) * std::size_t(numClusters_) +
            std::size_t(pc.toCluster);
        int s = mrt_.firstFreeBusStart(pc.valueAt, last);
        if (s == INT_MIN)
            ++prunes_;
        while (s != INT_MIN) {
            if (!tick())
                return false;
            mrt_.reserveBus(s);
            copyStart_[slot] = s;
            if (scheduleCopies(idx, k + 1))
                return true;
            copyStart_[slot] = INT_MIN;
            mrt_.releaseBus(s);
            if (exhausted_ || s >= last)
                return false;
            s = mrt_.firstFreeBusStart(s + 1, last);
        }
        return false;
    }

    /**
     * Materialise the complete assignment, normalise it exactly like
     * the heuristic scheduler, and hold it to the same oracle —
     * validateSchedule() plus register pressure.
     */
    bool
    acceptLeaf()
    {
        Schedule sched;
        sched.ii = ii_;
        sched.ops.resize(std::size_t(n_));
        int minCycle = INT_MAX;
        int maxCycle = INT_MIN;
        for (NodeId v = 0; v < n_; ++v) {
            sched.ops[std::size_t(v)].cycle =
                cycle_[std::size_t(v)];
            sched.ops[std::size_t(v)].cluster =
                cluster_[std::size_t(v)];
            minCycle = std::min(minCycle, cycle_[std::size_t(v)]);
            maxCycle = std::max(maxCycle, cycle_[std::size_t(v)]);
        }
        for (NodeId p = 0; p < n_; ++p)
            for (int d = 0; d < numClusters_; ++d) {
                const int start =
                    copyStart_[std::size_t(p) *
                                   std::size_t(numClusters_) +
                               std::size_t(d)];
                if (start == INT_MIN)
                    continue;
                sched.copies.push_back(
                    CopyOp{p, cluster_[std::size_t(p)], d, start,
                           start + busLat_});
                minCycle = std::min(minCycle, start);
            }
        if (minCycle != 0) {
            for (PlacedOp &op : sched.ops)
                op.cycle -= minCycle;
            for (CopyOp &cp : sched.copies) {
                cp.busStart -= minCycle;
                cp.readyCycle -= minCycle;
            }
            maxCycle -= minCycle;
        }
        sched.length = maxCycle + 1;
        sched.stageCount = maxCycle / ii_ + 1;

        const MemChains *chains =
            chains_ ? &*chains_ : nullptr;
        if (validateSchedule(ddg_, lat_, cfg_, sched, chains)) {
            ++prunes_; // defensive: the search should never get here
            return false;
        }
        if (opts_.checkRegPressure &&
            !registerPressureOk(ddg_, lat_, cfg_, sched,
                                regScratch_)) {
            ++prunes_;
            return false;
        }
        found_ = std::move(sched);
        return true;
    }

    const Ddg &ddg_;
    const LatencyMap &lat_;
    const MachineConfig &cfg_;
    const SchedulerOptions &opts_;
    const SolverBudget &budget_;
    const int n_;
    const int numClusters_;
    const int busLat_;

    EdgeWeights ew_;
    SchedGraph graph_;
    std::optional<MemChains> chains_;
    std::vector<int> chainIdOf_;
    std::vector<FuKind> fuKind_;
    RegFlowCsr regFlow_;

    int ii_ = 0;
    int horizon_ = 0;
    /** MinDist rows, each padded to stride_ (a multiple of kLanes). */
    std::size_t stride_ = 0;
    std::vector<int> dist_;
    /** Per-depth copies of the MinDist entries dfs() reads. */
    std::vector<int> fwdAt_;
    std::vector<int> backAt_;
    /** Cycle of the node placed at each depth. */
    std::vector<int> cycleAt_;
    TimeFrames frames_;
    TimeFramesScratch framesScratch_;
    std::vector<NodeId> order_;
    Mrt mrt_;
    std::vector<int> cycle_;
    /** Cluster per node; -1 while the node is unplaced. */
    std::vector<int> cluster_;
    std::vector<int> copyStart_;
    std::vector<int> chainCluster_;
    std::vector<std::vector<PendingCopy>> pending_;
    /** Per depth: the arcs gatherPlacedArcs() found placed. */
    std::vector<std::vector<PlacedArc>> placedIn_;
    std::vector<std::vector<PlacedArc>> placedOut_;
    int openClusters_ = 0;
    int minCycle_ = 0;
    int maxCycle_ = 0;

    std::uint64_t nodes_ = 0;
    std::uint64_t prunes_ = 0;
    std::uint64_t nodeCap_ = 0;
    bool exhausted_ = false;
    bool timedOut_ = false;
    std::optional<std::chrono::steady_clock::time_point> deadline_;
    RegPressureScratch regScratch_;
    Schedule found_;
};

} // namespace

const char *
solveStatusName(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Proven:          return "proven";
      case SolveStatus::Feasible:        return "feasible";
      case SolveStatus::BudgetExhausted: return "budget-exhausted";
    }
    return "budget-exhausted";
}

SolveOutcome
solveLoop(const Ddg &ddg, const LatencyMap &lat,
          const MachineConfig &cfg, const SchedulerOptions &opts,
          const SolverBudget &budget, const Schedule &seed, int mii)
{
    SolveOutcome out;
    out.schedule = seed;
    out.lowerBound = mii;

    auto publish = [&] {
        SolverMetrics &m = solverMetrics();
        m.nodes.add(out.stats.nodes);
        m.prunes.add(out.stats.prunes);
        m.refutedIis.add(out.stats.iisRefuted);
        if (out.stats.timedOut)
            m.timeouts.add();
        switch (out.status) {
          case SolveStatus::Proven:          m.proofs.add(); break;
          case SolveStatus::Feasible:        m.feasible.add(); break;
          case SolveStatus::BudgetExhausted: m.exhausted.add(); break;
        }
        return out;
    };

    // A heuristic schedule at MII is already a certificate: MII is a
    // sound lower bound, so nothing below it needs refuting.
    if (seed.ii <= mii) {
        out.status = SolveStatus::Proven;
        out.lowerBound = seed.ii;
        return publish();
    }

    ExactSearch search(ddg, lat, cfg, opts, budget);
    const std::uint64_t maxNodes = std::max<std::uint64_t>(
        budget.maxNodes, 1);
    // Most of the budget proves from MII upward; the remainder is
    // reserved for finding *some* improvement at intermediate IIs
    // when the proof stalls.
    const std::uint64_t proofCap =
        std::max<std::uint64_t>(maxNodes - maxNodes / 8, 1);

    auto finish = [&](SolveStatus status) {
        out.status = status;
        out.stats.nodes = search.nodes();
        out.stats.prunes = search.prunes();
        out.stats.timedOut = search.timedOut();
        return publish();
    };

    int exhaustedAt = -1;
    for (int ii = mii; ii < seed.ii; ++ii) {
        const ExactSearch::LevelResult r =
            search.searchII(ii, proofCap, seed.length);
        if (r == ExactSearch::LevelResult::Solved) {
            out.schedule = search.found();
            out.lowerBound = ii;
            return finish(SolveStatus::Proven);
        }
        if (r == ExactSearch::LevelResult::Infeasible) {
            ++out.stats.iisRefuted;
            out.lowerBound = ii + 1;
            continue;
        }
        exhaustedAt = ii;
        break;
    }
    if (exhaustedAt < 0) {
        // Every II below the seed refuted: the seed is optimal.
        out.lowerBound = seed.ii;
        return finish(SolveStatus::Proven);
    }

    // Improvement pass with the reserved slice: the smallest II the
    // solver can still reach beats the seed even without a proof.
    for (int ii = exhaustedAt + 1;
         ii < seed.ii && !search.timedOut(); ++ii) {
        const ExactSearch::LevelResult r =
            search.searchII(ii, maxNodes, seed.length);
        if (r == ExactSearch::LevelResult::Solved) {
            out.schedule = search.found();
            return finish(SolveStatus::Feasible);
        }
        if (r == ExactSearch::LevelResult::Exhausted)
            break;
    }
    return finish(SolveStatus::BudgetExhausted);
}

} // namespace vliw::opt

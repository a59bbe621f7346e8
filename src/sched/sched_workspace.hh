/**
 * @file
 * Reusable scratch state for the modulo-scheduling kernel.
 *
 * The scheduler retries a loop at growing IIs, and each attempt
 * places every node through a tight probe loop (candidate clusters,
 * cycle windows, copy routing). A SchedWorkspace keeps two kinds of
 * state out of that loop:
 *
 *  - II-invariant analysis, built once per scheduleLoop() call:
 *    the RegFlow-only CSR adjacency, the circuits' recurrence IIs,
 *    and the SMS priority sets. II retries reuse them untouched.
 *
 *  - scratch buffers (candidate lists, profit counts, cycle
 *    windows, staged copies, the MRT, the growing schedule), reset
 *    with assign()/clear() per attempt so their heap storage is
 *    reused across nodes, attempts, II values -- and, when the
 *    workspace itself is reused, across loops. After warm-up the
 *    steady-state placement path performs no heap allocation.
 *
 * A workspace may be reused freely across loops, machines and
 * heuristics; it is not thread-safe, so use one per thread.
 */

#ifndef WIVLIW_SCHED_SCHED_WORKSPACE_HH
#define WIVLIW_SCHED_SCHED_WORKSPACE_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "ddg/circuits.hh"
#include "ddg/ddg.hh"
#include "sched/mrt.hh"
#include "sched/reg_pressure.hh"
#include "sched/schedule.hh"
#include "sched/sms_order.hh"
#include "sched/time_frames.hh"
#include "support/logging.hh"

namespace vliw {

/** A copy staged within one placement probe, not yet committed. */
struct StagedCopy
{
    NodeId producer;
    int fromCluster;
    int toCluster;
    int busStart;
};

/**
 * One placed neighbour's window contribution, gathered once per
 * node so probing every candidate cluster re-reads three ints
 * instead of re-walking edge records and placements.
 */
struct PlacedDep
{
    /** Window bound before any cross-cluster bus latency. */
    int base;
    /** Cluster the neighbour is placed in. */
    int cluster;
    /** RegFlow edges pay the bus latency across clusters. */
    bool regFlow;
};

class SchedWorkspace
{
  public:
    /** No committed copy yet for a (producer, cluster) slot. */
    static constexpr int kNoCopy = std::numeric_limits<int>::max();

    SchedWorkspace() = default;
    SchedWorkspace(const SchedWorkspace &) = delete;
    SchedWorkspace &operator=(const SchedWorkspace &) = delete;

    /**
     * Build the II-invariant analysis for one loop. When
     * @p build_chains is set, the memory dependent chains are
     * derived here too (same numbering as MemChains: chains appear
     * in order of their first member's node id).
     */
    void
    beginLoop(const Ddg &ddg, const std::vector<Circuit> &circuits,
              const LatencyMap &lat, const MachineConfig &cfg,
              bool build_chains)
    {
        ddg_ = &ddg;
        cfg_ = &cfg;
        if (build_chains)
            buildChains(ddg);
        else
            numChains_ = 0;
        edgeWeights_.build(ddg, lat);
        buildIndexes(ddg);
        circuitIis_.resize(circuits.size());
        for (std::size_t i = 0; i < circuits.size(); ++i)
            circuitIis_[i] = circuits[i].recurrenceIi(lat);
        buildOrderSets(ddg, circuits, circuitIis_, orderSets_,
                       orderScratch_);
        copyReady.assign(std::size_t(ddg.numNodes()) *
                         std::size_t(cfg.numClusters), kNoCopy);
        copyTouched_.clear();
    }

    /** Clear all per-attempt state for a fresh try at @p ii. */
    void
    beginAttempt(int ii)
    {
        mrt.reset(*cfg_, ii);
        ops.assign(std::size_t(ddg_->numNodes()), PlacedOp{});
        copies.clear();
        // Only the slots the previous attempt committed need a
        // reset; the full array was initialised in beginLoop().
        for (std::size_t key : copyTouched_)
            copyReady[key] = kNoCopy;
        copyTouched_.clear();
        chainCluster.assign(std::size_t(numChains_), -1);
        chainPlaced.assign(std::size_t(numChains_), 0);
    }

    /** Record a committed copy's earliest ready cycle. */
    void
    noteCopy(std::size_t key, int ready)
    {
        int &slot = copyReady[key];
        if (slot == kNoCopy)
            copyTouched_.push_back(key);
        slot = std::min(slot, ready);
    }

    const RegFlowCsr &regFlow() const { return regFlow_; }
    const EdgeWeights &edgeWeights() const { return edgeWeights_; }
    const SchedGraph &schedGraph() const { return schedGraph_; }

    FuKind
    fuKindOf(NodeId v) const
    {
        return FuKind(fuKind_[std::size_t(v)]);
    }

    bool isMem(NodeId v) const { return isMem_[std::size_t(v)] != 0; }

    /** Chain index of a memory node; -1 for non-memory nodes. */
    int chainOf(NodeId v) const { return chainOf_[std::size_t(v)]; }

    int numChains() const { return numChains_; }

    /**
     * IPBC chain targets over the workspace chains: the mirror of
     * ipbcChainTargets() (scheduler.hh) without its per-call
     * allocations. Result lives in chainTargets until the next
     * call.
     */
    const std::vector<int> &
    ipbcTargets(const ProfileMap &prof, int num_clusters)
    {
        targetCounts_.assign(
            std::size_t(numChains_) * std::size_t(num_clusters), 0);
        for (NodeId v = 0; v < ddg_->numNodes(); ++v) {
            const int ch = chainOf_[std::size_t(v)];
            if (ch < 0)
                continue;
            const MemProfile &p = prof.at(v);
            vliw_assert(p.clusterCounts.empty() ||
                        p.clusterCounts.size() ==
                            std::size_t(num_clusters),
                        "profile cluster histogram width ",
                        p.clusterCounts.size(),
                        " != cluster count ", num_clusters);
            std::uint64_t *counts = targetCounts_.data() +
                std::size_t(ch) * std::size_t(num_clusters);
            for (std::size_t c = 0; c < p.clusterCounts.size(); ++c)
                counts[c] += p.clusterCounts[c];
        }
        chainTargets.assign(std::size_t(numChains_), 0);
        for (int ch = 0; ch < numChains_; ++ch) {
            const std::uint64_t *counts = targetCounts_.data() +
                std::size_t(ch) * std::size_t(num_clusters);
            int best = 0;
            for (int c = 1; c < num_clusters; ++c) {
                if (counts[c] > counts[best])
                    best = c;
            }
            chainTargets[std::size_t(ch)] = best;
        }
        return chainTargets;
    }

    /** IPBC pre-binding (filled by ipbcTargets()). */
    std::vector<int> chainTargets;
    const OrderSets &orderSets() const { return orderSets_; }
    const std::vector<int> &circuitIis() const { return circuitIis_; }

    // ---- per-attempt state (owned here so capacity survives) ----

    Mrt mrt;
    /** Placements under construction, indexed by NodeId. */
    std::vector<PlacedOp> ops;
    /** Committed inter-cluster copies, in commit order. */
    std::vector<CopyOp> copies;
    /**
     * Earliest ready cycle of a committed copy, indexed
     * [producer * numClusters + toCluster]; kNoCopy when none. This
     * is the O(1) replacement for scanning `copies` per RegFlow
     * edge in copy routing.
     */
    std::vector<int> copyReady;
    /** Chain index -> bound cluster (-1 unbound). */
    std::vector<int> chainCluster;
    /** Flat bitmap: chain has a placed member (hard pin). */
    std::vector<std::uint8_t> chainPlaced;

    // ---- probe-local scratch, clear()ed at each use site ----

    std::vector<int> profit;
    std::vector<int> cands;
    std::vector<StagedCopy> staged;
    std::vector<PlacedDep> preds;
    std::vector<PlacedDep> succs;
    /** Ordering scratch (time frames + sweep worklists). */
    SmsScratch sms;
    /** MaxLive scratch for the accept-path pressure check. */
    RegPressureScratch regp;

  private:
    /** Adjacency indexes plus the flattened node attributes. */
    void
    buildIndexes(const Ddg &ddg)
    {
        regFlow_.build(ddg);
        schedGraph_.build(ddg, edgeWeights_);
        fuKind_.resize(std::size_t(ddg.numNodes()));
        isMem_.resize(std::size_t(ddg.numNodes()));
        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            fuKind_[std::size_t(v)] =
                std::uint8_t(fuForOp(ddg.node(v).kind));
            isMem_[std::size_t(v)] = ddg.isMemNode(v) ? 1 : 0;
        }
    }

    /** Union-find over memory dependences (MemChains numbering). */
    void
    buildChains(const Ddg &ddg)
    {
        const int n = ddg.numNodes();
        ufParent_.resize(std::size_t(n));
        for (int v = 0; v < n; ++v)
            ufParent_[std::size_t(v)] = v;
        auto find = [&](int x) {
            while (ufParent_[std::size_t(x)] != x) {
                ufParent_[std::size_t(x)] =
                    ufParent_[std::size_t(ufParent_[std::size_t(x)])];
                x = ufParent_[std::size_t(x)];
            }
            return x;
        };
        for (const DdgEdge &e : ddg.edges()) {
            if (!isMemDep(e.kind))
                continue;
            const int a = find(e.src);
            const int b = find(e.dst);
            if (a != b)
                ufParent_[std::size_t(a)] = b;
        }
        chainOf_.assign(std::size_t(n), -1);
        rootChain_.assign(std::size_t(n), -1);
        numChains_ = 0;
        for (NodeId v = 0; v < n; ++v) {
            if (!ddg.isMemNode(v))
                continue;
            const int root = find(v);
            int &chain = rootChain_[std::size_t(root)];
            if (chain < 0)
                chain = numChains_++;
            chainOf_[std::size_t(v)] = chain;
        }
    }

    RegFlowCsr regFlow_;
    EdgeWeights edgeWeights_;
    SchedGraph schedGraph_;
    OrderSets orderSets_;
    OrderSetsScratch orderScratch_;
    std::vector<int> circuitIis_;
    std::vector<std::uint8_t> fuKind_;
    std::vector<std::uint8_t> isMem_;
    std::vector<int> ufParent_;
    std::vector<int> rootChain_;
    std::vector<int> chainOf_;
    std::vector<std::uint64_t> targetCounts_;
    std::vector<std::size_t> copyTouched_;
    const Ddg *ddg_ = nullptr;
    const MachineConfig *cfg_ = nullptr;
    int numChains_ = 0;
};

} // namespace vliw

#endif // WIVLIW_SCHED_SCHED_WORKSPACE_HH

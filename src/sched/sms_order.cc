#include "sms_order.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vliw {

namespace {

/** Forward (or reverse) reachability from a seed set, all edges. */
void
reachableInto(const Ddg &ddg, const std::vector<NodeId> &seeds,
              bool forward, std::vector<bool> &seen,
              std::vector<NodeId> &work)
{
    seen.assign(std::size_t(ddg.numNodes()), false);
    work.clear();
    for (NodeId s : seeds) {
        if (!seen[std::size_t(s)]) {
            seen[std::size_t(s)] = true;
            work.push_back(s);
        }
    }
    for (std::size_t head = 0; head < work.size(); ++head) {
        const NodeId v = work[head];
        const auto &edges = forward ? ddg.outEdges(v) : ddg.inEdges(v);
        for (int eidx : edges) {
            const DdgEdge &e = ddg.edge(eidx);
            const NodeId next = forward ? e.dst : e.src;
            if (!seen[std::size_t(next)]) {
                seen[std::size_t(next)] = true;
                work.push_back(next);
            }
        }
    }
}

} // namespace

OrderSets
buildOrderSets(const Ddg &ddg, const std::vector<Circuit> &circuits,
               const LatencyMap &lat)
{
    return buildOrderSets(ddg, circuits,
                          recurrenceIis(circuits, lat));
}

OrderSets
buildOrderSets(const Ddg &ddg, const std::vector<Circuit> &circuits,
               const std::vector<int> &circ_ii)
{
    OrderSets out;
    OrderSetsScratch scratch;
    buildOrderSets(ddg, circuits, circ_ii, out, scratch);
    return out;
}

void
buildOrderSets(const Ddg &ddg, const std::vector<Circuit> &circuits,
               const std::vector<int> &circ_ii, OrderSets &out,
               OrderSetsScratch &s)
{
    vliw_assert(circ_ii.size() == circuits.size(),
                "recurrence IIs do not match the circuit list");
    out.setOf.assign(std::size_t(ddg.numNodes()), -1);

    // Sets are reused in place: new_set() recycles a previous run's
    // inner vector when one exists, and the tail is trimmed at the
    // end.
    std::size_t active_sets = 0;
    auto new_set = [&]() {
        if (active_sets < out.sets.size())
            out.sets[active_sets].clear();
        else
            out.sets.emplace_back();
        return int(active_sets++);
    };

    // Recurrences sorted by constraint: descending II, then larger,
    // then first-seen. Insertion sort keeps the std::stable_sort
    // order without its temporary buffer; fall back to the real
    // thing for degenerate circuit counts.
    std::vector<std::size_t> &circ_order = s.circOrder;
    circ_order.resize(circuits.size());
    for (std::size_t i = 0; i < circuits.size(); ++i)
        circ_order[i] = i;
    auto before = [&](std::size_t a, std::size_t b) {
        if (circ_ii[a] != circ_ii[b])
            return circ_ii[a] > circ_ii[b];
        return circuits[a].nodes.size() > circuits[b].nodes.size();
    };
    if (circ_order.size() <= 32) {
        for (std::size_t i = 1; i < circ_order.size(); ++i) {
            const std::size_t c = circ_order[i];
            std::size_t j = i;
            while (j > 0 && before(c, circ_order[j - 1])) {
                circ_order[j] = circ_order[j - 1];
                --j;
            }
            circ_order[j] = c;
        }
    } else {
        std::stable_sort(circ_order.begin(), circ_order.end(),
                         before);
    }

    auto assign = [&](NodeId v, int set) {
        out.setOf[std::size_t(v)] = set;
        out.sets[std::size_t(set)].push_back(v);
    };

    std::vector<NodeId> &assigned_so_far = s.assigned;
    assigned_so_far.clear();
    for (std::size_t ci : circ_order) {
        const Circuit &c = circuits[ci];
        std::vector<NodeId> &fresh = s.fresh;
        fresh.clear();
        for (NodeId v : c.nodes) {
            if (out.setOf[std::size_t(v)] < 0)
                fresh.push_back(v);
        }
        if (fresh.empty())
            continue;

        const int set = new_set();

        // Nodes on paths connecting previous sets with this
        // recurrence join the same set (SMS set construction).
        if (!assigned_so_far.empty()) {
            reachableInto(ddg, assigned_so_far, true, s.fromPrev,
                          s.work);
            reachableInto(ddg, assigned_so_far, false, s.toPrev,
                          s.work);
            reachableInto(ddg, c.nodes, true, s.fromCirc, s.work);
            reachableInto(ddg, c.nodes, false, s.toCirc, s.work);
            for (NodeId v = 0; v < ddg.numNodes(); ++v) {
                if (out.setOf[std::size_t(v)] >= 0)
                    continue;
                const auto i = std::size_t(v);
                const bool bridges =
                    (s.fromPrev[i] && s.toCirc[i]) ||
                    (s.fromCirc[i] && s.toPrev[i]);
                if (bridges && !c.contains(v))
                    assign(v, set);
            }
        }
        for (NodeId v : fresh)
            assign(v, set);
        for (NodeId v : out.sets[std::size_t(set)])
            assigned_so_far.push_back(v);
    }

    // Remaining nodes: weakly connected components, each one set.
    std::vector<bool> &visited = s.visited;
    visited.assign(std::size_t(ddg.numNodes()), false);
    std::vector<NodeId> &work = s.work;
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        if (out.setOf[std::size_t(v)] >= 0 || visited[std::size_t(v)])
            continue;
        const int set = new_set();
        work.assign(1, v);
        visited[std::size_t(v)] = true;
        for (std::size_t head = 0; head < work.size(); ++head) {
            const NodeId u = work[head];
            assign(u, set);
            auto push = [&](NodeId w) {
                if (out.setOf[std::size_t(w)] < 0 &&
                    !visited[std::size_t(w)]) {
                    visited[std::size_t(w)] = true;
                    work.push_back(w);
                }
            };
            for (int eidx : ddg.outEdges(u))
                push(ddg.edge(eidx).dst);
            for (int eidx : ddg.inEdges(u))
                push(ddg.edge(eidx).src);
        }
    }

    out.sets.resize(active_sets);
}

std::vector<NodeId>
smsOrder(const Ddg &ddg, const std::vector<Circuit> &circuits,
         const LatencyMap &lat, int ii)
{
    return smsOrder(ddg, buildOrderSets(ddg, circuits, lat), lat,
                    ii);
}

std::vector<NodeId>
smsOrder(const Ddg &ddg, const OrderSets &sets,
         const LatencyMap &lat, int ii)
{
    EdgeWeights weights;
    weights.build(ddg, lat);
    return smsOrder(ddg, sets, weights, ii);
}

std::vector<NodeId>
smsOrder(const Ddg &ddg, const OrderSets &sets,
         const EdgeWeights &weights, int ii)
{
    SchedGraph graph;
    graph.build(ddg, weights);
    SmsScratch scratch;
    return smsOrder(graph, sets, ii, scratch);
}

const std::vector<NodeId> &
smsOrder(const SchedGraph &graph, const OrderSets &sets, int ii,
         SmsScratch &scratch)
{
    const int num_nodes = graph.numNodes();
    computeTimeFrames(graph, ii, scratch.frames,
                      scratch.framesScratch);
    const TimeFrames &frames = scratch.frames;

    std::vector<NodeId> &order = scratch.order;
    order.clear();
    order.reserve(std::size_t(num_nodes));
    std::vector<bool> &placed = scratch.placed;
    placed.assign(std::size_t(num_nodes), false);
    // Sweep worklists, reused across every set and direction flip
    // (the ordering runs once per II attempt, so churn here was a
    // measurable slice of the II-escalation path).
    std::vector<NodeId> &r_set = scratch.rset;
    std::vector<NodeId> &peers = scratch.peers;

    enum class Dir { BottomUp, TopDown };

    for (std::size_t set_idx = 0; set_idx < sets.sets.size();
         ++set_idx) {
        const std::vector<NodeId> &set = sets.sets[set_idx];
        auto in_set = [&](NodeId v) {
            return sets.setOf[std::size_t(v)] == int(set_idx);
        };

        // Unplaced set members that precede / succeed placed nodes.
        auto fill_preds = [&](std::vector<NodeId> &r) {
            r.clear();
            for (NodeId v : set) {
                if (placed[std::size_t(v)])
                    continue;
                for (std::int32_t k = graph.outOff[std::size_t(v)];
                     k < graph.outOff[std::size_t(v) + 1]; ++k) {
                    if (placed[std::size_t(
                            graph.out[std::size_t(k)].other)]) {
                        r.push_back(v);
                        break;
                    }
                }
            }
        };
        auto fill_succs = [&](std::vector<NodeId> &r) {
            r.clear();
            for (NodeId v : set) {
                if (placed[std::size_t(v)])
                    continue;
                for (std::int32_t k = graph.inOff[std::size_t(v)];
                     k < graph.inOff[std::size_t(v) + 1]; ++k) {
                    if (placed[std::size_t(
                            graph.in[std::size_t(k)].other)]) {
                        r.push_back(v);
                        break;
                    }
                }
            }
        };

        Dir dir = Dir::BottomUp;
        fill_preds(r_set);
        fill_succs(peers);
        if (!r_set.empty() && peers.empty()) {
            dir = Dir::BottomUp;
        } else if (!peers.empty() && r_set.empty()) {
            r_set.swap(peers);
            dir = Dir::TopDown;
        } else if (r_set.empty() && peers.empty()) {
            // Isolated set: start bottom-up from the node with
            // the highest ASAP (the bottom of the critical path).
            NodeId pick = set.front();
            for (NodeId v : set) {
                if (frames.asap[std::size_t(v)] >
                    frames.asap[std::size_t(pick)]) {
                    pick = v;
                }
            }
            r_set.assign(1, pick);
            dir = Dir::BottomUp;
        } else {
            dir = Dir::BottomUp;   // r_set already holds the preds
        }

        auto take_best = [&](std::vector<NodeId> &r, bool by_depth) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < r.size(); ++i) {
                const int a = by_depth ? frames.depth(r[i])
                    : frames.height(r[i]);
                const int b = by_depth ? frames.depth(r[best])
                    : frames.height(r[best]);
                if (a > b ||
                    (a == b &&
                     frames.mobility(r[i]) <
                     frames.mobility(r[best]))) {
                    best = i;
                }
            }
            const NodeId v = r[best];
            r.erase(r.begin() + std::ptrdiff_t(best));
            return v;
        };

        while (!r_set.empty()) {
            if (dir == Dir::BottomUp) {
                while (!r_set.empty()) {
                    const NodeId v = take_best(r_set, true);
                    if (placed[std::size_t(v)])
                        continue;
                    placed[std::size_t(v)] = true;
                    order.push_back(v);
                    for (std::int32_t k =
                             graph.inOff[std::size_t(v)];
                         k < graph.inOff[std::size_t(v) + 1]; ++k) {
                        const NodeId p =
                            graph.in[std::size_t(k)].other;
                        if (in_set(p) && !placed[std::size_t(p)])
                            r_set.push_back(p);
                    }
                }
                dir = Dir::TopDown;
                fill_succs(r_set);
            } else {
                while (!r_set.empty()) {
                    const NodeId v = take_best(r_set, false);
                    if (placed[std::size_t(v)])
                        continue;
                    placed[std::size_t(v)] = true;
                    order.push_back(v);
                    for (std::int32_t k =
                             graph.outOff[std::size_t(v)];
                         k < graph.outOff[std::size_t(v) + 1]; ++k) {
                        const NodeId s =
                            graph.out[std::size_t(k)].other;
                        if (in_set(s) && !placed[std::size_t(s)])
                            r_set.push_back(s);
                    }
                }
                dir = Dir::BottomUp;
                fill_preds(r_set);
            }
        }
    }

    vliw_assert(int(order.size()) == num_nodes,
                "SMS ordering lost nodes: ", order.size(), " of ",
                num_nodes);
    return order;
}

bool
checkOrderConnectivity(const Ddg &ddg, const OrderSets &sets,
                       const std::vector<NodeId> &order)
{
    std::vector<bool> seen(std::size_t(ddg.numNodes()), false);
    std::vector<int> seeds_per_set(sets.sets.size(), 0);
    for (NodeId v : order) {
        bool has_neighbour = false;
        for (int eidx : ddg.inEdges(v)) {
            if (seen[std::size_t(ddg.edge(eidx).src)])
                has_neighbour = true;
        }
        for (int eidx : ddg.outEdges(v)) {
            if (seen[std::size_t(ddg.edge(eidx).dst)])
                has_neighbour = true;
        }
        if (!has_neighbour)
            seeds_per_set[std::size_t(
                sets.setOf[std::size_t(v)])] += 1;
        seen[std::size_t(v)] = true;
    }
    for (int seeds : seeds_per_set) {
        if (seeds > 1)
            return false;
    }
    return true;
}

std::vector<NodeId>
topologicalOrder(const Ddg &ddg, const LatencyMap &lat, int ii)
{
    EdgeWeights weights;
    weights.build(ddg, lat);
    return topologicalOrder(ddg, weights, ii);
}

std::vector<NodeId>
topologicalOrder(const Ddg &ddg, const EdgeWeights &weights, int ii)
{
    const TimeFrames frames = computeTimeFrames(ddg, weights, ii);
    const int n = ddg.numNodes();
    std::vector<int> pending(std::size_t(n), 0);
    for (const DdgEdge &e : ddg.edges()) {
        if (e.distance == 0 && e.src != e.dst)
            pending[std::size_t(e.dst)] += 1;
    }

    // Ready nodes picked by smallest ASAP, then id.
    auto better = [&](NodeId a, NodeId b) {
        if (frames.asap[std::size_t(a)] !=
            frames.asap[std::size_t(b)]) {
            return frames.asap[std::size_t(a)] <
                frames.asap[std::size_t(b)];
        }
        return a < b;
    };

    std::vector<NodeId> ready;
    for (NodeId v = 0; v < n; ++v) {
        if (pending[std::size_t(v)] == 0)
            ready.push_back(v);
    }

    std::vector<NodeId> order;
    order.reserve(std::size_t(n));
    while (!ready.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < ready.size(); ++i) {
            if (better(ready[i], ready[best]))
                best = i;
        }
        const NodeId v = ready[best];
        ready.erase(ready.begin() + std::ptrdiff_t(best));
        order.push_back(v);
        for (int eidx : ddg.outEdges(v)) {
            const DdgEdge &e = ddg.edge(eidx);
            if (e.distance != 0 || e.dst == v)
                continue;
            if (--pending[std::size_t(e.dst)] == 0)
                ready.push_back(e.dst);
        }
    }
    vliw_assert(int(order.size()) == n,
                "topological order incomplete: zero-distance cycle");
    return order;
}

bool
checkOrderInvariant(const Ddg &ddg, const OrderSets &sets,
                    const std::vector<NodeId> &order)
{
    std::vector<int> pos(std::size_t(ddg.numNodes()), -1);
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[std::size_t(order[i])] = int(i);

    std::vector<int> violations_per_set(sets.sets.size(), 0);
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        bool has_earlier_pred = false;
        bool has_earlier_succ = false;
        for (int eidx : ddg.inEdges(v)) {
            const NodeId p = ddg.edge(eidx).src;
            if (p != v && pos[std::size_t(p)] < pos[std::size_t(v)])
                has_earlier_pred = true;
        }
        for (int eidx : ddg.outEdges(v)) {
            const NodeId s = ddg.edge(eidx).dst;
            if (s != v && pos[std::size_t(s)] < pos[std::size_t(v)])
                has_earlier_succ = true;
        }
        if (has_earlier_pred && has_earlier_succ)
            violations_per_set[std::size_t(
                sets.setOf[std::size_t(v)])] += 1;
    }
    for (int v : violations_per_set) {
        if (v > 1)
            return false;
    }
    return true;
}

} // namespace vliw

#include "circuits.hh"

#include <algorithm>
#include <set>

#include "support/errors.hh"
#include "support/logging.hh"
#include "support/math_util.hh"

namespace vliw {

int
Circuit::latencySum(const LatencyMap &lat) const
{
    int sum = fixedLatency;
    for (NodeId v : flowSources)
        sum += lat(v);
    return sum;
}

int
Circuit::iiForSum(int latency_sum) const
{
    vliw_assert(totalDistance > 0, "circuit with zero distance");
    return int(ceilDiv(latency_sum, totalDistance));
}

std::vector<int>
recurrenceIis(const std::vector<Circuit> &circuits, const LatencyMap &lat)
{
    std::vector<int> iis(circuits.size());
    for (std::size_t i = 0; i < circuits.size(); ++i)
        iis[i] = circuits[i].recurrenceIi(lat);
    return iis;
}

bool
Circuit::contains(NodeId id) const
{
    return std::find(nodes.begin(), nodes.end(), id) != nodes.end();
}

namespace {

/** Tarjan's algorithm, iterative to survive deep graphs. */
class TarjanScc
{
  public:
    explicit TarjanScc(const Ddg &ddg) : ddg_(ddg)
    {
        const std::size_t n = std::size_t(ddg.numNodes());
        index_.assign(n, -1);
        lowlink_.assign(n, -1);
        onStack_.assign(n, false);
        comp_.assign(n, -1);
        for (NodeId v = 0; v < ddg.numNodes(); ++v) {
            if (index_[std::size_t(v)] < 0)
                run(v);
        }
    }

    std::vector<int> take() { return std::move(comp_); }

  private:
    struct Frame { NodeId v; std::size_t edge_pos; };

    void
    run(NodeId root)
    {
        std::vector<Frame> call_stack;
        call_stack.push_back({root, 0});
        strongConnect(root);

        while (!call_stack.empty()) {
            Frame &frame = call_stack.back();
            const auto &out = ddg_.outEdges(frame.v);
            bool descended = false;
            while (frame.edge_pos < out.size()) {
                const DdgEdge &e = ddg_.edge(out[frame.edge_pos]);
                ++frame.edge_pos;
                const auto w = std::size_t(e.dst);
                if (index_[w] < 0) {
                    strongConnect(e.dst);
                    call_stack.push_back({e.dst, 0});
                    descended = true;
                    break;
                } else if (onStack_[w]) {
                    lowlink_[std::size_t(frame.v)] =
                        std::min(lowlink_[std::size_t(frame.v)],
                                 index_[w]);
                }
            }
            if (descended)
                continue;

            // Done with frame.v: pop component if it is a root.
            const auto v = std::size_t(frame.v);
            if (lowlink_[v] == index_[v]) {
                while (true) {
                    NodeId w = stack_.back();
                    stack_.pop_back();
                    onStack_[std::size_t(w)] = false;
                    comp_[std::size_t(w)] = nextComp_;
                    if (w == frame.v)
                        break;
                }
                ++nextComp_;
            }
            NodeId child = frame.v;
            call_stack.pop_back();
            if (!call_stack.empty()) {
                const auto parent =
                    std::size_t(call_stack.back().v);
                lowlink_[parent] = std::min(
                    lowlink_[parent], lowlink_[std::size_t(child)]);
            }
        }
    }

    void
    strongConnect(NodeId v)
    {
        index_[std::size_t(v)] = counter_;
        lowlink_[std::size_t(v)] = counter_;
        ++counter_;
        stack_.push_back(v);
        onStack_[std::size_t(v)] = true;
    }

    const Ddg &ddg_;
    std::vector<int> index_;
    std::vector<int> lowlink_;
    std::vector<bool> onStack_;
    std::vector<int> comp_;
    std::vector<NodeId> stack_;
    int counter_ = 0;
    int nextComp_ = 0;
};

/**
 * Johnson's elementary-circuit enumeration restricted to one SCC at a
 * time. DDGs are small (tens to low hundreds of nodes) so the
 * classic algorithm is more than fast enough.
 */
class JohnsonCircuits
{
  public:
    JohnsonCircuits(const Ddg &ddg, std::size_t max_circuits)
        : ddg_(ddg), maxCircuits_(max_circuits)
    {
        comp_ = stronglyConnectedComponents(ddg);
        const std::size_t n = std::size_t(ddg.numNodes());
        blocked_.assign(n, false);
        blockMap_.assign(n, {});

        for (NodeId s = 0; s < ddg.numNodes(); ++s) {
            start_ = s;
            for (std::size_t i = 0; i < n; ++i) {
                blocked_[i] = false;
                blockMap_[i].clear();
            }
            pathNodes_.clear();
            pathEdges_.clear();
            circuit(s);
        }
    }

    std::vector<Circuit> take() { return std::move(circuits_); }

  private:
    /** Allowed edges: same SCC, endpoints >= start_. */
    bool
    edgeAllowed(const DdgEdge &e) const
    {
        return e.src >= start_ && e.dst >= start_ &&
            comp_[std::size_t(e.src)] == comp_[std::size_t(start_)] &&
            comp_[std::size_t(e.dst)] == comp_[std::size_t(start_)];
    }

    bool
    circuit(NodeId v)
    {
        bool found = false;
        pathNodes_.push_back(v);
        blocked_[std::size_t(v)] = true;

        for (int eidx : ddg_.outEdges(v)) {
            const DdgEdge &e = ddg_.edge(eidx);
            if (!edgeAllowed(e))
                continue;
            if (e.dst == start_) {
                emit(eidx);
                found = true;
            } else if (!blocked_[std::size_t(e.dst)]) {
                pathEdges_.push_back(eidx);
                if (circuit(e.dst))
                    found = true;
                pathEdges_.pop_back();
            }
        }

        if (found) {
            unblock(v);
        } else {
            for (int eidx : ddg_.outEdges(v)) {
                const DdgEdge &e = ddg_.edge(eidx);
                if (!edgeAllowed(e) || e.dst == start_)
                    continue;
                auto &bm = blockMap_[std::size_t(e.dst)];
                if (std::find(bm.begin(), bm.end(), v) == bm.end())
                    bm.push_back(v);
            }
        }

        pathNodes_.pop_back();
        return found;
    }

    void
    unblock(NodeId v)
    {
        blocked_[std::size_t(v)] = false;
        auto pending = std::move(blockMap_[std::size_t(v)]);
        blockMap_[std::size_t(v)].clear();
        for (NodeId w : pending) {
            if (blocked_[std::size_t(w)])
                unblock(w);
        }
    }

    void
    emit(int closing_edge)
    {
        if (circuits_.size() >= maxCircuits_) {
            // A user-supplied loop body, not a wivliw bug: refuse
            // it without taking the process down.
            throw CompileError(detail::concat(
                "DDG has more than ", maxCircuits_,
                " elementary circuits; latency assignment "
                "would be incomplete"));
        }
        // Each vector is allocated once, at its final size: a
        // dense body emits hundreds of thousands of circuits.
        Circuit c;
        c.nodes = pathNodes_;
        c.edgeIdxs.reserve(pathEdges_.size() + 1);
        c.edgeIdxs.assign(pathEdges_.begin(), pathEdges_.end());
        c.edgeIdxs.push_back(closing_edge);
        flowScratch_.clear();
        for (int eidx : c.edgeIdxs) {
            const DdgEdge &e = ddg_.edge(eidx);
            c.totalDistance += e.distance;
            if (e.kind == DepKind::RegFlow)
                flowScratch_.push_back(e.src);
            else
                c.fixedLatency += fixedEdgeLatency(e.kind);
        }
        c.flowSources.assign(flowScratch_.begin(), flowScratch_.end());
        if (c.totalDistance == 0) {
            // A same-iteration cycle is a malformed user loop body
            // (anything the builder layers emit is acyclic within
            // an iteration), so refuse it like any other
            // uncompilable input.
            throw CompileError(detail::concat(
                "zero-distance dependence circuit through ",
                ddg_.node(c.nodes.front()).name,
                ": the loop body has a same-iteration cycle"));
        }
        circuits_.push_back(std::move(c));
    }

    const Ddg &ddg_;
    std::size_t maxCircuits_;
    std::vector<int> comp_;
    NodeId start_ = 0;
    std::vector<bool> blocked_;
    std::vector<std::vector<NodeId>> blockMap_;
    std::vector<NodeId> pathNodes_;
    std::vector<int> pathEdges_;
    std::vector<NodeId> flowScratch_;
    std::vector<Circuit> circuits_;
};

} // namespace

std::vector<int>
stronglyConnectedComponents(const Ddg &ddg)
{
    return TarjanScc(ddg).take();
}

std::vector<Circuit>
findCircuits(const Ddg &ddg, std::size_t max_circuits)
{
    return JohnsonCircuits(ddg, max_circuits).take();
}

} // namespace vliw

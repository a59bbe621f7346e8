#include "ddg.hh"

#include "support/logging.hh"

namespace vliw {

NodeId
Ddg::addNode(OpKind kind, std::string name, int latency)
{
    vliw_assert(!isMemOp(kind),
                "use addMemNode for loads/stores: ", name);
    DdgNode node;
    node.kind = kind;
    node.fixedLatency = latency > 0 ? latency : defaultLatency(kind);
    node.name = name.empty()
        ? "n" + std::to_string(nodes_.size()) : std::move(name);
    nodes_.push_back(std::move(node));
    out_.emplace_back();
    in_.emplace_back();
    return NodeId(nodes_.size() - 1);
}

NodeId
Ddg::addMemNode(OpKind kind, const MemAccessInfo &info,
                std::string name)
{
    vliw_assert(isMemOp(kind), "addMemNode with non-memory kind");
    vliw_assert(info.isStore == (kind == OpKind::Store),
                "MemAccessInfo.isStore disagrees with OpKind");
    DdgNode node;
    node.kind = kind;
    node.fixedLatency = 1;
    node.name = name.empty()
        ? "n" + std::to_string(nodes_.size()) : std::move(name);
    node.memInfoIdx = int(memInfos_.size());
    memInfos_.push_back(info);
    nodes_.push_back(std::move(node));
    out_.emplace_back();
    in_.emplace_back();
    return NodeId(nodes_.size() - 1);
}

void
Ddg::addEdge(NodeId src, NodeId dst, DepKind kind, int distance)
{
    vliw_assert(src >= 0 && src < numNodes(), "bad edge src");
    vliw_assert(dst >= 0 && dst < numNodes(), "bad edge dst");
    vliw_assert(distance >= 0, "negative dependence distance");
    if (isMemDep(kind)) {
        vliw_assert(isMemNode(src) && isMemNode(dst),
                    "memory dependence between non-memory nodes");
    }
    edges_.push_back({src, dst, kind, distance});
    out_[std::size_t(src)].push_back(int(edges_.size() - 1));
    in_[std::size_t(dst)].push_back(int(edges_.size() - 1));
}

const DdgNode &
Ddg::node(NodeId id) const
{
    vliw_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return nodes_[std::size_t(id)];
}

DdgNode &
Ddg::node(NodeId id)
{
    vliw_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return nodes_[std::size_t(id)];
}

const std::vector<int> &
Ddg::outEdges(NodeId id) const
{
    vliw_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return out_[std::size_t(id)];
}

const std::vector<int> &
Ddg::inEdges(NodeId id) const
{
    vliw_assert(id >= 0 && id < numNodes(), "bad node id ", id);
    return in_[std::size_t(id)];
}

bool
Ddg::isMemNode(NodeId id) const
{
    return node(id).memInfoIdx >= 0;
}

const MemAccessInfo &
Ddg::memInfo(NodeId id) const
{
    const DdgNode &n = node(id);
    vliw_assert(n.memInfoIdx >= 0, "memInfo of non-memory node ",
                n.name);
    return memInfos_[std::size_t(n.memInfoIdx)];
}

MemAccessInfo &
Ddg::memInfo(NodeId id)
{
    const DdgNode &n = node(id);
    vliw_assert(n.memInfoIdx >= 0, "memInfo of non-memory node ",
                n.name);
    return memInfos_[std::size_t(n.memInfoIdx)];
}

std::vector<NodeId>
Ddg::memNodes() const
{
    std::vector<NodeId> result;
    for (NodeId id = 0; id < numNodes(); ++id) {
        if (isMemNode(id))
            result.push_back(id);
    }
    return result;
}

int
Ddg::countByFu(FuKind kind) const
{
    int count = 0;
    for (const DdgNode &n : nodes_) {
        if (fuForOp(n.kind) == kind)
            ++count;
    }
    return count;
}

void
RegFlowCsr::build(const Ddg &ddg)
{
    const std::size_t n = std::size_t(ddg.numNodes());
    inOff.assign(n + 1, 0);
    outOff.assign(n + 1, 0);
    in.clear();
    out.clear();

    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        for (int eidx : ddg.inEdges(v)) {
            const DdgEdge &e = ddg.edge(eidx);
            if (e.kind == DepKind::RegFlow)
                in.push_back({e.src, e.distance});
        }
        inOff[std::size_t(v) + 1] = int(in.size());
        for (int eidx : ddg.outEdges(v)) {
            const DdgEdge &e = ddg.edge(eidx);
            if (e.kind == DepKind::RegFlow)
                out.push_back({e.dst, e.distance});
        }
        outOff[std::size_t(v) + 1] = int(out.size());
    }
}

LatencyMap::LatencyMap(const Ddg &ddg, int load_default)
{
    lat_.resize(std::size_t(ddg.numNodes()));
    for (NodeId id = 0; id < ddg.numNodes(); ++id) {
        const DdgNode &n = ddg.node(id);
        lat_[std::size_t(id)] =
            n.kind == OpKind::Load ? load_default : n.fixedLatency;
    }
}

void
LatencyMap::set(NodeId id, int latency)
{
    vliw_assert(std::size_t(id) < lat_.size(), "bad node id");
    vliw_assert(latency >= 0, "negative latency");
    lat_[std::size_t(id)] = latency;
}

int
fixedEdgeLatency(DepKind kind)
{
    switch (kind) {
      case DepKind::RegFlow:
        return 0;
      case DepKind::RegAnti:
        // Anti-dependent instructions may share a cycle (Sec 4.3.3).
        return 0;
      case DepKind::RegOut:
        return 1;
      case DepKind::MemFlow:
      case DepKind::MemAnti:
      case DepKind::MemOut:
        // Same-cluster cache modules serialise accesses in issue
        // order; one cycle keeps the issue order strict.
        return 1;
    }
    return 1;
}

int
edgeLatency(const Ddg &ddg, const DdgEdge &edge, const LatencyMap &lat)
{
    (void)ddg;
    return edge.kind == DepKind::RegFlow ? lat(edge.src)
                                         : fixedEdgeLatency(edge.kind);
}

} // namespace vliw

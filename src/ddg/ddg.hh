/**
 * @file
 * Loop data-dependence graph (DDG): the IR consumed by the modulo
 * scheduler. Nodes are operations of one loop body; edges carry a
 * dependence kind and an iteration distance.
 */

#ifndef WIVLIW_DDG_DDG_HH
#define WIVLIW_DDG_DDG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ddg/mem_info.hh"
#include "ddg/op_types.hh"

namespace vliw {

/** One operation of the loop body. */
struct DdgNode
{
    OpKind kind = OpKind::IntAlu;
    /** Producer latency for non-load ops (loads are assigned). */
    int fixedLatency = 1;
    /** Debug label ("n1", "ld_a", ...). */
    std::string name;
    /** Index into Ddg::memInfos() for load/store nodes, else -1. */
    int memInfoIdx = -1;
};

/** One dependence between two operations. */
struct DdgEdge
{
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    DepKind kind = DepKind::RegFlow;
    /** Iteration distance (0 = same iteration). */
    int distance = 0;
};

/**
 * The dependence graph of one loop body.
 *
 * The graph is append-only: nodes and edges are added while building
 * and never removed, which lets NodeIds be stable dense indices.
 */
class Ddg
{
  public:
    /** Add a non-memory operation; latency <= 0 picks the default. */
    NodeId addNode(OpKind kind, std::string name = "",
                   int latency = 0);

    /** Add a load/store carrying a memory descriptor. */
    NodeId addMemNode(OpKind kind, const MemAccessInfo &info,
                      std::string name = "");

    /** Add a dependence edge. */
    void addEdge(NodeId src, NodeId dst, DepKind kind,
                 int distance = 0);

    int numNodes() const { return int(nodes_.size()); }
    int numEdges() const { return int(edges_.size()); }

    const DdgNode &node(NodeId id) const;
    DdgNode &node(NodeId id);

    const std::vector<DdgEdge> &edges() const { return edges_; }

    /** Edge indices leaving @p id. */
    const std::vector<int> &outEdges(NodeId id) const;
    /** Edge indices entering @p id. */
    const std::vector<int> &inEdges(NodeId id) const;

    const DdgEdge &edge(int idx) const { return edges_[idx]; }

    bool isMemNode(NodeId id) const;
    const MemAccessInfo &memInfo(NodeId id) const;
    MemAccessInfo &memInfo(NodeId id);

    /** All load/store node ids in insertion order. */
    std::vector<NodeId> memNodes() const;

    /** Number of operations executed by FUs of class @p kind. */
    int countByFu(FuKind kind) const;

  private:
    std::vector<DdgNode> nodes_;
    std::vector<DdgEdge> edges_;
    std::vector<MemAccessInfo> memInfos_;
    std::vector<std::vector<int>> out_;
    std::vector<std::vector<int>> in_;
};

/**
 * Compressed (CSR) side-index of the register-flow edges only.
 *
 * The scheduler's cluster-affinity and copy-routing loops touch
 * nothing but RegFlow edges, yet the Ddg adjacency interleaves every
 * dependence kind; filtering per visit re-reads each edge record
 * just to discard most of them. This index is II-invariant, so the
 * scheduler builds it once per loop and every attempt iterates a
 * dense span instead. Edge indices keep Ddg insertion order, which
 * keeps tie-breaks (and therefore schedules) bit-identical to
 * filtering inEdges()/outEdges() on the fly.
 */
struct RegFlowCsr
{
    /** One RegFlow neighbour with the edge's iteration distance. */
    struct Arc
    {
        NodeId other;
        std::int32_t distance;
    };

    /** in[inOff[v] .. inOff[v+1]) = RegFlow arcs entering v
     *  (other = producer). */
    std::vector<int> inOff;
    std::vector<Arc> in;
    /** out[outOff[v] .. outOff[v+1]) = RegFlow arcs leaving v
     *  (other = consumer). */
    std::vector<int> outOff;
    std::vector<Arc> out;

    /** Rebuild from @p ddg, reusing this object's capacity. */
    void build(const Ddg &ddg);
};

/**
 * Per-node effective producer latencies.
 *
 * Non-load nodes use their fixed latency; load latencies come from
 * the latency-assignment pass (Section 4.3.1 step 2).
 */
class LatencyMap
{
  public:
    /** Empty map; must be assigned before use. */
    LatencyMap() = default;

    /** Initialise from fixed latencies; loads get @p load_default. */
    LatencyMap(const Ddg &ddg, int load_default);

    int operator()(NodeId id) const { return lat_[std::size_t(id)]; }
    void set(NodeId id, int latency);

  private:
    std::vector<int> lat_;
};

/**
 * Latency a dependence of kind @p kind contributes whatever the
 * assigned latencies: RegAnti 0, RegOut 1, and memory dependences 1
 * (cache-module serialisation within a cluster). Only RegFlow edges
 * depend on the assignment; this returns 0 for them.
 */
int fixedEdgeLatency(DepKind kind);

/**
 * Latency contributed by @p edge in scheduling constraints:
 * RegFlow uses the producer latency, every other kind its
 * fixedEdgeLatency().
 */
int edgeLatency(const Ddg &ddg, const DdgEdge &edge,
                const LatencyMap &lat);

} // namespace vliw

#endif // WIVLIW_DDG_DDG_HH

/**
 * @file
 * Recurrence analysis: strongly connected components and elementary
 * circuit enumeration (Johnson's algorithm) over a DDG. A recurrence
 * in the paper's sense is an elementary dependence circuit.
 */

#ifndef WIVLIW_DDG_CIRCUITS_HH
#define WIVLIW_DDG_CIRCUITS_HH

#include <vector>

#include "ddg/ddg.hh"

namespace vliw {

/**
 * One elementary circuit (recurrence) of the DDG. findCircuits()
 * also splits its latency sum into the part no latency assignment
 * can change and the producers whose assigned latency it adds, so
 * latencySum() is a few integer adds.
 */
struct Circuit
{
    /** Edge indices (into Ddg::edges()) in circuit order. */
    std::vector<int> edgeIdxs;
    /** Node ids in circuit order (nodes[i] is edge[i]'s source). */
    std::vector<NodeId> nodes;
    /** Total iteration distance around the circuit (> 0). */
    int totalDistance = 0;
    /** Sum of fixedEdgeLatency() over the circuit's edges. */
    int fixedLatency = 0;
    /** Source of each RegFlow edge, in circuit order. */
    std::vector<NodeId> flowSources;

    /** Sum of edge latencies under @p lat. */
    int latencySum(const LatencyMap &lat) const;

    /** II this recurrence alone imposes: ceil(latSum / distSum). */
    int recurrenceIi(const LatencyMap &lat) const
    {
        return iiForSum(latencySum(lat));
    }

    /** The II a latency sum of @p latency_sum imposes. */
    int iiForSum(int latency_sum) const;

    bool contains(NodeId id) const;
};

/**
 * recurrenceIi() for every circuit at once. The values depend only
 * on the assigned latencies -- never on the scheduling II -- so
 * callers retrying a loop at growing IIs compute them once and
 * reuse the vector across every attempt.
 */
std::vector<int> recurrenceIis(const std::vector<Circuit> &circuits,
                               const LatencyMap &lat);

/** Tarjan SCC decomposition; returns component id per node. */
std::vector<int> stronglyConnectedComponents(const Ddg &ddg);

/**
 * Enumerate the elementary circuits of @p ddg.
 *
 * A circuit whose total iteration distance is zero would make the
 * loop unschedulable: the loop body has a same-iteration cycle, a
 * malformed user input, so it throws CompileError
 * (support/errors.hh). Enumeration is capped at @p max_circuits to
 * bound worst-case graphs; reaching the cap also throws
 * CompileError since the latency assignment would be incomplete.
 */
std::vector<Circuit> findCircuits(const Ddg &ddg,
                                  std::size_t max_circuits = 65536);

} // namespace vliw

#endif // WIVLIW_DDG_CIRCUITS_HH

/**
 * @file
 * Reference simulator: the oracle SimWorkspace is tested against.
 *
 * It executes a modulo-scheduled loop the plainest way the machine
 * model allows. Every instance (iteration, item) of every op and
 * copy is listed, sorted into nominal issue order, and executed one
 * by one. Each instance checks every register operand and stalls
 * the whole machine until the value is ready. Values live in a map
 * keyed by (item, iteration); there are no rings, no run plan and no
 * wave sequence. Loads and stores go to a real MemSystem.
 *
 * The machine model (vliw_sim.hh):
 *  - items are the loop's ops (node ids) followed by its copies,
 *    stably sorted by kernel cycle (a copy's cycle is its bus start);
 *  - instance (iter, item) issues at nominal cycle
 *    start + iter * II + cycle, plus the stall offset accumulated so
 *    far; instances run in (nominal, iter, item) order;
 *  - an op reads each RegFlow producer at instance iter - distance,
 *    through the copy that routes it when the producer sits in
 *    another cluster; a copy reads its producer at distance 0;
 *    an unwritten or live-in value is ready at cycle 0;
 *  - a value is ready at issue + latency (compute), issue +
 *    regBusLatency (copy), issue + 1 (store) or the memory system's
 *    ready cycle (load);
 *  - only a load may stall the machine; the stall is charged to the
 *    load's access class and, for remote hits, to its causes.
 */

#ifndef WIVLIW_TESTS_REFERENCE_SIM_HH
#define WIVLIW_TESTS_REFERENCE_SIM_HH

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "sim/vliw_sim.hh"
#include "support/logging.hh"

namespace vliw::testutil {

inline LoopSimResult
referenceSimulate(const LoopExecution &loop, MemSystem &mem,
                  const MachineConfig &cfg)
{
    const Ddg &ddg = *loop.ddg;
    const Schedule &sched = *loop.schedule;
    const LatencyMap &lat = *loop.latencies;

    LoopSimResult result;
    result.endCycle = loop.startCycle;
    if (loop.iterations == 0)
        return result;

    // Items: ops, then copies, stably sorted by kernel cycle.
    struct Item
    {
        bool isCopy;
        NodeId node;  ///< the op, or the copy's producer
        int cycle;
        int cluster;
        std::size_t copy;  ///< index in sched.copies (copies only)
    };
    std::vector<Item> items;
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        items.push_back(
            {false, v, sched.cycleOf(v), sched.clusterOf(v), 0});
    }
    for (std::size_t c = 0; c < sched.copies.size(); ++c) {
        const CopyOp &copy = sched.copies[c];
        items.push_back({true, copy.producer, copy.busStart,
                         copy.fromCluster, c});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item &a, const Item &b) {
                         return a.cycle < b.cycle;
                     });
    auto opItem = [&](NodeId v) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (!items[i].isCopy && items[i].node == v)
                return int(i);
        }
        vliw_panic("no item for node ", v);
    };
    auto copyItem = [&](NodeId producer, int cluster) {
        const CopyOp *copy = sched.findCopy(producer, cluster);
        vliw_assert(copy, "no copy routes node ", producer);
        const std::size_t index = std::size_t(copy - sched.copies.data());
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (items[i].isCopy && items[i].copy == index)
                return int(i);
        }
        vliw_panic("no item for the copy of node ", producer);
    };

    // Operands of every item: (source item, distance).
    std::vector<std::vector<std::pair<int, int>>> operands(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Item &item = items[i];
        if (item.isCopy) {
            operands[i].push_back({opItem(item.node), 0});
            continue;
        }
        for (int e : ddg.inEdges(item.node)) {
            const DdgEdge &edge = ddg.edge(e);
            if (edge.kind != DepKind::RegFlow)
                continue;
            const int src = sched.clusterOf(edge.src) == item.cluster
                ? opItem(edge.src)
                : copyItem(edge.src, item.cluster);
            operands[i].push_back({src, edge.distance});
        }
    }

    // Every instance, in nominal issue order.
    struct Instance
    {
        std::int64_t nominal;
        std::int64_t iter;
        int item;
    };
    std::vector<Instance> order;
    for (std::int64_t iter = 0; iter < loop.iterations; ++iter) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            order.push_back({iter * sched.ii + items[i].cycle, iter,
                             int(i)});
        }
    }
    std::sort(order.begin(), order.end(),
              [](const Instance &a, const Instance &b) {
                  if (a.nominal != b.nominal)
                      return a.nominal < b.nominal;
                  if (a.iter != b.iter)
                      return a.iter < b.iter;
                  return a.item < b.item;
              });

    struct Value
    {
        Cycles ready;
        bool isLoad;
        AccessClass cls;
    };
    std::map<std::pair<int, std::int64_t>, Value> values;
    SimStats &stats = result.stats;
    Cycles offset = 0;

    for (const Instance &inst : order) {
        const Item &item = items[std::size_t(inst.item)];
        Cycles t = loop.startCycle + inst.nominal + offset;

        for (const auto &[src, distance] :
             operands[std::size_t(inst.item)]) {
            const std::int64_t j = inst.iter - distance;
            const auto it = values.find({src, j});
            if (j < 0 || it == values.end() || it->second.ready <= t)
                continue;
            const Value &blocker = it->second;
            vliw_assert(blocker.isLoad,
                        "stall blocked by a non-load value");
            const Cycles amount = blocker.ready - t;
            offset += amount;
            stats.stallCycles += amount;
            stats.stallByClass[std::size_t(blocker.cls)] += amount;
            if (blocker.cls == AccessClass::RemoteHit) {
                const NodeId p = items[std::size_t(src)].node;
                const MemAccessInfo &info = ddg.memInfo(p);
                if (info.indirect || !info.strideKnown() ||
                    info.effectiveStride() % cfg.mappingPeriod() != 0)
                    stats.remoteHitFactors.multiCluster += 1;
                if (info.granularity > cfg.interleaveBytes)
                    stats.remoteHitFactors.granularity += 1;
                if (loop.profile) {
                    const MemProfile &prof = loop.profile->at(p);
                    if (prof.distribution < loop.unclearThreshold)
                        stats.remoteHitFactors.unclearPreferred += 1;
                    if (sched.clusterOf(p) != prof.preferredCluster)
                        stats.remoteHitFactors.notInPreferred += 1;
                }
            }
            t = blocker.ready;
        }

        Value value{0, false, AccessClass::LocalHit};
        const OpKind kind = ddg.node(item.node).kind;
        if (item.isCopy) {
            stats.dynamicCopies += 1;
            value.ready = t + cfg.regBusLatency;
        } else if (!isMemOp(kind)) {
            stats.dynamicOps += 1;
            value.ready = t + lat(item.node);
        } else {
            stats.dynamicOps += 1;
            const MemAccessInfo &info = ddg.memInfo(item.node);
            MemRequest req;
            req.cluster = item.cluster;
            req.addr = loop.addressOf(item.node, inst.iter);
            req.size = info.granularity;
            req.isStore = info.isStore;
            req.issueCycle = t;
            req.attractable = info.attractable;
            const MemAccessResult res = mem.access(req);
            stats.memAccesses += 1;
            stats.accessesByClass[std::size_t(res.cls)] += 1;
            if (res.abHit)
                stats.abHits += 1;
            value.isLoad = kind == OpKind::Load;
            value.cls = res.cls;
            value.ready = value.isLoad ? res.readyCycle : t + 1;
        }
        values[{inst.item, inst.iter}] = value;
    }

    stats.totalCycles =
        (loop.iterations - 1) * sched.ii + sched.length + offset;
    result.endCycle = loop.startCycle + stats.totalCycles;
    return result;
}

} // namespace vliw::testutil

#endif // WIVLIW_TESTS_REFERENCE_SIM_HH

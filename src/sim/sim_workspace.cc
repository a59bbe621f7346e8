#include "sim_workspace.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vliw {

SimWorkspace &
threadSimWorkspace()
{
    thread_local SimWorkspace ws;
    return ws;
}

SimWorkspace::Kernel &
SimWorkspace::kernelStorage()
{
    if (usedKernels_ == kernels_.size())
        kernels_.push_back(std::make_unique<Kernel>());
    return *kernels_[usedKernels_++];
}

int
SimWorkspace::prepare(const Ddg &ddg, const Schedule &sched,
                      const LatencyMap &lat)
{
    vliw_assert(sched.stageCount + 2 < kRing,
                "stage count exceeds the instance ring");
    vliw_assert(sched.ii > 0, "degenerate II");

    const int handle = int(usedKernels_);
    Kernel &k = kernelStorage();
    k.ddg = &ddg;
    k.sched = &sched;
    k.ii = sched.ii;
    k.length = sched.length;

    const std::size_t num_nodes = std::size_t(ddg.numNodes());
    const std::size_t num_copies = sched.copies.size();
    const std::size_t num_items = num_nodes + num_copies;

    // ---- Issue items (ops + copies), stably sorted by cycle. ----
    // The scratch list is built in (node ids, then copy ids) order;
    // sorting a permutation by (cycle, scratch index) reproduces the
    // seed simulator's stable_sort without its temporary buffer.
    itemScratch_.clear();
    itemScratch_.reserve(num_items);
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        itemScratch_.push_back(
            {false, v, sched.cycleOf(v), sched.clusterOf(v)});
    }
    for (std::size_t c = 0; c < num_copies; ++c) {
        const CopyOp &copy = sched.copies[c];
        itemScratch_.push_back(
            {true, copy.producer, copy.busStart, copy.fromCluster});
    }
    sortPerm_.resize(num_items);
    for (std::size_t i = 0; i < num_items; ++i)
        sortPerm_[i] = std::int32_t(i);
    std::sort(sortPerm_.begin(), sortPerm_.end(),
              [&](std::int32_t a, std::int32_t b) {
                  const int ca = itemScratch_[std::size_t(a)].cycle;
                  const int cb = itemScratch_[std::size_t(b)].cycle;
                  return ca != cb ? ca < cb : a < b;
              });

    // ---- Per-item hot attributes + the periodic issue order. ----
    k.items.resize(num_items);
    k.waveSeq.resize(num_items);
    k.maxStage = 0;
    itemOfNode_.assign(num_nodes, -1);
    itemOfCopy_.assign(num_copies, -1);
    for (std::size_t idx = 0; idx < num_items; ++idx) {
        const std::size_t scratch = std::size_t(sortPerm_[idx]);
        const ProtoItem &proto = itemScratch_[scratch];
        if (scratch < num_nodes)
            itemOfNode_[scratch] = int(idx);
        else
            itemOfCopy_[scratch - num_nodes] = int(idx);

        HotItem &item = k.items[idx];
        item.node = proto.node;
        item.cluster = proto.cluster;
        item.memStore = 0;
        item.memAttract = 0;
        item.latOrSize = 0;
        if (proto.isCopy) {
            item.kind = ItemKind::Copy;
        } else if (isMemOp(ddg.node(proto.node).kind)) {
            const MemAccessInfo &info = ddg.memInfo(proto.node);
            item.kind = ddg.node(proto.node).kind == OpKind::Load
                ? ItemKind::Load : ItemKind::Store;
            item.memStore = info.isStore ? 1 : 0;
            item.memAttract = info.attractable ? 1 : 0;
            item.latOrSize = info.granularity;
        } else {
            item.kind = ItemKind::Compute;
            item.latOrSize = lat(proto.node);
        }

        Issue &issue = k.waveSeq[idx];
        issue.item = std::int32_t(idx);
        issue.stage = std::int32_t(proto.cycle / k.ii);
        issue.phase = std::int32_t(proto.cycle % k.ii);
        k.maxStage = std::max(k.maxStage, int(issue.stage));
    }
    // Wave order (r asc, s desc, item asc) == the seed heap's pop
    // order (nominal, iter, item) restricted to one wave.
    std::sort(k.waveSeq.begin(), k.waveSeq.end(),
              [](const Issue &a, const Issue &b) {
                  if (a.phase != b.phase)
                      return a.phase < b.phase;
                  if (a.stage != b.stage)
                      return a.stage > b.stage;
                  return a.item < b.item;
              });

    // ---- Operands per item, in CSR form. ----
    k.opOffsets.resize(num_items + 1);
    k.operands.clear();
    for (std::size_t idx = 0; idx < num_items; ++idx) {
        k.opOffsets[idx] = std::int32_t(k.operands.size());
        const ProtoItem &proto =
            itemScratch_[std::size_t(sortPerm_[idx])];
        if (proto.isCopy) {
            // The copy reads the producer's register in its cluster.
            k.operands.push_back(
                {itemOfNode_[std::size_t(proto.node)], 0});
            continue;
        }
        const NodeId v = proto.node;
        for (int eidx : ddg.inEdges(v)) {
            const DdgEdge &e = ddg.edge(eidx);
            if (e.kind != DepKind::RegFlow)
                continue;
            // The ring must outlive a value from instance j until
            // its most distant consumer at j + distance retires;
            // the same margin the stage-count guard gives.
            vliw_assert(e.distance + sched.stageCount + 2 < kRing,
                        "loop-carried distance exceeds the "
                        "instance ring");
            int src_item;
            if (sched.clusterOf(e.src) == sched.clusterOf(v)) {
                src_item = itemOfNode_[std::size_t(e.src)];
            } else {
                const CopyOp *copy =
                    sched.findCopy(e.src, sched.clusterOf(v));
                vliw_assert(copy, "no copy routes ",
                            ddg.node(e.src).name, " to cluster ",
                            sched.clusterOf(v));
                src_item = itemOfCopy_[std::size_t(
                    copy - sched.copies.data())];
            }
            k.operands.push_back({src_item, e.distance});
        }
    }
    k.opOffsets[num_items] = std::int32_t(k.operands.size());
    k.usedPlans = 0;
    return handle;
}

const SimWorkspace::Plan &
SimWorkspace::planFor(Kernel &k, int regBusLatency)
{
    for (std::size_t p = 0; p < k.usedPlans; ++p) {
        if (k.plans[p].regBusLatency == regBusLatency)
            return k.plans[p];
    }
    if (k.usedPlans == k.plans.size())
        k.plans.emplace_back();
    Plan &plan = k.plans[k.usedPlans++];
    plan.regBusLatency = regBusLatency;
    buildPlan(k, plan);

    // The kernel's plans share its ring. Storage only grows; stale
    // slots hold stamps from finished runs, which can never match a
    // future instance stamp (stampBase_ is monotonic and starts at
    // 1).
    const std::size_t slots =
        std::size_t(plan.rows) * std::size_t(plan.ringMask + 1);
    if (k.ring.size() < slots) {
        k.ring.resize(slots);
        k.loadCls.resize(slots);
    }
    return plan;
}

void
SimWorkspace::buildPlan(const Kernel &k, Plan &plan)
{
    const std::size_t num_items = k.items.size();
    itemCycle_.resize(num_items);
    for (const Issue &issue : k.waveSeq) {
        itemCycle_[std::size_t(issue.item)] =
            issue.stage * k.ii + issue.phase;
    }

    // ---- Which operands can stall (see "Run plan"). ----
    opChecked_.assign(k.operands.size(), 0);
    rowOf_.assign(num_items, -1);
    for (std::size_t c = 0; c < num_items; ++c) {
        for (std::int32_t o = k.opOffsets[c]; o < k.opOffsets[c + 1];
             ++o) {
            const Operand &op = k.operands[std::size_t(o)];
            const std::size_t src = std::size_t(op.srcItem);
            const HotItem &producer = k.items[src];
            int latency = 0;
            switch (producer.kind) {
              case ItemKind::Load:
                latency = -1;
                break;
              case ItemKind::Compute:
                latency = producer.latOrSize;
                break;
              case ItemKind::Store:
                latency = 1;
                break;
              case ItemKind::Copy:
                latency = plan.regBusLatency;
                break;
            }
            const bool proven = latency >= 0 &&
                itemCycle_[src] + latency <=
                    itemCycle_[c] + k.ii * op.distance;
            if (!proven) {
                opChecked_[std::size_t(o)] = 1;
                rowOf_[src] = 0;
            }
        }
    }
    plan.rows = 0;
    for (std::int32_t &row : rowOf_) {
        if (row >= 0)
            row = plan.rows++;
    }

    // ---- The pruned wave sequence, operands in sequence order. ----
    plan.seq.clear();
    plan.operands.clear();
    int max_distance = 0;
    for (const Issue &issue : k.waveSeq) {
        const std::size_t i = std::size_t(issue.item);
        const std::int32_t begin = std::int32_t(plan.operands.size());
        for (std::int32_t o = k.opOffsets[i]; o < k.opOffsets[i + 1];
             ++o) {
            if (!opChecked_[std::size_t(o)])
                continue;
            const Operand &op = k.operands[std::size_t(o)];
            plan.operands.push_back(
                {rowOf_[std::size_t(op.srcItem)], op.srcItem,
                 op.distance});
            max_distance = std::max(max_distance, op.distance);
        }
        const std::int32_t end = std::int32_t(plan.operands.size());
        const ItemKind kind = k.items[i].kind;
        const bool memory =
            kind == ItemKind::Load || kind == ItemKind::Store;
        if (begin == end && !memory && rowOf_[i] < 0)
            continue;
        plan.seq.push_back({issue.item, issue.stage, issue.phase,
                            rowOf_[i], begin, end});
    }

    // Instance j's slot is next written by instance j + depth, and
    // its last checked reader runs at most distance + maxStage
    // instances after j, so any depth above this bound keeps a
    // value until it is read.
    const int bound = max_distance +
        std::max(k.sched->stageCount, k.maxStage + 1) + 2;
    int depth = 1;
    while (depth <= bound)
        depth <<= 1;
    vliw_assert(depth <= kRing, "instance ring deeper than ", kRing);
    plan.ringMask = depth - 1;
}

SimRunResult
SimWorkspace::run(int kernel, const SimRunParams &params,
                  const AddressSource &addr, MemSystem &mem,
                  const MachineConfig &cfg)
{
    vliw_assert(kernel >= 0 && std::size_t(kernel) < usedKernels_,
                "bad kernel handle ", kernel);
    vliw_assert(params.iterations >= 0, "negative trip count");
    Kernel &k = *kernels_[std::size_t(kernel)];
    const Ddg &ddg = *k.ddg;
    const Schedule &sched = *k.sched;
    const std::int64_t iterations = params.iterations;
    const Cycles start = params.startCycle;
    const int ii = k.ii;
    // Claim this run's stamps up front, so a run that panics part
    // way never leaves slots a later run could mistake for its own.
    const std::int64_t base = stampBase_;
    stampBase_ += iterations;

    SimStats stats;

    SimRunResult result;
    result.endCycle = start;
    if (iterations == 0 || k.items.empty()) {
        if (iterations > 0) {
            result.stats.totalCycles =
                (iterations - 1) * ii + k.length;
            result.endCycle = start + result.stats.totalCycles;
        }
        return result;
    }

    const Plan &plan = planFor(k, cfg.regBusLatency);

    // Ring slot of instance j of a ring row (see Kernel::ring).
    const std::size_t rows = std::size_t(plan.rows);
    const std::int64_t ring_mask = plan.ringMask;
    auto slotOf = [&](std::int32_t row, std::int64_t j) {
        return std::size_t(j & ring_mask) * rows + std::size_t(row);
    };

    // ---- Stall-factor attribution (cold path: stalls only). ----
    auto attribute = [&](const PlanOperand &op, std::int64_t j,
                         Cycles amount) {
        const std::size_t slot = slotOf(op.srcRow, j);
        vliw_assert(k.items[std::size_t(op.srcItem)].kind ==
                        ItemKind::Load &&
                    k.ring[slot].stamp == base + j,
                    "stall blocked by a non-load value");
        const AccessClass cls = AccessClass(k.loadCls[slot]);
        stats.stallByClass[std::size_t(cls)] += amount;
        if (cls != AccessClass::RemoteHit)
            return;

        const NodeId p = k.items[std::size_t(op.srcItem)].node;
        const MemAccessInfo &info = ddg.memInfo(p);
        const std::int64_t ni = cfg.mappingPeriod();
        const bool multi = info.indirect || !info.strideKnown() ||
            (info.effectiveStride() % ni) != 0;
        if (multi)
            stats.remoteHitFactors.multiCluster += 1;
        if (info.granularity > cfg.interleaveBytes)
            stats.remoteHitFactors.granularity += 1;
        if (params.profile) {
            const MemProfile &prof = params.profile->at(p);
            if (prof.distribution < params.unclearThreshold)
                stats.remoteHitFactors.unclearPreferred += 1;
            if (sched.clusterOf(p) != prof.preferredCluster)
                stats.remoteHitFactors.notInPreferred += 1;
        }
    };

    // ---- Main loop: instances in nominal issue order, walking
    // the plan's wave sequence (see the header comment). ----
    const HotItem *items = k.items.data();
    const PlanIssue *seq = plan.seq.data();
    const std::size_t seq_len = plan.seq.size();
    const PlanOperand *operands = plan.operands.data();
    RingSlot *ring = k.ring.data();
    const Cycles reg_bus_lat = cfg.regBusLatency;
    Cycles offset = 0;

    const std::int64_t waves = seq_len ? iterations + k.maxStage : 0;
    for (std::int64_t w = 0; w < waves; ++w) {
        const Cycles wave_base = start + w * ii;
        for (std::size_t s = 0; s < seq_len; ++s) {
            const PlanIssue &issue = seq[s];
            const std::int64_t iter = w - issue.stage;
            if (iter < 0 || iter >= iterations)
                continue;   // pipeline fill / drain wave
            const HotItem &item = items[issue.item];
            Cycles t_issue = wave_base + issue.phase + offset;

            // Stall-on-use: wait for every checked operand. A ring
            // slot whose stamp misses is a live-in/unwritten value,
            // available at cycle 0 exactly like the seed's zeroed
            // ring.
            for (std::int32_t o = issue.opBegin; o < issue.opEnd;
                 ++o) {
                const PlanOperand &op = operands[o];
                const std::int64_t j = iter - op.distance;
                if (j < 0)
                    continue;   // live-in value
                const RingSlot &src = ring[slotOf(op.srcRow, j)];
                const Cycles avail =
                    src.stamp == base + j ? src.ready : 0;
                if (avail > t_issue) {
                    const Cycles amount = avail - t_issue;
                    offset += amount;
                    stats.stallCycles += amount;
                    attribute(op, j, amount);
                    t_issue = avail;
                }
            }

            Cycles ready = 0;
            AccessClass cls = AccessClass::LocalHit;
            switch (item.kind) {
              case ItemKind::Copy:
                ready = t_issue + reg_bus_lat;
                break;
              case ItemKind::Compute:
                ready = t_issue + item.latOrSize;
                break;
              case ItemKind::Load:
              case ItemKind::Store: {
                MemRequest req;
                req.cluster = item.cluster;
                req.addr = addr(item.node, iter);
                req.size = item.latOrSize;
                req.isStore = item.memStore != 0;
                req.issueCycle = t_issue;
                req.attractable = item.memAttract != 0;
                const MemAccessResult res = mem.access(req);

                stats.memAccesses += 1;
                stats.accessesByClass[std::size_t(res.cls)] += 1;
                if (res.abHit)
                    stats.abHits += 1;
                cls = res.cls;
                ready = item.kind == ItemKind::Load ? res.readyCycle
                                                    : t_issue + 1;
                break;
              }
            }

            if (issue.row < 0)
                continue;
            const std::size_t at = slotOf(issue.row, iter);
            ring[at].ready = ready;
            ring[at].stamp = base + iter;
            if (item.kind == ItemKind::Load)
                k.loadCls[at] = std::uint8_t(cls);
        }
    }

    // Every item issues once per iteration, pruned or not.
    const Counter copies = Counter(sched.copies.size());
    stats.dynamicOps =
        (Counter(k.items.size()) - copies) * Counter(iterations);
    stats.dynamicCopies = copies * Counter(iterations);

    result.stats = stats;
    result.stats.totalCycles = (iterations - 1) * ii + k.length +
        offset;
    result.endCycle = start + result.stats.totalCycles;
    return result;
}

} // namespace vliw

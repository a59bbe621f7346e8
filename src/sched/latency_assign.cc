#include "latency_assign.hh"

#include <algorithm>
#include <limits>

#include "ddg/mii.hh"
#include "support/logging.hh"

namespace vliw {

namespace {

constexpr double kInfiniteBenefit =
    std::numeric_limits<double>::infinity();

/**
 * Append enumerateBenefits(...) to @p steps. A trial changes one
 * load's latency, and the load's latency enters the circuit's sum
 * once per RegFlow edge it feeds there, so each trial's II is the
 * current sum plus one delta: no trial map is built.
 */
void
appendBenefits(const Ddg &ddg, const Circuit &circuit,
               const ProfileMap &prof, const LatencyScheme &scheme,
               const LatencyMap &current,
               const std::vector<LatClass> &class_of,
               std::vector<LatencyStep> &steps)
{
    const int sum_before = circuit.latencySum(current);
    const int ii_before = circuit.iiForSum(sum_before);

    for (NodeId v : circuit.nodes) {
        if (ddg.node(v).kind != OpKind::Load)
            continue;   // only loads are latency-assignable
        const int feeds = int(std::count(circuit.flowSources.begin(),
                                         circuit.flowSources.end(), v));
        const LatClass from = class_of[std::size_t(v)];
        const MemProfile &p = prof.at(v);
        const double stall_before =
            scheme.expectedStall(p, current(v));

        for (LatClass to = 0; to < from; ++to) {
            const int lat_to = scheme.classLatency(to);
            LatencyStep step;
            step.node = v;
            step.fromClass = from;
            step.toClass = to;
            step.iiBefore = ii_before;
            step.iiAfter = circuit.iiForSum(
                sum_before + feeds * (lat_to - current(v)));
            step.stallBefore = stall_before;
            step.stallAfter = scheme.expectedStall(p, lat_to);
            const double d_stall = step.stallAfter - step.stallBefore;
            const int d_ii = step.iiBefore - step.iiAfter;
            step.benefit = d_stall <= 1e-12
                ? kInfiniteBenefit : double(d_ii) / d_stall;
            steps.push_back(step);
        }
    }
}

} // namespace

std::vector<LatencyStep>
enumerateBenefits(const Ddg &ddg, const Circuit &circuit,
                  const ProfileMap &prof, const LatencyScheme &scheme,
                  const LatencyMap &current,
                  const std::vector<LatClass> &class_of)
{
    std::vector<LatencyStep> steps;
    appendBenefits(ddg, circuit, prof, scheme, current, class_of,
                   steps);
    return steps;
}

LatencyAssignment
assignLatencies(const Ddg &ddg, const std::vector<Circuit> &circuits,
                const ProfileMap &prof, const LatencyScheme &scheme,
                const MachineConfig &cfg)
{
    const int worst_lat = scheme.classLatency(scheme.worstClass());
    const int best_lat = scheme.classLatency(scheme.bestClass());

    LatencyAssignment out{
        LatencyMap(ddg, worst_lat),
        std::vector<LatClass>(std::size_t(ddg.numNodes()),
                              scheme.worstClass()),
        1, {}};

    // The target II: what the loop would achieve if every load were
    // a best-class (local hit) access.
    const LatencyMap optimistic(ddg, best_lat);
    out.miiTarget = computeMii(ddg, circuits, optimistic, cfg);

    std::vector<bool> done(circuits.size(), false);
    std::vector<LatencyStep> candidates;

    while (true) {
        // Most constraining unfinished recurrence first.
        int pick = -1;
        int pick_ii = out.miiTarget;
        for (std::size_t i = 0; i < circuits.size(); ++i) {
            if (done[i])
                continue;
            const int ii = circuits[i].recurrenceIi(out.latencies);
            if (ii > pick_ii) {
                pick_ii = ii;
                pick = int(i);
            } else if (ii <= out.miiTarget) {
                done[i] = true;
            }
        }
        if (pick < 0)
            break;

        const Circuit &circuit = circuits[std::size_t(pick)];
        NodeId last_changed = kNoNode;

        while (circuit.recurrenceIi(out.latencies) > out.miiTarget) {
            candidates.clear();
            appendBenefits(ddg, circuit, prof, scheme, out.latencies,
                           out.classOf, candidates);
            const LatencyStep *best = nullptr;
            for (const LatencyStep &s : candidates) {
                if (s.iiAfter >= s.iiBefore)
                    continue;   // reductions must lower the II
                if (!best || s.benefit > best->benefit ||
                    (s.benefit == best->benefit &&
                     (s.iiBefore - s.iiAfter >
                      best->iiBefore - best->iiAfter))) {
                    best = &s;
                }
            }
            if (!best)
                break;  // recurrence cannot reach the target

            out.classOf[std::size_t(best->node)] = best->toClass;
            out.latencies.set(best->node,
                              scheme.classLatency(best->toClass));
            out.trace.push_back(*best);
            last_changed = best->node;
        }

        // Slack removal: raise the last-lowered load so this (and
        // every other) recurrence sits exactly at the target.
        if (last_changed != kNoNode &&
            circuit.recurrenceIi(out.latencies) < out.miiTarget) {
            std::int64_t delta =
                std::numeric_limits<std::int64_t>::max();
            for (const Circuit &c : circuits) {
                if (!c.contains(last_changed))
                    continue;
                const std::int64_t room =
                    std::int64_t(out.miiTarget) * c.totalDistance -
                    c.latencySum(out.latencies);
                delta = std::min(delta, room);
            }
            if (delta > 0) {
                out.latencies.set(
                    last_changed,
                    out.latencies(last_changed) + int(delta));
            }
        }
        done[std::size_t(pick)] = true;
    }

    return out;
}

} // namespace vliw

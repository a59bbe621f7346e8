/**
 * @file
 * The Section 4.3.3 worked example: the benefit-function table
 * (STEP 1 / STEP 2), the reduction sequence, the final latency
 * assignment (n2 = local hit, n1 = 4 cycles via slack removal,
 * n6 = local hit), and the IBC/IPBC cluster assignments -- plus an
 * ablation against naive all-local-hit / all-remote-miss latency
 * assignment policies.
 */

#include <cstdio>
#include <iostream>

#include "ddg/mii.hh"
#include "sched/latency_assign.hh"
#include "sched/scheduler.hh"
#include "support/table.hh"
#include "../tests/util_paper_example.hh"

using namespace vliw;
using testutil::makePaperExample;

namespace {

void
printBenefitTable(const Ddg &ddg, const std::vector<LatencyStep> &steps,
                  const LatencyScheme &scheme, const char *title)
{
    std::printf("%s\n", title);
    TextTable tab({"load", "change", "dII", "dstall", "B"});
    for (const LatencyStep &s : steps) {
        tab.newRow().cell(ddg.node(s.node).name);
        tab.cell(scheme.className(s.fromClass) + " -> " +
                 scheme.className(s.toClass));
        tab.cell(std::int64_t(s.iiBefore - s.iiAfter));
        tab.cell(s.stallAfter - s.stallBefore, 2);
        if (s.benefit > 1e17)
            tab.cell("inf");
        else
            tab.cell(s.benefit, 2);
    }
    tab.print(std::cout);
    std::printf("\n");
}

} // namespace

int
main()
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    auto ex = makePaperExample();
    const auto circuits = findCircuits(ex.ddg);
    const LatencyScheme scheme = LatencyScheme::fourClass(cfg);

    std::printf("Section 4.3.3 worked example (Figure 3 DDG)\n");
    std::printf("===========================================\n\n");

    // ---- STEP 1: the initial benefit table for REC1. ----
    LatencyMap current(ex.ddg, scheme.classLatency(3));
    std::vector<LatClass> class_of(std::size_t(ex.ddg.numNodes()),
                                   3);
    const Circuit *rec1 = nullptr;
    for (const Circuit &c : circuits) {
        if (c.contains(ex.n1) &&
            (!rec1 || c.recurrenceIi(current) >
                 rec1->recurrenceIi(current)))
            rec1 = &c;
    }
    printBenefitTable(ex.ddg,
                      enumerateBenefits(ex.ddg, *rec1, ex.profile,
                                        scheme, current, class_of),
                      scheme,
                      "STEP 1 (all loads at remote miss, REC1 II "
                      "= 33; paper: n2->LM wins with B = 20)");

    // ---- STEP 2: after applying n2 -> LM. ----
    current.set(ex.n2, scheme.classLatency(2));
    class_of[std::size_t(ex.n2)] = 2;
    printBenefitTable(ex.ddg,
                      enumerateBenefits(ex.ddg, *rec1, ex.profile,
                                        scheme, current, class_of),
                      scheme,
                      "STEP 2 (n2 at local miss, REC1 II = 28; "
                      "paper: n2->RH wins with B = 10)");

    // ---- Full assignment. ----
    const LatencyAssignment out = assignLatencies(
        ex.ddg, circuits, ex.profile, scheme, cfg);
    std::printf("reduction sequence\n");
    TextTable seq({"step", "load", "change", "II before", "II after",
                   "B"});
    for (std::size_t i = 0; i < out.trace.size(); ++i) {
        const LatencyStep &s = out.trace[i];
        seq.newRow().cell(std::int64_t(i + 1));
        seq.cell(ex.ddg.node(s.node).name);
        seq.cell(scheme.className(s.fromClass) + " -> " +
                 scheme.className(s.toClass));
        seq.cell(std::int64_t(s.iiBefore));
        seq.cell(std::int64_t(s.iiAfter));
        seq.cell(s.benefit, 2);
    }
    seq.print(std::cout);

    std::printf("\nfinal latencies (paper: n2 = 1, n1 = 4 by slack "
                "removal, n6 = 1; MII = %d)\n", out.miiTarget);
    for (NodeId v : {ex.n1, ex.n2, ex.n6}) {
        std::printf("  %-3s: %d cycles\n",
                    ex.ddg.node(v).name.c_str(), out.latencies(v));
    }

    // ---- Cluster assignment under both heuristics. ----
    const int mii = std::max(out.miiTarget,
                             computeMii(ex.ddg, circuits,
                                        out.latencies, cfg));
    std::printf("\ncluster assignment (II = %d)\n", mii);
    for (Heuristic h : {Heuristic::Ibc, Heuristic::Ipbc}) {
        SchedulerOptions opts;
        opts.heuristic = h;
        auto sched = scheduleLoop(ex.ddg, circuits, out.latencies,
                                  ex.profile, cfg, mii, opts);
        if (!sched)
            continue;
        std::printf("  %-4s: chain{n1,n2,n4} -> cluster %d, n6 -> "
                    "cluster %d, copies: %d, II: %d\n",
                    heuristicName(h),
                    sched->schedule.clusterOf(ex.n1),
                    sched->schedule.clusterOf(ex.n6),
                    sched->schedule.numCopies(),
                    sched->schedule.ii);
    }

    // ---- Ablation: naive latency assignment policies. ----
    std::printf("\nablation: latency-assignment policy vs "
                "(recurrence II, est. stall/iter)\n");
    TextTable abl({"policy", "max recurrence II",
                   "est. stall/iteration"});
    auto report = [&](const char *name, const LatencyMap &lat) {
        int max_ii = 1;
        for (const Circuit &c : circuits) {
            max_ii = std::max(max_ii,
                              c.recurrenceIi(lat));
        }
        double stall = 0.0;
        for (NodeId v : ex.ddg.memNodes()) {
            if (ex.ddg.node(v).kind == OpKind::Load)
                stall += scheme.expectedStall(ex.profile.at(v),
                                              lat(v));
        }
        abl.newRow().cell(name).cell(std::int64_t(max_ii));
        abl.cell(stall, 2);
    };
    report("all local hit (optimistic)", LatencyMap(ex.ddg, 1));
    report("all remote miss (pessimistic)", LatencyMap(ex.ddg, 15));
    report("benefit-driven (paper)", out.latencies);
    abl.print(std::cout);
    std::printf("\nThe benefit-driven policy reaches the optimistic "
                "II at a fraction of\nthe optimistic policy's "
                "expected stall.\n");
    return 0;
}

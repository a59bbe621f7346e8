/**
 * @file
 * Figure 5: classification of the remote hits that generate stall
 * time, by cause (factors are not mutually exclusive):
 *
 *   - the instruction accesses more than one cluster (indirect or
 *     stride not a multiple of N x I),
 *   - "unclear" preferred-cluster information,
 *   - not scheduled in its preferred cluster,
 *   - element wider than the interleaving factor.
 *
 * Left/right bars of the paper = IBC / IPBC, selective unrolling,
 * no Attraction Buffers. The paper's main observations: no factor
 * dominates alone, and "not in preferred" is larger for IBC.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace vliw;
using namespace vliw::bench;

int
main()
{
    std::printf("Figure 5: causes of stalling remote hits\n");
    std::printf("========================================\n\n");

    StallFactors totals[2];
    for (int hi = 0; hi < 2; ++hi) {
        const Heuristic h = hi == 0 ? Heuristic::Ibc
                                    : Heuristic::Ipbc;
        const auto runs =
            runSuite("interleaved", hi == 0 ? "ibc" : "ipbc");
        std::printf("%s (selective unrolling, no ABs)\n",
                    heuristicName(h));
        TextTable tab({"benchmark", "multi-cluster",
                       "unclear-pref", "not-in-pref", "granularity"});
        for (const BenchmarkRun &r : runs) {
            const StallFactors &f = r.total.remoteHitFactors;
            const double total = double(f.total());
            tab.newRow().cell(r.name);
            if (total == 0.0) {
                tab.cell("-").cell("-").cell("-").cell("-");
                continue;
            }
            tab.percentCell(double(f.multiCluster) / total);
            tab.percentCell(double(f.unclearPreferred) / total);
            tab.percentCell(double(f.notInPreferred) / total);
            tab.percentCell(double(f.granularity) / total);
            totals[hi].merge(f);
        }
        tab.print(std::cout);
        std::printf("\n");
    }

    const auto share = [](const StallFactors &f, Counter c) {
        return f.total() == 0
            ? 0.0 : 100.0 * double(c) / double(f.total());
    };
    std::printf("suite-wide factor shares\n");
    TextTable sum({"heuristic", "multi-cluster", "unclear-pref",
                   "not-in-pref", "granularity"});
    for (int hi = 0; hi < 2; ++hi) {
        sum.newRow().cell(hi == 0 ? "IBC" : "IPBC");
        sum.cell(share(totals[hi], totals[hi].multiCluster), 1);
        sum.cell(share(totals[hi], totals[hi].unclearPreferred), 1);
        sum.cell(share(totals[hi], totals[hi].notInPreferred), 1);
        sum.cell(share(totals[hi], totals[hi].granularity), 1);
    }
    sum.print(std::cout);
    std::printf("\npaper check: 'not in preferred' larger for IBC: "
                "%s (IBC %.1f%% vs IPBC %.1f%%)\n",
                share(totals[0], totals[0].notInPreferred) >
                        share(totals[1], totals[1].notInPreferred)
                    ? "yes" : "no",
                share(totals[0], totals[0].notInPreferred),
                share(totals[1], totals[1].notInPreferred));
    return 0;
}

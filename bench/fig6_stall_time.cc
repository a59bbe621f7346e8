/**
 * @file
 * Figure 6: stall time by blocking-access class for four arms --
 * IBC, IBC + Attraction Buffers, IPBC, IPBC + ABs -- normalised per
 * benchmark to the IBC-without-ABs stall.
 *
 * Paper headlines: remote hits cause 76% (IBC) / 72% (IPBC) of the
 * stall without ABs, and ABs cut stall by 34% / 29% respectively.
 * g721dec/g721enc are dropped in the paper (negligible stall).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace vliw;
using namespace vliw::bench;

int
main()
{
    const auto ibc = runSuite("interleaved", "ibc");
    const auto ibc_ab = runSuite("interleaved-ab", "ibc");
    const auto ipbc = runSuite("interleaved", "ipbc");
    const auto ipbc_ab = runSuite("interleaved-ab", "ipbc");

    std::printf("Figure 6: stall time by access class "
                "(normalised to IBC without ABs)\n");
    std::printf("==================================================="
                "=============\n\n");

    TextTable tab({"benchmark", "IBC", "IBC+AB", "IPBC", "IPBC+AB",
                   "RH-share(IBC)", "RH-share(IPBC)"});
    std::vector<double> red_ibc;
    std::vector<double> red_ipbc;
    std::vector<double> rh_ibc;
    std::vector<double> rh_ipbc;

    for (std::size_t i = 0; i < ibc.size(); ++i) {
        const Cycles base = ibc[i].total.stallCycles;
        tab.newRow().cell(ibc[i].name);
        if (base == 0) {
            // The paper drops benchmarks with negligible stall.
            tab.cell("-").cell("-").cell("-").cell("-").cell("-")
                .cell("-");
            continue;
        }
        const auto norm = [&](const BenchmarkRun &r) {
            return double(r.total.stallCycles) / double(base);
        };
        tab.cell(1.0, 2);
        tab.cell(norm(ibc_ab[i]), 2);
        tab.cell(norm(ipbc[i]), 2);
        tab.cell(norm(ipbc_ab[i]), 2);
        tab.percentCell(stallShare(ibc[i].total,
                                   AccessClass::RemoteHit));
        tab.percentCell(stallShare(ipbc[i].total,
                                   AccessClass::RemoteHit));

        red_ibc.push_back(1.0 - norm(ibc_ab[i]));
        if (ipbc[i].total.stallCycles > 0) {
            red_ipbc.push_back(
                1.0 - double(ipbc_ab[i].total.stallCycles) /
                          double(ipbc[i].total.stallCycles));
        }
        rh_ibc.push_back(stallShare(ibc[i].total,
                                    AccessClass::RemoteHit));
        rh_ipbc.push_back(stallShare(ipbc[i].total,
                                     AccessClass::RemoteHit));
    }
    tab.print(std::cout);

    std::printf("\nheadlines\n");
    std::printf("  AB stall reduction IBC : %.0f%%  (paper: 34%%)\n",
                amean(red_ibc) * 100.0);
    std::printf("  AB stall reduction IPBC: %.0f%%  (paper: 29%%)\n",
                amean(red_ipbc) * 100.0);
    std::printf("  remote-hit stall share IBC : %.0f%%  "
                "(paper: 76%%)\n", amean(rh_ibc) * 100.0);
    std::printf("  remote-hit stall share IPBC: %.0f%%  "
                "(paper: 72%%)\n", amean(rh_ipbc) * 100.0);

    std::printf("\nstall breakdown by class (suite totals, "
                "no ABs)\n");
    TextTable cls({"heuristic", "remote_hit", "local_miss",
                   "remote_miss", "combined"});
    for (int hi = 0; hi < 2; ++hi) {
        const auto &runs = hi == 0 ? ibc : ipbc;
        std::array<Cycles, kNumAccessClasses> sums{};
        for (const BenchmarkRun &r : runs) {
            for (std::size_t c = 0; c < sums.size(); ++c)
                sums[c] += r.total.stallByClass[c];
        }
        Cycles total = 0;
        for (Cycles c : sums)
            total += c;
        cls.newRow().cell(hi == 0 ? "IBC" : "IPBC");
        for (AccessClass c : {AccessClass::RemoteHit,
                              AccessClass::LocalMiss,
                              AccessClass::RemoteMiss,
                              AccessClass::Combined}) {
            cls.percentCell(total == 0 ? 0.0
                : double(sums[std::size_t(c)]) / double(total));
        }
    }
    cls.print(std::cout);
    return 0;
}

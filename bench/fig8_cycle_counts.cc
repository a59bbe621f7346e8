/**
 * @file
 * Figure 8: cycle counts of the four architecture configurations,
 * normalised per benchmark to a unified cache with 1-cycle latency:
 *
 *   (i)   word-interleaved, IPBC, 16-entry Attraction Buffers
 *   (ii)  word-interleaved, IBC, 16-entry Attraction Buffers
 *   (iii) multiVLIW (coherent caches, IBC)
 *   (iv)  unified cache, 5 ports, 5-cycle latency (BASE)
 *
 * Bars split into compute and stall time. Paper headlines: both
 * interleaved arms beat unified(L=5) (by 5% IPBC / 10% IBC), trail
 * unified(L=1) by 18% / 11%, and sit ~7% behind the multiVLIW;
 * stall is a small fraction of compute everywhere.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace vliw;
using namespace vliw::bench;

int
main()
{
    // All five arms are submitted before any is waited on, so the
    // worker pool spans the whole figure, not one arm at a time.
    const std::pair<const char *, const char *> arms[] = {
        {"unified1", "base"},
        {"interleaved-ab", "ipbc"},
        {"interleaved-ab", "ibc"},
        {"multivliw", "ibc"},
        {"unified5", "base"},
    };
    std::vector<api::JobHandle<api::SweepResult>> jobs;
    for (const auto &[arch, scheduler] : arms)
        jobs.push_back(
            sharedSession().submit(suiteSweep(arch, scheduler)));
    const auto base = suiteRuns(jobs[0].take());
    const auto ipbc = suiteRuns(jobs[1].take());
    const auto ibc = suiteRuns(jobs[2].take());
    const auto mv = suiteRuns(jobs[3].take());
    const auto u5 = suiteRuns(jobs[4].take());

    std::printf("Figure 8: cycle counts normalised to unified "
                "(L=1); 'c+s' = compute + stall\n");
    std::printf("==================================================="
                "===========\n\n");

    TextTable tab({"benchmark", "IPBC+AB", "IBC+AB", "multiVLIW",
                   "unified(L=5)"});
    auto cell_for = [&](TextTable &t, const BenchmarkRun &r,
                        Cycles norm) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.2f (%.2f+%.2f)",
                      double(r.total.totalCycles) / double(norm),
                      double(r.total.computeCycles()) / double(norm),
                      double(r.total.stallCycles) / double(norm));
        t.cell(std::string(buf));
    };

    std::vector<double> n_ipbc, n_ibc, n_mv, n_u5;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const Cycles norm = base[i].total.totalCycles;
        tab.newRow().cell(base[i].name);
        cell_for(tab, ipbc[i], norm);
        cell_for(tab, ibc[i], norm);
        cell_for(tab, mv[i], norm);
        cell_for(tab, u5[i], norm);
        n_ipbc.push_back(double(ipbc[i].total.totalCycles) / norm);
        n_ibc.push_back(double(ibc[i].total.totalCycles) / norm);
        n_mv.push_back(double(mv[i].total.totalCycles) / norm);
        n_u5.push_back(double(u5[i].total.totalCycles) / norm);
    }
    tab.newRow().cell("AMEAN");
    char buf[32];
    for (double v : {amean(n_ipbc), amean(n_ibc), amean(n_mv),
                     amean(n_u5)}) {
        std::snprintf(buf, sizeof(buf), "%.3f", v);
        tab.cell(std::string(buf));
    }
    tab.print(std::cout);

    const double ipbc_m = amean(n_ipbc);
    const double ibc_m = amean(n_ibc);
    const double mv_m = amean(n_mv);
    const double u5_m = amean(n_u5);

    std::printf("\nheadlines (AMEAN)\n");
    std::printf("  IPBC+AB vs unified(L=5): %+.1f%% speedup "
                "(paper: +5%%)\n", (u5_m / ipbc_m - 1.0) * 100.0);
    std::printf("  IBC+AB  vs unified(L=5): %+.1f%% speedup "
                "(paper: +10%%)\n", (u5_m / ibc_m - 1.0) * 100.0);
    std::printf("  IPBC+AB vs unified(L=1): %.1f%% slowdown "
                "(paper: 18%%)\n", (ipbc_m - 1.0) * 100.0);
    std::printf("  IBC+AB  vs unified(L=1): %.1f%% slowdown "
                "(paper: 11%%)\n", (ibc_m - 1.0) * 100.0);
    std::printf("  interleaved vs multiVLIW: %.1f%% degradation "
                "(paper: ~7%%)\n",
                (std::min(ipbc_m, ibc_m) / mv_m - 1.0) * 100.0);

    double stall_ratio = 0.0;
    for (const BenchmarkRun &r : ipbc)
        stall_ratio += r.total.stallRatio();
    std::printf("  IPBC+AB stall/total AMEAN: %.1f%% "
                "(paper: 'small')\n",
                stall_ratio / double(ipbc.size()) * 100.0);
    return 0;
}

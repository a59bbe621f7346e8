/**
 * @file
 * Figure 4: classification of memory accesses (local hits, remote
 * hits, local misses, remote misses, combined) under the IPBC
 * heuristic for four scheduling variants:
 *
 *   (i)   no unrolling, variable alignment
 *   (ii)  OUF unrolling, no variable alignment
 *   (iii) OUF unrolling, variable alignment
 *   (iv)  OUF unrolling, variable alignment, no memory chains
 *
 * Headline paper numbers: local hits +27% from unrolling (iii vs
 * i) and +20% from alignment (iii vs ii).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace vliw;
using namespace vliw::bench;

namespace {

struct Variant
{
    const char *label;
    const char *unroll;
    bool aligned;
    bool chains;
};

} // namespace

int
main()
{
    const std::vector<Variant> variants = {
        {"no-unroll+align", "none", true, true},
        {"OUF,no-align", "ouf", false, true},
        {"OUF+align", "ouf", true, true},
        {"OUF+align,no-chains", "ouf", true, false},
    };

    std::printf("Figure 4: memory access classification (IPBC)\n");
    std::printf("============================================\n\n");

    std::vector<double> amean_lh(variants.size(), 0.0);

    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const Variant &v = variants[vi];
        const auto runs =
            runSuite("interleaved", "ipbc", v.unroll, v.aligned,
                     v.chains);
        std::printf("variant (%zu): %s\n", vi + 1,
                    variants[vi].label);
        TextTable tab({"benchmark", "local_hit", "remote_hit",
                       "local_miss", "remote_miss", "combined"});
        std::vector<double> lh;
        for (const BenchmarkRun &r : runs) {
            tab.newRow().cell(r.name);
            tab.percentCell(classShare(r.total,
                                       AccessClass::LocalHit));
            tab.percentCell(classShare(r.total,
                                       AccessClass::RemoteHit));
            tab.percentCell(classShare(r.total,
                                       AccessClass::LocalMiss));
            tab.percentCell(classShare(r.total,
                                       AccessClass::RemoteMiss));
            tab.percentCell(classShare(r.total,
                                       AccessClass::Combined));
            lh.push_back(classShare(r.total, AccessClass::LocalHit));
        }
        amean_lh[vi] = amean(lh);
        tab.newRow().cell("AMEAN");
        tab.percentCell(amean_lh[vi]);
        double rh = 0, lm = 0, rm = 0, cb = 0;
        for (const BenchmarkRun &r : runs) {
            rh += classShare(r.total, AccessClass::RemoteHit);
            lm += classShare(r.total, AccessClass::LocalMiss);
            rm += classShare(r.total, AccessClass::RemoteMiss);
            cb += classShare(r.total, AccessClass::Combined);
        }
        const double n = double(runs.size());
        tab.percentCell(rh / n);
        tab.percentCell(lm / n);
        tab.percentCell(rm / n);
        tab.percentCell(cb / n);
        tab.print(std::cout);
        std::printf("\n");
    }

    std::printf("headline deltas (AMEAN local hits)\n");
    std::printf("  unrolling  (iii - i) : %+.1f%%  (paper: +27%%)\n",
                (amean_lh[2] - amean_lh[0]) * 100.0);
    std::printf("  alignment  (iii - ii): %+.1f%%  (paper: +20%%)\n",
                (amean_lh[2] - amean_lh[1]) * 100.0);
    std::printf("  chains     (iv - iii): %+.1f%%  (chains cost)\n",
                (amean_lh[3] - amean_lh[2]) * 100.0);
    return 0;
}

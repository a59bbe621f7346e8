/**
 * @file
 * Figure 7: workload balance under IPBC for (i) no unrolling,
 * (ii) OUF unrolling, and (iii) OUF unrolling without memory
 * dependent chains. Balance = instructions in the most loaded
 * cluster / total, weighted over loops by dynamic instructions:
 * 0.25 is perfect on four clusters, 1.0 fully unbalanced.
 *
 * Paper: near 0.25 almost everywhere; chains unbalance epicdec,
 * pgpdec, pgpenc and rasta; unrolling helps.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace vliw;
using namespace vliw::bench;

int
main()
{
    const auto none = runSuite("interleaved", "ipbc", "none");
    const auto ouf = runSuite("interleaved", "ipbc", "ouf");
    const auto nochain =
        runSuite("interleaved", "ipbc", "ouf", true, false);

    std::printf("Figure 7: workload balance (IPBC; 0.25 = "
                "perfect)\n");
    std::printf("===============================================\n"
                "\n");
    TextTable tab({"benchmark", "no-unroll", "OUF",
                   "OUF,no-chains"});
    std::vector<double> b_none;
    std::vector<double> b_ouf;
    std::vector<double> b_nochain;
    for (std::size_t i = 0; i < none.size(); ++i) {
        tab.newRow().cell(none[i].name);
        tab.cell(none[i].workloadBalance, 3);
        tab.cell(ouf[i].workloadBalance, 3);
        tab.cell(nochain[i].workloadBalance, 3);
        b_none.push_back(none[i].workloadBalance);
        b_ouf.push_back(ouf[i].workloadBalance);
        b_nochain.push_back(nochain[i].workloadBalance);
    }
    tab.newRow().cell("AMEAN");
    tab.cell(amean(b_none), 3);
    tab.cell(amean(b_ouf), 3);
    tab.cell(amean(b_nochain), 3);
    tab.print(std::cout);

    std::printf("\npaper checks\n");
    std::printf("  unrolling improves balance: %s "
                "(%.3f -> %.3f)\n",
                amean(b_ouf) <= amean(b_none) ? "yes" : "no",
                amean(b_none), amean(b_ouf));
    std::printf("  chains cost balance on epicdec/pgp/rasta: ");
    double with_chains = 0.0;
    double without = 0.0;
    int counted = 0;
    for (std::size_t i = 0; i < ouf.size(); ++i) {
        const std::string &n = ouf[i].name;
        if (n == "epicdec" || n == "pgpdec" || n == "pgpenc" ||
            n == "rasta") {
            with_chains += ouf[i].workloadBalance;
            without += nochain[i].workloadBalance;
            ++counted;
        }
    }
    std::printf("%s (%.3f with vs %.3f without)\n",
                with_chains >= without ? "yes" : "no",
                with_chains / counted, without / counted);
    return 0;
}

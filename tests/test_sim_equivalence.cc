/**
 * @file
 * Simulator-equivalence regression test: simulates the full
 * benchmark x architecture grid and compares every SimStats field
 * (total/stall cycles, per-class access and stall counters, remote-
 * hit stall factors, dynamic op/copy/access counts, AB hits) against
 * a checked-in golden file, per loop and per benchmark. The golden
 * was generated from the seed (pre-workspace) simulator, so any
 * cycle-level divergence introduced by the allocation-free kernel
 * or the cache-model refactor shows up as a one-line diff here.
 * Regenerate deliberately with
 *
 *   WIVLIW_REGEN_GOLDEN=1 ./test_sim_equivalence
 *
 * after verifying the behaviour change is intended.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "api/registries.hh"
#include "core/toolchain.hh"
#include "engine/worker_pool.hh"
#include "util_golden.hh"
#include "workloads/mediabench.hh"

namespace vliw {
namespace {

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif

constexpr const char *kGoldenPath =
    WIVLIW_GOLDEN_DIR "/sim_equivalence.txt";

/** Every SimStats field, space-separated, in declaration order. */
std::string
renderStats(const SimStats &s)
{
    std::ostringstream os;
    os << "cycles=" << s.totalCycles << " stall=" << s.stallCycles;
    os << " acc=";
    for (std::size_t i = 0; i < s.accessesByClass.size(); ++i)
        os << (i ? "/" : "") << s.accessesByClass[i];
    os << " stallby=";
    for (std::size_t i = 0; i < s.stallByClass.size(); ++i)
        os << (i ? "/" : "") << s.stallByClass[i];
    os << " factors=" << s.remoteHitFactors.multiCluster << "/"
       << s.remoteHitFactors.unclearPreferred << "/"
       << s.remoteHitFactors.notInPreferred << "/"
       << s.remoteHitFactors.granularity;
    os << " ops=" << s.dynamicOps << " copies=" << s.dynamicCopies
       << " mem=" << s.memAccesses << " abhits=" << s.abHits;
    return os.str();
}

struct GridCell
{
    std::string bench;
    std::string arch;
};

std::vector<GridCell>
fullGrid()
{
    std::vector<GridCell> cells;
    for (const std::string &bench : mediabenchNames())
        for (const std::string &arch :
             api::builtinRegistries().archs.names())
            cells.push_back({bench, arch});
    return cells;
}

std::string
runCell(const GridCell &cell)
{
    const BenchmarkSpec bench = makeBenchmark(cell.bench);
    const Toolchain chain(
        api::builtinRegistries().archs.resolve(cell.arch).value(),
        ToolchainOptions{});
    const BenchmarkRun run = chain.runBenchmark(bench);

    std::ostringstream os;
    for (const LoopRun &lr : run.loops) {
        os << cell.bench << ' ' << cell.arch << ' ' << lr.name
           << ' ' << renderStats(lr.sim) << '\n';
    }
    os << cell.bench << ' ' << cell.arch << " total "
       << renderStats(run.total) << '\n';
    return os.str();
}

std::string
renderGrid()
{
    const std::vector<GridCell> cells = fullGrid();
    std::vector<std::string> blocks(cells.size());
    engine::WorkerPool pool(0);
    engine::parallelFor(pool, cells.size(), [&](std::size_t i) {
        blocks[i] = runCell(cells[i]);
    });
    std::string out;
    for (const std::string &block : blocks)
        out += block;
    return out;
}

TEST(SimEquivalence, FullGridMatchesGolden)
{
    testutil::expectMatchesGolden(kGoldenPath, renderGrid());
}

} // namespace
} // namespace vliw

/**
 * @file
 * Schedule-equivalence regression test: compiles and simulates the
 * full benchmark x architecture x heuristic grid and compares cycle
 * counts plus a digest of every loop's schedule (placements, copies,
 * II, SC) against a checked-in golden file. Any change to scheduler
 * internals that alters even one placement shows up as a one-line
 * diff here. Regenerate deliberately with
 *
 *   WIVLIW_REGEN_GOLDEN=1 ./test_schedule_equivalence
 *
 * after verifying the behaviour change is intended.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "api/registries.hh"
#include "core/toolchain.hh"
#include "engine/worker_pool.hh"
#include "util_golden.hh"
#include "util_schedule_digest.hh"
#include "workloads/mediabench.hh"

namespace vliw {
namespace {

using testutil::digestSchedule;

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif

constexpr const char *kGoldenPath =
    WIVLIW_GOLDEN_DIR "/schedule_equivalence.txt";

struct GridCell
{
    std::string bench;
    std::string arch;
    std::string heuristic;
};

std::vector<GridCell>
fullGrid()
{
    std::vector<GridCell> cells;
    for (const std::string &bench : mediabenchNames()) {
        for (const std::string &arch :
             api::builtinRegistries().archs.names()) {
            for (const char *heur : {"base", "ibc", "ipbc"})
                cells.push_back({bench, arch, heur});
        }
    }
    return cells;
}

/** One experiment's golden block: per-loop digests + total cycles. */
std::string
runCell(const GridCell &cell)
{
    const BenchmarkSpec bench = makeBenchmark(cell.bench);
    const api::Registries &reg = api::builtinRegistries();
    ToolchainOptions opts;
    opts.heuristic =
        reg.schedulers.resolve(cell.heuristic).value().heuristic;
    const Toolchain chain(reg.archs.resolve(cell.arch).value(), opts);

    const CompiledBenchmark compiled = chain.compileBenchmark(bench);
    const BenchmarkRun run = chain.simulateBenchmark(bench, compiled);

    std::ostringstream os;
    for (const CompiledLoopVersions &versions : compiled.loops) {
        const CompiledLoop &loop = versions.primary;
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(
                          digestSchedule(loop.sched.schedule)));
        os << cell.bench << ' ' << cell.arch << ' ' << cell.heuristic
           << ' ' << loop.name << " uf=" << loop.unrollFactor
           << " ii=" << loop.sched.schedule.ii
           << " sc=" << loop.sched.schedule.stageCount
           << " copies=" << loop.sched.schedule.numCopies()
           << " sched=" << digest << '\n';
    }
    os << cell.bench << ' ' << cell.arch << ' ' << cell.heuristic
       << " cycles=" << run.total.totalCycles << '\n';
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

TEST(ScheduleEquivalence, FullGridMatchesGolden)
{
    testutil::expectMatchesGolden(kGoldenPath, renderGrid());
}

} // namespace
} // namespace vliw

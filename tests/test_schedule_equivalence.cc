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
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/registries.hh"
#include "core/toolchain.hh"
#include "engine/worker_pool.hh"
#include "workloads/mediabench.hh"

namespace vliw {
namespace {

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif

constexpr const char *kGoldenPath =
    WIVLIW_GOLDEN_DIR "/schedule_equivalence.txt";

/** FNV-1a over every field that defines a schedule bit-for-bit. */
class ScheduleDigest
{
  public:
    void
    add(std::int64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= std::uint64_t(v >> (byte * 8)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t
digestSchedule(const Schedule &s)
{
    ScheduleDigest d;
    d.add(s.ii);
    d.add(s.length);
    d.add(s.stageCount);
    for (const PlacedOp &op : s.ops) {
        d.add(op.cycle);
        d.add(op.cluster);
    }
    for (const CopyOp &c : s.copies) {
        d.add(c.producer);
        d.add(c.fromCluster);
        d.add(c.toCluster);
        d.add(c.busStart);
        d.add(c.readyCycle);
    }
    return d.value();
}

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
    const std::string actual = renderGrid();

    if (std::getenv("WIVLIW_REGEN_GOLDEN")) {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out.good())
            << "cannot write golden file " << kGoldenPath;
        out << actual;
        GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
    }

    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.good())
        << "missing golden file " << kGoldenPath
        << "; regenerate with WIVLIW_REGEN_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    // Compare line by line so a mismatch names the first divergent
    // experiment instead of printing two multi-kilobyte strings.
    std::istringstream golden_lines(golden.str());
    std::istringstream actual_lines(actual);
    std::string want, got;
    int line = 0;
    while (std::getline(golden_lines, want)) {
        ++line;
        ASSERT_TRUE(std::getline(actual_lines, got))
            << "output truncated at golden line " << line << ": "
            << want;
        ASSERT_EQ(got, want) << "first divergence at line " << line;
    }
    EXPECT_FALSE(std::getline(actual_lines, got))
        << "extra output after golden ended: " << got;
}

} // namespace
} // namespace vliw

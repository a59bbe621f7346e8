/**
 * @file
 * Simulation-path performance harness: the fixed workload behind
 * BENCH_sim.json. It compiles the full suite once per architecture
 * (compilation is not timed -- perf_scheduler owns that), then times
 *
 *   sim_suite: Toolchain::simulateBenchmark() over all 14 suite
 *              benchmarks x {interleaved-ab, unified1, multivliw},
 *              i.e. every cache-model family on every benchmark;
 *   sim_batch: one compiled suite (interleaved-ab) simulated across
 *              N execution data sets through the batched entry
 *              point, the steady state a sweep campaign sees;
 *
 * with a global heap-allocation counter sampled around each timed
 * region, so "the simulation kernel allocates nothing once warm" is
 * a measured number, not an assertion. Wall-time metrics take the
 * fastest rep (noise only ever adds time) and are normalised by a
 * fixed integer calibration workload before baseline comparison, so
 * a slower CI machine does not masquerade as a simulator change.
 * `--baseline FILE` compares against the committed BENCH_sim.json
 * and exits non-zero on regression (CI's sim-bench-smoke job).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "api/registries.hh"
#include "core/toolchain.hh"
#include "workloads/mediabench.hh"

using namespace vliw;

// ---- global allocation accounting ------------------------------------
//
// Counts every operator-new in the process; the harness samples the
// counters around its timed regions. Relaxed atomics keep the
// overhead to a few nanoseconds per allocation.

namespace {

std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<std::uint64_t> g_allocBytes{0};

struct AllocSample
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

AllocSample
sampleAllocs()
{
    return {g_allocCount.load(std::memory_order_relaxed),
            g_allocBytes.load(std::memory_order_relaxed)};
}

/** Keep a value alive without google-benchmark. */
template <typename T>
inline void
doNotOptimize(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

} // namespace

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

struct AbOptions
{
    int reps = 10;
    int datasets = 8;
    std::string outPath;
    std::string baselinePath;
    double maxRegress = 0.25;
};

/**
 * Fixed integer workload timed once per run; wall-time metrics are
 * divided by this before comparing against a baseline from another
 * machine.
 */
double
calibrationMs()
{
    volatile std::uint64_t sink = 0x9E3779B97F4A7C15ull;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = sink;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink = x;
    const auto t1 = std::chrono::steady_clock::now();
    (void)sink;
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

struct AbMetrics
{
    // sim_suite: simulateBenchmark over 14 benches x 3 cache orgs.
    std::uint64_t simRuns = 0;
    double simMs = 0.0;
    double usPerSimRun = 0.0;
    double allocsPerSimRun = 0.0;
    double allocBytesPerSimRun = 0.0;
    std::uint64_t cyclesDigest = 0;
    // sim_batch: one compiled suite across N data sets.
    int datasets = 0;
    std::uint64_t batchReps = 0;
    double batchMs = 0.0;
    double msPerDataset = 0.0;
    double allocsPerDataset = 0.0;
    double calibrationMs = 0.0;
};

/** One compiled suite under one architecture. */
struct PreparedArch
{
    Toolchain chain;
    std::vector<BenchmarkSpec> benches;
    std::vector<CompiledBenchmark> compiled;

    PreparedArch(const std::string &name, const ToolchainOptions &opts)
        : chain(api::builtinRegistries().archs.resolve(name).value(),
                opts)
    {
        for (const BenchmarkSpec &bench : mediabenchSuite()) {
            benches.push_back(bench);
            compiled.push_back(chain.compileBenchmark(bench));
        }
    }
};

AbMetrics
runAbWorkload(const AbOptions &ab)
{
    const double calibration = calibrationMs();
    const ToolchainOptions opts;

    // One cache-model family each: interleaved (+ABs), unified,
    // snoopy-coherent.
    std::vector<PreparedArch> archs;
    archs.emplace_back("interleaved-ab", opts);
    archs.emplace_back("unified1", opts);
    archs.emplace_back("multivliw", opts);

    AbMetrics m;
    std::uint64_t cycles_sum = 0;   // defeat dead-code elimination

    auto suite_pass = [&](bool timed) {
        for (PreparedArch &pa : archs) {
            for (std::size_t i = 0; i < pa.benches.size(); ++i) {
                const BenchmarkRun run = pa.chain.simulateBenchmark(
                    pa.benches[i], pa.compiled[i]);
                cycles_sum += std::uint64_t(run.total.totalCycles);
                if (timed)
                    m.simRuns += 1;
            }
        }
    };

    // Warm-up pass: fault in code paths and let reusable workspaces
    // reach their steady-state capacity before anything is counted.
    suite_pass(false);

    const AllocSample alloc0 = sampleAllocs();
    double best_rep_ms = 0.0;
    for (int rep = 0; rep < ab.reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        suite_pass(true);
        const double ms =
            elapsedMs(t0, std::chrono::steady_clock::now());
        m.simMs += ms;
        if (rep == 0 || ms < best_rep_ms)
            best_rep_ms = ms;
    }
    const AllocSample alloc1 = sampleAllocs();

    const double calls_per_rep = double(m.simRuns) / double(ab.reps);
    m.usPerSimRun = best_rep_ms * 1000.0 / calls_per_rep;
    m.allocsPerSimRun =
        double(alloc1.count - alloc0.count) / double(m.simRuns);
    m.allocBytesPerSimRun =
        double(alloc1.bytes - alloc0.bytes) / double(m.simRuns);

    // Batched multi-dataset runs: one compiled suite, N execution
    // data sets. Seeds derive from the default execSeed the same way
    // wivliw_run --datasets does.
    PreparedArch &pa = archs.front();
    std::vector<std::uint64_t> seeds(std::size_t(ab.datasets));
    for (int d = 0; d < ab.datasets; ++d)
        seeds[std::size_t(d)] = datasetSeed(opts.execSeed, d);
    m.datasets = ab.datasets;

    auto batch_pass = [&](bool timed) {
        for (std::size_t i = 0; i < pa.benches.size(); ++i) {
            const std::vector<BenchmarkRun> runs =
                pa.chain.simulateBatch(pa.benches[i], pa.compiled[i],
                                       seeds);
            for (const BenchmarkRun &run : runs)
                cycles_sum += std::uint64_t(run.total.totalCycles);
        }
        if (timed)
            m.batchReps += 1;
    };

    batch_pass(false);   // warm-up

    const int batch_reps = std::max(3, ab.reps / 2);
    const AllocSample alloc2 = sampleAllocs();
    double best_batch_ms = 0.0;
    for (int rep = 0; rep < batch_reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        batch_pass(true);
        const double ms =
            elapsedMs(t0, std::chrono::steady_clock::now());
        m.batchMs += ms;
        if (rep == 0 || ms < best_batch_ms)
            best_batch_ms = ms;
    }
    const AllocSample alloc3 = sampleAllocs();
    m.msPerDataset = best_batch_ms / double(ab.datasets);
    m.allocsPerDataset = double(alloc3.count - alloc2.count) /
        double(m.batchReps) / double(ab.datasets);

    m.calibrationMs = calibration;
    m.cyclesDigest = cycles_sum;
    doNotOptimize(cycles_sum);
    return m;
}

void
writeAbJson(std::ostream &os, const AbMetrics &m, const AbOptions &ab)
{
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"schema\": 1,\n"
        "  \"reps\": %d,\n"
        "  \"calibration_ms\": %.3f,\n"
        "  \"sim_suite\": {\n"
        "    \"runs\": %llu,\n"
        "    \"ms_total\": %.3f,\n"
        "    \"us_per_sim_run\": %.3f,\n"
        "    \"allocs_per_sim_run\": %.3f,\n"
        "    \"alloc_bytes_per_sim_run\": %.1f\n"
        "  },\n"
        "  \"sim_batch\": {\n"
        "    \"datasets\": %d,\n"
        "    \"reps\": %llu,\n"
        "    \"ms_total\": %.3f,\n"
        "    \"ms_per_dataset\": %.3f,\n"
        "    \"allocs_per_dataset\": %.3f\n"
        "  }\n"
        "}\n",
        ab.reps, m.calibrationMs,
        static_cast<unsigned long long>(m.simRuns), m.simMs,
        m.usPerSimRun, m.allocsPerSimRun, m.allocBytesPerSimRun,
        m.datasets, static_cast<unsigned long long>(m.batchReps),
        m.batchMs, m.msPerDataset, m.allocsPerDataset);
    os << buf;
}

/** Pull "key": value out of a (flat) JSON text; -1 when missing. */
double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    return std::atof(text.c_str() + pos + needle.size());
}

/**
 * Compare fresh numbers against the committed baseline; wall-time
 * metrics are calibration-normalised on both sides first. A metric
 * regresses when the normalised value exceeds baseline
 * * (1 + maxRegress); sub-half-unit absolute drift is never signal.
 */
int
checkBaseline(const AbMetrics &m, const AbOptions &ab)
{
    std::ifstream in(ab.baselinePath);
    if (!in.good()) {
        std::fprintf(stderr, "ab: cannot read baseline %s\n",
                     ab.baselinePath.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string base = ss.str();

    const double base_cal = jsonNumber(base, "calibration_ms");
    const double base_div = base_cal > 0.0 ? base_cal : 1.0;
    const double fresh_div = base_cal > 0.0 ? m.calibrationMs : 1.0;

    struct Check
    {
        const char *key;
        double fresh;
        bool wallTime;
    };
    const Check checks[] = {
        {"us_per_sim_run", m.usPerSimRun, true},
        {"allocs_per_sim_run", m.allocsPerSimRun, false},
        {"ms_per_dataset", m.msPerDataset, true},
        {"allocs_per_dataset", m.allocsPerDataset, false},
    };

    int failures = 0;
    for (const Check &c : checks) {
        const double want = jsonNumber(base, c.key);
        if (want < 0.0) {
            std::fprintf(stderr, "ab: baseline lacks %s\n", c.key);
            ++failures;
            continue;
        }
        const double fresh_n =
            c.wallTime ? c.fresh / fresh_div : c.fresh;
        const double want_n = c.wallTime ? want / base_div : want;
        const double limit = want_n * (1.0 + ab.maxRegress);
        const bool ok = fresh_n <= limit || c.fresh - want < 0.5;
        std::fprintf(stderr, "ab: %-22s %10.3f (baseline %10.3f, "
                             "normalised %.3f vs limit %.3f) %s\n",
                     c.key, c.fresh, want, fresh_n, limit,
                     ok ? "ok" : "REGRESSED");
        if (!ok)
            ++failures;
    }
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    AbOptions ab;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--ab")
            ;   // the only mode; accepted for CLI symmetry
        else if (arg == "--reps")
            ab.reps = std::atoi(value());
        else if (arg == "--datasets")
            ab.datasets = std::atoi(value());
        else if (arg == "--out")
            ab.outPath = value();
        else if (arg == "--baseline")
            ab.baselinePath = value();
        else if (arg == "--max-regress")
            ab.maxRegress = std::atof(value());
        else {
            std::fprintf(stderr,
                         "usage: perf_sim [--ab] [--reps N] "
                         "[--datasets N] [--out FILE] "
                         "[--baseline FILE] [--max-regress X]\n");
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }
    if (ab.reps < 1 || ab.datasets < 1) {
        std::fprintf(stderr, "--reps/--datasets want counts >= 1\n");
        return 2;
    }

    const AbMetrics m = runAbWorkload(ab);
    writeAbJson(std::cout, m, ab);
    if (!ab.outPath.empty()) {
        std::ofstream out(ab.outPath);
        if (!out.good()) {
            std::fprintf(stderr, "ab: cannot write %s\n",
                         ab.outPath.c_str());
            return 1;
        }
        writeAbJson(out, m, ab);
    }
    if (!ab.baselinePath.empty())
        return checkBaseline(m, ab);
    return 0;
}

/**
 * @file
 * Compile-time performance harness, in two modes.
 *
 * google-benchmark mode (default): microbenchmarks of circuit
 * enumeration, SMS ordering, latency assignment, the clustered
 * modulo scheduler, and api::Session sweeps. These bound
 * the compile-time cost of the proposed techniques.
 *
 * A/B mode (`perf_scheduler --ab`): the fixed workload behind
 * BENCH_scheduler.json. It pre-analyses every suite loop once
 * (unroll, profile, circuits, latencies -- everything the scheduler
 * consumes), then times
 *
 *   sweep_schedule: scheduleLoop() over all loops x {BASE,IBC,IPBC},
 *   sweep_compile:  Toolchain::compileBenchmark() over the suite,
 *
 * with a global heap-allocation counter sampled around each timed
 * region, so "the scheduling kernel allocates nothing per node" is a
 * measured number, not an assertion. `--baseline FILE` compares the
 * fresh numbers against a committed BENCH_scheduler.json and exits
 * non-zero on regression (CI's bench smoke job).
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <iostream>

#include "api/session.hh"
#include "core/toolchain.hh"
#include "ddg/mii.hh"
#include "ddg/unroll.hh"
#include "sched/latency_assign.hh"
#include "sched/scheduler.hh"
#include "sched/sms_order.hh"
#include "workloads/address_gen.hh"
#include "workloads/dataset.hh"
#include "workloads/mediabench.hh"
#include "workloads/profiler.hh"
#include "../tests/util_random_ddg.hh"

using namespace vliw;
using vliw::testutil::makeRandomLoop;
using vliw::testutil::RandomDdgOptions;

// ---- global allocation accounting ------------------------------------
//
// Counts every operator-new in the process; the A/B harness samples
// the counters around its timed regions. Relaxed atomics keep the
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

RandomDdgOptions
sizedOptions(int nodes)
{
    RandomDdgOptions opts;
    opts.minNodes = nodes;
    opts.maxNodes = nodes;
    return opts;
}

void
BM_FindCircuits(benchmark::State &state)
{
    const auto loop = makeRandomLoop(7, 4,
                                     sizedOptions(int(state.range(0))));
    for (auto _ : state)
        benchmark::DoNotOptimize(findCircuits(loop.ddg));
}
BENCHMARK(BM_FindCircuits)->Arg(12)->Arg(24)->Arg(48);

void
BM_SmsOrder(benchmark::State &state)
{
    const auto loop = makeRandomLoop(7, 4,
                                     sizedOptions(int(state.range(0))));
    const auto circuits = findCircuits(loop.ddg);
    const LatencyMap lat(loop.ddg, 5);
    int mii = 1;
    for (const Circuit &c : circuits)
        mii = std::max(mii, c.recurrenceIi(loop.ddg, lat));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            smsOrder(loop.ddg, circuits, lat, mii));
    }
}
BENCHMARK(BM_SmsOrder)->Arg(12)->Arg(24)->Arg(48);

void
BM_AssignLatencies(benchmark::State &state)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const auto loop = makeRandomLoop(11, 4,
                                     sizedOptions(int(state.range(0))));
    const auto circuits = findCircuits(loop.ddg);
    const LatencyScheme scheme = LatencyScheme::fourClass(cfg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(assignLatencies(
            loop.ddg, circuits, loop.profile, scheme, cfg));
    }
}
BENCHMARK(BM_AssignLatencies)->Arg(12)->Arg(24)->Arg(48);

void
BM_ScheduleLoop(benchmark::State &state)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const auto loop = makeRandomLoop(13, 4,
                                     sizedOptions(int(state.range(0))));
    const auto circuits = findCircuits(loop.ddg);
    const LatencyScheme scheme = LatencyScheme::fourClass(cfg);
    const LatencyAssignment assignment = assignLatencies(
        loop.ddg, circuits, loop.profile, scheme, cfg);
    const int mii = std::max(
        assignment.miiTarget,
        computeMii(loop.ddg, circuits, assignment.latencies, cfg));
    SchedulerOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    opts.maxIiTries = 128;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduleLoop(
            loop.ddg, circuits, assignment.latencies, loop.profile,
            cfg, mii, opts));
    }
}
BENCHMARK(BM_ScheduleLoop)->Arg(12)->Arg(24)->Arg(48);

void
BM_CompileBenchmarkLoop(benchmark::State &state)
{
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    ToolchainOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    opts.unroll = UnrollPolicy::Selective;
    const Toolchain chain(cfg, opts);
    const BenchmarkSpec bench = makeBenchmark("gsmdec");
    for (auto _ : state) {
        for (const LoopSpec &loop : bench.loops) {
            benchmark::DoNotOptimize(
                chain.compileLoop(bench, loop));
        }
    }
}
BENCHMARK(BM_CompileBenchmarkLoop);

void
BM_SimulateBenchmark(benchmark::State &state)
{
    const MachineConfig cfg = MachineConfig::paperInterleavedAb();
    ToolchainOptions opts;
    opts.heuristic = Heuristic::Ipbc;
    const Toolchain chain(cfg, opts);
    const BenchmarkSpec bench = makeBenchmark("rasta");
    for (auto _ : state)
        benchmark::DoNotOptimize(chain.runBenchmark(bench));
}
BENCHMARK(BM_SimulateBenchmark);

// ---- api::Session sweeps (the batch path everything above feeds) ----

api::SweepRequest
sweepRequest(int jobs)
{
    api::SweepRequest req;
    req.workloads = {"gsmdec", "rasta", "epicdec"};
    req.archs = {};   // all five architectures
    req.jobs = jobs;
    return req;
}

/** Whole grid, compiling every cell from scratch. */
void
BM_EngineSweepCold(benchmark::State &state)
{
    const api::SweepRequest req = sweepRequest(int(state.range(0)));
    for (auto _ : state) {
        api::Session session{api::SessionOptions{
            .jobs = req.jobs, .compileCache = false}};
        benchmark::DoNotOptimize(session.sweep(req));
    }
}
BENCHMARK(BM_EngineSweepCold)->Arg(1)->Arg(4);

/**
 * Whole grid against a persistent compile cache: after the first
 * iteration every compile is memoized, so this measures the
 * simulate-only steady state a long experiment campaign sees.
 */
void
BM_EngineSweepCached(benchmark::State &state)
{
    const api::SweepRequest req = sweepRequest(int(state.range(0)));
    api::Session session{api::SessionOptions{.jobs = req.jobs}};
    for (auto _ : state)
        benchmark::DoNotOptimize(session.sweep(req));
}
BENCHMARK(BM_EngineSweepCached)->Arg(1)->Arg(4);

// ---- A/B harness -----------------------------------------------------

/** One suite loop with all scheduler inputs pre-computed. */
struct PreparedLoop
{
    std::string name;
    Ddg ddg;
    ProfileMap profile;
    std::vector<Circuit> circuits;
    LatencyMap latencies;
    int mii = 1;
    int nodes = 0;
};

/**
 * Mirror of Toolchain::compileAt up to (not including) scheduling:
 * unroll by the cluster count when the trip count allows, profile,
 * enumerate circuits, assign latencies, compute the MII.
 */
std::vector<PreparedLoop>
prepareSuite(const MachineConfig &cfg)
{
    std::vector<PreparedLoop> out;
    for (const BenchmarkSpec &bench : mediabenchSuite()) {
        const DataSet ds = makeDataSet(bench, cfg, 0x9E1C, true);
        for (const LoopSpec &loop : bench.loops) {
            PreparedLoop p;
            p.name = bench.name + "/" + loop.name;
            int factor = cfg.numClusters;
            if (loop.avgIterations % factor != 0)
                factor = 1;
            p.ddg = unrollDdg(loop.body, factor);
            AddressResolver addr(p.ddg, bench, ds);
            p.profile = profileLoop(p.ddg, addr,
                                    loop.avgIterations / factor,
                                    loop.invocations, cfg, {});
            p.circuits = findCircuits(p.ddg);
            const LatencyScheme scheme = LatencyScheme::fourClass(cfg);
            LatencyAssignment asg = assignLatencies(
                p.ddg, p.circuits, p.profile, scheme, cfg);
            p.mii = std::max(
                asg.miiTarget,
                computeMii(p.ddg, p.circuits, asg.latencies, cfg));
            p.latencies = std::move(asg.latencies);
            p.nodes = p.ddg.numNodes();
            out.push_back(std::move(p));
        }
    }
    return out;
}

struct AbOptions
{
    int reps = 20;
    std::string outPath;
    std::string baselinePath;
    double maxRegress = 0.25;
};

/**
 * Fixed integer workload timed once per run. Wall-time metrics are
 * divided by this before comparing against a baseline from another
 * machine, so the regression gate tracks the scheduler relative to
 * the host's own speed instead of absolute nanoseconds.
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

struct AbMetrics
{
    // sweep_schedule: scheduleLoop over all loops x 3 heuristics.
    std::uint64_t scheduleCalls = 0;
    std::uint64_t nodesPlaced = 0;
    double scheduleMs = 0.0;
    double usPerSchedule = 0.0;
    double allocsPerSchedule = 0.0;
    double allocBytesPerSchedule = 0.0;
    double allocsPerNode = 0.0;
    // sweep_compile: Toolchain::compileBenchmark over the suite.
    std::uint64_t compileSweeps = 0;
    double compileMs = 0.0;
    double msPerCompileSweep = 0.0;
    double calibrationMs = 0.0;
};

double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

AbMetrics
runAbWorkload(const AbOptions &ab)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const double calibration = calibrationMs();
    const std::vector<PreparedLoop> loops = prepareSuite(cfg);
    constexpr Heuristic kHeuristics[] = {
        Heuristic::Base, Heuristic::Ibc, Heuristic::Ipbc};

    AbMetrics m;
    std::int64_t ii_sum = 0;   // defeat dead-code elimination

    auto schedule_pass = [&](bool timed) {
        for (const PreparedLoop &p : loops) {
            for (Heuristic h : kHeuristics) {
                SchedulerOptions opts;
                opts.heuristic = h;
                opts.maxIiTries = 128;
                const auto out = scheduleLoop(
                    p.ddg, p.circuits, p.latencies, p.profile, cfg,
                    p.mii, opts);
                if (!out) {
                    std::fprintf(stderr,
                                 "ab: %s failed to schedule\n",
                                 p.name.c_str());
                    std::exit(1);
                }
                ii_sum += out->schedule.ii;
                if (timed) {
                    m.scheduleCalls += 1;
                    m.nodesPlaced += std::uint64_t(p.nodes);
                }
            }
        }
    };

    // Warm-up pass: fault in code paths and let reusable workspaces
    // reach their steady-state capacity before anything is counted.
    schedule_pass(false);

    // Wall-time metrics take the fastest rep: the minimum is the
    // noise-robust estimator (contention only ever adds time), so
    // the CI gate does not flake on a busy runner.
    const AllocSample alloc0 = sampleAllocs();
    double best_rep_ms = 0.0;
    for (int rep = 0; rep < ab.reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        schedule_pass(true);
        const double ms =
            elapsedMs(t0, std::chrono::steady_clock::now());
        m.scheduleMs += ms;
        if (rep == 0 || ms < best_rep_ms)
            best_rep_ms = ms;
    }
    const AllocSample alloc1 = sampleAllocs();

    const double calls_per_rep =
        double(m.scheduleCalls) / double(ab.reps);
    m.usPerSchedule = best_rep_ms * 1000.0 / calls_per_rep;
    m.allocsPerSchedule =
        double(alloc1.count - alloc0.count) / double(m.scheduleCalls);
    m.allocBytesPerSchedule =
        double(alloc1.bytes - alloc0.bytes) / double(m.scheduleCalls);
    m.allocsPerNode =
        double(alloc1.count - alloc0.count) / double(m.nodesPlaced);

    // End-to-end compile sweep (analysis + scheduling, no simulate).
    ToolchainOptions topts;
    topts.heuristic = Heuristic::Ipbc;
    topts.unroll = UnrollPolicy::Selective;
    const Toolchain chain(MachineConfig::paperInterleavedAb(), topts);
    const std::vector<BenchmarkSpec> suite = mediabenchSuite();
    const int compile_reps = std::max(3, ab.reps / 4);

    for (const BenchmarkSpec &bench : suite)   // warm-up
        benchmark::DoNotOptimize(chain.compileBenchmark(bench));

    double best_sweep_ms = 0.0;
    for (int rep = 0; rep < compile_reps; ++rep) {
        const auto t2 = std::chrono::steady_clock::now();
        for (const BenchmarkSpec &bench : suite)
            benchmark::DoNotOptimize(chain.compileBenchmark(bench));
        const double ms =
            elapsedMs(t2, std::chrono::steady_clock::now());
        m.compileMs += ms;
        if (rep == 0 || ms < best_sweep_ms)
            best_sweep_ms = ms;
        m.compileSweeps += 1;
    }
    m.msPerCompileSweep = best_sweep_ms;

    m.calibrationMs = calibration;
    benchmark::DoNotOptimize(ii_sum);
    return m;
}

void
writeAbJson(std::ostream &os, const AbMetrics &m, int reps)
{
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"schema\": 1,\n"
        "  \"reps\": %d,\n"
        "  \"calibration_ms\": %.3f,\n"
        "  \"sweep_schedule\": {\n"
        "    \"calls\": %llu,\n"
        "    \"nodes_placed\": %llu,\n"
        "    \"ms_total\": %.3f,\n"
        "    \"us_per_schedule\": %.3f,\n"
        "    \"allocs_per_schedule\": %.3f,\n"
        "    \"alloc_bytes_per_schedule\": %.1f,\n"
        "    \"allocs_per_node\": %.4f\n"
        "  },\n"
        "  \"sweep_compile\": {\n"
        "    \"sweeps\": %llu,\n"
        "    \"ms_total\": %.3f,\n"
        "    \"ms_per_sweep\": %.3f\n"
        "  }\n"
        "}\n",
        reps, m.calibrationMs,
        static_cast<unsigned long long>(m.scheduleCalls),
        static_cast<unsigned long long>(m.nodesPlaced),
        m.scheduleMs, m.usPerSchedule, m.allocsPerSchedule,
        m.allocBytesPerSchedule, m.allocsPerNode,
        static_cast<unsigned long long>(m.compileSweeps),
        m.compileMs, m.msPerCompileSweep);
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
 * Compare fresh numbers against the committed baseline. Wall-time
 * metrics are normalised by each side's calibration run first, so
 * a slower or faster CI machine does not masquerade as a scheduler
 * change; they regress when the normalised value exceeds baseline
 * * (1 + maxRegress). The allocation metric is hardware-independent
 * and gets the same tolerance (so a few amortised reallocations
 * never flake).
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
    const double fresh_cal = m.calibrationMs;
    // Old baselines without a calibration entry compare raw times.
    const double base_div = base_cal > 0.0 ? base_cal : 1.0;
    const double fresh_div = base_cal > 0.0 ? fresh_cal : 1.0;

    struct Check
    {
        const char *key;
        double fresh;
        bool wallTime;
    };
    const Check checks[] = {
        {"us_per_schedule", m.usPerSchedule, true},
        {"allocs_per_schedule", m.allocsPerSchedule, false},
        {"ms_per_sweep", m.msPerCompileSweep, true},
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
        const bool ok = fresh_n <= limit ||
            // Sub-microsecond / sub-allocation noise is not signal.
            c.fresh - want < 0.5;
        std::fprintf(stderr, "ab: %-22s %10.3f (baseline %10.3f, "
                             "normalised %.3f vs limit %.3f) %s\n",
                     c.key, c.fresh, want, fresh_n, limit,
                     ok ? "ok" : "REGRESSED");
        if (!ok)
            ++failures;
    }
    return failures ? 1 : 0;
}

int
runAb(const AbOptions &ab)
{
    const AbMetrics m = runAbWorkload(ab);
    writeAbJson(std::cout, m, ab.reps);
    if (!ab.outPath.empty()) {
        std::ofstream out(ab.outPath);
        if (!out.good()) {
            std::fprintf(stderr, "ab: cannot write %s\n",
                         ab.outPath.c_str());
            return 1;
        }
        writeAbJson(out, m, ab.reps);
    }
    if (!ab.baselinePath.empty())
        return checkBaseline(m, ab);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool ab_mode = false;
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
            ab_mode = true;
        else if (arg == "--reps")
            ab.reps = std::atoi(value());
        else if (arg == "--out")
            ab.outPath = value();
        else if (arg == "--baseline")
            ab.baselinePath = value();
        else if (arg == "--max-regress")
            ab.maxRegress = std::atof(value());
    }
    if (ab_mode) {
        if (ab.reps < 1) {
            std::fprintf(stderr, "--reps wants a count >= 1\n");
            return 2;
        }
        return runAb(ab);
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

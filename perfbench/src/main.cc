/**
 * @file
 * perfbench: the repository's benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --serve-bin PATH --out-dir DIR
 *
 * Prints the host context, then as its last stdout line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * per-layer set of the traced run. A failed output check exits 1
 * without a result line. See perfbench/README.md.
 */

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/versioning.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json (run.py checks the names).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"pass_ms.p50", "ms"},
    {"pass_ms.p90", "ms"},
    {"cells_per_s", "1/s"},
    {"sim_mops_per_s", "Mop/s"},
    {"peak_rss_mb", "MiB"},
    {"sim_cycles.geomean", "cycles"},
};

const MetricDef kPerLayer[] = {
    {"api.sweep_ms", "ms"},
    {"api.pool_wait_us.p50", "us"},
    {"api.cells", "count"},
    {"api.cells_failed", "count"},
    {"engine.cache_hits", "count"},
    {"engine.cache_misses", "count"},
    {"engine.cache_evictions", "count"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.report_ms", "ms"},
    {"engine.report_bytes", "bytes"},
    {"core.compile_ms", "ms"},
    {"core.simulate_ms", "ms"},
    {"lang.register_us", "us"},
    {"lang.bytes", "bytes"},
    {"lang.mb_per_s", "MB/s"},
    {"workloads.profile_us", "us"},
    {"workloads.profile_calls", "count"},
    {"workloads.dataset_us", "us"},
    {"ddg.unroll_us", "us"},
    {"ddg.circuits_us", "us"},
    {"ddg.circuits", "count"},
    {"ddg.mii_us", "us"},
    {"sched.latency_us", "us"},
    {"sched.schedule_us", "us"},
    {"sched.schedules", "count"},
    {"sched.ii_tries", "count"},
    {"sched.allocs_per_schedule", "count"},
    {"sched.ii.sum", "cycles"},
    {"sched.copies.sum", "count"},
    {"opt.solve_us", "us"},
    {"opt.nodes", "count"},
    {"opt.us_per_node", "us"},
    {"opt.proven", "count"},
    {"opt.budget_exhausted", "count"},
    {"opt.proven_share", "ratio"},
    {"sim.prepare_us", "us"},
    {"sim.run_us", "us"},
    {"sim.dynamic_ops", "count"},
    {"sim.ns_per_op", "ns"},
    {"sim.allocs_per_dataset", "count"},
    {"sim.stall_cycles", "cycles"},
    {"sim.compute_cycles", "cycles"},
    {"mem.reset_us", "us"},
    {"mem.accesses", "count"},
    {"mem.local_hit_ratio", "ratio"},
    {"mem.ab_hits", "count"},
    {"serve.ack_ms", "ms"},
    {"serve.exec_ms", "ms"},
    {"serve.result_ms", "ms"},
    {"serve.bytes_per_req", "bytes"},
    {"serve.events_per_job", "count"},
    {"serve.rtt_ms.p50", "ms"},
    {"serve.rtt_ms.p99", "ms"},
    {"serve.req_per_s", "1/s"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.error_rate", "ratio"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload paper-grid|synth-gap|"
                 "serve-mixed --seed N --seconds S --trace 0|1 "
                 "--serve-bin PATH --out-dir DIR\n";
    std::exit(2);
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return a + " " + b + " " + c;
}

/** (steal, total) CPU ticks of the machine so far, from /proc/stat. */
std::pair<double, double>
cpuTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0.0, steal = 0.0;
    for (int i = 0; i < 8; ++i) {
        double v = 0.0;
        in >> v;
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return false;
#endif
}

void
printMetric(std::ostream &os, const MetricDef &m, double value, bool first)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(value.c_str());
        else if (arg == "--trace") {
            opts.trace = value == "1";
            haveTrace = value == "0" || value == "1";
        } else if (arg == "--serve-bin")
            opts.serveBin = value;
        else if (arg == "--out-dir")
            opts.outDir = value;
        else
            usage("unknown argument " + arg);
    }
    if (!haveTrace || opts.seconds <= 0 || opts.outDir.empty())
        usage("--trace 0|1, --seconds > 0 and --out-dir are required");

    RunOutput (*run)(const Options &) = nullptr;
    if (opts.workload == "paper-grid")
        run = runPaperGrid;
    else if (opts.workload == "synth-gap")
        run = runSynthGap;
    else if (opts.workload == "serve-mixed")
        run = runServeMixed;
    else
        usage("unknown workload '" + opts.workload + "'");
    if (opts.workload == "serve-mixed" && opts.serveBin.empty())
        usage("serve-mixed needs --serve-bin");

    const std::string buildType = vliw::libraryBuildType();
    if (buildType == "Debug" || sanitizedBuild()) {
        std::cerr << "perfbench: refusing a " << buildType
                  << (sanitizedBuild() ? " sanitizer" : "")
                  << " build; timings need an optimised build\n";
        return 3;
    }
    const int nproc = int(std::max(1u, std::thread::hardware_concurrency()));
    opts.jobs = std::min(4, nproc);
    ::mkdir(opts.outDir.c_str(), 0755);
    std::cout << "host: nproc " << nproc << ", loadavg " << loadAverage()
              << ", build " << buildType << ", wivliw "
              << vliw::libraryVersion() << ", workload " << opts.workload
              << ", seed " << opts.seed << ", jobs " << opts.jobs << "\n";

    const auto ticks0 = cpuTicks();
    RunOutput out = run(opts);
    const auto ticks1 = cpuTicks();
    // A VM's stolen CPU time slows every workload; it is recorded so
    // that a slow run can be told from a slow program.
    std::cout << "host: " << std::fixed << std::setprecision(1)
              << 100.0 * (ticks1.first - ticks0.first) /
                     std::max(1.0, ticks1.second - ticks0.second)
              << "% of CPU time stolen during the run\n"
              << std::defaultfloat;
    out.metrics["bench.error_rate"] =
        out.attempted ? double(out.failed) / double(out.attempted) : 0.0;

    std::ostringstream line;
    line << "{\"correct\": true, \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    if (opts.trace) {
        for (const MetricDef &m : kPerLayer) {
            printMetric(line, m, out.metrics[m.name], first);
            first = false;
        }
    } else {
        for (const MetricDef &m : kEndToEnd) {
            printMetric(line, m, out.metrics[m.name], first);
            first = false;
        }
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return 0;
}

/**
 * @file
 * Command-line driver: a thin client of the `vliw::api` façade.
 * Compile and simulate any registered benchmark under any
 * registered architecture/heuristic/unrolling combination,
 * optionally dump schedules or DOT graphs, or sweep a whole grid of
 * configurations in parallel through the experiment engine. Run
 * with --help.
 *
 *   wivliw_run --bench gsmdec --arch interleaved-ab --heuristic ipbc
 *   wivliw_run --bench epicdec --dump-kernel --loop wavelet_recon
 *   wivliw_run --all --arch unified5 --heuristic base --csv
 *   wivliw_run --arch interleaved:c8:b16k --bench rasta
 *   wivliw_run --sweep --jobs 8 --json        # 14 benches x 5 archs
 *   wivliw_run --list-archs                   # registry listings
 *
 * Every name resolves through the registries; an unknown name on
 * any axis is a uniform exit-2 usage error that lists the
 * registry's valid names.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "api/api.hh"
#include "core/versioning.hh"
#include "ddg/dot.hh"
#include "engine/report.hh"
#include "opt/gap_report.hh"
#include "sched/schedule_dump.hh"
#include "support/table.hh"

using namespace vliw;

namespace {

struct CliOptions
{
    std::string bench;
    bool all = false;
    std::string arch = "interleaved-ab";
    std::string heuristic = "ipbc";
    std::string unroll = "selective";
    std::string dumpLoop;
    bool dumpKernelFlag = false;
    bool dumpDotFlag = false;
    /** --dump-ddg FILE: DDG-only DOT export ("-" = stdout). */
    std::string dumpDdgFile;
    /** --bench-file: .wvl sources to register before any mode. */
    std::vector<std::string> benchFiles;
    /** --no-builtin-benches: start with an empty workload axis. */
    bool builtinBenches = true;
    /** --export-benches FILE: dump the workload registry as .wvl
     *  ("-" = stdout) and exit. */
    std::string exportBenches;
    bool versioning = false;
    bool noAlign = false;
    bool noChains = false;
    bool csv = false;
    bool json = false;
    /** --list-archs | --list-heuristics | --list-unrolls |
     *  --list-benches: print a registry and exit. */
    std::string list;
    // Sweep mode.
    bool sweep = false;
    int jobs = 1;
    int datasets = 1;
    bool compileCache = true;
    bool timing = false;
    std::string benches;        // comma lists; empty = full axis
    std::string archs;
    std::string heuristics;
    std::string unrolls;
    /** Persistent compile-store directory (any mode). */
    std::string storeDir;
    /** First sweep-only flag seen, for misuse diagnostics. */
    std::string sweepOnlyFlag;
    // Optimality-gap mode.
    bool gapReport = false;
    /** Solver arm for --gap-report; may carry budget modifiers. */
    std::string optimalKey = "optimal";
    /** --gap-gate: nonzero exit unless the report proves a cell
     *  and no heuristic undercuts a proven-optimal II. */
    bool gapGate = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: wivliw_run [options]\n"
        "single-run mode:\n"
        "  --bench NAME       a registered benchmark\n"
        "  --all              run the whole registered suite\n"
        "  --arch A           a registered architecture, or a\n"
        "                     parametric key like interleaved:c8:b16k\n"
        "  --heuristic H      a registered heuristic\n"
        "  --unroll U         a registered unroll policy\n"
        "  --no-align         disable variable alignment\n"
        "  --no-chains        drop memory dependent chains\n"
        "  --versioning       enable Section 5.4 loop versioning\n"
        "  --dump-kernel      print each loop's kernel\n"
        "  --dump-dot         print each loop's DDG as DOT\n"
        "  --dump-ddg FILE    write each loop's DDG as DOT to\n"
        "                     FILE ('-' = stdout), without the\n"
        "                     schedule banner\n"
        "  --loop NAME        restrict dumps to one loop\n"
        "workload ingestion (docs/WORKLOADS.md):\n"
        "  --bench-file FILE  register every benchmark described\n"
        "                     in the .wvl FILE (repeatable); the\n"
        "                     names join every mode and axis\n"
        "  --no-builtin-benches\n"
        "                     start with an empty workload axis\n"
        "                     (only --bench-file kernels)\n"
        "  --export-benches FILE\n"
        "                     dump every registered benchmark as\n"
        "                     canonical .wvl to FILE ('-' =\n"
        "                     stdout) and exit\n"
        "registry listings (one name per line):\n"
        "  --list-archs       registered architectures\n"
        "  --list-heuristics  registered heuristics\n"
        "  --list-unrolls     registered unroll policies\n"
        "  --list-benches     registered benchmarks, with a\n"
        "                     source column (builtin vs file)\n"
        "sweep mode (cross-product through the experiment engine):\n"
        "  --sweep            run benches x archs x heuristics x\n"
        "                     unrolls; defaults to every registered\n"
        "                     benchmark on every architecture\n"
        "  --benches LIST     comma-separated benchmark subset\n"
        "  --archs LIST       comma-separated architecture subset\n"
        "  --heuristics LIST  comma-separated heuristic subset\n"
        "  --unrolls LIST     comma-separated unroll subset\n"
        "  --jobs N           worker threads (default 1, N >= 1);\n"
        "                     results are identical for every N\n"
        "  --datasets N       execution data sets per experiment,\n"
        "                     simulated as one batch per job;\n"
        "                     dataset 0 is the classic single-input\n"
        "                     run, extra seeds derive from it\n"
        "  --no-compile-cache recompile every arch variant, run\n"
        "                     BASE/IBC twin cells separately and\n"
        "                     simulate every cell\n"
        "  --timing           per-job compile/simulate wall-time\n"
        "                     columns plus aggregated totals\n"
        "optimality gap (docs/SCHEDULERS.md):\n"
        "  --gap-report       run the heuristics next to the exact\n"
        "                     solver over benches x archs and report\n"
        "                     per-cell II/cycle gaps and proof\n"
        "                     status; shares --benches, --archs,\n"
        "                     --heuristics and --jobs with --sweep\n"
        "  --optimal KEY      solver arm for --gap-report (default\n"
        "                     'optimal'; budgeted keys like\n"
        "                     optimal:b5000ms:n1e7)\n"
        "  --gap-gate         exit 1 unless at least one cell is\n"
        "                     proven and no heuristic beats a\n"
        "                     proven-optimal II\n"
        "common:\n"
        "  --store DIR        persistent compile store shared\n"
        "                     across runs and daemons\n"
        "  --csv              machine-readable output\n"
        "  --json             JSON output (sweep includes cache)\n"
        "  --version          library version + build type\n"
        "  --help             this text\n");
    std::exit(code);
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::istringstream is(list);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * Report a façade Status and exit. Name/argument errors are usage
 * errors (exit 2, with the registry's valid names when the status
 * carries them); anything else is a runtime failure (exit 1).
 */
[[noreturn]] void
statusExit(const api::Status &status)
{
    std::fprintf(stderr, "%s\n", status.message().c_str());
    if (!status.context().empty()) {
        const bool names =
            status.code() == api::StatusCode::NotFound;
        std::fprintf(stderr, "%s\n  %s\n",
                     names ? "valid names are:" : "hint:",
                     status.context().c_str());
    }
    switch (status.code()) {
      case api::StatusCode::InvalidArgument:
      case api::StatusCode::NotFound:
      case api::StatusCode::AlreadyExists:
        std::exit(2);
      default:
        std::exit(1);
    }
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(2);
            }
            return argv[++i];
        };
        auto count = [&](const char *flag) -> int {
            const std::string v = value(flag);
            char *end = nullptr;
            errno = 0;
            const long long n = std::strtoll(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
                n > std::numeric_limits<int>::max() ||
                n < std::numeric_limits<int>::min()) {
                std::fprintf(stderr, "%s wants a number, got '%s'\n",
                             flag, v.c_str());
                usage(2);
            }
            return int(n);
        };
        if (arg == "--bench")
            cli.bench = value("--bench");
        else if (arg == "--all")
            cli.all = true;
        else if (arg == "--arch")
            cli.arch = value("--arch");
        else if (arg == "--heuristic")
            cli.heuristic = value("--heuristic");
        else if (arg == "--unroll")
            cli.unroll = value("--unroll");
        else if (arg == "--loop")
            cli.dumpLoop = value("--loop");
        else if (arg == "--dump-kernel")
            cli.dumpKernelFlag = true;
        else if (arg == "--dump-dot")
            cli.dumpDotFlag = true;
        else if (arg == "--dump-ddg")
            cli.dumpDdgFile = value("--dump-ddg");
        else if (arg == "--bench-file")
            cli.benchFiles.push_back(value("--bench-file"));
        else if (arg == "--no-builtin-benches")
            cli.builtinBenches = false;
        else if (arg == "--export-benches")
            cli.exportBenches = value("--export-benches");
        else if (arg == "--versioning")
            cli.versioning = true;
        else if (arg == "--no-align")
            cli.noAlign = true;
        else if (arg == "--no-chains")
            cli.noChains = true;
        else if (arg == "--csv")
            cli.csv = true;
        else if (arg == "--json")
            cli.json = true;
        else if (arg == "--list-archs" || arg == "--list-heuristics" ||
                 arg == "--list-unrolls" || arg == "--list-benches")
            cli.list = arg;
        else if (arg == "--sweep")
            cli.sweep = true;
        else if (arg == "--jobs") {
            cli.jobs = count("--jobs");
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--datasets") {
            cli.datasets = count("--datasets");
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--no-compile-cache") {
            cli.compileCache = false;
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--timing") {
            cli.timing = true;
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--benches") {
            cli.benches = value("--benches");
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--archs") {
            cli.archs = value("--archs");
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--heuristics") {
            cli.heuristics = value("--heuristics");
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--unrolls") {
            cli.unrolls = value("--unrolls");
            cli.sweepOnlyFlag = arg;
        }
        else if (arg == "--gap-report")
            cli.gapReport = true;
        else if (arg == "--optimal")
            cli.optimalKey = value("--optimal");
        else if (arg == "--gap-gate")
            cli.gapGate = true;
        else if (arg == "--store")
            cli.storeDir = value("--store");
        else if (arg == "--version") {
            std::printf("%s\n", libraryVersionLine().c_str());
            std::exit(0);
        }
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    // A zero job count used to mean "auto" (WorkerPool still maps
    // <= 0 to hardware concurrency for library users), but at the
    // CLI a mistyped 0 or a shell-expanded empty variable silently
    // spawning one thread per core surprised more than it helped.
    // Usage error instead.
    if (cli.jobs < 1) {
        std::fprintf(stderr, "--jobs wants a count >= 1\n");
        usage(2);
    }
    if (cli.datasets < 1) {
        std::fprintf(stderr, "--datasets wants a count >= 1\n");
        usage(2);
    }
    // The gap report shares the sweep's axis/jobs flags; everything
    // else sweep-only stays sweep-only.
    if (!cli.sweep && !cli.gapReport && !cli.sweepOnlyFlag.empty()) {
        std::fprintf(stderr, "%s only makes sense with --sweep\n",
                     cli.sweepOnlyFlag.c_str());
        usage(2);
    }
    if (!cli.gapReport && (cli.gapGate ||
                           cli.optimalKey != "optimal")) {
        std::fprintf(stderr,
                     "%s only makes sense with --gap-report\n",
                     cli.gapGate ? "--gap-gate" : "--optimal");
        usage(2);
    }
    if (cli.gapReport && cli.sweep) {
        std::fprintf(stderr,
                     "--gap-report is its own mode (no --sweep)\n");
        usage(2);
    }
    if (!cli.builtinBenches && cli.benchFiles.empty()) {
        std::fprintf(stderr,
                     "--no-builtin-benches leaves no benchmarks; "
                     "add --bench-file FILE\n");
        usage(2);
    }
    if (cli.list.empty() && !cli.sweep && !cli.gapReport &&
        !cli.all && cli.bench.empty() && cli.exportBenches.empty()) {
        std::fprintf(stderr,
                     "pick --bench NAME, --all, --sweep, "
                     "--gap-report or a --list-* flag\n");
        usage(2);
    }
    return cli;
}

int
printList(const api::Session &session, const std::string &flag)
{
    const api::Registries &reg = session.registries();
    if (flag == "--list-benches") {
        // Benchmarks carry a source column: builtin suite vs
        // ingested (.wvl file or wire registration).
        for (const std::string &name : reg.workloads.names()) {
            const api::WorkloadEntry *entry =
                reg.workloads.find(name);
            std::printf("%s\t%s\n", name.c_str(),
                        entry ? entry->origin.c_str() : "?");
        }
        return 0;
    }
    if (flag == "--list-heuristics") {
        // Budgeted arms grow an annotation with their key grammar;
        // plain heuristics keep the classic bare-name lines.
        for (const std::string &name : reg.schedulers.names()) {
            const api::SchedulerEntry *entry =
                reg.schedulers.find(name);
            if (entry && entry->optimal) {
                std::printf("%s\tbudgeted: %s[:b<N>ms][:n<N[eM]>]\n",
                            name.c_str(), name.c_str());
            } else {
                std::printf("%s\n", name.c_str());
            }
        }
        return 0;
    }
    const std::vector<std::string> &names =
        flag == "--list-archs" ? reg.archs.names()
                               : reg.unrolls.names();
    for (const std::string &name : names)
        std::printf("%s\n", name.c_str());
    return 0;
}

/** The base RunRequest every mode shares. */
api::RunRequest
baseRequest(const CliOptions &cli)
{
    api::RunRequest req;
    req.arch = cli.arch;
    req.scheduler = cli.heuristic;
    req.unroll = cli.unroll;
    req.options.varAlignment = !cli.noAlign;
    req.options.memChains = !cli.noChains;
    req.options.loopVersioning = cli.versioning;
    return req;
}

void
dumpLoops(api::Session &session, const CliOptions &cli,
          const std::string &bench, std::ostream *ddgOut)
{
    api::RunRequest req = baseRequest(cli);
    req.workload = bench;
    auto compiled = session.compile(req);
    if (!compiled.ok())
        statusExit(compiled.status());
    auto cfg = session.resolveArch(cli.arch);
    if (!cfg.ok())
        statusExit(cfg.status());

    for (const CompiledLoopVersions &versions :
         compiled.value()->loops) {
        const CompiledLoop &loop = versions.primary;
        if (!cli.dumpLoop.empty() && loop.name != cli.dumpLoop)
            continue;
        if (ddgOut) {
            DotOptions dot;
            dot.name = bench + "_" + loop.name;
            dot.latencies = &loop.latency.latencies;
            dumpDot(*ddgOut, loop.ddg, dot);
        }
        if (!cli.dumpKernelFlag && !cli.dumpDotFlag)
            continue;
        std::printf("\n%s/%s: UF=%d (%s) II=%d SC=%d copies=%d\n",
                    bench.c_str(), loop.name.c_str(),
                    loop.unrollFactor,
                    unrollPolicyName(loop.policyChosen),
                    loop.sched.schedule.ii,
                    loop.sched.schedule.stageCount,
                    loop.sched.schedule.numCopies());
        if (cli.dumpKernelFlag) {
            dumpKernel(std::cout, loop.ddg, loop.sched.schedule,
                       cfg.value());
        }
        if (cli.dumpDotFlag) {
            DotOptions dot;
            dot.name = bench + "_" + loop.name;
            dot.latencies = &loop.latency.latencies;
            dumpDot(std::cout, loop.ddg, dot);
        }
    }
}

/**
 * Split a user-provided axis list, rejecting lists that collapse to
 * nothing (",", ", ,"): silently expanding those to the full axis
 * (or to zero experiments) buries typos.
 */
std::vector<std::string>
splitAxis(const char *flag, const std::string &list)
{
    std::vector<std::string> out = splitList(list);
    if (!list.empty() && out.empty()) {
        std::fprintf(stderr, "%s '%s' names nothing\n", flag,
                     list.c_str());
        std::exit(2);
    }
    return out;
}

std::string
readFileOrExit(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read --bench-file '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        std::exit(2);
    }
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Register every --bench-file before any mode runs, so the names
 *  are first-class on every axis (single run, sweep, gap report). */
void
registerBenchFiles(api::Session &session, const CliOptions &cli)
{
    for (const std::string &path : cli.benchFiles) {
        auto res = session.registerWorkloadText(
            "", readFileOrExit(path), "file", path);
        if (!res.ok())
            statusExit(res.status());
    }
}

int
exportBenchesMode(api::Session &session, const std::string &file)
{
    std::ofstream out;
    std::ostream *os = &std::cout;
    if (file != "-") {
        out.open(file, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "cannot write --export-benches '%s': %s\n",
                         file.c_str(), std::strerror(errno));
            std::exit(1);
        }
        os = &out;
    }
    // Canonical dumps concatenate into one parseable .wvl file:
    // `--no-builtin-benches --bench-file <export>` reproduces the
    // workload axis exactly (the round-trip golden).
    for (const std::string &name :
         session.registries().workloads.names()) {
        auto text = session.dumpWorkloadText(name);
        if (!text.ok())
            statusExit(text.status());
        *os << text.value();
    }
    os->flush();
    if (os->fail()) {
        std::fprintf(stderr, "writing --export-benches '%s' failed\n",
                     file.c_str());
        std::exit(1);
    }
    return 0;
}

/**
 * Optimality-gap mode: one sweep over {heuristics + solver arm},
 * folded into the per-cell gap report. --gap-gate makes the exit
 * code assert the report (CI's soundness check).
 */
int
gapReportMode(api::Session &session, const CliOptions &cli)
{
    opt::GapReportOptions gopts;
    gopts.benches = splitAxis("--benches", cli.benches);
    if (std::vector<std::string> archs =
            splitAxis("--archs", cli.archs);
        !archs.empty())
        gopts.archs = std::move(archs);
    if (std::vector<std::string> heur =
            splitAxis("--heuristics", cli.heuristics);
        !heur.empty())
        gopts.heuristics = std::move(heur);
    gopts.optimalKey = cli.optimalKey;
    gopts.jobs = cli.jobs;

    auto result = opt::runGapReport(session, gopts);
    if (!result.ok())
        statusExit(result.status());
    const opt::GapReport &report = result.value();

    if (cli.json)
        opt::writeGapJson(std::cout, report);
    else if (cli.csv)
        opt::writeGapCsv(std::cout, report);
    else
        opt::gapTable(report).print(std::cout);

    if (cli.gapGate) {
        if (report.provenCount() == 0) {
            std::fprintf(stderr,
                         "gap gate: no cell was proven optimal "
                         "within budget\n");
            return 1;
        }
        if (!report.gatePasses()) {
            std::fprintf(stderr,
                         "gap gate: a heuristic II undercuts a "
                         "proven-optimal II\n");
            return 1;
        }
        std::fprintf(stderr, "gap gate: %zu proven cells, gate ok\n",
                     report.provenCount());
    }
    return 0;
}

int
runSweep(api::Session &session, const CliOptions &cli)
{
    api::SweepRequest req;
    req.workloads = splitAxis("--benches", cli.benches);
    req.archs = splitAxis("--archs", cli.archs);
    req.schedulers = splitAxis("--heuristics", cli.heuristics);
    if (req.schedulers.empty())
        req.schedulers = {cli.heuristic};
    req.unrolls = splitAxis("--unrolls", cli.unrolls);
    if (req.unrolls.empty())
        req.unrolls = {cli.unroll};
    req.alignment = {!cli.noAlign};
    req.chains = {!cli.noChains};
    req.versioning = {cli.versioning};
    req.datasets = cli.datasets;
    req.jobs = cli.jobs;

    auto result = session.sweep(req);
    if (!result.ok())
        statusExit(result.status());
    // Name/option errors failed atomically above; a cell that
    // failed at run time (library users get the partial results)
    // is still a whole-sweep failure at the CLI.
    if (api::Status s = result.value().firstError(); !s.ok())
        statusExit(s);
    const std::vector<engine::ExperimentResult> &results =
        result.value().experiments;
    const engine::CompileCacheStats &cache = result.value().cache;

    if (cli.json) {
        engine::writeJson(std::cout, results,
                          cli.compileCache ? &cache : nullptr,
                          cli.timing);
    } else if (cli.csv) {
        engine::writeCsv(std::cout, results, cli.timing);
    } else {
        engine::sweepTable(results, cli.timing).print(std::cout);
    }
    if (!cli.json && cli.compileCache)
        engine::writeCacheSummary(std::cerr, cache);
    if (!cli.json && cli.timing)
        engine::writeTimingSummary(std::cerr, results);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);

    api::SessionOptions session_opts;
    session_opts.jobs = cli.jobs;
    session_opts.compileCache = cli.compileCache;
    session_opts.storeDir = cli.storeDir;
    session_opts.builtinWorkloads = cli.builtinBenches;
    api::Session session(session_opts);
    registerBenchFiles(session, cli);

    if (!cli.exportBenches.empty())
        return exportBenchesMode(session, cli.exportBenches);
    if (!cli.list.empty())
        return printList(session, cli.list);
    if (cli.gapReport)
        return gapReportMode(session, cli);
    if (cli.sweep)
        return runSweep(session, cli);

    std::vector<std::string> benches;
    if (cli.all) {
        benches = session.registries().workloads.names();
    } else {
        benches.push_back(cli.bench);
    }

    std::ofstream ddgFile;
    std::ostream *ddgOut = nullptr;
    if (!cli.dumpDdgFile.empty()) {
        if (cli.dumpDdgFile == "-") {
            ddgOut = &std::cout;
        } else {
            ddgFile.open(cli.dumpDdgFile,
                         std::ios::binary | std::ios::trunc);
            if (!ddgFile) {
                std::fprintf(stderr,
                             "cannot write --dump-ddg '%s': %s\n",
                             cli.dumpDdgFile.c_str(),
                             std::strerror(errno));
                return 1;
            }
            ddgOut = &ddgFile;
        }
    }

    std::vector<engine::ExperimentResult> results;
    TextTable tab({"benchmark", "cycles", "compute", "stall",
                   "local hits", "ab hits", "copies"});
    for (const std::string &bench : benches) {
        if (cli.dumpKernelFlag || cli.dumpDotFlag || ddgOut)
            dumpLoops(session, cli, bench, ddgOut);

        api::RunRequest req = baseRequest(cli);
        req.workload = bench;
        auto res = session.run(req);
        if (!res.ok())
            statusExit(res.status());

        if (cli.json) {
            results.push_back(std::move(res.value().experiment));
            continue;
        }
        const BenchmarkRun &run = res.value().run();
        int copies = 0;
        for (const LoopRun &lr : run.loops)
            copies += lr.copies;
        tab.newRow().cell(run.name);
        tab.cell(std::int64_t(run.total.totalCycles));
        tab.cell(std::int64_t(run.total.computeCycles()));
        tab.cell(std::int64_t(run.total.stallCycles));
        tab.percentCell(run.total.localHitRatio());
        tab.cell(std::uint64_t(run.total.abHits));
        tab.cell(std::int64_t(copies));
    }
    if (cli.json)
        engine::writeJson(std::cout, results);
    else if (cli.csv)
        tab.printCsv(std::cout);
    else
        tab.print(std::cout);
    return 0;
}

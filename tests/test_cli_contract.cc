/**
 * @file
 * CLI contract tests for `wivliw_run`, driving the real binary
 * (path injected by CMake as WIVLIW_RUN_BIN): every unknown name —
 * --bench/--arch/--heuristic/--unroll and the sweep-mode
 * --benches/--archs/--heuristics/--unrolls lists — is a uniform
 * exit-2 usage error listing the registry's valid names, and the
 * --list-* flags print the registries one name per line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "core/versioning.hh"

namespace {

struct CliResult
{
    int exitCode = -1;
    std::string output;   // stdout + stderr combined
};

/** Run @p bin with @p args, capturing output and exit code. */
CliResult
runBin(const std::string &bin, const std::string &args)
{
    const std::string cmd = bin + " " + args + " 2>&1";
    CliResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return result;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        result.output.append(buf.data(), n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    return result;
}

/** Run the driver with @p args, capturing output and exit code. */
CliResult
runCli(const std::string &args)
{
    return runBin(WIVLIW_RUN_BIN, args);
}

void
expectUsageError(const std::string &args, const char *validName)
{
    const CliResult res = runCli(args);
    EXPECT_EQ(res.exitCode, 2) << args << "\n" << res.output;
    EXPECT_NE(res.output.find("valid names are:"), std::string::npos)
        << args << "\n" << res.output;
    EXPECT_NE(res.output.find(validName), std::string::npos)
        << args << "\n" << res.output;
}

// ---- single-run mode: every axis is a uniform exit-2 error ----

TEST(CliContract, UnknownBenchExits2WithValidNames)
{
    expectUsageError("--bench quake3", "gsmdec");
}

TEST(CliContract, UnknownArchExits2WithValidNames)
{
    expectUsageError("--bench gsmdec --arch pentium",
                     "interleaved-ab");
}

TEST(CliContract, UnknownHeuristicExits2WithValidNames)
{
    expectUsageError("--bench gsmdec --heuristic smt", "ipbc");
}

TEST(CliContract, UnknownUnrollExits2WithValidNames)
{
    expectUsageError("--bench gsmdec --unroll x2", "selective");
}

// ---- sweep mode: the axis lists give the same contract ----

TEST(CliContract, SweepUnknownBenchesExits2WithValidNames)
{
    expectUsageError("--sweep --benches gsmdec,quake3", "rasta");
}

TEST(CliContract, SweepUnknownArchsExits2WithValidNames)
{
    expectUsageError("--sweep --benches gsmdec --archs itanium",
                     "multivliw");
}

TEST(CliContract, SweepUnknownHeuristicsExits2WithValidNames)
{
    expectUsageError(
        "--sweep --benches gsmdec --heuristics base,smt", "ibc");
}

TEST(CliContract, SweepUnknownUnrollsExits2WithValidNames)
{
    expectUsageError("--sweep --benches gsmdec --unrolls turbo",
                     "ouf");
}

// ---- malformed parametric keys are usage errors too ----

TEST(CliContract, InconsistentParametricArchExits2)
{
    const CliResult res =
        runCli("--bench gsmdec --arch interleaved:c3");
    EXPECT_EQ(res.exitCode, 2) << res.output;
    EXPECT_NE(res.output.find("power of two"), std::string::npos);
}

TEST(CliContract, MalformedSchedulerKeyExits2)
{
    // Scheduler budget keys get the same uniform treatment as
    // parametric arch keys: exit 2 with the grammar as the hint.
    const CliResult res =
        runCli("--bench gsmdec --heuristic optimal:z9");
    EXPECT_EQ(res.exitCode, 2) << res.output;
    EXPECT_NE(res.output.find("malformed modifier"),
              std::string::npos);
    EXPECT_NE(res.output.find("optimal[:b<N>ms][:n<N[eM]>]"),
              std::string::npos);
}

TEST(CliContract, BudgetModifierOnHeuristicExits2)
{
    const CliResult res =
        runCli("--bench gsmdec --heuristic ipbc:b5ms");
    EXPECT_EQ(res.exitCode, 2) << res.output;
    EXPECT_NE(res.output.find("does not take budget modifiers"),
              std::string::npos);
}

TEST(CliContract, BudgetedSchedulerKeyRuns)
{
    const CliResult res = runCli(
        "--bench gsmdec --heuristic optimal:b5000ms:n1e5 "
        "--unroll none --csv");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("gsmdec"), std::string::npos);
}

TEST(CliContract, ParametricArchRuns)
{
    const CliResult res =
        runCli("--bench gsmdec --arch interleaved:c2 --csv");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("gsmdec"), std::string::npos);
}

TEST(CliContract, OutOfRangeCountsAreUsageErrors)
{
    // int(strtol) truncation would silently turn these into small
    // valid-looking counts (2^32+1 -> 1 worker).
    const CliResult jobs =
        runCli("--sweep --benches gsmdec --jobs 4294967297");
    EXPECT_EQ(jobs.exitCode, 2) << jobs.output;
    const CliResult datasets =
        runCli("--sweep --benches gsmdec --datasets 4294967299");
    EXPECT_EQ(datasets.exitCode, 2) << datasets.output;
}

// ---- version identification ----

TEST(CliContract, VersionFlagPrintsLibraryVersionAndBuildType)
{
    const CliResult res = runCli("--version");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    // The driver prints exactly what the library reports: this
    // test links the same build, so the strings must agree.
    EXPECT_EQ(res.output, vliw::libraryVersionLine() + "\n");
    EXPECT_NE(res.output.find("wivliw "), std::string::npos);
    EXPECT_NE(res.output.find("("), std::string::npos);
}

// ---- registry listings ----

TEST(CliContract, ListFlagsPrintRegistries)
{
    const CliResult archs = runCli("--list-archs");
    EXPECT_EQ(archs.exitCode, 0);
    EXPECT_EQ(archs.output,
              "interleaved\ninterleaved-ab\nunified1\nunified5\n"
              "multivliw\n");

    const CliResult heuristics = runCli("--list-heuristics");
    EXPECT_EQ(heuristics.exitCode, 0);
    // Budgeted arms carry a tab-separated key-grammar annotation;
    // plain heuristics keep their classic bare-name lines.
    EXPECT_EQ(heuristics.output,
              "base\nibc\nipbc\n"
              "optimal\tbudgeted: optimal[:b<N>ms][:n<N[eM]>]\n");

    const CliResult unrolls = runCli("--list-unrolls");
    EXPECT_EQ(unrolls.exitCode, 0);
    EXPECT_EQ(unrolls.output, "none\nxN\nouf\nselective\n");

    const CliResult benches = runCli("--list-benches");
    EXPECT_EQ(benches.exitCode, 0);
    // Benchmarks carry a tab-separated source column.
    EXPECT_NE(benches.output.find("gsmdec\tbuiltin\n"),
              std::string::npos);
    // One line per registered benchmark.
    EXPECT_EQ(std::count(benches.output.begin(),
                         benches.output.end(), '\n'),
              14);
}

// ---- --help lists every documented flag -----------------------

/** The `--flag` tokens of a docs/OPERATIONS.md flag table: table
 *  rows look like `| `--jobs N` | 1 | worker threads... |`. */
std::vector<std::string>
documentedFlags(const std::string &docPath,
                const std::string &sectionHeading)
{
    std::ifstream in(docPath);
    EXPECT_TRUE(in.good()) << "cannot open " << docPath;
    std::vector<std::string> flags;
    std::string line;
    bool inSection = false;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            inSection = line == sectionHeading;
            continue;
        }
        if (!inSection || line.rfind("| `--", 0) != 0)
            continue;
        const std::size_t start = line.find("`--") + 1;
        std::size_t end = start;
        while (end < line.size() && line[end] != ' ' &&
               line[end] != '`')
            ++end;
        flags.push_back(line.substr(start, end - start));
    }
    return flags;
}

void
expectHelpListsFlags(const std::string &bin,
                     const std::vector<std::string> &flags)
{
    ASSERT_FALSE(flags.empty());
    const CliResult help = runBin(bin, "--help");
    EXPECT_EQ(help.exitCode, 0) << help.output;
    for (const std::string &flag : flags) {
        EXPECT_NE(help.output.find(flag), std::string::npos)
            << bin << " --help does not mention documented flag "
            << flag;
    }
}

TEST(CliContract, ServeHelpListsEveryDocumentedFlag)
{
    // The flag tables in docs/OPERATIONS.md are the operator
    // contract; the binary's --help must cover all of them.
    expectHelpListsFlags(WIVLIW_SERVE_BIN,
                         documentedFlags(WIVLIW_OPERATIONS_DOC,
                                         "## wivliw_serve flags"));
}

TEST(CliContract, LoadHelpListsEveryDocumentedFlag)
{
    expectHelpListsFlags(WIVLIW_LOAD_BIN,
                         documentedFlags(WIVLIW_OPERATIONS_DOC,
                                         "## wivliw_load flags"));
}

TEST(CliContract, RunHelpListsEveryReadmeFlag)
{
    // The driver flags the README documents (no OPERATIONS.md
    // table for wivliw_run — it is not a service).
    expectHelpListsFlags(
        WIVLIW_RUN_BIN,
        {"--bench", "--all", "--arch", "--heuristic", "--unroll",
         "--no-align", "--no-chains", "--versioning",
         "--dump-kernel", "--dump-dot", "--loop", "--list-archs",
         "--list-heuristics", "--list-unrolls", "--list-benches",
         "--sweep", "--benches", "--archs", "--heuristics",
         "--unrolls", "--jobs", "--datasets", "--no-compile-cache",
         "--timing", "--store", "--csv", "--json",
         "--version", "--help", "--bench-file",
         "--no-builtin-benches", "--export-benches", "--dump-ddg",
         "--gap-report", "--optimal", "--gap-gate"});
}

// ---- workload ingestion (--bench-file / .wvl) -----------------

/** Write @p text to a unique temp file, returning its path. */
std::string
writeTemp(const std::string &stem, const std::string &text)
{
    const std::string path =
        testing::TempDir() + "cli_contract_" + stem + ".wvl";
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();
    return path;
}

const char *kTinyKernel =
    "benchmark tinyfir {\n"
    "  symbol src size 4096\n"
    "  symbol dst size 4096\n"
    "  loop mac trip 256 {\n"
    "    x = load src gran 4 stride 4\n"
    "    m = intmul from x\n"
    "    acc = intalu from m\n"
    "    dep acc -> acc kind flow dist 1\n"
    "    s = store dst gran 4 stride 4 value acc\n"
    "  }\n"
    "}\n";

TEST(CliContract, BenchFileRegistersAndRuns)
{
    const std::string path = writeTemp("tiny", kTinyKernel);
    const CliResult res =
        runCli("--bench-file " + path + " --bench tinyfir --csv");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("tinyfir"), std::string::npos);

    const CliResult list =
        runCli("--bench-file " + path + " --list-benches");
    EXPECT_EQ(list.exitCode, 0);
    EXPECT_NE(list.output.find("tinyfir\tfile\n"),
              std::string::npos);
}

TEST(CliContract, UnknownBenchListsFileRegisteredNamesToo)
{
    const std::string path = writeTemp("tiny2", kTinyKernel);
    expectUsageError("--bench-file " + path + " --bench quake3",
                     "tinyfir");
}

TEST(CliContract, MalformedBenchFileIsUsageErrorWithPosition)
{
    const std::string path =
        writeTemp("bad", "benchmark b {\n"
                         "  loop l trip 7 {\n"
                         "    a = intalu\n"
                         "  }\n"
                         "}\n");
    const CliResult res =
        runCli("--bench-file " + path + " --bench b");
    EXPECT_EQ(res.exitCode, 2) << res.output;
    // Diagnostic carries file:line:col and a caret snippet.
    EXPECT_NE(res.output.find(path + ":2:15"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("^"), std::string::npos);
}

TEST(CliContract, DumpDdgWritesDotFile)
{
    const std::string path =
        testing::TempDir() + "cli_contract_ddg.dot";
    const CliResult res = runCli("--bench gsmdec --dump-ddg " +
                                 path + " --csv");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string dot((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("gsmdec_"), std::string::npos);
    // The run banner stays on stdout, not in the DOT file.
    EXPECT_EQ(dot.find("UF="), std::string::npos);
}

TEST(CliContract, ExportBenchesRoundTripsThroughBenchFile)
{
    const std::string path =
        testing::TempDir() + "cli_contract_export.wvl";
    const CliResult dump = runCli("--export-benches " + path);
    EXPECT_EQ(dump.exitCode, 0) << dump.output;

    // Re-ingesting the dump with builtins disabled reproduces the
    // full registry, every name tagged as file-sourced.
    const CliResult list = runCli("--no-builtin-benches "
                                  "--bench-file " +
                                  path + " --list-benches");
    EXPECT_EQ(list.exitCode, 0) << list.output;
    EXPECT_NE(list.output.find("gsmdec\tfile\n"),
              std::string::npos);
    EXPECT_EQ(std::count(list.output.begin(), list.output.end(),
                         '\n'),
              14);
}

} // namespace

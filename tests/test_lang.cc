/**
 * @file
 * The .wvl workload-language suite: the adversarial half feeds
 * hostile sources through the total lexer/parser/validator and pins
 * the positioned diagnostics (line:col, did-you-mean, cycle spell-
 * out) — never a crash, and a failed registration leaves the
 * session's workload registry untouched. The round-trip half pins
 * the writer: every builtin spec dumped, re-ingested into a
 * builtin-free session and dumped again must be byte-identical, and
 * the ingested copy must simulate to the same cycle count. The
 * golden half pins the exact bytes of every canonical dump, every
 * fingerprint (the compile store's keys) and every rendered
 * diagnostic in tests/golden/wvl_ingest.txt; regenerate it
 * deliberately with WIVLIW_REGEN_GOLDEN=1 ./test_lang.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hh"
#include "lang/diag.hh"
#include "lang/lower.hh"
#include "lang/writer.hh"
#include "util_golden.hh"

namespace {

using vliw::BenchmarkSpec;
using vliw::api::Session;
using vliw::api::SessionOptions;
using vliw::api::StatusCode;

/** Compile @p source, expecting an error mentioning @p what. */
void
expectError(const std::string &source, const std::string &what,
            int line = 0, int col = 0)
{
    std::vector<BenchmarkSpec> specs;
    auto diag = vliw::lang::compileWvl(source, specs);
    ASSERT_TRUE(diag.has_value())
        << "accepted bad source:\n"
        << source;
    EXPECT_NE(diag->message.find(what), std::string::npos)
        << "got: " << diag->message;
    if (line)
        EXPECT_EQ(diag->pos.line, line) << diag->message;
    if (col)
        EXPECT_EQ(diag->pos.col, col) << diag->message;
}

/** A minimal valid kernel to mutate from. */
std::string
kernel(const std::string &body)
{
    return "benchmark b {\n"
           "  symbol buf size 1024\n"
           "  loop l trip 16 {\n" +
           body +
           "  }\n"
           "}\n";
}

// ---- hostile input: every rejection is a positioned Diag -------------

TEST(WvlParser, BadTokenIsPositioned)
{
    expectError(kernel("    x = load buf @gran 4 stride 4\n"),
                "unexpected", 4, 18);
}

TEST(WvlParser, UnknownOpKindSuggests)
{
    expectError(kernel("    x = lod buf gran 4 stride 4\n"),
                "did you mean 'load'?", 4, 9);
}

TEST(WvlParser, DanglingOperandRefSuggests)
{
    expectError(kernel("    x = load buf stride 4\n"
                       "    y = intalu from z\n"),
                "'z' does not name an op in this loop");
}

TEST(WvlParser, DanglingDepEndpoint)
{
    expectError(kernel("    x = load buf stride 4\n"
                       "    dep x -> y kind flow\n"),
                "'y' does not name an op in this loop");
}

TEST(WvlParser, ZeroDistanceCycleIsSpelledOut)
{
    expectError(kernel("    a = intalu\n"
                       "    b = intalu\n"
                       "    dep a -> b kind flow\n"
                       "    dep b -> a kind anti\n"),
                "zero-distance dependence cycle");
}

TEST(WvlParser, RecurrenceWithDistanceIsFine)
{
    std::vector<BenchmarkSpec> specs;
    auto diag = vliw::lang::compileWvl(
        kernel("    a = intalu\n"
               "    dep a -> a kind flow dist 1\n"),
        specs);
    EXPECT_FALSE(diag.has_value()) << diag->message;
}

/** A minimal block with trip count @p trip. */
std::string
tripKernel(const std::string &trip)
{
    return "benchmark b {\n"
           "  loop l trip " + trip + " {\n"
           "    a = intalu\n"
           "  }\n"
           "}\n";
}

TEST(WvlParser, ZeroTripCount)
{
    expectError(tripKernel("0"), "trip");
}

TEST(WvlParser, TripMustBeMultipleOf16)
{
    expectError(tripKernel("24"), "multiple of 16");
}

TEST(WvlParser, DuplicateOpId)
{
    expectError(kernel("    a = intalu\n    a = intmul\n"),
                "duplicate op id 'a'");
}

TEST(WvlParser, CopyKindIsReserved)
{
    expectError(kernel("    a = copy\n"), "reserved");
}

TEST(WvlParser, IndirectAndStrideConflict)
{
    expectError(
        kernel("    x = load buf indirect stride 4\n"),
        "indirect");
}

TEST(WvlParser, NonIndirectNeedsAStride)
{
    expectError(kernel("    x = load buf gran 4\n"), "stride");
}

TEST(WvlParser, MemOpNeedsASymbol)
{
    expectError(kernel("    x = load stride 4\n"), "symbol");
}

TEST(WvlParser, UnknownSymbolSuggests)
{
    expectError(kernel("    x = load buff stride 4\n"),
                "did you mean 'buf'?");
}

TEST(WvlParser, LatencyOnMemOpRejected)
{
    expectError(
        kernel("    x = load buf stride 4 latency 3\n"),
        "latency");
}

TEST(WvlParser, MemDepNeedsMemEndpoints)
{
    expectError(kernel("    a = intalu\n"
                       "    b = intalu\n"
                       "    dep a -> b kind memflow\n"),
                "memory");
}

TEST(WvlParser, ChainLinksMemOpsOnly)
{
    expectError(kernel("    a = intalu\n"
                       "    x = load buf stride 4\n"
                       "    chain a x\n"),
                "memory");
}

TEST(WvlParser, DepDistanceCapped)
{
    expectError(kernel("    a = intalu\n"
                       "    dep a -> a kind flow dist 9999\n"),
                "dist");
}

TEST(WvlParser, UnclosedBenchmark)
{
    expectError("benchmark broken {\n  loop l trip 16 {\n",
                "missing '}'");
}

TEST(WvlParser, EmptySourceDefinesNothing)
{
    expectError("# only a comment\n", "no benchmark");
}

TEST(WvlParser, UnterminatedString)
{
    expectError(kernel("    a = intalu name \"oops\n"),
                "unterminated");
}

TEST(WvlParser, DidYouMeanThresholds)
{
    const std::vector<std::string> kinds{"load", "store",
                                         "intalu"};
    EXPECT_EQ(vliw::lang::didYouMean("lod", kinds), "load");
    EXPECT_EQ(vliw::lang::didYouMean("stor", kinds), "store");
    // Nothing within edit distance 2 -> no suggestion.
    EXPECT_EQ(vliw::lang::didYouMean("banana", kinds), "");
}

TEST(WvlParser, RenderDiagCaretPointsAtColumn)
{
    const std::string src = "benchmark b {\n  loop l trip 0 {\n";
    std::vector<BenchmarkSpec> specs;
    auto diag = vliw::lang::compileWvl(src, specs);
    ASSERT_TRUE(diag.has_value());
    const std::string text =
        vliw::lang::renderDiag(*diag, src, "input.wvl");
    EXPECT_NE(text.find("input.wvl:"), std::string::npos) << text;
    EXPECT_NE(text.find(": error: "), std::string::npos) << text;
    EXPECT_NE(text.find('^'), std::string::npos) << text;
}

// ---- session front door: all-or-nothing, idempotent ------------------

TEST(WvlSession, FailedRegistrationLeavesRegistryUntouched)
{
    Session session;
    const auto before =
        session.registries().workloads.names();
    // Two blocks; the second is broken. Nothing may register.
    const std::string source =
        "benchmark good {\n"
        "  loop l trip 16 {\n"
        "    a = intalu\n"
        "  }\n"
        "}\n"
        "benchmark bad {\n"
        "  loop l trip 7 {\n"
        "    a = intalu\n"
        "  }\n"
        "}\n";
    auto res = session.registerWorkloadText("", source);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(res.status().message().find("error:"),
              std::string::npos);
    EXPECT_EQ(session.registries().workloads.names(), before);
}

TEST(WvlSession, CollisionWithBuiltinRejected)
{
    Session session;
    auto res = session.registerWorkloadText(
        "", "benchmark gsmdec {\n"
            "  loop l trip 16 {\n"
            "    a = intalu\n"
            "  }\n"
            "}\n");
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::AlreadyExists);
}

TEST(WvlSession, ReRegisteringIdenticalTextIsIdempotent)
{
    Session session;
    const std::string src = "benchmark mine {\n"
                            "  loop l trip 16 {\n"
                            "    a = intalu\n"
                            "  }\n"
                            "}\n";
    auto first = session.registerWorkloadText("", src);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    ASSERT_EQ(first.value().size(), 1u);
    EXPECT_EQ(first.value()[0], "mine");

    auto again = session.registerWorkloadText("", src);
    EXPECT_TRUE(again.ok()) << again.status().toString();

    // Same name, different body: rejected, original kept.
    auto conflict = session.registerWorkloadText(
        "", "benchmark mine {\n"
            "  loop l trip 32 {\n"
            "    a = intalu\n"
            "  }\n"
            "}\n");
    ASSERT_FALSE(conflict.ok());
    EXPECT_EQ(conflict.status().code(),
              StatusCode::AlreadyExists);
}

TEST(WvlSession, ExplicitNameRenamesSingleBlock)
{
    Session session;
    auto res = session.registerWorkloadText(
        "renamed", "benchmark original {\n"
                   "  loop l trip 16 {\n"
                   "    a = intalu\n"
                   "  }\n"
                   "}\n");
    ASSERT_TRUE(res.ok()) << res.status().toString();
    ASSERT_EQ(res.value().size(), 1u);
    EXPECT_EQ(res.value()[0], "renamed");
    EXPECT_NE(session.registries().workloads.find("renamed"),
              nullptr);
    EXPECT_EQ(session.registries().workloads.find("original"),
              nullptr);
}

TEST(WvlSession, IngestedKernelRunsEndToEnd)
{
    Session session;
    auto reg = session.registerWorkloadText(
        "", "benchmark tiny {\n"
            "  symbol src size 4096\n"
            "  loop l trip 64 {\n"
            "    x = load src gran 4 stride 4\n"
            "    a = intalu from x\n"
            "    dep a -> a kind flow dist 1\n"
            "  }\n"
            "}\n");
    ASSERT_TRUE(reg.ok()) << reg.status().toString();
    auto run = session.run({.workload = "tiny"});
    ASSERT_TRUE(run.ok()) << run.status().toString();
    EXPECT_GT(run.value().run().cycles(), 0u);
}

// ---- round trip: dump -> reparse -> dump is a fixed point ------------

TEST(WvlRoundTrip, EveryBuiltinDumpIsAFixedPoint)
{
    Session builtins;
    SessionOptions clean_opts;
    clean_opts.builtinWorkloads = false;
    const auto names = builtins.registries().workloads.names();
    ASSERT_EQ(names.size(), 14u);
    for (const std::string &name : names) {
        auto dump = builtins.dumpWorkloadText(name);
        ASSERT_TRUE(dump.ok()) << name;

        Session clean(clean_opts);
        ASSERT_TRUE(clean.registries().workloads.names().empty());
        auto reg = clean.registerWorkloadText("", dump.value());
        ASSERT_TRUE(reg.ok())
            << name << ": " << reg.status().toString();
        auto dump2 = clean.dumpWorkloadText(name);
        ASSERT_TRUE(dump2.ok()) << name;
        EXPECT_EQ(dump.value(), dump2.value())
            << "dump of '" << name << "' is not a fixed point";
    }
}

TEST(WvlRoundTrip, IngestedBuiltinSimulatesIdentically)
{
    Session builtins;
    auto want = builtins.run({.workload = "gsmdec"});
    ASSERT_TRUE(want.ok());

    SessionOptions clean_opts;
    clean_opts.builtinWorkloads = false;
    Session clean(clean_opts);
    auto dump = builtins.dumpWorkloadText("gsmdec");
    ASSERT_TRUE(dump.ok());
    auto reg = clean.registerWorkloadText("", dump.value());
    ASSERT_TRUE(reg.ok()) << reg.status().toString();

    auto got = clean.run({.workload = "gsmdec"});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().run().cycles(),
              want.value().run().cycles());
    ASSERT_EQ(got.value().run().loops.size(),
              want.value().run().loops.size());
    for (std::size_t i = 0; i < got.value().run().loops.size();
         ++i)
        EXPECT_EQ(got.value().run().loops[i].ii,
                  want.value().run().loops[i].ii);
}

TEST(WvlRoundTrip, FingerprintTracksContent)
{
    std::vector<BenchmarkSpec> a, b, c;
    ASSERT_FALSE(vliw::lang::compileWvl(tripKernel("16"), a));
    ASSERT_FALSE(vliw::lang::compileWvl(tripKernel("16"), b));
    ASSERT_FALSE(vliw::lang::compileWvl(tripKernel("32"), c));
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].fingerprint.size(), 16u);
    EXPECT_EQ(a[0].fingerprint, b[0].fingerprint);
    EXPECT_NE(a[0].fingerprint, c[0].fingerprint);
}

// ---- golden: dump bytes, fingerprints and diagnostics pinned ---------

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif
#ifndef WIVLIW_KERNELS_DIR
#define WIVLIW_KERNELS_DIR "examples/kernels"
#endif

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Every spec of @p source: a header with its fingerprint, then its
 *  canonical dump. */
void
renderSpecs(std::ostream &os, const std::string &origin,
            const std::string &source)
{
    std::vector<BenchmarkSpec> specs;
    if (auto diag = vliw::lang::compileWvl(source, specs)) {
        os << "== " << origin << " rejected: "
           << vliw::lang::renderDiag(*diag, source, origin) << '\n';
        return;
    }
    for (const BenchmarkSpec &spec : specs) {
        os << "== " << origin << ' ' << spec.name
           << " fingerprint=" << spec.fingerprint
           << " recomputed=" << vliw::lang::wvlFingerprint(spec)
           << '\n'
           << vliw::lang::dumpWorkloadText(spec);
    }
}

/** Malformed sources, one per diagnostic site worth pinning. */
const std::vector<std::string> &
malformedSources()
{
    static const std::vector<std::string> sources{
        kernel("    x = load buf @gran 4 stride 4\n"),
        kernel("    x = lod buf gran 4 stride 4\n"),
        kernel("    x = load buff stride 4\n"),
        kernel("    x = load buf stride 4\n"
               "    y = intalu from xx\n"),
        kernel("    x = load buf stride 4\n"
               "    dep x -> x kind flwo dist 1\n"),
        kernel("    a = intalu\n"
               "    b = intalu from a\n"
               "    dep b -> a kind anti\n"),
        kernel("    a = intalu name \"oops\n"),
        kernel("    a = intalu name \"bad \\q escape\"\n"),
        kernel("    a = intalu \"quoted \\\" word\"\n"),
        kernel("    a = intalu bogus 3\n"),
        kernel("    a = intalu latency 99999999999999999999\n"),
        kernel("    x = load buf gran 3 stride 4\n"),
        "benchmark b {\n  loop l trip 16 {\n    x = load src "
        "stride 4\n  }\n}\n",
        "benchmark b {\n  maindata share 1.5\n  loop l trip 16 {\n"
        "    a = intalu\n  }\n}\n",
        "benchmark b {\n\tloop l trip 24 {\n\t\ta = intalu\n\t}\n}\n",
        "benchmark b {\n  loop l trip 16 {\n    a = intalu\n",
        "benchmark b { loop",
        "# nothing but a comment\n",
        std::string("benchmark b {\n  \x01\n}\n"),
    };
    return sources;
}

std::string
renderIngestGolden()
{
    std::ostringstream os;
    for (const char *name : {"dotprod", "fir", "stencil"}) {
        const std::string path =
            std::string(WIVLIW_KERNELS_DIR) + "/" + name + ".wvl";
        renderSpecs(os, std::string("examples/kernels/") + name +
                            ".wvl",
                    readFile(path));
    }
    // The builtins exactly as --export-benches writes them.
    Session builtins;
    std::string exported;
    for (const std::string &name :
         builtins.registries().workloads.names()) {
        auto dump = builtins.dumpWorkloadText(name);
        if (dump.ok())
            exported += dump.value();
    }
    renderSpecs(os, "export-benches", exported);
    // A display name that needs quoting and escaping round-trips.
    renderSpecs(os, "escaped-name",
                kernel("    a = intalu name \"say \\\"hi\\\" \\\\ "
                       "bye\"\n"
                       "    b = intalu name \"a->b\" from a\n"));
    int index = 0;
    for (const std::string &source : malformedSources()) {
        std::vector<BenchmarkSpec> specs;
        const std::string origin =
            "malformed" + std::to_string(++index) + ".wvl";
        auto diag = vliw::lang::compileWvl(source, specs);
        os << "== " << origin << '\n'
           << (diag ? vliw::lang::renderDiag(*diag, source, origin)
                    : std::string("accepted"))
           << '\n';
    }
    return os.str();
}

TEST(WvlGolden, DumpsFingerprintsAndDiagnosticsMatchGolden)
{
    const std::string path =
        std::string(WIVLIW_GOLDEN_DIR) + "/wvl_ingest.txt";
    vliw::testutil::expectMatchesGolden(path, renderIngestGolden());
}

} // namespace

/**
 * @file
 * Tests for the compiled-artifact codec and the
 * content-addressed compile store:
 *
 *  - round-trip bit-identity across the full benchmark x
 *    architecture grid (re-encoding a decoded artifact reproduces
 *    the original bytes, and the decoded artifact simulates
 *    bit-identically to the original),
 *  - total decoding: version mismatch, truncation, corruption and
 *    trailing garbage come back as api::Status, never a crash,
 *  - a golden serialized artifact pinning the on-disk format
 *    (WIVLIW_REGEN_GOLDEN=1 regenerates after a deliberate format
 *    bump — which must also bump kArtifactFormatVersion),
 *  - CompileStore semantics: load-after-store round trip, misses
 *    for absent keys, corrupt entries degrading to misses (and
 *    being unlinked), hash-collision defence via the embedded key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "api/registries.hh"
#include "core/versioning.hh"
#include "dist/artifact.hh"
#include "dist/compile_store.hh"
#include "engine/compile_cache.hh"
#include "support/blob.hh"
#include "workloads/mediabench.hh"

#ifndef WIVLIW_GOLDEN_DIR
#define WIVLIW_GOLDEN_DIR "tests/golden"
#endif

namespace vliw {
namespace {

constexpr const char *kGoldenPath =
    WIVLIW_GOLDEN_DIR "/artifact_gsmdec.wvaf";

/** A built-in architecture's configuration. */
MachineConfig
archConfig(const std::string &arch)
{
    return api::builtinRegistries().archs.resolve(arch).value();
}

/** Compile one (bench, arch) cell with default toolchain options. */
CompiledBenchmark
compileCell(const std::string &bench, const std::string &arch)
{
    const BenchmarkSpec spec = makeBenchmark(bench);
    const ToolchainOptions opts;
    const Toolchain chain(archConfig(arch), opts);
    return chain.compileBenchmark(spec);
}

std::string
cellKey(const std::string &bench, const std::string &arch)
{
    return engine::compileKey(archConfig(arch), ToolchainOptions{},
                              bench);
}

TEST(ArtifactCodec, RoundTripsFullGridBitExactly)
{
    for (const std::string &bench : mediabenchNames()) {
        for (const std::string &arch :
             api::builtinRegistries().archs.names()) {
            const CompiledBenchmark original =
                compileCell(bench, arch);
            const std::string key = cellKey(bench, arch);
            const std::string encoded =
                dist::encodeArtifact(original, key);

            auto decoded = dist::decodeArtifact(encoded);
            ASSERT_TRUE(decoded.ok())
                << bench << "/" << arch << ": "
                << decoded.status().toString();
            EXPECT_EQ(decoded.value().key, key);
            EXPECT_EQ(decoded.value().library, libraryVersion());

            // Deterministic codec: byte-equal re-encoding is
            // field-level equality over every loop, schedule,
            // latency and profile record.
            const std::string reencoded = dist::encodeArtifact(
                decoded.value().benchmark, key);
            EXPECT_EQ(encoded, reencoded)
                << bench << "/" << arch
                << ": decode/encode round trip not bit-exact";
        }
    }
}

TEST(ArtifactCodec, DecodedArtifactSimulatesIdentically)
{
    // Simulation reads every field the codec carries; identical
    // cycle/stat outcomes over decoded artifacts are the
    // end-to-end proof the compile store can substitute a
    // stored artifact for a fresh compile.
    for (const std::string &arch :
         api::builtinRegistries().archs.names()) {
        const std::string bench = "gsmdec";
        const BenchmarkSpec spec = makeBenchmark(bench);
        const Toolchain chain(archConfig(arch), ToolchainOptions{});
        const CompiledBenchmark original =
            chain.compileBenchmark(spec);

        auto decoded = dist::decodeArtifact(
            dist::encodeArtifact(original, cellKey(bench, arch)));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();

        const BenchmarkRun a =
            chain.simulateBenchmark(spec, original);
        const BenchmarkRun b = chain.simulateBenchmark(
            spec, decoded.value().benchmark);
        EXPECT_EQ(a.total.totalCycles, b.total.totalCycles)
            << arch;
        EXPECT_EQ(a.total.stallCycles, b.total.stallCycles)
            << arch;
        EXPECT_EQ(a.total.abHits, b.total.abHits) << arch;
    }
}

TEST(ArtifactCodec, RejectsBadMagic)
{
    auto r = dist::decodeArtifact("this is not an artifact");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), api::StatusCode::InvalidArgument);
}

TEST(ArtifactCodec, RejectsFormatVersionSkew)
{
    const CompiledBenchmark bench =
        compileCell("gsmdec", "interleaved");
    std::string bytes = dist::encodeArtifact(
        bench, cellKey("gsmdec", "interleaved"));
    // The format version is the little-endian u32 after the magic.
    bytes[4] = char(dist::kArtifactFormatVersion + 1);
    auto r = dist::decodeArtifact(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(),
              api::StatusCode::FailedPrecondition);
}

TEST(ArtifactCodec, RejectsLibraryVersionSkew)
{
    // A frame hand-built with a foreign library version must be
    // refused: schedules are only reproducible within a version.
    blob::Writer frame;
    frame.u32(dist::kArtifactMagic);
    frame.u32(dist::kArtifactFormatVersion);
    frame.str("0.0.0-foreign");
    frame.str("somekey");
    frame.u64(0);
    frame.u64(blob::fnv1a64(""));
    auto r = dist::decodeArtifact(frame.bytes());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(),
              api::StatusCode::FailedPrecondition);
}

TEST(ArtifactCodec, RejectsEveryTruncation)
{
    const CompiledBenchmark bench =
        compileCell("gsmdec", "interleaved");
    const std::string bytes = dist::encodeArtifact(
        bench, cellKey("gsmdec", "interleaved"));
    // Every strict prefix must fail as a Status; stride keeps the
    // loop affordable, the first/last 64 lengths run exhaustively.
    for (std::size_t len = 0; len < bytes.size();
         len += (len > 64 && len + 64 < bytes.size()) ? 37 : 1) {
        auto r = dist::decodeArtifact(bytes.substr(0, len));
        EXPECT_FALSE(r.ok()) << "prefix of " << len
                             << " bytes decoded successfully";
    }
}

TEST(ArtifactCodec, RejectsPayloadCorruption)
{
    const CompiledBenchmark bench =
        compileCell("gsmdec", "interleaved");
    std::string bytes = dist::encodeArtifact(
        bench, cellKey("gsmdec", "interleaved"));
    // Flip one payload byte: the checksum must catch it.
    bytes[bytes.size() - 1] =
        char(static_cast<unsigned char>(bytes.back()) ^ 0xFF);
    auto r = dist::decodeArtifact(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), api::StatusCode::InvalidArgument);
}

TEST(ArtifactCodec, RejectsTrailingBytes)
{
    const CompiledBenchmark bench =
        compileCell("gsmdec", "interleaved");
    std::string bytes = dist::encodeArtifact(
        bench, cellKey("gsmdec", "interleaved"));
    bytes += "extra";
    auto r = dist::decodeArtifact(bytes);
    // Either the payload-length check or the trailing-bytes check
    // fires; both are InvalidArgument.
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), api::StatusCode::InvalidArgument);
}

TEST(ArtifactCodec, GoldenArtifactStaysByteStable)
{
    // gsmdec under the default arch pins the on-disk format: any
    // codec change that perturbs these bytes must bump
    // kArtifactFormatVersion and regenerate.
    const std::string key = cellKey("gsmdec", "interleaved-ab");
    const std::string actual = dist::encodeArtifact(
        compileCell("gsmdec", "interleaved-ab"), key);

    if (std::getenv("WIVLIW_REGEN_GOLDEN")) {
        std::ofstream out(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good())
            << "cannot write golden file " << kGoldenPath;
        out.write(actual.data(), std::streamsize(actual.size()));
        GTEST_SKIP() << "golden artifact regenerated at "
                     << kGoldenPath;
    }

    std::ifstream in(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden artifact " << kGoldenPath
        << "; regenerate with WIVLIW_REGEN_GOLDEN=1";
    std::ostringstream golden;
    golden << in.rdbuf();
    const std::string want = golden.str();
    ASSERT_EQ(want.size(), actual.size())
        << "golden artifact size drifted; a format change must "
           "bump kArtifactFormatVersion";
    EXPECT_TRUE(want == actual)
        << "golden artifact bytes drifted; a format change must "
           "bump kArtifactFormatVersion";
    // And the pinned bytes must still decode in this build.
    auto decoded = dist::decodeArtifact(want);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded.value().key, key);
}

/** Temporary store directory, removed on destruction. */
class StoreDir
{
  public:
    StoreDir()
    {
        char tmpl[] = "/tmp/wivliw_store_XXXXXX";
        path_ = ::mkdtemp(tmpl);
    }

    ~StoreDir()
    {
        if (path_.empty())
            return;
        // Best-effort cleanup of the flat entry files.
        std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(CompileStore, StoreThenLoadRoundTrips)
{
    StoreDir dir;
    dist::CompileStore store(dir.path());
    ASSERT_TRUE(store.status().ok())
        << store.status().toString();

    const std::string key = cellKey("gsmdec", "interleaved");
    const CompiledBenchmark bench =
        compileCell("gsmdec", "interleaved");

    EXPECT_EQ(store.load(key), nullptr);    // cold miss
    store.store(key, bench);
    const auto loaded = store.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(dist::encodeArtifact(*loaded, key),
              dist::encodeArtifact(bench, key));
}

TEST(CompileStore, CorruptEntryIsAMissAndGetsUnlinked)
{
    StoreDir dir;
    dist::CompileStore store(dir.path());
    const std::string key = cellKey("gsmdec", "unified1");

    std::ofstream(store.entryPath(key), std::ios::binary)
        << "garbage, not an artifact";
    EXPECT_EQ(store.load(key), nullptr);
    // The poisoned entry must not survive to shadow future stores.
    struct ::stat st = {};
    EXPECT_NE(::stat(store.entryPath(key).c_str(), &st), 0);
}

TEST(CompileStore, EmbeddedKeyDefeatsHashCollisions)
{
    StoreDir dir;
    dist::CompileStore store(dir.path());
    const std::string keyA = cellKey("gsmdec", "interleaved");
    const std::string keyB = cellKey("gsmdec", "unified1");
    const CompiledBenchmark bench =
        compileCell("gsmdec", "interleaved");

    // Simulate FNV collision: plant keyA's artifact at keyB's
    // path. The embedded key mismatch must read as a miss.
    const std::string bytes = dist::encodeArtifact(bench, keyA);
    std::ofstream(store.entryPath(keyB), std::ios::binary)
        .write(bytes.data(), std::streamsize(bytes.size()));
    EXPECT_EQ(store.load(keyB), nullptr);
    // And keyA itself was never stored.
    EXPECT_EQ(store.load(keyA), nullptr);
}

TEST(CompileStore, UnusableDirectoryDegradesToAlwaysMiss)
{
    dist::CompileStore store("/proc/definitely/not/writable");
    EXPECT_FALSE(store.status().ok());
    const std::string key = cellKey("gsmdec", "interleaved");
    EXPECT_EQ(store.load(key), nullptr);
    // store() must be a silent no-op, not a crash.
    store.store(key, compileCell("gsmdec", "interleaved"));
    EXPECT_EQ(store.load(key), nullptr);
}

TEST(CompileStore, VersionSkewedEntryIsAMiss)
{
    StoreDir dir;
    dist::CompileStore store(dir.path());
    const std::string key = cellKey("gsmdec", "interleaved");
    std::string bytes = dist::encodeArtifact(
        compileCell("gsmdec", "interleaved"), key);
    bytes[4] = char(dist::kArtifactFormatVersion + 1);
    std::ofstream(store.entryPath(key), std::ios::binary)
        .write(bytes.data(), std::streamsize(bytes.size()));
    EXPECT_EQ(store.load(key), nullptr);
}

} // namespace
} // namespace vliw

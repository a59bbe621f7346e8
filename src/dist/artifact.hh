/**
 * @file
 * Versioned serialization of compiled benchmarks — the disk format
 * of the persistent compile store. An encoded artifact
 * round-trips a CompiledBenchmark bit-exactly: every schedule
 * placement, copy operation, II/stage count, latency class,
 * profile record and unroll decision comes back equal, so a
 * simulation over a decoded artifact is bit-identical to one over
 * the original (the codec tests enforce both properties across the
 * full benchmark x architecture grid).
 *
 * Frame layout (little-endian, see support/blob.hh):
 *
 *   magic "WVAF" | format version | libraryVersion | compile key |
 *   payload length | payload FNV-1a checksum | payload
 *
 * The compile key is the same canonical string the in-memory
 * CompileCache memoizes on (engine::compileKey): benchmark name +
 * arch geometry + scheduler/unroll canonical names + every other
 * compile-relevant option. Together with the library version it
 * makes artifacts self-describing and lets the content-addressed
 * store reject a hash collision or a stale-version entry by
 * inspection instead of by crashing in the simulator.
 *
 * Decoding is total: any malformed input — wrong magic, version
 * mismatch, truncation, checksum failure, out-of-range node ids or
 * enum values — comes back as an api::Status (FailedPrecondition
 * for version skew, InvalidArgument for corruption), never a crash
 * or a partial object.
 */

#ifndef WIVLIW_DIST_ARTIFACT_HH
#define WIVLIW_DIST_ARTIFACT_HH

#include <string>
#include <string_view>

#include "api/status.hh"
#include "core/toolchain.hh"

namespace vliw::dist {

/** First four artifact bytes: "WVAF" (wivliw artifact). */
inline constexpr std::uint32_t kArtifactMagic = 0x46415657u;

/** Bumped whenever the payload layout changes incompatibly.
 *  v2: per-loop exact-solver verdict (outcome, lower bound, node
 *  count) appended after the invocation count. */
inline constexpr std::uint32_t kArtifactFormatVersion = 2;

/** A decoded artifact: the payload plus its identifying header. */
struct DecodedArtifact
{
    /** Canonical compile key the artifact was encoded under. */
    std::string key;
    /** libraryVersion() of the encoder. */
    std::string library;
    CompiledBenchmark benchmark;
};

/**
 * Serialize @p bench (compiled under the canonical compile key
 * @p key) into a self-contained artifact frame. Deterministic:
 * equal inputs produce byte-identical frames.
 */
std::string encodeArtifact(const CompiledBenchmark &bench,
                           const std::string &key);

/**
 * Parse and validate one artifact frame. Never throws; never
 * returns a partially-filled benchmark.
 */
api::Result<DecodedArtifact> decodeArtifact(std::string_view bytes);

} // namespace vliw::dist

#endif // WIVLIW_DIST_ARTIFACT_HH

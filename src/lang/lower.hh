/**
 * @file
 * Semantic validation and lowering: .wvl AST -> BenchmarkSpec.
 *
 * Everything the downstream pipeline would assert on is rejected
 * here as a positioned Diag instead: unknown op/dep kinds (with a
 * "did you mean" suggestion), dangling op references, memory ops
 * without a bound symbol, non-indirect accesses with an unknown
 * stride (signed-overflow UB in address generation), trip counts
 * the modulo scheduler refuses (< 8 or not a multiple of 16),
 * zero-distance dependence cycles (which would deadlock scheduling)
 * and resource blow-ups (node/edge/loop/symbol caps). A lowered
 * spec is safe to hand to the engine on any thread.
 *
 * Each lowered spec also carries a content fingerprint (FNV-1a of
 * its canonical dump, see writer.hh) so the compile cache can tell
 * two same-named kernels with different bodies apart.
 */

#ifndef WIVLIW_LANG_LOWER_HH
#define WIVLIW_LANG_LOWER_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/parser.hh"
#include "workloads/loop_spec.hh"

namespace vliw::lang {

/** Hard caps keeping hostile input from exhausting the process. */
constexpr int kMaxLoopsPerBenchmark = 64;
constexpr int kMaxSymbolsPerBenchmark = 64;
constexpr int kMaxOpsPerLoop = 256;
constexpr int kMaxEdgesPerLoop = 2048;
constexpr std::int64_t kMaxTripCount = 1 << 20;
constexpr int kMaxInvocations = 1024;
constexpr int kMaxDepDistance = 1024;
constexpr int kMaxLatency = 1024;
constexpr std::int64_t kMaxSymbolBytes = std::int64_t(1) << 30;
constexpr std::int64_t kMaxAddressMagnitude = std::int64_t(1)
                                              << 32;

/**
 * Validate and lower every benchmark of @p ast into @p out (one
 * BenchmarkSpec per `benchmark` block, in source order). The
 * fingerprint is left empty: it covers the spec's name, so a caller
 * that renames a spec fingerprints it once, afterwards. Returns the
 * first semantic error as a Diag, in which case @p out is
 * unspecified; nullopt on success.
 */
std::optional<Diag> lowerWvl(const std::vector<AstBenchmark> &ast,
                             std::vector<BenchmarkSpec> &out);

/**
 * Parse + validate + lower + fingerprint in one call. On error
 * @p out is unspecified.
 */
std::optional<Diag> compileWvl(std::string_view source,
                               std::vector<BenchmarkSpec> &out);

/**
 * The best "did you mean" candidate for @p given among
 * @p candidates, or empty when nothing is close (edit distance
 * > 2). Exposed for the op-kind/dep-kind/symbol suggestion tests.
 */
std::string didYouMean(const std::string &given,
                       const std::vector<std::string> &candidates);

} // namespace vliw::lang

#endif // WIVLIW_LANG_LOWER_HH

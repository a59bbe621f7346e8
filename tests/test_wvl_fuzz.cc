/**
 * @file
 * Seeded mutation fuzzer for the .wvl front end. The lexer, parser
 * and lowering claim to be total: any input yields either specs or a
 * positioned Diag, never a crash, assertion or sanitizer report (the
 * Debug CI legs run this under ASan/UBSan). Mutants are byte flips,
 * byte inserts, truncations and token swaps of the example kernels;
 * every accepted mutant must also round-trip, i.e. its canonical
 * dump re-ingests to the same fingerprint and the same dump.
 *
 * Deterministic: a fixed seed drives every mutant, so a failure
 * names a reproducible mutant index.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lang/diag.hh"
#include "lang/lower.hh"
#include "lang/writer.hh"
#include "support/random.hh"

#ifndef WIVLIW_KERNELS_DIR
#define WIVLIW_KERNELS_DIR "examples/kernels"
#endif

namespace vliw {
namespace {

constexpr int kMutantsPerKernel = 7000;

std::string
readKernel(const char *name)
{
    std::ifstream in(std::string(WIVLIW_KERNELS_DIR) + "/" + name +
                         ".wvl",
                     std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Byte ranges of the whitespace-separated words of @p text. */
std::vector<std::pair<std::size_t, std::size_t>>
words(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               (text[i] == ' ' || text[i] == '\n'))
            ++i;
        const std::size_t start = i;
        while (i < text.size() && text[i] != ' ' && text[i] != '\n')
            ++i;
        if (i > start)
            out.emplace_back(start, i - start);
    }
    return out;
}

/** Bytes that steer the lexer into its interesting corners. */
constexpr char kSpecial[] = {'"', '\\', '\n', '#', '{', '}', '=',
                             '-', '>', '\0', '\t', '\r', '\x7f',
                             '\xff', '0', '9'};

std::string
mutate(const std::string &base, Rng &rng)
{
    std::string text = base;
    const int edits = int(rng.nextRange(1, 4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng.nextBelow(text.size());
        switch (rng.nextBelow(5)) {
          case 0: // flip one bit
            text[at] = char(text[at] ^ (1 << rng.nextBelow(8)));
            break;
          case 1: // overwrite with a lexer-relevant byte
            text[at] = kSpecial[rng.nextBelow(sizeof(kSpecial))];
            break;
          case 2: // insert one
            text.insert(text.begin() + std::ptrdiff_t(at),
                        kSpecial[rng.nextBelow(sizeof(kSpecial))]);
            break;
          case 3: // truncate
            text.resize(at);
            break;
          default: { // copy one word over another
            const auto ws = words(text);
            if (ws.size() < 2)
                break;
            const auto from = ws[rng.nextBelow(ws.size())];
            const auto to = ws[rng.nextBelow(ws.size())];
            text.replace(to.first, to.second,
                         text.substr(from.first, from.second));
            break;
          }
        }
    }
    return text;
}

TEST(WvlFuzz, MutantsYieldSpecsOrDiagAndAcceptedOnesRoundTrip)
{
    Rng rng(0x5eed'f00dull);
    int accepted = 0;
    int rejected = 0;
    for (const char *name : {"dotprod", "fir", "stencil"}) {
        const std::string base = readKernel(name);
        ASSERT_FALSE(base.empty()) << name;
        for (int m = 0; m < kMutantsPerKernel; ++m) {
            const std::string source = mutate(base, rng);
            std::vector<BenchmarkSpec> specs;
            const auto diag = lang::compileWvl(source, specs);
            if (diag) {
                ++rejected;
                EXPECT_FALSE(diag->message.empty())
                    << name << " mutant " << m;
                const std::string shown =
                    lang::renderDiag(*diag, source, "mutant.wvl");
                EXPECT_NE(shown.find(": error: "), std::string::npos)
                    << name << " mutant " << m;
                continue;
            }
            ++accepted;
            for (const BenchmarkSpec &spec : specs) {
                const std::string dump = lang::dumpWorkloadText(spec);
                std::vector<BenchmarkSpec> again;
                const auto rediag = lang::compileWvl(dump, again);
                ASSERT_FALSE(rediag.has_value())
                    << name << " mutant " << m
                    << ": dump does not re-ingest: "
                    << lang::renderDiag(*rediag, dump, "dump.wvl")
                    << "\n" << dump;
                ASSERT_EQ(again.size(), 1u);
                EXPECT_EQ(again[0].fingerprint, spec.fingerprint)
                    << name << " mutant " << m << "\n" << dump;
                EXPECT_EQ(lang::dumpWorkloadText(again[0]), dump)
                    << name << " mutant " << m;
            }
        }
    }
    // Both outcomes must actually be exercised.
    EXPECT_GT(accepted, 1000);
    EXPECT_GT(rejected, 1000);
    RecordProperty("accepted", accepted);
    RecordProperty("rejected", rejected);
}

} // namespace
} // namespace vliw

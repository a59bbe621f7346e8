/**
 * @file
 * Compare a test's rendered text with a checked-in golden file,
 * line by line, so a mismatch names the first divergent line
 * instead of printing two large strings. With WIVLIW_REGEN_GOLDEN
 * set in the environment the golden is rewritten from @p actual
 * instead, and the test is skipped (an intended change only).
 */

#ifndef WIVLIW_TESTS_UTIL_GOLDEN_HH
#define WIVLIW_TESTS_UTIL_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace vliw::testutil {

inline void
expectMatchesGolden(const std::string &path, const std::string &actual)
{
    if (std::getenv("WIVLIW_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
        out << actual;
        GTEST_SKIP() << "golden file regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << "; regenerate with WIVLIW_REGEN_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::istringstream golden_lines(golden.str());
    std::istringstream actual_lines(actual);
    std::string want, got;
    int line = 0;
    while (std::getline(golden_lines, want)) {
        ++line;
        ASSERT_TRUE(std::getline(actual_lines, got))
            << "output truncated at golden line " << line << ": "
            << want;
        ASSERT_EQ(got, want) << "first divergence at line " << line;
    }
    EXPECT_FALSE(std::getline(actual_lines, got))
        << "extra output after golden ended: " << got;
}

} // namespace vliw::testutil

#endif // WIVLIW_TESTS_UTIL_GOLDEN_HH

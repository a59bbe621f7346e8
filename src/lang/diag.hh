/**
 * @file
 * Diagnostics for the .wvl workload language: a source position
 * (1-based line:column) plus a message, renderable as a compiler-
 * style error with the offending source line and a caret.
 *
 * The whole `vliw::lang` layer is *total*: malformed input of any
 * shape comes back as one of these, never an assertion, exception
 * or crash. The api layer converts a Diag into an api::Status whose
 * message carries the rendered snippet, so every front door (CLI
 * flag, library call, daemon op) reports the same `file:line:col`
 * shape.
 */

#ifndef WIVLIW_LANG_DIAG_HH
#define WIVLIW_LANG_DIAG_HH

#include <string>
#include <string_view>

namespace vliw::lang {

/** 1-based source position; {0,0} means "no position". */
struct Pos
{
    int line = 0;
    int col = 0;
};

/** One error: where and what. */
struct Diag
{
    Pos pos;
    std::string message;
};

/**
 * Render @p diag against the source it was produced from:
 *
 *     <origin>:3:12: error: unknown op kind 'lod' (did you mean 'load'?)
 *       x1 = lod src gran 2 stride 2
 *            ^
 *
 * @p origin is a display label for the source (a file name,
 * "<wire>", ...). Out-of-range positions degrade to the first line
 * without the snippet — rendering never fails.
 */
std::string renderDiag(const Diag &diag, std::string_view source,
                       std::string_view origin);

/** @p word in single quotes, as diagnostics cite source text. */
std::string quoteWord(std::string_view word);

} // namespace vliw::lang

#endif // WIVLIW_LANG_DIAG_HH

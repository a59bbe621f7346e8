/**
 * @file
 * Tokenizer for the .wvl workload language. Line-oriented: `#`
 * starts a comment, newlines are significant (they terminate
 * statements), words are bare runs of `[A-Za-z0-9_.-]`, strings are
 * double-quoted with `\"`/`\\` escapes, and the only punctuation is
 * `{`, `}`, `=` and `->`. Every token carries its 1-based position
 * so parser and validator diagnostics can point into the source.
 *
 * Tokenizing is total: an illegal byte or an unterminated string
 * yields a Diag, never a crash.
 */

#ifndef WIVLIW_LANG_LEXER_HH
#define WIVLIW_LANG_LEXER_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/diag.hh"

namespace vliw::lang {

struct Token
{
    enum class Kind {
        Word,    ///< bare identifier / keyword / number
        String,  ///< double-quoted, unescaped text
        LBrace,
        RBrace,
        Equals,
        Arrow,   ///< ->
        Newline, ///< statement terminator (comments swallowed)
        End,
    };

    Kind kind = Kind::End;
    /**
     * View into the source: the word, or a string's contents between
     * the quotes with its escapes still in (see unescape()).
     */
    std::string_view text;
    Pos pos;
};

/**
 * Tokenize @p source into @p out (always ending with one End
 * token). The tokens view @p source, which must outlive them.
 * Returns a Diag on the first lexical error, in which case @p out
 * is unspecified; nullopt on success.
 */
std::optional<Diag> tokenize(std::string_view source,
                             std::vector<Token> &out);

/** The text of a String token's contents with `\"`/`\\` resolved. */
std::string unescape(std::string_view raw);

} // namespace vliw::lang

#endif // WIVLIW_LANG_LEXER_HH

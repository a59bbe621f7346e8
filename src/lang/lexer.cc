#include "lang/lexer.hh"

#include <sstream>

namespace vliw::lang {

namespace {

bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' ||
           c == '-';
}

std::string
printableByte(char c)
{
    if (c >= 0x21 && c <= 0x7e)
        return std::string("'") + c + "'";
    std::ostringstream os;
    os << "byte 0x" << std::hex
       << (static_cast<unsigned>(c) & 0xffu);
    return os.str();
}

} // namespace

std::string
renderDiag(const Diag &diag, std::string_view source,
           std::string_view origin)
{
    std::ostringstream os;
    os << origin << ':' << diag.pos.line << ':' << diag.pos.col
       << ": error: " << diag.message;
    if (diag.pos.line < 1)
        return os.str();
    // Walk to the offending line for the snippet.
    std::size_t start = 0;
    int line = 1;
    while (line < diag.pos.line) {
        const std::size_t nl = source.find('\n', start);
        if (nl == std::string_view::npos)
            return os.str();
        start = nl + 1;
        ++line;
    }
    std::size_t end = source.find('\n', start);
    if (end == std::string_view::npos)
        end = source.size();
    std::string_view text = source.substr(start, end - start);
    if (text.size() > 200)
        text = text.substr(0, 200);
    os << "\n  " << text << "\n  ";
    const int caret =
        diag.pos.col >= 1 &&
                diag.pos.col <= static_cast<int>(text.size()) + 1
            ? diag.pos.col
            : 1;
    for (int i = 1; i < caret; ++i) {
        // Keep tabs so the caret lines up under tabbed source.
        os << (text[static_cast<std::size_t>(i) - 1] == '\t' ? '\t'
                                                             : ' ');
    }
    os << '^';
    return os.str();
}

std::string
quoteWord(std::string_view word)
{
    std::string out;
    out.reserve(word.size() + 2);
    out += '\'';
    out += word;
    out += '\'';
    return out;
}

std::optional<Diag>
tokenize(std::string_view source, std::vector<Token> &out)
{
    out.clear();
    int line = 1;
    int col = 1;
    std::size_t i = 0;
    const std::size_t n = source.size();

    auto push = [&](Token::Kind kind, std::size_t start,
                    std::size_t len, Pos pos) {
        out.push_back(Token{kind, source.substr(start, len), pos});
    };

    while (i < n) {
        const char c = source[i];
        const Pos pos{line, col};
        if (c == '\n') {
            push(Token::Kind::Newline, i, 0, pos);
            ++i;
            ++line;
            col = 1;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r') {
            ++i;
            ++col;
            continue;
        }
        if (c == '#') {
            while (i < n && source[i] != '\n') {
                ++i;
                ++col;
            }
            continue;
        }
        if (c == '{' || c == '}' || c == '=') {
            push(c == '{'   ? Token::Kind::LBrace
                 : c == '}' ? Token::Kind::RBrace
                            : Token::Kind::Equals,
                 i, 1, pos);
            ++i;
            ++col;
            continue;
        }
        if (c == '-' && i + 1 < n && source[i + 1] == '>') {
            push(Token::Kind::Arrow, i, 2, pos);
            i += 2;
            col += 2;
            continue;
        }
        if (c == '"') {
            ++i;
            ++col;
            const std::size_t start = i;
            while (true) {
                if (i >= n || source[i] == '\n')
                    return Diag{pos, "unterminated string"};
                const char s = source[i];
                if (s == '"')
                    break;
                if (s == '\\') {
                    if (i + 1 >= n)
                        return Diag{pos, "unterminated string"};
                    const char esc = source[i + 1];
                    if (esc != '"' && esc != '\\')
                        return Diag{
                            Pos{line, col},
                            std::string("unsupported string escape "
                                        "'\\") +
                                esc + "'"};
                    i += 2;
                    col += 2;
                    continue;
                }
                ++i;
                ++col;
            }
            push(Token::Kind::String, start, i - start, pos);
            ++i; // closing quote
            ++col;
            continue;
        }
        if (isWordChar(c)) {
            const std::size_t start = i;
            while (i < n && isWordChar(source[i])) {
                // Stop so `a->b` lexes as word, arrow, word.
                if (source[i] == '-' && i + 1 < n &&
                    source[i + 1] == '>')
                    break;
                ++i;
                ++col;
            }
            push(Token::Kind::Word, start, i - start, pos);
            continue;
        }
        return Diag{pos, "unexpected " + printableByte(c)};
    }
    push(Token::Kind::Newline, n, 0, Pos{line, col});
    push(Token::Kind::End, n, 0, Pos{line, col});
    return std::nullopt;
}

std::string
unescape(std::string_view raw)
{
    std::string text;
    text.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] == '\\' && i + 1 < raw.size())
            ++i;
        text += raw[i];
    }
    return text;
}

} // namespace vliw::lang

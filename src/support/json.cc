#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace vliw::json {

bool
Value::asBool(bool fallback) const
{
    return isBool() ? bool_ : fallback;
}

double
Value::asNumber(double fallback) const
{
    return isNumber() ? number_ : fallback;
}

std::int64_t
Value::asInt(std::int64_t fallback) const
{
    if (!isNumber())
        return fallback;
    // Out-of-range (or NaN) doubles make the cast undefined
    // behaviour; this layer reads untrusted input, so clamp to the
    // fallback instead. The bound is the largest double strictly
    // below 2^63.
    constexpr double kMax = 9223372036854774784.0;
    if (!(number_ >= -kMax && number_ <= kMax))
        return fallback;
    return std::int64_t(number_);
}

const Value *
Value::find(std::string_view key) const
{
    for (const Member &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

std::string
Value::getString(std::string_view key, std::string fallback) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->asString() : fallback;
}

std::int64_t
Value::getInt(std::string_view key, std::int64_t fallback) const
{
    const Value *v = find(key);
    return v ? v->asInt(fallback) : fallback;
}

bool
Value::getBool(std::string_view key, bool fallback) const
{
    const Value *v = find(key);
    return v ? v->asBool(fallback) : fallback;
}

std::vector<std::string>
Value::getStrings(std::string_view key) const
{
    std::vector<std::string> out;
    const Value *v = find(key);
    if (!v || !v->isArray())
        return out;
    for (const Value &item : v->items())
        if (item.isString())
            out.push_back(item.asString());
    return out;
}

/** Strict recursive-descent parser over a string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<Value>
    run(std::string *error)
    {
        Value out;
        if (!parseValue(out) ||
            (skipSpace(), pos_ != text_.size())) {
            if (error_.empty())
                fail("trailing characters");
            if (error)
                *error = error_;
            return std::nullopt;
        }
        return out;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = what + " at byte " + std::to_string(pos_);
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(Value &out)
    {
        // Recursion bound: this parser reads untrusted daemon
        // input, and a line of 100k '[' characters must come back
        // as a parse error, not a stack overflow.
        if (depth_ >= kMaxDepth)
            return fail("nesting deeper than 64 levels");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out.kind_ = Value::Kind::String;
            return parseString(out.string_);
          case 't':
            out.kind_ = Value::Kind::Bool;
            out.bool_ = true;
            return literal("true");
          case 'f':
            out.kind_ = Value::Kind::Bool;
            out.bool_ = false;
            return literal("false");
          case 'n':
            out.kind_ = Value::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out)
    {
        ++depth_;   // unwound on success; failures abort the parse
        out.kind_ = Value::Kind::Object;
        ++pos_;     // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        for (;;) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            Value member;
            if (!parseValue(member))
                return false;
            out.members_.emplace_back(std::move(key),
                                      std::move(member));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value &out)
    {
        ++depth_;   // unwound on success; failures abort the parse
        out.kind_ = Value::Kind::Array;
        ++pos_;     // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        for (;;) {
            Value item;
            if (!parseValue(item))
                return false;
            out.items_.push_back(std::move(item));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_;     // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            switch (text_[pos_]) {
              case '"':  out.push_back('"');  break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/');  break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'n':  out.push_back('\n'); break;
              case 'r':  out.push_back('\r'); break;
              case 't':  out.push_back('\t'); break;
              case 'u': {
                unsigned code = 0;
                if (!parseHex4(code))
                    return false;
                // Surrogate pair -> one supplementary code point.
                if (code >= 0xD800 && code <= 0xDBFF &&
                    text_.substr(pos_ + 1, 2) == "\\u") {
                    pos_ += 2;
                    unsigned low = 0;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("invalid low surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                }
                appendUtf8(out, code);
                break;
              }
              default:
                return fail("invalid escape");
            }
            ++pos_;
        }
        return fail("unterminated string");
    }

    /** Four hex digits after "\u"; leaves pos_ on the last one. */
    bool
    parseHex4(unsigned &code)
    {
        code = 0;
        for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
                return fail("invalid \\u escape");
            }
            const char c = text_[pos_];
            code = code * 16 +
                   unsigned(c <= '9'   ? c - '0'
                            : c <= 'F' ? c - 'A' + 10
                                       : c - 'a' + 10);
        }
        return true;
    }

    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out.push_back(char(code));
        } else if (code < 0x800) {
            out.push_back(char(0xC0 | (code >> 6)));
            out.push_back(char(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(char(0xE0 | (code >> 12)));
            out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(char(0x80 | (code & 0x3F)));
        } else {
            out.push_back(char(0xF0 | (code >> 18)));
            out.push_back(char(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(char(0x80 | (code & 0x3F)));
        }
    }

    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        const std::size_t digits = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == digits)
            return fail("invalid number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                return fail("invalid fraction");
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                return fail("invalid exponent");
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        out.kind_ = Value::Kind::Number;
        out.number_ = std::strtod(
            std::string(text_.substr(start, pos_ - start)).c_str(),
            nullptr);
        return true;
    }

    static constexpr int kMaxDepth = 64;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    return Parser(text).run(error);
}

std::string
quoted(std::string_view s)
{
    std::string out;
    Writer(out).value(s);
    return out;
}

void
Writer::quote(std::string_view s)
{
    out_.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"':  out_ += "\\\""; break;
          case '\\': out_ += "\\\\"; break;
          case '\b': out_ += "\\b";  break;
          case '\f': out_ += "\\f";  break;
          case '\n': out_ += "\\n";  break;
          case '\r': out_ += "\\r";  break;
          case '\t': out_ += "\\t";  break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out_ += buf;
            } else {
                out_.push_back(c);
            }
        }
    }
    out_.push_back('"');
}

void
Writer::separate(bool isKey)
{
    if (afterKey_ || depth_ == 0) {
        vliw_assert(!isKey, "JSON key outside an object");
        afterKey_ = false;
        return;
    }
    const std::uint32_t bit = 1u << (depth_ - 1);
    vliw_assert(isKey == bool(objects_ & bit),
                "JSON key missing or misplaced");
    if (filled_ & bit)
        out_ += layout_ == Layout::Report && !broken(depth_) ? ", " : ",";
    if (broken(depth_))
        out_.append("\n").append(2 * depth_, ' ');
    filled_ |= bit;
}

Writer &
Writer::open(char bracket)
{
    vliw_assert(depth_ < 32, "JSON nested too deeply");
    separate(false);
    const std::uint32_t bit = 1u << depth_++;
    objects_ = bracket == '{' ? objects_ | bit : objects_ & ~bit;
    filled_ &= ~bit;
    out_.push_back(bracket);
    return *this;
}

Writer &
Writer::close(char bracket)
{
    vliw_assert(depth_ > 0 && !afterKey_ &&
                    bool(objects_ & (1u << (depth_ - 1))) ==
                        (bracket == '}'),
                "unbalanced JSON");
    if (broken(depth_--))
        out_.append("\n").append(2 * depth_, ' ');
    out_.push_back(bracket);
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    separate(true);
    quote(k);
    out_ += layout_ == Layout::Compact ? ":" : ": ";
    afterKey_ = true;
    return *this;
}

Writer &
Writer::token(std::string_view t, bool quoteIt)
{
    separate(false);
    if (quoteIt)
        quote(t);
    else
        out_ += t;
    return *this;
}

} // namespace vliw::json

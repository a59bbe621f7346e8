/**
 * @file
 * The project's one JSON layer: a parser for the request side of
 * the NDJSON service protocol (one JSON object per line on the
 * `wivliw serve` daemon's stdin/stdout) and Writer, the only way
 * `src/` and `tools/` emit JSON — the daemon's responses and
 * events as well as the `--json` sweep and gap reports.
 * Deliberately small — no external dependency, no DOM mutation,
 * numbers as double on the parse side (the protocol's counts are
 * tiny) — and strict: trailing garbage, unterminated strings, bad
 * escapes and malformed numbers are parse errors with a byte
 * offset, never best-effort guesses.
 */

#ifndef WIVLIW_SUPPORT_JSON_HH
#define WIVLIW_SUPPORT_JSON_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vliw::json {

/** One parsed JSON value; objects keep member order. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<std::string, Value>;

    Value() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool(bool fallback = false) const;
    double asNumber(double fallback = 0.0) const;
    /** asNumber() rounded toward zero (protocol counts/ids). */
    std::int64_t asInt(std::int64_t fallback = 0) const;
    const std::string &asString() const { return string_; }

    const std::vector<Value> &items() const { return items_; }
    const std::vector<Member> &members() const { return members_; }

    /** Object member by key, or nullptr (first match wins). */
    const Value *find(std::string_view key) const;

    /** Member shortcuts with fallbacks for absent/mistyped keys. */
    std::string getString(std::string_view key,
                          std::string fallback = "") const;
    std::int64_t getInt(std::string_view key,
                        std::int64_t fallback = 0) const;
    bool getBool(std::string_view key, bool fallback = false) const;
    /** Member array of strings; absent key -> empty. */
    std::vector<std::string> getStrings(std::string_view key) const;

  private:
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    std::vector<Member> members_;
};

/**
 * Parse @p text as one JSON document (surrounding whitespace
 * allowed, nothing else). On failure returns nullopt and, when
 * @p error is given, a message with the byte offset.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/**
 * Appends one JSON document to a caller-owned string, placing
 * commas and separators itself: keys and strings escaped, bools as
 * `true`/`false`, numbers as below, and raw() tokens (say a `%.2f`
 * cell) as they are. A string reused across documents keeps its
 * capacity. Misuse (a member without a key, a key in an array,
 * unbalanced ends) panics.
 *
 *   json::Writer(line).beginObject().member("ok", true)
 *       .member("job", 7).endObject();     // {"ok":true,"job":7}
 */
class Writer
{
  public:
    /** Compact is the wire: one line, `,` and `:`. Report uses `, `
     *  and `: ` and puts the document's members, and the items of
     *  its array members, one per line. */
    enum class Layout { Compact, Report };

    explicit Writer(std::string &out, Layout layout = Layout::Compact)
        : out_(out), layout_(layout)
    {
    }

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }
    Writer &key(std::string_view k);
    Writer &value(std::string_view s) { return token(s, true); }
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return raw(b ? "true" : "false"); }
    /** Integers in full; doubles as `%g` (what `std::ostream <<`
     *  prints by default). */
    template <class T>
        requires(std::is_arithmetic_v<T> && !std::same_as<T, bool>)
    Writer &
    value(T v)
    {
        char buf[32];
        std::to_chars_result res;
        if constexpr (std::is_floating_point_v<T>)
            res = std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 6);
        else
            res = std::to_chars(buf, buf + sizeof buf, v);
        return raw(std::string_view(buf, std::size_t(res.ptr - buf)));
    }
    /** An already formatted value, written as it is. */
    Writer &raw(std::string_view t) { return token(t, false); }
    template <class T>
    Writer &member(std::string_view k, const T &v) { return key(k).value(v); }

  private:
    Writer &open(char bracket);
    Writer &close(char bracket);
    /** Separator, then @p t (escaped and quoted if @p quoteIt). */
    Writer &token(std::string_view t, bool quoteIt);
    /** Comma and line break before a key or value. */
    void separate(bool isKey);
    void quote(std::string_view s);

    /** Whether the container at nesting level @p l breaks lines. */
    bool
    broken(unsigned l) const
    {
        return layout_ == Layout::Report &&
               (l == 1 || (l == 2 && !(objects_ & 2u)));
    }

    std::string &out_;
    Layout layout_;
    /** Bit l-1 describes the open container at nesting level l. */
    std::uint32_t objects_ = 0;
    std::uint32_t filled_ = 0;
    unsigned depth_ = 0;
    bool afterKey_ = false;
};

/** `"s"` with JSON string escaping applied. */
std::string quoted(std::string_view s);

} // namespace vliw::json

#endif // WIVLIW_SUPPORT_JSON_HH

#include "lang/parser.hh"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <string>

#include "lang/lexer.hh"

namespace vliw::lang {

namespace {

bool
isAttrKeyword(std::string_view word)
{
    static constexpr std::array<std::string_view, 11> kw{
        "gran",      "stride",    "indirect", "range",
        "offset",    "invstride", "noattract", "latency",
        "name",      "from",      "value"};
    for (std::string_view k : kw)
        if (k == word)
            return true;
    return false;
}

class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens)
        : toks_(std::move(tokens))
    {
    }

    std::optional<Diag>
    run(std::vector<AstBenchmark> &out)
    {
        out.clear();
        skipNewlines();
        while (cur().kind != Token::Kind::End) {
            AstBenchmark bench;
            if (!parseBenchmark(bench))
                return err_;
            out.push_back(std::move(bench));
            skipNewlines();
        }
        if (out.empty())
            return Diag{Pos{1, 1},
                        "source defines no benchmark (expected "
                        "'benchmark NAME { ... }')"};
        return std::nullopt;
    }

  private:
    const Token &
    cur() const
    {
        return toks_[i_];
    }

    void
    advance()
    {
        if (toks_[i_].kind != Token::Kind::End)
            ++i_;
    }

    void
    skipNewlines()
    {
        while (cur().kind == Token::Kind::Newline)
            advance();
    }

    bool
    fail(Pos pos, std::string message)
    {
        if (!err_)
            err_ = Diag{pos, std::move(message)};
        return false;
    }

    std::string
    describe(const Token &t) const
    {
        switch (t.kind) {
        case Token::Kind::Word:
            return quoteWord(t.text);
        case Token::Kind::String:
            return "string \"" + unescape(t.text) + "\"";
        case Token::Kind::LBrace:
            return "'{'";
        case Token::Kind::RBrace:
            return "'}'";
        case Token::Kind::Equals:
            return "'='";
        case Token::Kind::Arrow:
            return "'->'";
        case Token::Kind::Newline:
            return "end of line";
        case Token::Kind::End:
            return "end of input";
        }
        return "token";
    }

    /** Consume a word; any word qualifies. */
    bool
    word(const char *what, std::string_view &text, Pos &pos)
    {
        if (cur().kind != Token::Kind::Word)
            return fail(cur().pos, std::string("expected ") + what +
                                       ", got " + describe(cur()));
        text = cur().text;
        pos = cur().pos;
        advance();
        return true;
    }

    /** Consume exactly the keyword @p kw. */
    bool
    keyword(const char *kw)
    {
        if (cur().kind != Token::Kind::Word || cur().text != kw)
            return fail(cur().pos, std::string("expected '") + kw +
                                       "', got " + describe(cur()));
        advance();
        return true;
    }

    bool
    punct(Token::Kind kind, const char *what)
    {
        if (cur().kind != kind)
            return fail(cur().pos, std::string("expected ") + what +
                                       ", got " + describe(cur()));
        advance();
        return true;
    }

    /** Statement terminator: one or more newlines. */
    bool
    endOfLine()
    {
        if (cur().kind != Token::Kind::Newline)
            return fail(cur().pos, "expected end of line, got " +
                                       describe(cur()));
        skipNewlines();
        return true;
    }

    bool
    integer(const char *what, std::int64_t &value, Pos &pos)
    {
        if (cur().kind != Token::Kind::Word)
            return fail(cur().pos, std::string("expected ") + what +
                                       ", got " + describe(cur()));
        // Words never hold '+' or spaces, so from_chars accepts
        // exactly what strtoll(..., 10) would.
        const std::string_view text = cur().text;
        long long v = 0;
        const auto [end, ec] =
            std::from_chars(text.data(), text.data() + text.size(), v);
        if (ec == std::errc::result_out_of_range)
            return fail(cur().pos,
                        std::string(what) + " " + quoteWord(text) +
                            " is out of range");
        if (ec != std::errc() || end != text.data() + text.size())
            return fail(cur().pos, std::string("expected ") + what +
                                       " (an integer), got " +
                                       quoteWord(text));
        value = v;
        pos = cur().pos;
        advance();
        return true;
    }

    bool
    number(const char *what, double &value, Pos &pos)
    {
        if (cur().kind != Token::Kind::Word)
            return fail(cur().pos, std::string("expected ") + what +
                                       ", got " + describe(cur()));
        const std::string text(cur().text);
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE)
            return fail(cur().pos, std::string("expected ") + what +
                                       " (a number), got '" + text +
                                       "'");
        value = v;
        pos = cur().pos;
        advance();
        return true;
    }

    bool
    ref(const char *what, AstRef &out)
    {
        return word(what, out.id, out.pos);
    }

    bool
    parseBenchmark(AstBenchmark &bench)
    {
        bench.pos = cur().pos;
        if (!keyword("benchmark"))
            return false;
        if (!word("benchmark name", bench.name, bench.namePos))
            return false;
        if (!punct(Token::Kind::LBrace, "'{'") || !endOfLine())
            return false;
        while (cur().kind != Token::Kind::RBrace) {
            if (cur().kind == Token::Kind::End)
                return fail(cur().pos,
                            "unclosed benchmark " +
                                quoteWord(bench.name) +
                                " (missing '}')");
            if (cur().kind != Token::Kind::Word)
                return fail(cur().pos,
                            "expected 'maindata', 'symbol', 'loop' "
                            "or '}', got " +
                                describe(cur()));
            if (cur().text == "maindata") {
                if (!parseMaindata(bench))
                    return false;
            } else if (cur().text == "symbol") {
                AstSymbol sym;
                if (!parseSymbol(sym))
                    return false;
                bench.symbols.push_back(std::move(sym));
            } else if (cur().text == "loop") {
                AstLoop loop;
                if (!parseLoop(loop))
                    return false;
                bench.loops.push_back(std::move(loop));
            } else {
                return fail(cur().pos,
                            "expected 'maindata', 'symbol', 'loop' "
                            "or '}', got " +
                                describe(cur()));
            }
        }
        advance(); // '}'
        return endOfLine();
    }

    bool
    parseMaindata(AstBenchmark &bench)
    {
        const Pos pos = cur().pos;
        advance(); // 'maindata'
        bool any = false;
        while (cur().kind == Token::Kind::Word) {
            if (cur().text == "size") {
                advance();
                if (!integer("maindata size", bench.mainSize,
                             bench.mainSizePos))
                    return false;
                bench.hasMainSize = true;
            } else if (cur().text == "share") {
                advance();
                if (!number("maindata share", bench.mainShare,
                            bench.mainSharePos))
                    return false;
                bench.hasMainShare = true;
            } else {
                return fail(cur().pos,
                            "expected 'size' or 'share', got " +
                                describe(cur()));
            }
            any = true;
        }
        if (!any)
            return fail(pos,
                        "maindata needs at least one of 'size N' "
                        "or 'share X'");
        return endOfLine();
    }

    bool
    parseSymbol(AstSymbol &sym)
    {
        sym.pos = cur().pos;
        advance(); // 'symbol'
        if (!word("symbol name", sym.name, sym.namePos))
            return false;
        if (!keyword("size"))
            return false;
        if (!integer("symbol size", sym.size, sym.sizePos))
            return false;
        if (cur().kind == Token::Kind::Word &&
            cur().text == "storage") {
            advance();
            if (!word("storage class", sym.storage,
                      sym.storagePos))
                return false;
            sym.hasStorage = true;
        }
        return endOfLine();
    }

    bool
    parseLoop(AstLoop &loop)
    {
        loop.pos = cur().pos;
        advance(); // 'loop'
        if (!word("loop name", loop.name, loop.namePos))
            return false;
        if (!keyword("trip"))
            return false;
        if (!integer("trip count", loop.trip, loop.tripPos))
            return false;
        if (cur().kind == Token::Kind::Word &&
            cur().text == "invocations") {
            advance();
            if (!integer("invocation count", loop.invocations,
                         loop.invocationsPos))
                return false;
            loop.hasInvocations = true;
        }
        if (!punct(Token::Kind::LBrace, "'{'") || !endOfLine())
            return false;
        while (cur().kind != Token::Kind::RBrace) {
            if (cur().kind == Token::Kind::End)
                return fail(cur().pos, "unclosed loop " +
                                           quoteWord(loop.name) +
                                           " (missing '}')");
            if (!parseLoopStmt(loop.stmts.emplace_back()))
                return false;
        }
        advance(); // '}'
        return endOfLine();
    }

    bool
    parseLoopStmt(AstStmt &stmt)
    {
        if (cur().kind != Token::Kind::Word)
            return fail(cur().pos,
                        "expected an op line, 'dep', 'chain' or "
                        "'}', got " +
                            describe(cur()));
        if (cur().text == "dep") {
            stmt.kind = AstStmt::Kind::Dep;
            return parseDep(stmt.dep);
        }
        if (cur().text == "chain") {
            stmt.kind = AstStmt::Kind::Chain;
            return parseChain(stmt.chain);
        }
        stmt.kind = AstStmt::Kind::Op;
        return parseOp(stmt.op);
    }

    bool
    parseDep(AstDep &dep)
    {
        dep.pos = cur().pos;
        advance(); // 'dep'
        if (!ref("dependence source op", dep.src))
            return false;
        if (!punct(Token::Kind::Arrow, "'->'"))
            return false;
        if (!ref("dependence destination op", dep.dst))
            return false;
        if (!keyword("kind"))
            return false;
        if (!word("dependence kind", dep.kind, dep.kindPos))
            return false;
        if (cur().kind == Token::Kind::Word &&
            cur().text == "dist") {
            advance();
            if (!integer("dependence distance", dep.dist,
                         dep.distPos))
                return false;
            dep.hasDist = true;
        }
        return endOfLine();
    }

    bool
    parseChain(AstChain &chain)
    {
        chain.pos = cur().pos;
        advance(); // 'chain'
        while (cur().kind == Token::Kind::Word) {
            AstRef r;
            if (!ref("chain op", r))
                return false;
            chain.ops.push_back(std::move(r));
        }
        if (chain.ops.size() < 2)
            return fail(chain.pos,
                        "chain needs at least two memory ops");
        return endOfLine();
    }

    bool
    parseOp(AstOp &op)
    {
        op.pos = cur().pos;
        if (!word("op id", op.id, op.idPos))
            return false;
        if (!punct(Token::Kind::Equals, "'='"))
            return false;
        if (!word("op kind", op.kind, op.kindPos))
            return false;
        // A word that is not an attribute keyword right after the
        // kind is the memory symbol operand (`load src gran 2`).
        if (cur().kind == Token::Kind::Word &&
            !isAttrKeyword(cur().text)) {
            if (!word("symbol", op.symbol, op.symbolPos))
                return false;
        }
        while (cur().kind == Token::Kind::Word) {
            if (!parseOpAttr(op))
                return false;
        }
        return endOfLine();
    }

    bool
    parseOpAttr(AstOp &op)
    {
        const Token &attr = cur();
        if (attr.text == "gran") {
            advance();
            op.hasGran = true;
            return integer("granularity", op.gran, op.granPos);
        }
        if (attr.text == "stride") {
            advance();
            op.stridePos = cur().pos;
            if (cur().kind == Token::Kind::Word &&
                cur().text == "unknown") {
                op.strideUnknown = true;
                advance();
                return true;
            }
            op.hasStride = true;
            return integer("stride", op.stride, op.stridePos);
        }
        if (attr.text == "indirect") {
            op.indirect = true;
            op.indirectPos = attr.pos;
            advance();
            return true;
        }
        if (attr.text == "range") {
            advance();
            op.hasRange = true;
            return integer("index range", op.range, op.rangePos);
        }
        if (attr.text == "offset") {
            advance();
            op.hasOffset = true;
            return integer("offset", op.offset, op.offsetPos);
        }
        if (attr.text == "invstride") {
            advance();
            op.hasInvstride = true;
            return integer("invocation stride", op.invstride,
                           op.invstridePos);
        }
        if (attr.text == "noattract") {
            op.noattract = true;
            advance();
            return true;
        }
        if (attr.text == "latency") {
            advance();
            op.hasLatency = true;
            return integer("latency", op.latency, op.latencyPos);
        }
        if (attr.text == "name") {
            advance();
            if (cur().kind != Token::Kind::String)
                return fail(cur().pos,
                            "expected a quoted display name, got " +
                                describe(cur()));
            op.display = unescape(cur().text);
            op.hasDisplay = true;
            advance();
            return true;
        }
        if (attr.text == "from") {
            advance();
            bool any = false;
            while (cur().kind == Token::Kind::Word &&
                   !isAttrKeyword(cur().text)) {
                AstRef r;
                if (!ref("operand op", r))
                    return false;
                op.from.push_back(std::move(r));
                any = true;
            }
            if (!any)
                return fail(attr.pos,
                            "'from' needs at least one op id");
            return true;
        }
        if (attr.text == "value") {
            advance();
            op.hasValue = true;
            return ref("store value op", op.value);
        }
        return fail(attr.pos,
                    "unknown op attribute " + quoteWord(attr.text));
    }

    std::vector<Token> toks_;
    std::size_t i_ = 0;
    std::optional<Diag> err_;
};

} // namespace

std::optional<Diag>
parseWvl(std::string_view source, std::vector<AstBenchmark> &out)
{
    std::vector<Token> tokens;
    if (auto diag = tokenize(source, tokens))
        return diag;
    return Parser(std::move(tokens)).run(out);
}

} // namespace vliw::lang

/**
 * @file
 * Recursive-descent parser for the .wvl workload language, from
 * token stream to a positioned AST. Syntax only: name resolution,
 * op-kind lookup, trip-count rules and every other semantic check
 * live in lower.hh, so one construct has one error site.
 *
 * Grammar (line-oriented; `#` comments; blank lines free):
 *
 *   file      := { benchmark }
 *   benchmark := 'benchmark' NAME '{' { benchstmt } '}'
 *   benchstmt := 'maindata' { 'size' INT | 'share' NUM }
 *              | 'symbol' NAME 'size' INT [ 'storage' WORD ]
 *              | loop
 *   loop      := 'loop' NAME 'trip' INT [ 'invocations' INT ]
 *                '{' { loopstmt } '}'
 *   loopstmt  := ID '=' KIND [ SYMBOL ] { attr }
 *              | 'dep' ID '->' ID 'kind' WORD [ 'dist' INT ]
 *              | 'chain' ID ID { ID }
 *   attr      := 'gran' INT | 'stride' (INT | 'unknown')
 *              | 'indirect' | 'range' INT | 'offset' INT
 *              | 'invstride' INT | 'noattract' | 'latency' INT
 *              | 'name' STRING | 'from' ID { ID } | 'value' ID
 *
 * Attribute keywords are reserved in operand position: a `from`
 * list ends at the first word that names another attribute.
 *
 * Names in the AST are views into the parsed source, which must
 * outlive the AST.
 */

#ifndef WIVLIW_LANG_PARSER_HH
#define WIVLIW_LANG_PARSER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/diag.hh"

namespace vliw::lang {

/** A use of an op id (operand, dep endpoint, chain element). */
struct AstRef
{
    std::string_view id;
    Pos pos;
};

/** One `ID = KIND ...` op line. */
struct AstOp
{
    Pos pos;
    std::string_view id;
    Pos idPos;
    std::string_view kind; ///< raw word; resolved during lowering
    Pos kindPos;

    std::string_view symbol; ///< empty = no symbol operand given
    Pos symbolPos;
    std::int64_t gran = 0;
    bool hasGran = false;
    Pos granPos;
    std::int64_t stride = 0;
    bool hasStride = false;
    bool strideUnknown = false;
    Pos stridePos;
    bool indirect = false;
    Pos indirectPos;
    std::int64_t range = 0;
    bool hasRange = false;
    Pos rangePos;
    std::int64_t offset = 0;
    bool hasOffset = false;
    Pos offsetPos;
    std::int64_t invstride = 0;
    bool hasInvstride = false;
    Pos invstridePos;
    bool noattract = false;
    std::int64_t latency = 0;
    bool hasLatency = false;
    Pos latencyPos;
    std::string display; ///< `name "..."` override
    bool hasDisplay = false;
    std::vector<AstRef> from;
    AstRef value;
    bool hasValue = false;
};

/** One explicit `dep A -> B kind K [dist N]` line. */
struct AstDep
{
    Pos pos;
    AstRef src;
    AstRef dst;
    std::string_view kind; ///< raw word; resolved during lowering
    Pos kindPos;
    std::int64_t dist = 0;
    bool hasDist = false;
    Pos distPos;
};

/** One `chain A B C ...` memory-chain line. */
struct AstChain
{
    Pos pos;
    std::vector<AstRef> ops;
};

/** Loop statements in source order (edge order depends on it). */
struct AstStmt
{
    enum class Kind { Op, Dep, Chain };
    Kind kind = Kind::Op;
    AstOp op;
    AstDep dep;
    AstChain chain;
};

struct AstLoop
{
    Pos pos;
    std::string_view name;
    Pos namePos;
    std::int64_t trip = 0;
    Pos tripPos;
    std::int64_t invocations = 2;
    bool hasInvocations = false;
    Pos invocationsPos;
    std::vector<AstStmt> stmts;
};

struct AstSymbol
{
    Pos pos;
    std::string_view name;
    Pos namePos;
    std::int64_t size = 0;
    Pos sizePos;
    std::string_view storage; ///< raw word; resolved during lowering
    bool hasStorage = false;
    Pos storagePos;
};

struct AstBenchmark
{
    Pos pos;
    std::string_view name;
    Pos namePos;
    std::int64_t mainSize = 4;
    bool hasMainSize = false;
    Pos mainSizePos;
    double mainShare = 1.0;
    bool hasMainShare = false;
    Pos mainSharePos;
    std::vector<AstSymbol> symbols;
    std::vector<AstLoop> loops;
};

/**
 * Parse @p source into @p out, whose names view @p source. Returns
 * the first syntax error as a Diag (with @p out unspecified),
 * nullopt on success. Total: never throws or crashes on any input.
 */
std::optional<Diag> parseWvl(std::string_view source,
                             std::vector<AstBenchmark> &out);

} // namespace vliw::lang

#endif // WIVLIW_LANG_PARSER_HH

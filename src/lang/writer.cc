#include "lang/writer.hh"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

#include "ddg/op_types.hh"
#include "lang/name_table.hh"

namespace vliw::lang {

namespace {

/** Words the parser treats specially in operand position. */
bool
isReservedId(std::string_view name)
{
    static constexpr std::array<std::string_view, 14> kReserved{
        "dep",    "chain",     "gran",      "stride",
        "indirect", "range",   "offset",    "invstride",
        "noattract", "latency", "name",     "from",
        "value",  "unknown"};
    for (std::string_view r : kReserved)
        if (r == name)
            return true;
    return false;
}

bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' ||
           c == '-';
}

/** Can @p name be written as a bare id and lex back as one word? */
bool
usableId(std::string_view name)
{
    if (name.empty() || isReservedId(name))
        return false;
    for (char c : name) {
        if (!isWordChar(c))
            return false;
    }
    return name.find("->") == std::string_view::npos;
}

/** Appends to the dump buffer; integers go through to_chars. */
class Out
{
  public:
    explicit Out(std::string &buf) : buf_(buf) {}

    Out &
    operator<<(std::string_view text)
    {
        buf_.append(text);
        return *this;
    }

    Out &
    operator<<(char c)
    {
        buf_ += c;
        return *this;
    }

    Out &
    operator<<(std::int64_t v)
    {
        char digits[24];
        const auto res =
            std::to_chars(digits, digits + sizeof(digits), v);
        buf_.append(digits, res.ptr);
        return *this;
    }

    Out &operator<<(int v) { return *this << std::int64_t(v); }

  private:
    std::string &buf_;
};

std::string
quoted(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** Shortest decimal that strtod() parses back to the same value. */
std::string
formatDouble(double v)
{
    char buf[64];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v);
    if (res.ec == std::errc())
        return std::string(buf, res.ptr);
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char *
opKindWord(OpKind kind)
{
    switch (kind) {
    case OpKind::IntAlu:
        return "intalu";
    case OpKind::IntMul:
        return "intmul";
    case OpKind::FpAlu:
        return "fpalu";
    case OpKind::FpMul:
        return "fpmul";
    case OpKind::FpDiv:
        return "fpdiv";
    case OpKind::Load:
        return "load";
    case OpKind::Store:
        return "store";
    case OpKind::Copy:
        return "copy"; // never written: specs carry no copies
    }
    return "intalu";
}

const char *
depKindWord(DepKind kind)
{
    switch (kind) {
    case DepKind::RegFlow:
        return "flow";
    case DepKind::RegAnti:
        return "anti";
    case DepKind::RegOut:
        return "out";
    case DepKind::MemFlow:
        return "memflow";
    case DepKind::MemAnti:
        return "memanti";
    case DepKind::MemOut:
        return "memout";
    }
    return "flow";
}

/**
 * Pick a writable id per node: the node's own name when it lexes
 * as one word, is not reserved and is unique in the loop;
 * otherwise a fresh `n<index>`-style fallback (with the original
 * kept as a `name "..."` attribute). The ids view the node names
 * and @p fallbacks.
 */
std::vector<std::string_view>
nodeIds(const Ddg &body, std::vector<bool> &renamed,
        std::vector<std::string> &fallbacks)
{
    const int n = body.numNodes();
    // First node carrying each name; a repeat marks both as shared.
    NameTable first;
    first.reset(std::size_t(n));
    std::vector<bool> shared(std::size_t(n), false);
    for (NodeId id = 0; id < n; ++id) {
        const std::string &name = body.node(id).name;
        if (!first.insert(name, id)) {
            shared[std::size_t(first.find(name))] = true;
            shared[std::size_t(id)] = true;
        }
    }
    std::vector<std::string_view> ids(static_cast<std::size_t>(n));
    renamed.assign(static_cast<std::size_t>(n), false);
    for (NodeId id = 0; id < n; ++id) {
        const std::string &name = body.node(id).name;
        if (!shared[std::size_t(id)] && usableId(name))
            ids[std::size_t(id)] = name;
        else
            renamed[std::size_t(id)] = true;
    }
    // Reserved up front: the ids view these strings, so they must
    // never move.
    fallbacks.clear();
    fallbacks.reserve(std::size_t(n));
    NameTable taken;
    for (NodeId id = 0; id < n; ++id) {
        if (!renamed[std::size_t(id)])
            continue;
        std::string fallback = "n" + std::to_string(id);
        for (;;) {
            const int owner = first.find(fallback);
            const bool keptName =
                owner >= 0 && !renamed[std::size_t(owner)];
            if (!keptName && taken.find(fallback) < 0)
                break;
            fallback += "_";
        }
        fallbacks.push_back(std::move(fallback));
        taken.insert(fallbacks.back(), id);
        ids[std::size_t(id)] = fallbacks.back();
    }
    return ids;
}

void
dumpLoop(Out &os, const LoopSpec &loop, std::size_t index,
         const std::vector<std::string> &symbolIds)
{
    os << "  loop ";
    if (usableId(loop.name))
        os << loop.name;
    else
        os << "loop" << std::int64_t(index);
    os << " trip " << loop.avgIterations;
    if (loop.invocations != 2)
        os << " invocations " << loop.invocations;
    os << " {\n";

    std::vector<bool> renamed;
    std::vector<std::string> fallbacks;
    const std::vector<std::string_view> ids =
        nodeIds(loop.body, renamed, fallbacks);
    for (NodeId id = 0; id < loop.body.numNodes(); ++id) {
        const DdgNode &node = loop.body.node(id);
        os << "    " << ids[std::size_t(id)] << " = "
           << opKindWord(node.kind);
        if (loop.body.isMemNode(id)) {
            const MemAccessInfo &info = loop.body.memInfo(id);
            os << ' '
               << symbolIds[static_cast<std::size_t>(info.symbol)]
               << " gran " << info.granularity;
            if (info.indirect) {
                os << " indirect";
                if (info.indexRange != 0)
                    os << " range " << info.indexRange;
            } else {
                os << " stride " << info.stride;
            }
            if (info.offset != 0)
                os << " offset " << info.offset;
            if (info.invocationStride != 0)
                os << " invstride " << info.invocationStride;
            if (!info.attractable)
                os << " noattract";
        } else if (node.fixedLatency != defaultLatency(node.kind)) {
            os << " latency " << node.fixedLatency;
        }
        if (renamed[std::size_t(id)] && !node.name.empty())
            os << " name " << quoted(node.name);
        os << '\n';
    }
    for (const DdgEdge &edge : loop.body.edges()) {
        os << "    dep " << ids[std::size_t(edge.src)] << " -> "
           << ids[std::size_t(edge.dst)] << " kind "
           << depKindWord(edge.kind);
        if (edge.distance != 0)
            os << " dist " << edge.distance;
        os << '\n';
    }
    os << "  }\n";
}

} // namespace

std::string
dumpWorkloadText(const BenchmarkSpec &spec)
{
    std::string text;
    Out os(text);
    os << "benchmark "
       << (usableId(spec.name) ? std::string_view(spec.name)
                               : std::string_view("bench"))
       << " {\n";
    if (spec.mainDataSize != 4 || spec.mainDataShare != 1.0) {
        os << "  maindata size " << spec.mainDataSize << " share "
           << formatDouble(spec.mainDataShare) << '\n';
    }
    // Reserved up front: `used` views these strings, so they must
    // never move.
    std::vector<std::string> symbolIds;
    symbolIds.reserve(spec.symbols.size());
    NameTable used;
    used.reset(spec.symbols.size());
    for (std::size_t i = 0; i < spec.symbols.size(); ++i) {
        const SymbolSpec &sym = spec.symbols[i];
        std::string id = usableId(sym.name) && used.find(sym.name) < 0
                             ? sym.name
                             : "sym" + std::to_string(i);
        while (used.find(id) >= 0)
            id += "_";
        os << "  symbol " << id << " size " << sym.sizeBytes;
        if (sym.storage == SymbolSpec::Storage::Stack)
            os << " storage stack";
        else if (sym.storage == SymbolSpec::Storage::Heap)
            os << " storage heap";
        os << '\n';
        symbolIds.push_back(std::move(id));
        used.insert(symbolIds.back(), int(i));
    }
    for (std::size_t i = 0; i < spec.loops.size(); ++i)
        dumpLoop(os, spec.loops[i], i, symbolIds);
    os << "}\n";
    return text;
}

std::string
wvlFingerprint(const BenchmarkSpec &spec)
{
    const std::string text = dumpWorkloadText(spec);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace vliw::lang

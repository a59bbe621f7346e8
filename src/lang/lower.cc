#include "lang/lower.hh"

#include <algorithm>
#include <array>

#include "ddg/op_types.hh"
#include "lang/name_table.hh"
#include "lang/writer.hh"

namespace vliw::lang {

namespace {

/** Classic Levenshtein distance (inputs are short kind names). */
int
editDistance(const std::string &a, const std::string &b)
{
    std::vector<int> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = static_cast<int>(j);
    for (std::size_t i = 1; i <= a.size(); ++i) {
        int prev = row[0];
        row[0] = static_cast<int>(i);
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const int cur = row[j];
            row[j] = std::min(
                {row[j] + 1, row[j - 1] + 1,
                 prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
            prev = cur;
        }
    }
    return row[b.size()];
}

constexpr std::array<std::pair<std::string_view, OpKind>, 7> kOpKinds{{
    {"load", OpKind::Load},     {"store", OpKind::Store},
    {"intalu", OpKind::IntAlu}, {"intmul", OpKind::IntMul},
    {"fpalu", OpKind::FpAlu},   {"fpmul", OpKind::FpMul},
    {"fpdiv", OpKind::FpDiv}}};

constexpr std::array<std::pair<std::string_view, DepKind>, 6> kDepKinds{{
    {"flow", DepKind::RegFlow},    {"anti", DepKind::RegAnti},
    {"out", DepKind::RegOut},      {"memflow", DepKind::MemFlow},
    {"memanti", DepKind::MemAnti}, {"memout", DepKind::MemOut}}};

/** The names of a kind table, for a did-you-mean hint. */
template <typename Table>
std::vector<std::string>
tableNames(const Table &table)
{
    std::vector<std::string> names;
    for (const auto &[name, kind] : table)
        names.emplace_back(name);
    return names;
}

/** @p msg plus " (did you mean 'X'?)" when a candidate is close. */
void
appendHint(std::string &msg, std::string_view given,
           const std::vector<std::string> &candidates)
{
    const std::string hint =
        didYouMean(std::string(given), candidates);
    if (!hint.empty())
        msg += " (did you mean '" + hint + "'?)";
}

/**
 * One lowering pass; holds the error slot so checks read flat. The
 * name tables view the AST (which views the source) and keep their
 * storage from loop to loop.
 */
class Lowerer
{
  public:
    std::optional<Diag>
    run(const std::vector<AstBenchmark> &ast,
        std::vector<BenchmarkSpec> &out)
    {
        out.clear();
        NameTable benchNames;
        benchNames.reset(ast.size());
        for (const AstBenchmark &bench : ast) {
            if (!benchNames.insert(bench.name, 0))
                return Diag{bench.namePos,
                            "duplicate benchmark name " +
                                quoteWord(bench.name)};
            BenchmarkSpec spec;
            if (auto diag = lowerBenchmark(bench, spec))
                return diag;
            out.push_back(std::move(spec));
        }
        return std::nullopt;
    }

  private:
    std::optional<Diag>
    lowerBenchmark(const AstBenchmark &bench, BenchmarkSpec &spec)
    {
        spec.name = std::string(bench.name);
        if (bench.hasMainSize) {
            if (bench.mainSize != 1 && bench.mainSize != 2 &&
                bench.mainSize != 4 && bench.mainSize != 8)
                return Diag{bench.mainSizePos,
                            "maindata size must be 1, 2, 4 or 8 "
                            "bytes"};
            spec.mainDataSize = static_cast<int>(bench.mainSize);
        }
        if (bench.hasMainShare) {
            if (!(bench.mainShare >= 0.0 &&
                  bench.mainShare <= 1.0))
                return Diag{bench.mainSharePos,
                            "maindata share must be within "
                            "[0, 1]"};
            spec.mainDataShare = bench.mainShare;
        }

        if (bench.symbols.size() >
            static_cast<std::size_t>(kMaxSymbolsPerBenchmark))
            return Diag{bench.pos,
                        "too many symbols (max " +
                            std::to_string(kMaxSymbolsPerBenchmark) +
                            ")"};
        symbolIds_.reset(bench.symbols.size());
        for (const AstSymbol &sym : bench.symbols) {
            if (symbolIds_.find(sym.name) >= 0)
                return Diag{sym.namePos, "duplicate symbol name " +
                                             quoteWord(sym.name)};
            if (sym.size < 1 || sym.size > kMaxSymbolBytes)
                return Diag{sym.sizePos,
                            "symbol size must be within [1, " +
                                std::to_string(kMaxSymbolBytes) +
                                "] bytes"};
            SymbolSpec::Storage storage = SymbolSpec::Storage::Global;
            if (sym.hasStorage) {
                if (sym.storage == "global")
                    storage = SymbolSpec::Storage::Global;
                else if (sym.storage == "stack")
                    storage = SymbolSpec::Storage::Stack;
                else if (sym.storage == "heap")
                    storage = SymbolSpec::Storage::Heap;
                else
                    return Diag{sym.storagePos,
                                "unknown storage class " +
                                    quoteWord(sym.storage) +
                                    " (expected global, stack or "
                                    "heap)"};
            }
            symbolIds_.insert(sym.name,
                              spec.addSymbol(std::string(sym.name),
                                             sym.size, storage));
        }

        if (bench.loops.empty())
            return Diag{bench.pos, "benchmark " + quoteWord(bench.name) +
                                       " defines no loop"};
        if (bench.loops.size() >
            static_cast<std::size_t>(kMaxLoopsPerBenchmark))
            return Diag{bench.pos,
                        "too many loops (max " +
                            std::to_string(kMaxLoopsPerBenchmark) +
                            ")"};
        NameTable loopNames;
        loopNames.reset(bench.loops.size());
        for (const AstLoop &loop : bench.loops) {
            if (!loopNames.insert(loop.name, 0))
                return Diag{loop.namePos, "duplicate loop name " +
                                              quoteWord(loop.name)};
            LoopSpec lowered;
            if (auto diag = lowerLoop(loop, bench, lowered))
                return diag;
            spec.loops.push_back(std::move(lowered));
        }
        return std::nullopt;
    }

    std::optional<Diag>
    lowerLoop(const AstLoop &loop, const AstBenchmark &bench,
              LoopSpec &out)
    {
        out.name = std::string(loop.name);
        if (loop.trip < 8)
            return Diag{loop.tripPos,
                        "trip count must be >= 8 (loops iterating "
                        "fewer times are not modulo-scheduled)"};
        if (loop.trip % 16 != 0)
            return Diag{loop.tripPos,
                        "trip count must be a multiple of 16 (so "
                        "every unroll factor divides it evenly)"};
        if (loop.trip > kMaxTripCount)
            return Diag{loop.tripPos,
                        "trip count must be <= " +
                            std::to_string(kMaxTripCount)};
        out.avgIterations = loop.trip;
        if (loop.invocations < 1 ||
            loop.invocations > kMaxInvocations)
            return Diag{loop.invocationsPos,
                        "invocations must be within [1, " +
                            std::to_string(kMaxInvocations) + "]"};
        out.invocations = static_cast<int>(loop.invocations);

        // Pass 1: create every node so dep lines may forward-ref.
        loop_ = &loop;
        nodeIds_.reset(loop.stmts.size());
        std::size_t opCount = 0;
        for (const AstStmt &stmt : loop.stmts) {
            if (stmt.kind != AstStmt::Kind::Op)
                continue;
            ++opCount;
            if (opCount >
                static_cast<std::size_t>(kMaxOpsPerLoop))
                return Diag{stmt.op.pos,
                            "too many ops in loop " +
                                quoteWord(loop.name) + " (max " +
                                std::to_string(kMaxOpsPerLoop) +
                                ")"};
            if (auto diag = lowerOp(stmt.op, bench, out))
                return diag;
        }
        if (opCount == 0)
            return Diag{loop.pos, "loop " + quoteWord(loop.name) +
                                      " has no ops"};

        // Pass 2: edges, in statement order (the DDG is
        // append-only, so file order is edge order).
        edges_.clear();
        for (const AstStmt &stmt : loop.stmts) {
            std::optional<Diag> diag;
            switch (stmt.kind) {
            case AstStmt::Kind::Op:
                diag = opEdges(stmt.op, out);
                break;
            case AstStmt::Kind::Dep:
                diag = depEdge(stmt.dep, out);
                break;
            case AstStmt::Kind::Chain:
                diag = chainEdges(stmt.chain, out);
                break;
            }
            if (diag)
                return diag;
        }
        return findZeroCycle(out);
    }

    std::optional<Diag>
    lowerOp(const AstOp &op, const AstBenchmark &bench, LoopSpec &out)
    {
        if (nodeIds_.find(op.id) >= 0)
            return Diag{op.idPos,
                        "duplicate op id " + quoteWord(op.id)};
        if (op.kind == "copy")
            return Diag{op.kindPos,
                        "'copy' is reserved for the scheduler's "
                        "inserted inter-cluster copies"};
        OpKind kind = OpKind::IntAlu;
        bool known = false;
        for (const auto &[name, k] : kOpKinds) {
            if (name == op.kind) {
                kind = k;
                known = true;
                break;
            }
        }
        if (!known) {
            std::string msg = "unknown op kind " + quoteWord(op.kind);
            appendHint(msg, op.kind, tableNames(kOpKinds));
            return Diag{op.kindPos, std::move(msg)};
        }

        const bool isMem =
            kind == OpKind::Load || kind == OpKind::Store;
        std::string display =
            op.hasDisplay ? op.display : std::string(op.id);
        if (!isMem) {
            // Memory attributes are meaningless off a load/store;
            // name the first offender instead of ignoring it.
            struct { bool set; Pos pos; const char *attr; } memAttrs[] = {
                {!op.symbol.empty(), op.symbolPos, "a data symbol"},
                {op.hasGran, op.granPos, "'gran'"},
                {op.hasStride || op.strideUnknown, op.stridePos,
                 "'stride'"},
                {op.indirect, op.indirectPos, "'indirect'"},
                {op.hasRange, op.rangePos, "'range'"},
                {op.hasOffset, op.offsetPos, "'offset'"},
                {op.hasInvstride, op.invstridePos, "'invstride'"},
                {op.noattract, op.pos, "'noattract'"},
            };
            for (const auto &a : memAttrs) {
                if (a.set)
                    return Diag{a.pos,
                                std::string(a.attr) +
                                    " only applies to load/store "
                                    "ops"};
            }
            if (op.hasValue)
                return Diag{op.value.pos,
                            "'value' only applies to store ops"};
            int latency = 0;
            if (op.hasLatency) {
                if (op.latency < 1 || op.latency > kMaxLatency)
                    return Diag{op.latencyPos,
                                "latency must be within [1, " +
                                    std::to_string(kMaxLatency) +
                                    "]"};
                latency = static_cast<int>(op.latency);
            }
            nodeIds_.insert(op.id, out.body.addNode(
                                       kind, std::move(display),
                                       latency));
            return std::nullopt;
        }

        if (op.hasLatency)
            return Diag{op.latencyPos,
                        "memory ops have a fixed latency; drop "
                        "'latency'"};
        if (op.hasValue && kind != OpKind::Store)
            return Diag{op.value.pos,
                        "'value' only applies to store ops"};
        if (op.symbol.empty())
            return Diag{op.kindPos,
                        std::string(kind == OpKind::Load ? "load"
                                                         : "store") +
                            " needs a data symbol (e.g. '" +
                            (kind == OpKind::Load ? "load"
                                                  : "store") +
                            " SYM gran 4 stride 4')"};
        const int symbol = symbolIds_.find(op.symbol);
        if (symbol < 0) {
            std::string msg = "unknown symbol " + quoteWord(op.symbol);
            std::vector<std::string> symbolNames;
            for (const AstSymbol &s : bench.symbols)
                symbolNames.emplace_back(s.name);
            const std::string hint =
                didYouMean(std::string(op.symbol), symbolNames);
            if (!hint.empty())
                msg += " (did you mean '" + hint + "'?)";
            else if (symbolNames.empty())
                msg += " (no symbols declared; add 'symbol " +
                       std::string(op.symbol) +
                       " size N' to the benchmark)";
            return Diag{op.symbolPos, std::move(msg)};
        }

        MemAccessInfo info;
        info.isStore = kind == OpKind::Store;
        info.symbol = symbol;
        info.granularity = 4;
        if (op.hasGran) {
            if (op.gran != 1 && op.gran != 2 && op.gran != 4 &&
                op.gran != 8)
                return Diag{op.granPos,
                            "granularity must be 1, 2, 4 or 8 "
                            "bytes"};
            info.granularity = static_cast<int>(op.gran);
        }
        if (op.indirect) {
            if (op.hasStride)
                return Diag{op.stridePos,
                            "an indirect access takes its stride "
                            "from the index stream; drop 'stride'"};
            info.indirect = true;
            info.stride = MemAccessInfo::kUnknownStride;
            if (op.hasRange) {
                if (op.range < 0 ||
                    op.range > kMaxAddressMagnitude)
                    return Diag{op.rangePos,
                                "index range must be within [0, "
                                "2^32]"};
                info.indexRange = op.range;
            }
        } else {
            if (op.hasRange)
                return Diag{op.rangePos,
                            "'range' only applies to indirect "
                            "accesses"};
            if (op.strideUnknown)
                return Diag{op.stridePos,
                            "a direct access needs a known stride; "
                            "use 'indirect' for pointer-chased "
                            "streams"};
            if (!op.hasStride)
                return Diag{op.kindPos,
                            "memory op needs 'stride N' or "
                            "'indirect'"};
            if (op.stride < -kMaxAddressMagnitude ||
                op.stride > kMaxAddressMagnitude)
                return Diag{op.stridePos,
                            "stride must be within [-2^32, 2^32]"};
            info.stride = op.stride;
        }
        if (op.hasOffset) {
            if (op.offset < 0 || op.offset > kMaxAddressMagnitude)
                return Diag{op.offsetPos,
                            "offset must be within [0, 2^32]"};
            info.offset = op.offset;
        }
        if (op.hasInvstride) {
            if (op.invstride < -kMaxAddressMagnitude ||
                op.invstride > kMaxAddressMagnitude)
                return Diag{op.invstridePos,
                            "invocation stride must be within "
                            "[-2^32, 2^32]"};
            info.invocationStride = op.invstride;
        }
        info.attractable = !op.noattract;
        nodeIds_.insert(op.id, out.body.addMemNode(
                                   kind, info, std::move(display)));
        return std::nullopt;
    }

    std::optional<Diag>
    resolveRef(const AstRef &ref, const char *what, NodeId &out)
    {
        const int id = nodeIds_.find(ref.id);
        if (id < 0) {
            std::string msg = std::string(what) + " " +
                              quoteWord(ref.id) +
                              " does not name an op in this loop";
            // The loop's op ids in statement order, as candidates.
            std::vector<std::string> nodeNames;
            for (const AstStmt &stmt : loop_->stmts)
                if (stmt.kind == AstStmt::Kind::Op)
                    nodeNames.emplace_back(stmt.op.id);
            appendHint(msg, ref.id, nodeNames);
            return Diag{ref.pos, std::move(msg)};
        }
        out = id;
        return std::nullopt;
    }

    std::optional<Diag>
    addEdge(LoopSpec &out, NodeId src, NodeId dst, DepKind kind,
            int distance, Pos pos)
    {
        if (edges_.size() >=
            static_cast<std::size_t>(kMaxEdgesPerLoop))
            return Diag{pos,
                        "too many dependences in one loop (max " +
                            std::to_string(kMaxEdgesPerLoop) + ")"};
        out.body.addEdge(src, dst, kind, distance);
        edges_.push_back(Edge{src, dst, distance, pos});
        return std::nullopt;
    }

    std::optional<Diag>
    opEdges(const AstOp &op, LoopSpec &out)
    {
        const NodeId self = nodeIds_.find(op.id);
        for (const AstRef &ref : op.from) {
            NodeId src = 0;
            if (auto diag = resolveRef(ref, "operand", src))
                return diag;
            if (auto diag = addEdge(out, src, self,
                                    DepKind::RegFlow, 0, ref.pos))
                return diag;
        }
        if (op.hasValue) {
            NodeId src = 0;
            if (auto diag = resolveRef(op.value, "store value", src))
                return diag;
            if (auto diag =
                    addEdge(out, src, self, DepKind::RegFlow, 0,
                            op.value.pos))
                return diag;
        }
        return std::nullopt;
    }

    std::optional<Diag>
    depEdge(const AstDep &dep, LoopSpec &out)
    {
        NodeId src = 0;
        NodeId dst = 0;
        if (auto diag = resolveRef(dep.src, "dependence source", src))
            return diag;
        if (auto diag =
                resolveRef(dep.dst, "dependence destination", dst))
            return diag;
        DepKind kind = DepKind::RegFlow;
        bool known = false;
        for (const auto &[name, k] : kDepKinds) {
            if (name == dep.kind) {
                kind = k;
                known = true;
                break;
            }
        }
        if (!known) {
            std::string msg =
                "unknown dependence kind " + quoteWord(dep.kind);
            appendHint(msg, dep.kind, tableNames(kDepKinds));
            return Diag{dep.kindPos, std::move(msg)};
        }
        const bool memKind = kind == DepKind::MemFlow ||
                             kind == DepKind::MemAnti ||
                             kind == DepKind::MemOut;
        if (memKind && (!out.body.isMemNode(src) ||
                        !out.body.isMemNode(dst)))
            return Diag{dep.kindPos,
                        "memory dependences connect load/store "
                        "ops only"};
        int distance = 0;
        if (dep.hasDist) {
            if (dep.dist < 0 || dep.dist > kMaxDepDistance)
                return Diag{dep.distPos,
                            "dependence distance must be within "
                            "[0, " +
                                std::to_string(kMaxDepDistance) +
                                "]"};
            distance = static_cast<int>(dep.dist);
        }
        return addEdge(out, src, dst, kind, distance, dep.pos);
    }

    std::optional<Diag>
    chainEdges(const AstChain &chain, LoopSpec &out)
    {
        chainOps_.clear();
        for (const AstRef &ref : chain.ops) {
            NodeId id = 0;
            if (auto diag = resolveRef(ref, "chain op", id))
                return diag;
            if (!out.body.isMemNode(id))
                return Diag{ref.pos,
                            "chain links memory ops only (" +
                                quoteWord(ref.id) +
                                " is not a load/store)"};
            chainOps_.push_back(id);
        }
        // Same edge-kind selection as KernelBuilder::chain().
        for (std::size_t i = 0; i + 1 < chainOps_.size(); ++i) {
            const bool aStore =
                out.body.memInfo(chainOps_[i]).isStore;
            const bool bStore =
                out.body.memInfo(chainOps_[i + 1]).isStore;
            DepKind kind = DepKind::MemAnti;
            if (aStore && bStore)
                kind = DepKind::MemOut;
            else if (aStore && !bStore)
                kind = DepKind::MemFlow;
            if (auto diag = addEdge(out, chainOps_[i],
                                    chainOps_[i + 1], kind, 0,
                                    chain.ops[i + 1].pos))
                return diag;
        }
        return std::nullopt;
    }

    /**
     * A cycle of zero-distance dependences can never be modulo-
     * scheduled (every op would have to precede itself in the same
     * iteration); reject it with the cycle spelled out.
     */
    std::optional<Diag>
    findZeroCycle(const LoopSpec &loop)
    {
        const std::size_t n =
            static_cast<std::size_t>(loop.body.numNodes());
        // Zero-distance edges by source, in edge order (CSR).
        adjOff_.assign(n + 1, 0);
        for (const Edge &e : edges_)
            if (e.distance == 0)
                ++adjOff_[static_cast<std::size_t>(e.src) + 1];
        for (std::size_t v = 0; v < n; ++v)
            adjOff_[v + 1] += adjOff_[v];
        adj_.resize(adjOff_[n]);
        fill_.assign(adjOff_.begin(), adjOff_.end() - 1);
        for (std::size_t e = 0; e < edges_.size(); ++e)
            if (edges_[e].distance == 0)
                adj_[fill_[static_cast<std::size_t>(
                    edges_[e].src)]++] = e;

        // Colors: 0 unvisited, 1 on stack, 2 done.
        color_.assign(n, 0);
        for (std::size_t start = 0; start < n; ++start) {
            if (color_[start] != 0)
                continue;
            stack_.clear();
            stack_.push_back({NodeId(start), adjOff_[start]});
            color_[start] = 1;
            while (!stack_.empty()) {
                auto &[node, next] = stack_.back();
                const std::size_t v = static_cast<std::size_t>(node);
                if (next >= adjOff_[v + 1]) {
                    color_[v] = 2;
                    stack_.pop_back();
                    continue;
                }
                const std::size_t e = adj_[next++];
                const NodeId dst = edges_[e].dst;
                if (color_[static_cast<std::size_t>(dst)] == 1) {
                    // Back edge: spell the cycle out of the stack.
                    std::vector<NodeId> cycle{dst};
                    for (auto it = stack_.rbegin();
                         it != stack_.rend(); ++it) {
                        cycle.push_back(it->first);
                        if (it->first == dst)
                            break;
                    }
                    std::reverse(cycle.begin(), cycle.end());
                    std::string msg =
                        "zero-distance dependence cycle: ";
                    for (std::size_t i = 0; i < cycle.size();
                         ++i) {
                        if (i)
                            msg += " -> ";
                        msg += nodeLabel(loop, cycle[i]);
                    }
                    msg += " -> " + nodeLabel(loop, dst) +
                           " (recurrences need dist >= 1)";
                    return Diag{edges_[e].pos, std::move(msg)};
                }
                if (color_[static_cast<std::size_t>(dst)] == 0) {
                    color_[static_cast<std::size_t>(dst)] = 1;
                    stack_.push_back(
                        {dst, adjOff_[static_cast<std::size_t>(dst)]});
                }
            }
        }
        return std::nullopt;
    }

    static std::string
    nodeLabel(const LoopSpec &loop, NodeId id)
    {
        const std::string &name = loop.body.node(id).name;
        return name.empty() ? "n" + std::to_string(id) : name;
    }

    struct Edge
    {
        NodeId src = 0;
        NodeId dst = 0;
        int distance = 0;
        Pos pos;
    };

    const AstLoop *loop_ = nullptr;
    NameTable symbolIds_;
    NameTable nodeIds_;
    std::vector<NodeId> chainOps_;
    std::vector<Edge> edges_;
    std::vector<std::size_t> adjOff_;
    std::vector<std::size_t> adj_;
    std::vector<std::size_t> fill_;
    std::vector<int> color_;
    std::vector<std::pair<NodeId, std::size_t>> stack_;
};

} // namespace

std::string
didYouMean(const std::string &given,
           const std::vector<std::string> &candidates)
{
    std::string best;
    int bestDist = 3; // suggestions beyond edit distance 2 mislead
    for (const std::string &cand : candidates) {
        const int d = editDistance(given, cand);
        if (d < bestDist) {
            bestDist = d;
            best = cand;
        }
    }
    return best;
}

std::optional<Diag>
lowerWvl(const std::vector<AstBenchmark> &ast,
         std::vector<BenchmarkSpec> &out)
{
    return Lowerer().run(ast, out);
}

std::optional<Diag>
compileWvl(std::string_view source, std::vector<BenchmarkSpec> &out)
{
    std::vector<AstBenchmark> ast;
    if (auto diag = parseWvl(source, ast))
        return diag;
    if (auto diag = lowerWvl(ast, out))
        return diag;
    for (BenchmarkSpec &spec : out)
        spec.fingerprint = wvlFingerprint(spec);
    return std::nullopt;
}

} // namespace vliw::lang

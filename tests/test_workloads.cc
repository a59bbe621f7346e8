/**
 * @file
 * Tests for the workload layer: data-set layout (variable
 * alignment), address streams, the profiler, OUF computation, and
 * the Mediabench-like suite's structural invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <vector>

#include "api/registries.hh"
#include "ddg/chains.hh"
#include "mem/tag_array.hh"
#include "sched/unroll_policy.hh"
#include "sim/sim_workspace.hh"
#include "ddg/unroll.hh"
#include "workloads/address_gen.hh"
#include "workloads/dataset.hh"
#include "workloads/kernels.hh"
#include "workloads/mediabench.hh"
#include "workloads/profiler.hh"

namespace vliw {
namespace {

BenchmarkSpec
tinyBench()
{
    BenchmarkSpec b;
    b.name = "tiny";
    b.addSymbol("heap_arr", 1024, SymbolSpec::Storage::Heap);
    b.addSymbol("glob_tab", 256, SymbolSpec::Storage::Global);
    b.addSymbol("stack_buf", 512, SymbolSpec::Storage::Stack);
    return b;
}

TEST(DataSet, AlignedBasesFallOnMappingPeriod)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec b = tinyBench();
    const DataSet ds = makeDataSet(b, cfg, 42, true);
    // Heap and stack symbols are padded to N x I (cluster 0).
    EXPECT_EQ(ds.symbolBase[0] % 16, 0u);
    EXPECT_EQ(ds.symbolBase[2] % 16, 0u);
}

TEST(DataSet, UnalignedHeapMovesAcrossInputs)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec b = tinyBench();
    // Offsets follow allocator alignment (8 bytes).
    bool moved = false;
    std::uint64_t first = 0;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const DataSet ds = makeDataSet(b, cfg, seed, false);
        EXPECT_EQ(ds.symbolBase[0] % 8, 0u);
        if (seed == 0)
            first = ds.symbolBase[0];
        else if (ds.symbolBase[0] != first)
            moved = true;
    }
    EXPECT_TRUE(moved);
}

TEST(DataSet, GlobalsStayPutAcrossInputsAndAlignment)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    const BenchmarkSpec b = tinyBench();
    const DataSet a = makeDataSet(b, cfg, 1, false);
    const DataSet c = makeDataSet(b, cfg, 99, false);
    const DataSet d = makeDataSet(b, cfg, 99, true);
    EXPECT_EQ(a.symbolBase[1] % 16, c.symbolBase[1] % 16);
    EXPECT_EQ(c.symbolBase[1] % 16, d.symbolBase[1] % 16);
}

TEST(DataSet, WrapSizesPadToTheMappingPeriod)
{
    // The wrap modulus rounds up to a whole mapping period so
    // wrapping preserves the cluster mapping for any interleaving.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b;
    b.name = "odd";
    b.addSymbol("odd", 100, SymbolSpec::Storage::Heap);
    b.addSymbol("even", 240, SymbolSpec::Storage::Heap);
    const DataSet ds = makeDataSet(b, cfg, 0, true);
    EXPECT_EQ(ds.wrapSize[0], 112);   // 100 -> 7 periods
    EXPECT_EQ(ds.wrapSize[1], 240);   // already whole periods

    MachineConfig wide = cfg;
    wide.interleaveBytes = 8;         // period 32
    const DataSet ds32 = makeDataSet(b, wide, 0, true);
    EXPECT_EQ(ds32.wrapSize[1], 256); // 240 -> 8 periods of 32
}

TEST(AddressResolver, StridedWalk)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("walk");
    const NodeId ld = kb.load(0, 4, 4, {.offset = 8}, "ld");
    LoopSpec loop = kb.take(64, 1);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver addr(loop.body, b, ds);
    const std::uint64_t base = ds.symbolBase[0];
    EXPECT_EQ(addr.addressOf(ld, 0), base + 8);
    EXPECT_EQ(addr.addressOf(ld, 1), base + 12);
    EXPECT_EQ(addr.addressOf(ld, 10), base + 48);
}

TEST(AddressResolver, WrapsInsideSymbol)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("wrap");
    const NodeId ld = kb.load(0, 4, 4, {}, "ld");
    LoopSpec loop = kb.take(1024, 1);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver addr(loop.body, b, ds);
    // Symbol is 1024 bytes: iteration 256 wraps to offset 0.
    EXPECT_EQ(addr.addressOf(ld, 256), ds.symbolBase[0]);
    // Cluster mapping is preserved across the wrap.
    EXPECT_EQ(cfg.homeCluster(addr.addressOf(ld, 1)),
              cfg.homeCluster(addr.addressOf(ld, 257)));
}

TEST(AddressResolver, UnrolledPhasesInterleave)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("unrolled");
    (void)kb.load(0, 4, 4, {}, "ld");
    LoopSpec loop = kb.take(64, 1);
    const Ddg u = unrollDdg(loop.body, 4);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver addr(u, b, ds);
    // Copy k touches offset (i*4 + k) * 4: each copy owns one
    // cluster under OUF unrolling.
    for (NodeId v = 0; v < u.numNodes(); ++v) {
        const int phase = u.memInfo(v).unrollPhase;
        for (std::int64_t i = 0; i < 8; ++i) {
            EXPECT_EQ(cfg.homeCluster(addr.addressOf(v, i)),
                      phase);
        }
    }
}

TEST(AddressResolver, IndirectDeterministicAndBounded)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("indirect");
    const NodeId ld = kb.load(1, 2, 2,
                              {.indirect = true, .indexRange = 64},
                              "ld");
    LoopSpec loop = kb.take(64, 1);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver a1(loop.body, b, ds);
    AddressResolver a2(loop.body, b, ds);
    int distinct = 0;
    std::uint64_t prev = 0;
    for (std::int64_t i = 0; i < 64; ++i) {
        const std::uint64_t addr = a1.addressOf(ld, i);
        EXPECT_EQ(addr, a2.addressOf(ld, i));   // deterministic
        EXPECT_GE(addr, ds.symbolBase[1]);
        EXPECT_LT(addr, ds.symbolBase[1] + 128);   // 64 x 2 bytes
        distinct += addr != prev;
        prev = addr;
    }
    EXPECT_GT(distinct, 16);   // actually random-ish
}

TEST(AddressResolver, InvocationStrideShiftsBase)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("rows");
    const NodeId ld = kb.load(0, 4, 4, {.invocationStride = 24},
                              "ld");
    LoopSpec loop = kb.take(16, 2);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver addr(loop.body, b, ds);
    addr.setInvocation(0);
    const std::uint64_t a0 = addr.addressOf(ld, 0);
    addr.setInvocation(1);
    EXPECT_EQ(addr.addressOf(ld, 0), a0 + 24);
}

TEST(AddressResolver, StreamsEqualAddressOf)
{
    // Random access descriptions: negative, zero and symbol-sized
    // offsets and strides, unroll factors and phases, invocation
    // strides, and indirect walks with and without an index range
    // (including ranges wider than the symbol). The stream the
    // simulator binds must read exactly addressOf() at every
    // iteration, over several invocations and symbol wraps, however
    // its fills are blocked, and into every column of a strided
    // block (as run() lays them out) without touching the others.
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    // Power-of-two and other wrap sizes: addressOf masks the first
    // and divides for the second.
    BenchmarkSpec b;
    b.name = "streams";
    b.addSymbol("pow2", 1024, SymbolSpec::Storage::Heap);
    b.addSymbol("odd", 100, SymbolSpec::Storage::Global);
    b.addSymbol("even", 240, SymbolSpec::Storage::Stack);
    const DataSet ds = makeDataSet(b, cfg, 11, false);
    std::mt19937_64 rng(2024);
    auto pick = [&](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    const int grans[] = {1, 2, 4, 8};

    Ddg g;
    std::vector<NodeId> nodes;
    for (int n = 0; n < 200; ++n) {
        MemAccessInfo info;
        info.granularity = grans[pick(0, 3)];
        info.symbol = int(pick(0, 2));
        const std::int64_t size = ds.wrapSize[std::size_t(info.symbol)];
        info.offset = pick(-2 * size, 2 * size);
        info.unrollFactor = int(pick(1, 8));
        info.unrollPhase = int(pick(0, info.unrollFactor - 1));
        info.invocationStride = pick(0, 3) == 0 ? 0 : pick(-size, size);
        if (pick(0, 3) == 0) {
            info.indirect = true;
            info.stride = MemAccessInfo::kUnknownStride;
            const std::int64_t ranges[] = {0, 1, 64, 100, 4 * size};
            info.indexRange = ranges[pick(0, 4)];
        } else {
            const std::int64_t strides[] = {0, pick(-64, 64), size,
                                            -size, pick(-3 * size,
                                                        3 * size)};
            info.stride = strides[pick(0, 4)];
        }
        info.isStore = pick(0, 1) == 1;
        nodes.push_back(g.addMemNode(
            info.isStore ? OpKind::Store : OpKind::Load, info));
    }

    AddressResolver addr(g, b, ds);
    std::int64_t wraps = 0;
    for (const NodeId v : nodes) {
        const MemAccessInfo &info = g.memInfo(v);
        const std::int64_t size = ds.wrapSize[std::size_t(info.symbol)];
        const std::int64_t step = info.indirect
            ? info.granularity
            : std::max<std::int64_t>(
                  1, std::abs(info.stride * info.unrollFactor) % size);
        // At least two wraps of the symbol (or 64 iterations).
        const std::int64_t iterations =
            std::max<std::int64_t>(64, 2 * size / step + 2);
        for (int inv = 0; inv < 3; ++inv) {
            addr.setInvocation(inv);
            AddressStream stream = AddressSource(addr).stream(v);
            const std::size_t columns = std::size_t(pick(1, 3));
            const std::size_t column = std::size_t(pick(0, 2)) % columns;
            std::vector<std::uint64_t> block(
                std::size_t(iterations) * columns, 0);
            for (std::int64_t done = 0; done < iterations;) {
                const std::int64_t n =
                    std::min(iterations - done, pick(1, 17));
                stream.fill(block.data() + std::size_t(done) * columns +
                                column,
                            columns, n);
                done += n;
            }
            for (std::int64_t i = 0; i < iterations; ++i) {
                const std::size_t row = std::size_t(i) * columns;
                ASSERT_EQ(block[row + column], addr.addressOf(v, i))
                    << "node " << v << " invocation " << inv
                    << " iteration " << i;
                for (std::size_t c = 0; c < columns; ++c)
                    ASSERT_TRUE(c == column || block[row + c] == 0);
                wraps += i > 0 &&
                    block[row + column] < block[row - columns + column];
            }
        }
    }
    EXPECT_GT(wraps, 1000);
}

TEST(Profiler, SmallTableHitsAndPreferredCluster)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("prof");
    // Stride 16 -> always the same cluster (the base's).
    const NodeId ld = kb.load(1, 4, 16, {}, "ld");
    LoopSpec loop = kb.take(64, 2);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver addr(loop.body, b, ds);
    const ProfileMap prof = profileLoop(loop.body, addr, 64, 2, cfg);

    const MemProfile &p = prof.at(ld);
    EXPECT_EQ(p.executions, 128u);
    EXPECT_GT(p.hitRate, 0.85);   // 256-byte table, warm after one
    EXPECT_DOUBLE_EQ(p.distribution, 1.0);
    EXPECT_EQ(p.preferredCluster,
              cfg.homeCluster(ds.symbolBase[1]));
    EXPECT_DOUBLE_EQ(p.localRatio, 1.0);
}

TEST(Profiler, WideGranularityHasZeroLocalRatio)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("wide");
    const NodeId ld = kb.load(0, 8, 8, {}, "ld");
    LoopSpec loop = kb.take(32, 1);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver addr(loop.body, b, ds);
    const ProfileMap prof = profileLoop(loop.body, addr, 32, 1, cfg);
    EXPECT_DOUBLE_EQ(prof.at(ld).localRatio, 0.0);
}

TEST(Profiler, StridedWalkSpreadsClusters)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("spread");
    const NodeId ld = kb.load(0, 4, 4, {}, "ld");
    LoopSpec loop = kb.take(64, 1);

    const DataSet ds = makeDataSet(b, cfg, 7, true);
    AddressResolver addr(loop.body, b, ds);
    const ProfileMap prof = profileLoop(loop.body, addr, 64, 1, cfg);
    // Stride 4 = I: accesses rotate over all clusters.
    EXPECT_NEAR(prof.at(ld).distribution, 0.25, 0.01);
}

/**
 * The per-access profiler the stream-fed one replaced, kept as its
 * oracle: addressOf() for every (iteration, node), block numbers by
 * division.
 */
ProfileMap
profileByAddressOf(const Ddg &ddg, AddressResolver &resolver,
                   std::int64_t iterations, int invocations,
                   const MachineConfig &cfg, const ProfileOptions &opts)
{
    ProfileMap map(ddg.numNodes());
    const std::vector<NodeId> mem_nodes = ddg.memNodes();
    TagArray tags(cfg.cacheSets(), cfg.cacheWays);
    std::vector<std::uint64_t> hits(std::size_t(ddg.numNodes()), 0);
    for (NodeId v : mem_nodes) {
        map.at(v).clusterCounts.assign(
            std::size_t(cfg.numClusters), 0);
    }
    const std::int64_t per_invocation = opts.maxIterations > 0
        ? std::min(iterations, opts.maxIterations) : iterations;
    for (int inv = 0; inv < invocations; ++inv) {
        resolver.setInvocation(inv);
        for (std::int64_t i = 0; i < per_invocation; ++i) {
            for (NodeId v : mem_nodes) {
                const std::uint64_t addr = resolver.addressOf(v, i);
                const std::uint64_t block =
                    addr / std::uint64_t(cfg.blockBytes);
                MemProfile &prof = map.at(v);
                prof.executions += 1;
                prof.clusterCounts[std::size_t(
                    cfg.homeCluster(addr))] += 1;
                if (tags.touch(block) != TagArray::kNoLine)
                    hits[std::size_t(v)] += 1;
                else
                    tags.insert(block);
            }
        }
    }
    for (NodeId v : mem_nodes) {
        MemProfile &prof = map.at(v);
        if (prof.executions == 0) {
            prof.hitRate = 0.0;
            continue;
        }
        prof.hitRate =
            double(hits[std::size_t(v)]) / double(prof.executions);
        std::uint64_t best = 0;
        std::uint64_t best_count = 0;
        for (std::size_t c = 0; c < prof.clusterCounts.size(); ++c) {
            if (prof.clusterCounts[c] > best_count) {
                best_count = prof.clusterCounts[c];
                best = c;
            }
        }
        prof.preferredCluster = int(best);
        prof.distribution =
            double(best_count) / double(prof.executions);
        prof.localRatio =
            ddg.memInfo(v).granularity > cfg.interleaveBytes
            ? 0.0 : prof.distribution;
    }
    return map;
}

TEST(Profiler, StreamsMatchAddressOf)
{
    // Builtins plus a loop of indirect walks (power-of-two and odd
    // index ranges, one wider than its table) drifting per
    // invocation; every arch and a parametric geometry; plain and
    // unrolled bodies; three invocations; with and without an
    // iteration cap that ends mid-refill.
    std::vector<BenchmarkSpec> benches = mediabenchSuite();
    BenchmarkSpec gather = tinyBench();
    gather.name = "gather";
    {
        KernelBuilder kb("gather");
        MemOpts pow2;
        pow2.indirect = true;
        pow2.indexRange = 64;
        MemOpts odd;
        odd.indirect = true;
        odd.indexRange = 100;
        odd.invocationStride = 12;
        MemOpts wide;
        wide.indirect = true;
        wide.indexRange = 1000;
        const NodeId a = kb.load(0, 4, 0, pow2);
        const NodeId b = kb.load(1, 2, 0, odd);
        const NodeId c = kb.load(2, 4, 0, wide);
        const NodeId sum = kb.compute(OpKind::IntAlu, {a, b, c});
        kb.store(0, 4, 4, sum);
        gather.loops.push_back(kb.take(176, 3));
    }
    benches.push_back(std::move(gather));

    const api::Registries &reg = api::builtinRegistries();
    std::vector<std::string> archs = reg.archs.names();
    archs.push_back("interleaved:c8:b16k");
    int profiles = 0;
    for (const std::string &arch : archs) {
        const MachineConfig cfg = reg.archs.resolve(arch).value();
        for (const BenchmarkSpec &bench : benches) {
            const DataSet ds = makeDataSet(bench, cfg, 0x9E1C, true);
            for (const LoopSpec &loop : bench.loops) {
                for (int factor : {1, cfg.numClusters}) {
                    if (loop.avgIterations % factor != 0)
                        continue;
                    const Ddg body = unrollDdg(loop.body, factor);
                    const std::int64_t iters =
                        loop.avgIterations / factor;
                    for (std::int64_t cap : {0, 37}) {
                        ProfileOptions opts;
                        opts.maxIterations = cap;
                        AddressResolver fast(body, bench, ds);
                        AddressResolver slow(body, bench, ds);
                        const ProfileMap got = profileLoop(
                            body, fast, iters, 3, cfg, opts);
                        const ProfileMap want = profileByAddressOf(
                            body, slow, iters, 3, cfg, opts);
                        ASSERT_EQ(got.size(), want.size());
                        for (NodeId v : body.memNodes()) {
                            const MemProfile &g = got.at(v);
                            const MemProfile &w = want.at(v);
                            SCOPED_TRACE(arch + " " + bench.name +
                                         "/" + loop.name + " x" +
                                         std::to_string(factor));
                            EXPECT_EQ(g.executions, w.executions);
                            EXPECT_EQ(g.clusterCounts,
                                      w.clusterCounts);
                            EXPECT_EQ(g.hitRate, w.hitRate);
                            EXPECT_EQ(g.preferredCluster,
                                      w.preferredCluster);
                            EXPECT_EQ(g.distribution, w.distribution);
                            EXPECT_EQ(g.localRatio, w.localRatio);
                        }
                        ++profiles;
                    }
                }
            }
        }
    }
    EXPECT_GT(profiles, 500);
}

TEST(UnrollPolicy, IndividualFactors)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    MemProfile hit_prof;
    hit_prof.hitRate = 0.9;

    auto u_of = [&](std::int64_t stride, int gran) {
        MemAccessInfo info;
        info.granularity = gran;
        info.symbol = 0;
        info.stride = stride;
        return individualUnrollFactor(info, hit_prof, cfg);
    };
    EXPECT_EQ(u_of(4, 4), 4);     // paper's 4-byte example
    EXPECT_EQ(u_of(2, 2), 8);
    EXPECT_EQ(u_of(1, 1), 16);
    EXPECT_EQ(u_of(16, 2), 1);    // already a multiple of N x I
    EXPECT_EQ(u_of(12, 4), 4);    // gcd(16, 12) = 4
    EXPECT_EQ(u_of(8, 8), 1);     // wider than I: excluded
}

TEST(UnrollPolicy, LoopOufIsLcmOfFactors)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    BenchmarkSpec b = tinyBench();
    KernelBuilder kb("mix");
    (void)kb.load(0, 4, 4, {}, "a");    // U=4
    (void)kb.load(0, 2, 2, {.offset = 512}, "b");  // U=8
    LoopSpec loop = kb.take(64, 1);

    ProfileMap prof(loop.body.numNodes());
    for (NodeId v : loop.body.memNodes())
        prof.at(v).hitRate = 1.0;
    EXPECT_EQ(computeOuf(loop.body, prof, cfg), 8);
}

TEST(UnrollPolicy, ZeroHitRateExcludesInstruction)
{
    const MachineConfig cfg = MachineConfig::paperInterleaved();
    MemAccessInfo info;
    info.granularity = 4;
    info.symbol = 0;
    info.stride = 4;
    MemProfile p;
    p.hitRate = 0.0;
    EXPECT_EQ(individualUnrollFactor(info, p, cfg), 1);
}

TEST(UnrollPolicy, TexecModel)
{
    // (avgiter/U + SC - 1) * II, floored at one kernel iteration.
    EXPECT_DOUBLE_EQ(estimateTexec(128, 4, 3, 10), (32 + 2) * 10.0);
    EXPECT_DOUBLE_EQ(estimateTexec(8, 16, 2, 4), (1 + 1) * 4.0);
}

TEST(Mediabench, SuiteStructure)
{
    const auto suite = mediabenchSuite();
    ASSERT_EQ(suite.size(), 14u);
    ASSERT_EQ(mediabenchNames().size(), 14u);
    for (const BenchmarkSpec &b : suite) {
        EXPECT_FALSE(b.loops.empty()) << b.name;
        EXPECT_GE(b.loops.size(), 3u) << b.name;
        EXPECT_TRUE(b.mainDataSize == 1 || b.mainDataSize == 2 ||
                    b.mainDataSize == 4 || b.mainDataSize == 8)
            << b.name;
        for (const LoopSpec &loop : b.loops) {
            EXPECT_GE(loop.avgIterations, 8) << loop.name;
            EXPECT_EQ(loop.avgIterations % 16, 0) << loop.name;
            EXPECT_GE(loop.invocations, 1) << loop.name;
            for (NodeId v : loop.body.memNodes()) {
                const MemAccessInfo &info = loop.body.memInfo(v);
                EXPECT_GE(info.symbol, 0) << loop.name;
                EXPECT_LT(std::size_t(info.symbol),
                          b.symbols.size()) << loop.name;
                EXPECT_TRUE(info.granularity == 1 ||
                            info.granularity == 2 ||
                            info.granularity == 4 ||
                            info.granularity == 8) << loop.name;
            }
        }
    }
}

TEST(Mediabench, SignatureCharacteristics)
{
    // epicdec carries the 19-op chain; mpeg2dec has wide accesses;
    // pegwitdec is dominated by indirect loads; gsmdec contains the
    // stride-16 walk over the 240-byte heap array.
    const auto epicdec = makeBenchmark("epicdec");
    int max_chain = 0;
    for (const LoopSpec &loop : epicdec.loops) {
        MemChains chains(loop.body);
        max_chain = std::max(max_chain, chains.maxChainSize());
    }
    EXPECT_EQ(max_chain, 19);

    const auto mpeg = makeBenchmark("mpeg2dec");
    bool has_wide = false;
    for (const LoopSpec &loop : mpeg.loops) {
        for (NodeId v : loop.body.memNodes())
            has_wide |= loop.body.memInfo(v).granularity == 8;
    }
    EXPECT_TRUE(has_wide);

    const auto pegwit = makeBenchmark("pegwitdec");
    int indirect = 0;
    int loads = 0;
    for (const LoopSpec &loop : pegwit.loops) {
        for (NodeId v : loop.body.memNodes()) {
            if (loop.body.node(v).kind == OpKind::Load) {
                ++loads;
                indirect += loop.body.memInfo(v).indirect;
            }
        }
    }
    EXPECT_GT(double(indirect) / loads, 0.6);

    const auto gsm = makeBenchmark("gsmdec");
    bool has_anecdote = false;
    for (const LoopSpec &loop : gsm.loops) {
        for (NodeId v : loop.body.memNodes()) {
            const MemAccessInfo &info = loop.body.memInfo(v);
            if (info.strideKnown() && info.stride == 16 &&
                info.granularity == 2) {
                has_anecdote |= gsm.symbols[std::size_t(
                    info.symbol)].sizeBytes == 240;
            }
        }
    }
    EXPECT_TRUE(has_anecdote);
}

TEST(Mediabench, UnknownNamePanics)
{
    EXPECT_THROW(makeBenchmark("quake3"), std::logic_error);
}

} // namespace
} // namespace vliw

#include "address_gen.hh"

#include "support/logging.hh"
#include "support/math_util.hh"

namespace vliw {

namespace {

/** splitmix64 step: cheap stateless per-index hash. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

AddressResolver::AddressResolver(const Ddg &ddg,
                                 const BenchmarkSpec &bench,
                                 const DataSet &ds)
{
    gens_.resize(std::size_t(ddg.numNodes()));
    for (NodeId v : ddg.memNodes()) {
        const MemAccessInfo &info = ddg.memInfo(v);
        vliw_assert(info.symbol >= 0 &&
                    std::size_t(info.symbol) < bench.symbols.size(),
                    "memory node without a bound symbol");
        OpGen gen;
        gen.base = ds.symbolBase[std::size_t(info.symbol)];
        gen.symSize = ds.wrapSize[std::size_t(info.symbol)];
        gen.sizePow2 = isPowerOfTwo(std::uint64_t(gen.symSize));
        if (info.indirect) {
            gen.range = std::uint64_t(info.indexRange > 0
                ? info.indexRange
                : std::max<std::int64_t>(
                      1, gen.symSize / info.granularity));
            gen.rangePow2 = isPowerOfTwo(gen.range);
        }
        gen.streamSeed = mix(ds.seed ^ (std::uint64_t(v) << 32) ^
                             std::uint64_t(info.symbol));
        gen.info = &info;
        gens_[std::size_t(v)] = gen;
    }
}

std::uint64_t
AddressResolver::addressOf(NodeId v, std::int64_t iter) const
{
    const OpGen &gen = gens_[std::size_t(v)];
    vliw_assert(gen.info, "addressOf on a non-memory node");
    const MemAccessInfo &info = *gen.info;

    // Original-iteration index of this unrolled instance.
    const std::int64_t gi =
        iter * info.unrollFactor + info.unrollPhase;

    std::int64_t linear;
    if (info.indirect) {
        const std::uint64_t h = mix(gen.streamSeed + std::uint64_t(gi));
        const std::int64_t idx = std::int64_t(
            gen.rangePow2 ? h & (gen.range - 1) : h % gen.range);
        linear = info.offset + idx * info.granularity;
    } else {
        linear = info.offset + gi * info.stride;
    }
    linear += std::int64_t(invocation_) * info.invocationStride;

    // Wrap inside the symbol; sizes are padded to the mapping
    // period so wrapping never changes the home cluster pattern. A
    // power-of-two size wraps with a mask, which in two's complement
    // is positiveMod for negative indices too.
    const std::int64_t wrapped = gen.sizePow2
        ? linear & (gen.symSize - 1)
        : positiveMod(linear, gen.symSize);
    return gen.base + std::uint64_t(wrapped);
}

AddressStream
AddressResolver::stream(NodeId v) const
{
    const OpGen &gen = gens_[std::size_t(v)];
    vliw_assert(gen.info, "stream of a non-memory node");
    const MemAccessInfo &info = *gen.info;
    const std::int64_t invocation_shift =
        std::int64_t(invocation_) * info.invocationStride;

    AddressStream s;
    s.base_ = gen.base;
    s.wrap_ = std::uint64_t(gen.symSize);
    if (info.indirect) {
        s.kind_ = AddressStream::Kind::Indirect;
        s.offset_ = std::uint64_t(
            positiveMod(info.offset + invocation_shift, gen.symSize));
        s.step_ = std::uint64_t(info.granularity);
        s.seed_ = gen.streamSeed;
        s.range_ = gen.range;
        s.rangePow2_ = gen.rangePow2;
        s.index_ = info.unrollPhase;
        s.unroll_ = info.unrollFactor;
    } else {
        // addressOf's linear index at iteration k is this start plus
        // k * unrollFactor * stride.
        s.kind_ = AddressStream::Kind::Direct;
        s.offset_ = std::uint64_t(positiveMod(
            info.offset + info.unrollPhase * info.stride +
                invocation_shift,
            gen.symSize));
        s.step_ = std::uint64_t(positiveMod(
            std::int64_t(info.unrollFactor) * info.stride,
            gen.symSize));
    }
    return s;
}

AddressStream
AddressStream::function(Fn fn, const void *ctx, NodeId v)
{
    AddressStream s;
    s.kind_ = Kind::Function;
    s.fn_ = fn;
    s.ctx_ = ctx;
    s.node_ = v;
    return s;
}

void
AddressStream::fill(std::uint64_t *out, std::size_t stride,
                    std::int64_t n)
{
    // The cursors live in locals: a store through @p out could
    // otherwise alias them and pin every step to memory.
    switch (kind_) {
      case Kind::Direct: {
        std::uint64_t offset = offset_;
        for (std::int64_t i = 0; i < n; ++i, out += stride) {
            *out = base_ + offset;
            offset += step_;
            offset -= offset >= wrap_ ? wrap_ : 0;
        }
        offset_ = offset;
        break;
      }
      case Kind::Indirect: {
        std::int64_t index = index_;
        for (std::int64_t i = 0; i < n; ++i, out += stride) {
            const std::uint64_t h = mix(seed_ + std::uint64_t(index));
            const std::uint64_t idx =
                rangePow2_ ? h & (range_ - 1) : h % range_;
            // offset_ < wrap_, so one wrap is the common case; only
            // an index range wider than the symbol needs the modulo.
            std::uint64_t at = offset_ + idx * step_;
            at -= at >= wrap_ ? wrap_ : 0;
            if (at >= wrap_)
                at %= wrap_;
            *out = base_ + at;
            index += unroll_;
        }
        index_ = index;
        break;
      }
      case Kind::Function:
        for (std::int64_t i = 0; i < n; ++i, out += stride)
            *out = fn_(ctx_, node_, iter_++);
        break;
    }
}

} // namespace vliw

/**
 * @file
 * Address resolution: binds a (possibly unrolled) loop body to a
 * DataSet and yields the byte address of every memory-node instance.
 *
 * Direct accesses follow base + offset + global_iteration * stride,
 * wrapping inside the symbol (sizes are padded to whole mapping
 * periods so wrapping preserves the cluster mapping). Indirect
 * accesses draw deterministic pseudo-random indices from the data
 * set's seed, modelling a[b[i]] table walks.
 *
 * addressOf() answers one (node, iteration) at a time. The simulator
 * instead reads each node as an AddressStream: the node's addresses
 * over consecutive iterations of one invocation, which it fills a
 * block of iterations at a time.
 */

#ifndef WIVLIW_WORKLOADS_ADDRESS_GEN_HH
#define WIVLIW_WORKLOADS_ADDRESS_GEN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddg/ddg.hh"
#include "workloads/dataset.hh"
#include "workloads/loop_spec.hh"

namespace vliw {

/**
 * One memory node's addresses over consecutive kernel iterations of
 * one invocation, from iteration 0 on; fill() writes the next ones
 * and advances. A direct node's offset moves by a fixed step modulo
 * the symbol size, which is exactly addressOf()'s positiveMod of the
 * same linear index, so a direct address costs an add and a
 * conditional subtract. An indirect node hashes each index with the
 * same splitmix64 draw as addressOf(). A function stream calls its
 * function once per iteration, for callers that compute addresses
 * some other way (tests, the one-shot simulateLoop()).
 */
class AddressStream
{
  public:
    /** Address of node @p v at kernel iteration @p iter. */
    using Fn = std::uint64_t (*)(const void *ctx, NodeId v,
                                 std::int64_t iter);

    AddressStream() = default;

    /** fn(ctx, v, iter) for iter = 0, 1, ... */
    static AddressStream function(Fn fn, const void *ctx, NodeId v);

    /** Write the next @p n addresses to out[0], out[stride], ... */
    void fill(std::uint64_t *out, std::size_t stride, std::int64_t n);

  private:
    friend class AddressResolver;

    enum class Kind : std::uint8_t { Direct, Indirect, Function };

    Kind kind_ = Kind::Function;
    /** Symbol base address and wrap size (Direct, Indirect). */
    std::uint64_t base_ = 0;
    std::uint64_t wrap_ = 0;
    /** Direct: offset of the next address, in [0, wrap_).
     *  Indirect: the invocation's offset, in [0, wrap_). */
    std::uint64_t offset_ = 0;
    /** Direct: the per-iteration advance modulo wrap_.
     *  Indirect: the element size. */
    std::uint64_t step_ = 0;
    /** Indirect: hash seed, index range, next original-iteration
     *  index and its per-iteration advance (the unroll factor). */
    std::uint64_t seed_ = 0;
    std::uint64_t range_ = 1;
    bool rangePow2_ = true;
    std::int64_t index_ = 0;
    std::int64_t unroll_ = 1;
    /** Function: the callback and the next iteration. */
    Fn fn_ = nullptr;
    const void *ctx_ = nullptr;
    NodeId node_ = kNoNode;
    std::int64_t iter_ = 0;
};

/** Per-loop, per-data-set address oracle. */
class AddressResolver
{
  public:
    /**
     * @param ddg   the loop body actually executed (unrolled)
     * @param bench symbol table owner
     * @param ds    bound data set
     */
    AddressResolver(const Ddg &ddg, const BenchmarkSpec &bench,
                    const DataSet &ds);

    /** Select which invocation of the loop is running. */
    void setInvocation(int invocation) { invocation_ = invocation; }

    /** Address of memory node @p v at kernel iteration @p iter. */
    std::uint64_t addressOf(NodeId v, std::int64_t iter) const;

    /** Memory node @p v's addresses in the selected invocation:
     *  the stream's k-th address is addressOf(v, k). */
    AddressStream stream(NodeId v) const;

  private:
    struct OpGen
    {
        std::uint64_t base = 0;
        std::int64_t symSize = 0;
        /** symSize is a power of two: wrap with a mask. */
        bool sizePow2 = false;
        /** Indirect: the index range, and whether it is a power of
         *  two (draw with a mask). */
        bool rangePow2 = false;
        std::uint64_t range = 1;
        std::uint64_t streamSeed = 0;
        const MemAccessInfo *info = nullptr;
    };

    std::vector<OpGen> gens_;   // indexed by NodeId (mem nodes only)
    int invocation_ = 0;
};

} // namespace vliw

#endif // WIVLIW_WORKLOADS_ADDRESS_GEN_HH

/**
 * @file
 * Reusable scratch state for the cycle-level VLIW simulator,
 * mirroring the scheduler's SchedWorkspace design (PR 2).
 *
 * The simulator executes one compiled loop for many invocations, and
 * a sweep executes the same loop across many data sets. A
 * SimWorkspace splits that work into two phases:
 *
 *  - prepare(): decode one (Ddg, Schedule, LatencyMap) into a flat
 *    SimKernel -- the issue-item list sorted by kernel cycle, the
 *    per-item operand list in CSR form, per-item kind/latency/access
 *    attributes and the periodic issue order (below). Built once
 *    per compiled loop, reused across every invocation and every
 *    data set.
 *
 *  - run(): execute a prepared kernel against a memory system. The
 *    hot loop touches only flat arrays; once the workspace is warm
 *    it performs no heap allocation at all.
 *
 * Addresses and memory models. run() binds one AddressStream per
 * memory item per run (from an AddressResolver, or a function
 * called once per iteration) and fills the addresses of kBlock
 * waves at a time into a flat block, so one access costs a load.
 * The wave loop is a single template over the memory model type,
 * chosen once per run: the three cache organisations are final
 * classes with access() in their headers and compile into the loop;
 * any other MemSystem takes the same loop through its virtual call.
 * The per-run stream state lives in the workspace, which is one
 * more reason a workspace serves one thread.
 *
 * Run plan. Only loads carry an unknown delay; compute ops, stores
 * and register copies have fixed latencies. The first run() of a
 * kernel at a given register-bus latency builds a plan, kept for
 * every later run at that latency. Write an item's nominal ready
 * cycle as its kernel cycle plus its latency: the assigned latency
 * of a compute op, 1 for a store, and cfg.regBusLatency for a copy,
 * which issues at its bus start. The plan drops an operand when its
 * producer is not a load and the producer's nominal ready cycle is
 * at most the consumer's kernel cycle + II * distance. Such an
 * operand can never stall. Stalls only add to an offset that every
 * later issue carries and that never decreases, so a producer that
 * has issued did so with an offset no larger than the consumer's,
 * and its actual ready cycle is at most the consumer's actual issue
 * cycle. A producer that has not issued yet reads as ready at cycle
 * 0, which cannot stall either. The plan then drops every item
 * that has no checked operand, no memory access and no checked
 * reader, and gives a ring row only to items a checked operand
 * reads. run() counts dynamicOps and dynamicCopies as items x
 * iterations, since every item issues once per iteration.
 * Results are bit-identical to checking every operand; an operand
 * that fails the proof stays checked, so an illegal schedule still
 * trips the "stall blocked by a non-load value" assertion.
 *
 * Issue order is not discovered with a priority queue the way the
 * seed simulator did it: a modulo schedule issues instances in a
 * pattern that is periodic in the II. Writing an item's cycle as
 * c = s * II + r, instance (iter, item) issues at nominal time
 * (iter + s) * II + r; calling w = iter + s the *wave*, the order
 * within every wave is the fixed sequence sorted by (r asc, s desc,
 * item asc), which equals the seed's heap pop order (nominal, iter,
 * item) exactly. prepare() sorts that sequence once and run() just
 * walks it; only the fill and drain waves (the first and last
 * maxStage) test for out-of-range instances.
 *
 * Instance rings hold one row per item that a checked operand
 * reads, sized to the plan's own checked distances and the stage
 * count. They are recycled, not re-zeroed: every ring slot
 * carries a stamp (a monotonically increasing per-instance id), and
 * a read whose stamp does not match behaves exactly like the seed
 * simulator's freshly zeroed slot. This keeps per-run cost
 * proportional to executed instances, not ring capacity, while
 * staying bit-identical to the pre-workspace simulator.
 *
 * Kernel handles stay valid until clearKernels(); the underlying
 * storage survives and is reused, so alternating prepare/run cycles
 * across benchmarks settle into a zero-allocation steady state. A
 * workspace may be reused freely across loops, architectures and
 * memory systems; it is not thread-safe, so use one per thread.
 */

#ifndef WIVLIW_SIM_SIM_WORKSPACE_HH
#define WIVLIW_SIM_SIM_WORKSPACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ddg/ddg.hh"
#include "ddg/profile_map.hh"
#include "machine/machine_config.hh"
#include "mem/mem_system.hh"
#include "sched/schedule.hh"
#include "sim/sim_stats.hh"
#include "support/logging.hh"
#include "workloads/address_gen.hh"

namespace vliw {

/**
 * Where run() takes its addresses from: the streams of an
 * AddressResolver, or a plain function (fn, ctx) called once per
 * iteration. run() binds one AddressStream per memory item per run
 * and fills addresses a block of iterations at a time. Non-owning:
 * the resolver or ctx must outlive the run.
 */
struct AddressSource
{
    AddressStream::Fn fn = nullptr;
    const void *ctx = nullptr;
    const AddressResolver *resolver = nullptr;

    AddressSource() = default;
    explicit AddressSource(const AddressResolver &r) : resolver(&r) {}

    /** Node @p v's addresses from iteration 0 of this run on. */
    AddressStream
    stream(NodeId v) const
    {
        vliw_assert(resolver || fn, "unbound address source");
        return resolver ? resolver->stream(v)
                        : AddressStream::function(fn, ctx, v);
    }
};

/** Per-run inputs that are not part of the prepared kernel. */
struct SimRunParams
{
    /** Profile data for stall-factor attribution (may be null). */
    const ProfileMap *profile = nullptr;
    /** Kernel iterations to run (post-unroll trip count). */
    std::int64_t iterations = 0;
    /** Absolute cycle the loop starts at (keeps bus state sane). */
    Cycles startCycle = 0;
    /** Preferred-cluster concentration below this is "unclear". */
    double unclearThreshold = 0.9;
};

/** Result: stats plus the absolute end cycle. */
struct SimRunResult
{
    SimStats stats;
    Cycles endCycle = 0;
};

class SimWorkspace
{
  public:
    /** Deepest instance ring; bounds distance + stages. Each kernel
     *  uses the smallest power of two its own bound allows. */
    static constexpr int kRing = 512;

    SimWorkspace() = default;
    SimWorkspace(const SimWorkspace &) = delete;
    SimWorkspace &operator=(const SimWorkspace &) = delete;

    /**
     * Decode one compiled loop into a flat kernel. The returned
     * handle stays valid until clearKernels(); @p ddg, @p sched and
     * @p lat must outlive every run() of this kernel.
     */
    int prepare(const Ddg &ddg, const Schedule &sched,
                const LatencyMap &lat);

    /** Execute @p kernel against @p mem. */
    SimRunResult run(int kernel, const SimRunParams &params,
                     const AddressSource &addr, MemSystem &mem,
                     const MachineConfig &cfg);

    /** Drop all kernel handles; heap storage is kept for reuse. */
    void clearKernels() { usedKernels_ = 0; }

    int numKernels() const { return int(usedKernels_); }

  private:
    /** Per-item execution class, decoded once in prepare(). */
    enum class ItemKind : std::uint8_t { Copy, Load, Store, Compute };

    /** Hot per-item attributes, packed for the run loop. */
    struct HotItem
    {
        NodeId node = kNoNode;  ///< op id, or copy producer
        std::int32_t cluster = 0;
        ItemKind kind = ItemKind::Compute;
        std::uint8_t memStore = 0;
        std::uint8_t memAttract = 0;
        std::uint8_t pad = 0;
        /** Assigned latency (Compute) or access size (Load/Store). */
        std::int32_t latOrSize = 0;
    };

    /** Operand source resolved to an item (direct or via copy). */
    struct Operand
    {
        int srcItem = -1;
        int distance = 0;
    };

    /** One entry of the periodic issue sequence. */
    struct Issue
    {
        std::int32_t item = 0;   ///< sorted-item index
        std::int32_t stage = 0;  ///< s in c = s * II + r
        std::int32_t phase = 0;  ///< r in c = s * II + r
    };

    /** One instance-ring slot (one cache line touch per operand). */
    struct RingSlot
    {
        Cycles ready = 0;
        std::int64_t stamp = 0;
    };

    /** One entry of a plan's wave sequence, carrying every item
     *  attribute run() reads. */
    struct PlanIssue
    {
        std::int32_t stage = 0;
        std::int32_t phase = 0;
        /** Ring row the item writes; -1 when nothing checks it. */
        std::int32_t row = -1;
        /** Checked operands: [opBegin, opEnd) of Plan::operands. */
        std::int32_t opBegin = 0;
        std::int32_t opEnd = 0;
        /** Address column of a memory item (Plan::memNodes). */
        std::int32_t memSlot = -1;
        std::int32_t cluster = 0;
        /** Assigned latency (Compute) or access size (Load/Store). */
        std::int32_t latOrSize = 0;
        ItemKind kind = ItemKind::Compute;
        std::uint8_t memStore = 0;
        std::uint8_t memAttract = 0;
    };

    /** An operand the plan could not prove stall-free. */
    struct PlanOperand
    {
        std::int32_t srcRow = 0;
        std::int32_t srcItem = 0;  ///< for stall attribution
        std::int32_t distance = 0;
    };

    /** What run() executes for one kernel at one bus latency (see
     *  "Run plan" in the file comment). */
    struct Plan
    {
        int regBusLatency = 0;
        /** The wave sequence minus the items with nothing to do. */
        std::vector<PlanIssue> seq;
        /** Checked operands, laid out in seq order. */
        std::vector<PlanOperand> operands;
        /** Memory items by address column: node and stage. */
        std::vector<NodeId> memNodes;
        std::vector<std::int32_t> memStages;
        /** Ring rows (items a checked operand reads). */
        int rows = 0;
        /** Ring depth - 1; the depth is a power of two. */
        int ringMask = 0;
    };

    /** A decoded loop: flat arrays only, reused across prepares. */
    struct Kernel
    {
        const Ddg *ddg = nullptr;
        const Schedule *sched = nullptr;
        int ii = 0;
        int length = 0;
        int maxStage = 0;

        std::vector<HotItem> items;
        /** The wave sequence: (r asc, s desc, item asc). */
        std::vector<Issue> waveSeq;
        /** Operand CSR: operands of item i live in
         *  [opOffsets[i], opOffsets[i+1]). */
        std::vector<std::int32_t> opOffsets;
        std::vector<Operand> operands;

        /** Plans built so far, one per bus latency; the first
         *  usedPlans are live. Grow-only across prepares. */
        std::vector<Plan> plans;
        std::size_t usedPlans = 0;

        /** Instance rings, iteration-major:
         *  slot = (j & plan.ringMask) * plan.rows + row. A slot is
         *  live only when its stamp matches the reader's instance
         *  stamp; anything else reads as the seed simulator's
         *  zero-initialised slot. Shared by the kernel's plans and
         *  grow-only across prepares. */
        std::vector<RingSlot> ring;
        /** Access class of a load instance (valid iff stamp hits). */
        std::vector<std::uint8_t> loadCls;
    };

    /** Waves per address block: run() fills every memory item's
     *  addresses for this many waves at a time. */
    static constexpr std::int64_t kBlock = 64;

    Kernel &kernelStorage();
    /** @p k's plan at @p regBusLatency, built on first use. */
    const Plan &planFor(Kernel &k, int regBusLatency);
    void buildPlan(const Kernel &k, Plan &plan);

    /** run()'s wave loop against one memory model type; returns
     *  the accumulated stall offset. */
    template <class Mem>
    Cycles walk(Kernel &k, const Plan &plan,
                const SimRunParams &params, std::int64_t base,
                Mem &mem, const MachineConfig &cfg, SimStats &stats);

    // ---- prepare() scratch (reused, never shrunk) ----
    struct ProtoItem
    {
        bool isCopy = false;
        NodeId node = kNoNode;
        int cycle = 0;
        int cluster = 0;
    };
    std::vector<ProtoItem> itemScratch_;
    std::vector<int> itemOfNode_;
    std::vector<int> itemOfCopy_;
    std::vector<std::int32_t> sortPerm_;

    // ---- buildPlan() scratch (reused, never shrunk) ----
    std::vector<int> itemCycle_;
    std::vector<std::uint8_t> opChecked_;
    std::vector<std::int32_t> rowOf_;

    // ---- run() scratch (reused, never shrunk) ----
    /** One address stream per memory item of the running plan. */
    std::vector<AddressStream> streams_;
    /** One block of addresses, wave-major: (w - w0) * items + slot. */
    std::vector<std::uint64_t> addrBlock_;

    /** Kernel pool: unique_ptr keeps handles stable across growth. */
    std::vector<std::unique_ptr<Kernel>> kernels_;
    std::size_t usedKernels_ = 0;

    /** Next unused instance stamp; advances past every run. */
    std::int64_t stampBase_ = 1;
};

/**
 * The calling thread's shared workspace. Both the one-shot
 * simulateLoop() wrapper and the toolchain's simulate paths use it,
 * so a thread holds one kernel pool however it mixes the entry
 * points. Each entry point claims it with clearKernels() and
 * prepares its own kernels, so callers must not hold kernel handles
 * across someone else's simulation call.
 */
SimWorkspace &threadSimWorkspace();

} // namespace vliw

#endif // WIVLIW_SIM_SIM_WORKSPACE_HH

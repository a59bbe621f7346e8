/**
 * @file
 * The top-level compile-and-simulate pipeline (the public API most
 * users want): for each loop of a benchmark it
 *
 *   1. picks an unrolling factor (none / xN / OUF / selective),
 *   2. profiles the unrolled body on the PROFILE data set,
 *   3. assigns latencies to memory instructions (4- or 2-class),
 *   4. orders the nodes (SMS) and runs the clustered modulo
 *      scheduler with the selected heuristic (BASE / IBC / IPBC),
 *   5. executes the schedule on the EXECUTION data set against the
 *      configured memory system (interleaved / unified / multiVLIW).
 *
 * This mirrors the paper's flow in Sections 4.2-4.3 and 5.1.
 *
 * Library embedders should prefer the stable façade in
 * `api/api.hh` (api::Session), which resolves names through the
 * capability registries and reports failures as api::Status; the
 * Toolchain signals its own user-input failures by throwing
 * CompileError (support/errors.hh).
 */

#ifndef WIVLIW_CORE_TOOLCHAIN_HH
#define WIVLIW_CORE_TOOLCHAIN_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ddg/chains.hh"
#include "ddg/circuits.hh"
#include "ddg/profile_map.hh"
#include "machine/machine_config.hh"
#include "opt/budget.hh"
#include "sched/latency_assign.hh"
#include "sched/scheduler.hh"
#include "sched/unroll_policy.hh"
#include "sim/sim_stats.hh"
#include "support/errors.hh"
#include "workloads/mediabench.hh"
#include "workloads/profiler.hh"

namespace vliw {

namespace engine {
class FrontCache;
}

/** Pipeline configuration. */
struct ToolchainOptions
{
    Heuristic heuristic = Heuristic::Ipbc;
    UnrollPolicy unroll = UnrollPolicy::Selective;
    /** Variable alignment (padding) of stack/heap data. */
    bool varAlignment = true;
    /** Build and enforce memory dependent chains. */
    bool memChains = true;
    /** Profile / execution input identities (different files). */
    std::uint64_t profileSeed = 0x9E1C;
    std::uint64_t execSeed = 0x51AD;
    ProfileOptions profile;
    /** Scheduler escalation budget. */
    int maxIiTries = 64;
    /**
     * Compiler hints for the Attraction Buffers (paper Section
     * 5.2): only the abHintBudget loads with the largest expected
     * remote-access counts are marked attractable, so hot loops do
     * not overflow small buffers. 0 keeps every load attractable.
     */
    bool abHints = false;
    int abHintBudget = 8;
    /**
     * Loop versioning (paper Section 5.4): also compile a
     * chain-free version of every loop with shared chains, plus
     * check code; an invocation whose chained references are
     * dynamically disjoint runs the (tighter) unchained version.
     */
    bool loopVersioning = false;
    /**
     * Cooperative cancellation flag. Checked between per-loop
     * compiles and inside the scheduler's II-retry loop; when
     * observed set the pipeline throws CancelledError. Not a
     * compile-relevant option: engine::compileKey ignores it, so
     * cached artifacts stay shareable across jobs with different
     * tokens. Null (the default) disables the checks.
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Run the exact modulo scheduler (src/opt) after the heuristic:
     * the heuristic schedule seeds the search as upper bound and
     * fallback, and is replaced only when the solver finds a
     * strictly smaller II within solverBudget. Compile-relevant:
     * engine::compileKey includes the budget when this is set.
     */
    bool optimalSolver = false;
    opt::SolverBudget solverBudget;

    /** Field-wise, the cancel token included (compare a copy with
     *  it cleared to ignore it). */
    bool operator==(const ToolchainOptions &) const = default;
};

/**
 * The heuristic-independent front end of one loop at one unroll
 * factor (steps 1-2 above): it depends on the loop, the factor, the
 * cache/cluster geometry and the profile inputs, never on the
 * scheduler. Shared read-only through engine::FrontCache.
 */
struct LoopFront
{
    Ddg ddg;                  ///< unrolled body
    ProfileMap profile;       ///< on the PROFILE data set
    std::vector<Circuit> circuits;
};

/** A fully compiled loop, ready to simulate or inspect. */
struct CompiledLoop
{
    std::string name;
    Ddg ddg;                  ///< unrolled body
    ProfileMap profile;
    LatencyAssignment latency;
    ScheduleOutcome sched;
    int unrollFactor = 1;
    UnrollPolicy policyChosen = UnrollPolicy::None;
    int mii = 1;
    /** Kernel iterations per invocation after unrolling. */
    std::int64_t kernelIterations = 0;
    int invocations = 1;
    /**
     * Exact-solver verdict: "proven" / "feasible" /
     * "budget-exhausted", empty for plain heuristic compiles.
     */
    std::string solverOutcome;
    /** Proven lower bound on this loop's II (0 when no solver). */
    int solverLowerBound = 0;
    /** Search nodes the solver spent on this loop. */
    std::uint64_t solverNodes = 0;
};

/**
 * One loop compiled for execution: the primary version plus, when
 * loop versioning (Section 5.4) applies, the primary body's chains
 * and the chain-free second version the runtime check selects.
 */
struct CompiledLoopVersions
{
    CompiledLoop primary;
    std::optional<MemChains> chains;
    std::optional<CompiledLoop> unchained;
};

/**
 * Every compiler artifact of one benchmark. Immutable once built;
 * simulation only reads it, so one instance can back any number of
 * (possibly concurrent) simulations whose configuration agrees on
 * the compile-relevant options.
 */
struct CompiledBenchmark
{
    std::string name;
    std::vector<CompiledLoopVersions> loops;
};

/** Per-loop result after simulation. */
struct LoopRun
{
    std::string name;
    int unrollFactor = 1;
    int ii = 0;
    int stageCount = 0;
    int copies = 0;
    double workloadBalance = 0.0;
    Counter dynamicInsts = 0;
    SimStats sim;
    /** Invocations the versioning check sent to the unchained
     *  version (0 when versioning is off or never profitable). */
    int unchainedInvocations = 0;
    /** Exact-solver verdict of the compiled loop ("" = heuristic). */
    std::string solver;
    /** Proven lower bound on the loop's II (0 when no solver). */
    int solverLowerBound = 0;
    /** Search nodes the solver spent on this loop. */
    std::uint64_t solverNodes = 0;
};

/** Whole-benchmark result. */
struct BenchmarkRun
{
    std::string name;
    std::vector<LoopRun> loops;
    SimStats total;
    /** Dynamic-instruction-weighted mean loop balance. */
    double workloadBalance = 0.0;

    Cycles cycles() const { return total.totalCycles; }
};

/** The pipeline bound to one machine configuration. */
class Toolchain
{
  public:
    /**
     * @param fronts the front-end tier to compile through, shared
     *               with other toolchains (engine::CompileCache
     *               passes its own); null = every compile call
     *               builds its fronts in a private tier.
     */
    Toolchain(const MachineConfig &cfg, const ToolchainOptions &opts,
              std::shared_ptr<engine::FrontCache> fronts = nullptr);

    /** Compile one loop (no simulation). */
    CompiledLoop compileLoop(const BenchmarkSpec &bench,
                             const LoopSpec &loop) const;

    /**
     * Compile every loop of @p bench (versioned second bodies
     * included), without simulating anything.
     */
    CompiledBenchmark compileBenchmark(const BenchmarkSpec &bench) const;

    /**
     * Simulate a previously compiled benchmark on the EXECUTION
     * data set. @p compiled may come from this toolchain or from a
     * cache shared between toolchains whose compile-relevant
     * options match (see engine::compileKey).
     */
    BenchmarkRun simulateBenchmark(const BenchmarkSpec &bench,
                                   const CompiledBenchmark &compiled) const;

    /**
     * Simulate one compiled benchmark across several execution data
     * sets (one per seed, see datasetSeed()), amortising schedule
     * decode and all simulator scratch over the whole batch. The
     * result at index i is bit-identical to simulateBenchmark() run
     * under options whose execSeed is seeds[i]. When @p dataset_ms
     * is given it receives one wall-time entry per data set; when
     * @p setup_ms is given it receives the shared batch setup time
     * (schedule decode + memory-model construction), so setup plus
     * the per-dataset entries account for the whole batch.
     */
    std::vector<BenchmarkRun>
    simulateBatch(const BenchmarkSpec &bench,
                  const CompiledBenchmark &compiled,
                  const std::vector<std::uint64_t> &seeds,
                  std::vector<double> *dataset_ms = nullptr,
                  double *setup_ms = nullptr) const;

    /** Compile and simulate every loop of @p bench. */
    BenchmarkRun runBenchmark(const BenchmarkSpec &bench) const;

    /** Run the full suite. */
    std::vector<BenchmarkRun>
    runSuite(const std::vector<BenchmarkSpec> &suite) const;

    const MachineConfig &config() const { return cfg_; }
    const ToolchainOptions &options() const { return opts_; }

  private:
    /** Latency classes for the configured cache organisation. */
    LatencyScheme makeScheme() const;

    /** Chains policy: never for unified (no correctness need). */
    bool chainsEnabled() const;

    /** The front end of @p loop (index @p index) at @p factor. */
    std::shared_ptr<const LoopFront>
    frontAt(engine::FrontCache &fronts, const BenchmarkSpec &bench,
            const LoopSpec &loop, std::size_t index, int factor) const;

    /** compileLoop() through @p fronts. */
    CompiledLoop compileLoop(engine::FrontCache &fronts,
                             const BenchmarkSpec &bench,
                             const LoopSpec &loop,
                             std::size_t index) const;

    /** Compile at one fixed unroll factor. */
    CompiledLoop compileAt(engine::FrontCache &fronts,
                           const BenchmarkSpec &bench,
                           const LoopSpec &loop, std::size_t index,
                           int factor) const;

    /** Restrict attractable loads to the abHintBudget hottest. */
    void applyAbHints(Ddg &ddg, const ProfileMap &prof,
                      const LatencyMap &lat) const;

    MachineConfig cfg_;
    ToolchainOptions opts_;
    std::shared_ptr<engine::FrontCache> fronts_;
};

} // namespace vliw

#endif // WIVLIW_CORE_TOOLCHAIN_HH

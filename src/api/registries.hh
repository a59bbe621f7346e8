/**
 * @file
 * The four capability registries behind the façade. Each replaces a
 * formerly closed axis — architectures (a private name table),
 * schedulers (`enum class Heuristic`), unrolling (`UnrollPolicy`),
 * workloads (whatever `mediabench.cc` hard-codes) — with an open,
 * name-keyed registry that is seeded with the paper's entries and
 * accepts user registrations.
 *
 * `Registries::builtin()` returns a fresh set carrying only the
 * built-ins; `builtinRegistries()` is the shared immutable copy for
 * code that resolves names without a session. An `api::Session` owns
 * a mutable set of its own, so user registrations are scoped to the
 * session that made them.
 */

#ifndef WIVLIW_API_REGISTRIES_HH
#define WIVLIW_API_REGISTRIES_HH

#include <functional>
#include <memory>
#include <string>

#include "api/registry.hh"
#include "machine/machine_config.hh"
#include "opt/budget.hh"
#include "sched/scheduler.hh"
#include "sched/unroll_policy.hh"
#include "workloads/loop_spec.hh"

namespace vliw::api {

// ---- architectures ---------------------------------------------------

/** One registered architecture: a named MachineConfig factory. */
struct ArchEntry
{
    std::function<MachineConfig()> factory;
    std::string description;
};

/**
 * Named machine configurations, plus a parametric key grammar for
 * one-off variants: `base:mod:mod...` applies modifiers to a
 * registered base, e.g. `interleaved:c8:b16k` is the interleaved
 * configuration with 8 clusters and a 16 KiB cache. Modifiers:
 *
 *   c<N>   numClusters          i<N>   interleaveBytes
 *   b<N>[k] cacheBytes (k=KiB)  w<N>   cacheWays
 *   ab<N>  Attraction Buffers with N entries (ab0 disables)
 *   l<N>   latUnified           r<N>   regsPerCluster
 *
 * Every resolved configuration (exact or parametric) is checked
 * with MachineConfig::check(); inconsistent geometry comes back as
 * an InvalidArgument Status, never a process exit.
 */
class ArchRegistry : public Registry<ArchEntry>
{
  public:
    ArchRegistry() : Registry("architecture") {}

    /** Register a fixed configuration under @p name. */
    Status add(const std::string &name, MachineConfig config,
               std::string description = "");
    using Registry::add;

    /** Resolve an exact name or a parametric `base:mod...` key. */
    Result<MachineConfig> resolve(const std::string &key) const;
};

// ---- schedulers ------------------------------------------------------

/**
 * One registered scheduling strategy. Every entry drives the shared
 * SchedWorkspace-reusing modulo-scheduling kernel; `heuristic`
 * selects its memory-instruction cluster-assignment strategy, so a
 * custom registration is a named alias over one of the kernel
 * strategies (a later PR opens the kernel itself).
 */
struct SchedulerEntry
{
    Heuristic heuristic = Heuristic::Base;
    std::string description;
    /**
     * Entry drives the exact solver (src/opt) seeded by `heuristic`,
     * and its key accepts the `:b<N>ms` / `:n<N>` budget modifiers.
     */
    bool optimal = false;
};

/**
 * A fully resolved scheduler key: which kernel strategy to run and,
 * for `optimal` arms, the parsed search budget plus the canonical
 * key the choice serializes/reports under (`optimal:b5000ms:n1e7`
 * style — plain digits, defaults omitted).
 */
struct SchedulerChoice
{
    Heuristic heuristic = Heuristic::Ipbc;
    bool optimal = false;
    opt::SolverBudget budget;
    std::string name;
};

class SchedulerRegistry : public Registry<SchedulerEntry>
{
  public:
    SchedulerRegistry() : Registry("heuristic") {}

    Status add(const std::string &name, Heuristic heuristic,
               std::string description = "",
               bool optimal = false);
    using Registry::add;

    /**
     * Resolve an exact name or, for optimal entries, a parametric
     * `optimal[:b<N>ms][:n<N>]` budget key. Budget modifiers on a
     * plain heuristic come back as InvalidArgument with the grammar
     * as context.
     */
    Result<SchedulerChoice> resolve(const std::string &key) const;
};

// ---- unrolling policies ----------------------------------------------

struct UnrollEntry
{
    UnrollPolicy policy = UnrollPolicy::None;
    std::string description;
};

class UnrollPolicyRegistry : public Registry<UnrollEntry>
{
  public:
    UnrollPolicyRegistry() : Registry("unroll policy") {}

    Status add(const std::string &name, UnrollPolicy policy,
               std::string description = "");
    using Registry::add;

    Result<UnrollPolicy> resolve(const std::string &name) const;
};

// ---- workloads -------------------------------------------------------

/** One registered workload: a named BenchmarkSpec factory. */
struct WorkloadEntry
{
    std::function<BenchmarkSpec()> factory;
    std::string description;
    /**
     * Set for workloads registered from an already-built spec:
     * resolve() hands this immutable instance out directly instead
     * of copying through the factory.
     */
    std::shared_ptr<const BenchmarkSpec> spec;
    /**
     * Where the workload came from: "builtin" (compiled-in suite),
     * "file" (--bench-file), "wire" (daemon register-workload op)
     * or "custom" (library registration). `--list-benches` prints
     * this as its source column.
     */
    std::string origin = "custom";
};

class WorkloadRegistry : public Registry<WorkloadEntry>
{
  public:
    WorkloadRegistry() : Registry("benchmark") {}

    /**
     * Register a synthetic workload from an already-built spec
     * (e.g. LoopSpecs assembled with KernelBuilder). The spec's
     * name is forced to @p name so reports and compile-cache keys
     * agree with the registry.
     */
    Status add(const std::string &name, BenchmarkSpec spec,
               std::string description = "",
               std::string origin = "custom");
    using Registry::add;

    /** Build the named workload (shared so grids resolve once). */
    Result<std::shared_ptr<const BenchmarkSpec>>
    resolve(const std::string &name) const;
};

// ---- the full set ----------------------------------------------------

/** Every capability axis the façade resolves names through. */
struct Registries
{
    ArchRegistry archs;
    SchedulerRegistry schedulers;
    UnrollPolicyRegistry unrolls;
    WorkloadRegistry workloads;

    /**
     * A fresh set seeded with the paper's entries: the five Table 2
     * architectures, BASE/IBC/IPBC, the four unrolling policies and
     * the 14-benchmark Mediabench-like suite.
     */
    static Registries builtin();
};

/** The shared immutable built-in set (name resolution without a
 *  session). */
const Registries &builtinRegistries();

} // namespace vliw::api

#endif // WIVLIW_API_REGISTRIES_HH

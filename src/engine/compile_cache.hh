/**
 * @file
 * Memoization of compilation and simulation across experiments, in
 * three tiers.
 *
 * The artifact tier memoizes compileBenchmark() under compileKey():
 * the compile-relevant subset of (MachineConfig, ToolchainOptions,
 * benchmark) — everything the compiler actually reads (cluster
 * geometry, register buses, cache organisation and latencies,
 * heuristic, unrolling, alignment, chains, the PROFILE seed) and
 * nothing it does not: Attraction Buffer presence and geometry
 * (simulation hardware, unless abHints puts them in the compiler's
 * view), unified-cache ports, memory buses and the next-level port
 * count only shape execution. Consequently `interleaved` and
 * `interleaved-ab` (and any sweep over AB sizes, port counts or bus
 * counts) compile once and simulate many times.
 *
 * The front tier (FrontCache) memoizes the heuristic-independent
 * front end of one loop at one unroll factor — the unrolled body,
 * its profile on the PROFILE data set and its circuits — under the
 * much narrower frontKey(): loop, factor, cache geometry, cluster
 * mapping and the profile inputs. Every artifact miss compiles
 * through the cache's front tier, so the three heuristics of a
 * paper grid, the five paper architectures (which share one cache
 * geometry), the selective-unroll candidates and the versioned
 * unchained body all profile each (loop, factor) once. A Toolchain
 * built without a front tier compiles through a private one.
 *
 * The run tier memoizes Toolchain::simulateBatch() under runKey():
 * the artifact's compileKey() plus every MachineConfig field
 * compileKey() leaves out and the execution seeds — all a cell's
 * cycle counts depend on. Its entries are grouped by compileKey(),
 * so a group holds every run of one artifact. A session that sees
 * the same cell again (a daemon's repeated request) copies the runs
 * instead of simulating.
 *
 * Concurrency (all tiers): the first requester of a key builds it;
 * concurrent requesters of the same key block on a shared future
 * instead of duplicating the work, and count as hits and as waits
 * (wivliw_compile_waits_total, shared by the three tiers). Entries
 * are immutable shared_ptr<const ...>, safe to read from any number
 * of threads at once. A build that throws (CompileError, or
 * CancelledError from the owner's cancellation token) reaches every
 * waiter but is then *removed* from the tier, so the next requester
 * — possibly an uncancelled job — builds fresh instead of replaying
 * another job's failure.
 *
 * Capacity: one optional bound N turns the three memos into caches
 * for long-lived serving sessions. The artifact tier holds at most N
 * artifacts. The front tier holds the fronts of at most N workloads
 * (benchmark identities, name@fingerprint), because one compile of a
 * workload reads several of its fronts (about 9 per builtin) and an
 * artifact miss must find them all: it evicts all of a workload's
 * fronts together. The run tier holds the runs of at most N
 * artifacts and evicts an artifact's runs together. Over the bound,
 * a tier evicts its least frequently used group, and the least
 * recent of those on a tie. A group's use count is its lookups, hits
 * and misses alike (a workload's is its front reads, which is also
 * what rebuilding it costs). The count outlives an eviction, so a
 * returning group keeps its history, and every 10 N lookups every
 * count is halved and the zeros are forgotten, so a shift in
 * popularity wins within a few such periods and the history stays
 * O(N) names. An unbounded tier counts nothing. No tier evicts an
 * entry whose build is still running, so a group with a build in
 * flight stays. Evictions only drop the tier's own reference
 * (in-flight compiles and simulations keep their entries alive
 * through the shared_ptr) and are counted per entry dropped: an
 * evicted workload adds all its fronts to frontEvictions, an evicted
 * artifact all its runs to runEvictions.
 *
 * Persistence: an optional PersistentCompileStore (the
 * content-addressed dist::CompileStore) backs the artifact tier. A
 * key that misses in memory is first looked up in the store (a
 * store hit skips the compile entirely — this is how daemons and
 * CLI runs share compiles across processes and restarts); a
 * compile that ran publishes its artifact back to the
 * store. The store never affects results: a corrupt, stale or
 * missing entry is just a store miss. It keeps no runs: the front
 * and run tiers live in memory only.
 */

#ifndef WIVLIW_ENGINE_COMPILE_CACHE_HH
#define WIVLIW_ENGINE_COMPILE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/toolchain.hh"

namespace vliw::metrics {
class Counter;
class Histogram;
}

namespace vliw::engine {

/**
 * The memo key: a printable encoding of every compile input. Two
 * (config, options, bench) triples with equal keys are guaranteed
 * to produce bit-identical CompiledBenchmark artifacts.
 */
std::string compileKey(const MachineConfig &cfg,
                       const ToolchainOptions &opts,
                       const std::string &bench);

/**
 * The front-tier key of loop @p loop (its index in the benchmark)
 * of @p bench at unroll factor @p factor: every input of unrolling,
 * profiling and circuit finding, and nothing else. Two requests
 * with equal keys are guaranteed bit-identical LoopFronts.
 */
std::string frontKey(const MachineConfig &cfg,
                     const ToolchainOptions &opts,
                     const std::string &bench, std::size_t loop,
                     int factor);

/**
 * The run-tier key of @p bench under (@p cfg, @p opts) on the
 * execution data sets @p seeds: compileKey(), then AB presence and
 * geometry, the memory buses, the unified-cache and next-level
 * ports, and the seeds. Two requests with equal keys are guaranteed
 * bit-identical simulateBatch() results.
 */
std::string runKey(const MachineConfig &cfg,
                   const ToolchainOptions &opts,
                   const std::string &bench,
                   const std::vector<std::uint64_t> &seeds);

/**
 * A persistent artifact store backing the in-memory memo across
 * processes (implemented by dist::CompileStore). Both calls run on
 * worker threads holding no cache locks; implementations must be
 * thread-safe and must NOT throw — any internal failure is a miss
 * (load) or a dropped publication (store), never an error the
 * compile pipeline sees.
 */
class PersistentCompileStore
{
  public:
    virtual ~PersistentCompileStore() = default;

    /** The artifact stored under @p key, or nullptr (miss). */
    virtual std::shared_ptr<const CompiledBenchmark>
    load(const std::string &key) noexcept = 0;

    /** Best-effort publication of a fresh compile. */
    virtual void store(const std::string &key,
                       const CompiledBenchmark &artifact) noexcept = 0;
};

/** Hit/miss/evict accounting, plus a per-benchmark breakdown. */
struct CompileCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Artifacts dropped to respect the capacity bound. */
    std::uint64_t evictions = 0;
    /**
     * Persistent-store accounting (all zero without a store). A
     * store hit is an in-memory miss served from disk, so it also
     * counts under `misses`; `stores` counts artifacts published
     * after a compile that actually ran.
     */
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t stores = 0;
    /** Front-tier (per loop and unroll factor) accounting;
     *  frontEvictions counts fronts, not workloads. */
    std::uint64_t frontHits = 0;
    std::uint64_t frontMisses = 0;
    std::uint64_t frontEvictions = 0;
    /** Run-tier (per cell and data-set list) accounting;
     *  runEvictions counts runs, not artifacts. */
    std::uint64_t runHits = 0;
    std::uint64_t runMisses = 0;
    std::uint64_t runEvictions = 0;
    std::map<std::string, std::uint64_t> hitsByBench;
    std::map<std::string, std::uint64_t> missesByBench;
};

namespace detail {

/** Registry counters one memo tier mirrors its traffic into. */
struct MemoCounters
{
    metrics::Counter *hits;
    metrics::Counter *misses;
    metrics::Counter *evictions;
    /** Hits that found the entry still being built, and how long
     *  they waited for it (shared by every tier). */
    metrics::Counter *waits;
    metrics::Histogram *waitUs;
};

/**
 * Thread-safe once-per-key memo of immutable values with an
 * optional bound on groups of entries: the machinery the three
 * tiers share (instantiated for CompiledBenchmark, LoopFront and a
 * cell's runs only). Every entry belongs to one group; the bound
 * counts groups, use counts and recency are kept per group, and
 * eviction drops the least frequently used group (the least recent
 * on a tie) whole, once none of its entries is still being built.
 */
template <class Value>
class OnceMemo
{
  public:
    using Entry = std::shared_ptr<const Value>;

    /** @param capacity max resident groups; 0 = unbounded. */
    OnceMemo(std::size_t capacity, MemoCounters counters)
        : capacity_(capacity), counters_(counters)
    {
    }

    /**
     * The value under @p key, a member of @p group. The first
     * requester runs @p build; concurrent requesters wait for it,
     * and count a wait. @p tally, when given, sees every lookup's
     * verdict (true = hit).
     */
    Entry get(const std::string &key, const std::string &group,
              const std::function<Entry()> &build,
              const std::function<void(bool)> &tally = {});

    /** Scalar counters: relaxed atomics, readable while jobs run. */
    std::uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /** Resident entries. */
    std::size_t size() const;
    /** Resident groups. */
    std::size_t groups() const;
    std::size_t capacity() const { return capacity_; }
    /** The use count of @p group, resident or evicted; always 0
     *  in an unbounded memo. */
    std::uint64_t uses(const std::string &group) const;
    /** Group names with a nonzero use count, resident or evicted. */
    std::size_t history() const;

  private:
    struct Group;
    using GroupNode = std::pair<const std::string, Group>;

    /** One memoized value and the group it belongs to. */
    struct Slot
    {
        std::shared_future<Entry> future;
        /** Stable: unordered_map nodes never move. */
        GroupNode *group = nullptr;
        /** Insertion identity: a failing owner may only remove
         *  the slot it created, never a successor's rebuild that
         *  reused the key after an eviction. */
        std::uint64_t gen = 0;
    };
    using Member = std::pair<const std::string, Slot>;

    /** The resident entries of one group, its recency and its use
     *  count (bounded memos only). */
    struct Group
    {
        std::list<GroupNode *>::iterator lruIt;
        std::vector<Member *> members;
        std::uint64_t uses = 0;
    };

    /** Count one lookup of @p g; every 10 x capacity lookups, halve
     *  every count. No-op in an unbounded memo. */
    void countUseLocked(Group &g);
    /** Drop least frequently used groups over capacity whose
     *  entries are all settled. */
    void enforceCapacityLocked();
    /** Forget the group of @p node, keeping its use count. */
    void dropGroupLocked(GroupNode &node);

    const std::size_t capacity_;
    const MemoCounters counters_;
    mutable std::mutex mu_;
    std::uint64_t nextGen_ = 0;
    std::unordered_map<std::string, Slot> entries_;
    std::unordered_map<std::string, Group> groups_;
    /** Front = most recently used. */
    std::list<GroupNode *> lru_;
    /** Use counts of evicted groups, nonzero only. */
    std::unordered_map<std::string, std::uint64_t> evictedUses_;
    std::uint64_t lookupsSinceAging_ = 0;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace detail

/**
 * The front tier: one LoopFront per frontKey, shared by every
 * Toolchain compiling through it (see Toolchain's constructor).
 */
class FrontCache
{
  public:
    using Entry = std::shared_ptr<const LoopFront>;

    /** @param capacity max workloads whose fronts stay resident;
     *  0 = unbounded. */
    explicit FrontCache(std::size_t capacity = 0);

    /**
     * The front end of loop @p loop of @p bench at @p factor under
     * (@p cfg, @p opts); @p build computes it on a miss.
     */
    Entry front(const MachineConfig &cfg, const ToolchainOptions &opts,
                const BenchmarkSpec &bench, std::size_t loop,
                int factor, const std::function<LoopFront()> &build);

    std::uint64_t hits() const { return memo_.hits(); }
    std::uint64_t misses() const { return memo_.misses(); }
    std::uint64_t evictions() const { return memo_.evictions(); }
    /** Distinct fronts currently held. */
    std::size_t size() const { return memo_.size(); }
    /** Workloads with fronts currently held. */
    std::size_t workloads() const { return memo_.groups(); }

  private:
    detail::OnceMemo<LoopFront> memo_;
};

/**
 * Thread-safe once-per-key compile and run memo with an optional
 * frequency-aware bound (see "Capacity" above).
 */
class CompileCache
{
  public:
    using Entry = std::shared_ptr<const CompiledBenchmark>;
    using Runs = std::shared_ptr<const std::vector<BenchmarkRun>>;

    /**
     * @param capacity max resident artifacts, max workloads whose
     *                 fronts stay resident, and max artifacts whose
     *                 runs stay resident; 0 = unbounded.
     * @param store    optional persistent backing store shared
     *                 across processes; null = memory only.
     */
    explicit CompileCache(
        std::size_t capacity = 0,
        std::shared_ptr<PersistentCompileStore> store = nullptr);

    /**
     * The artifact key of @p bench under (@p cfg, @p opts):
     * compileKey() of its identity (name@fingerprint for an ingested
     * workload). A cell builds it once for compile() and runs().
     */
    static std::string artifactKey(const MachineConfig &cfg,
                                   const ToolchainOptions &opts,
                                   const BenchmarkSpec &bench);

    /**
     * Return the compiled form of @p bench under (@p cfg, @p opts),
     * compiling at most once per distinct key process-wide.
     */
    Entry
    compile(const MachineConfig &cfg, const ToolchainOptions &opts,
            const BenchmarkSpec &bench)
    {
        return compile(artifactKey(cfg, opts, bench), cfg, opts, bench);
    }

    /** As above, given @p key == artifactKey(cfg, opts, bench). */
    Entry compile(const std::string &key, const MachineConfig &cfg,
                  const ToolchainOptions &opts,
                  const BenchmarkSpec &bench);

    /**
     * Return the runs of the artifact under @p key (its
     * artifactKey()) on machine @p cfg and the data sets @p seeds,
     * simulating at most once per distinct runKey(): @p simulate
     * produces them on a miss.
     */
    Runs runs(const std::string &key, const MachineConfig &cfg,
              const std::vector<std::uint64_t> &seeds,
              const std::function<std::vector<BenchmarkRun>()> &simulate);

    /**
     * Counter snapshot. The scalar counters are atomics readable
     * while jobs run (a monitoring thread polling stats never
     * contends with, or tears against, the workers); the
     * per-benchmark maps are copied under a lock.
     */
    CompileCacheStats stats() const;

    /** Distinct compiled configurations currently held. */
    std::size_t size() const { return artifacts_.size(); }

    /** The front tier every compile of this cache goes through. */
    const FrontCache &fronts() const { return *fronts_; }

    std::size_t capacity() const { return artifacts_.capacity(); }

    const std::shared_ptr<PersistentCompileStore> &
    store() const
    {
        return store_;
    }

  private:
    detail::OnceMemo<CompiledBenchmark> artifacts_;
    std::shared_ptr<FrontCache> fronts_;
    detail::OnceMemo<std::vector<BenchmarkRun>> runs_;
    std::shared_ptr<PersistentCompileStore> store_;
    std::atomic<std::uint64_t> storeHits_{0};
    std::atomic<std::uint64_t> storeMisses_{0};
    std::atomic<std::uint64_t> stores_{0};
    /** Per-benchmark breakdowns, guarded by benchMu_. */
    mutable std::mutex benchMu_;
    std::map<std::string, std::uint64_t> hitsByBench_;
    std::map<std::string, std::uint64_t> missesByBench_;
};

} // namespace vliw::engine

#endif // WIVLIW_ENGINE_COMPILE_CACHE_HH

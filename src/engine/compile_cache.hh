/**
 * @file
 * Memoization of compilation across experiments, in two tiers.
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
 * Concurrency (both tiers): the first requester of a key builds it;
 * concurrent requesters of the same key block on a shared future
 * instead of duplicating the work, and count as hits and as waits
 * (wivliw_compile_waits_total). Entries are immutable
 * shared_ptr<const ...>, safe to read from any number of threads at
 * once. A build that throws (CompileError, or
 * CancelledError from the owner's cancellation token) reaches every
 * waiter but is then *removed* from the tier, so the next requester
 * — possibly an uncancelled job — builds fresh instead of replaying
 * another job's failure.
 *
 * Capacity: one optional entry bound applies to each tier, turning
 * both memos into LRU caches for long-lived serving sessions;
 * evictions only drop the tier's own reference (in-flight compiles
 * and simulations keep their entries alive through the shared_ptr)
 * and are counted in the stats.
 *
 * Persistence: an optional PersistentCompileStore (the distributed
 * sweep fabric's content-addressed dist::CompileStore) backs the
 * artifact tier. A key that misses in memory is first looked up in
 * the store (a store hit skips the compile entirely — this is how
 * a fleet of daemons shares compiles across processes and
 * restarts); a compile that ran publishes its artifact back to the
 * store. The store never affects results: a corrupt, stale or
 * missing entry is just a store miss.
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
    /** Entries dropped to respect the capacity bound. */
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
    /** Front-tier (per loop and unroll factor) accounting. */
    std::uint64_t frontHits = 0;
    std::uint64_t frontMisses = 0;
    std::uint64_t frontEvictions = 0;
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
     *  they waited for it (shared by both tiers). */
    metrics::Counter *waits;
    metrics::Histogram *waitUs;
};

/**
 * Thread-safe once-per-key memo of immutable values with an
 * optional LRU entry bound: the machinery both compile tiers share
 * (instantiated for CompiledBenchmark and LoopFront only).
 */
template <class Value>
class OnceMemo
{
  public:
    using Entry = std::shared_ptr<const Value>;

    /** @param capacity max resident entries; 0 = unbounded. */
    OnceMemo(std::size_t capacity, MemoCounters counters)
        : capacity_(capacity), counters_(counters)
    {
    }

    /**
     * The value under @p key. The first requester runs @p build;
     * concurrent requesters wait for it, and count a wait. @p tally,
     * when given, sees every lookup's verdict (true = hit).
     */
    Entry get(const std::string &key,
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

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }

  private:
    /** One memoized value and its recency-list position. */
    struct Slot
    {
        std::shared_future<Entry> future;
        std::list<std::string>::iterator lruIt;
        /** Insertion identity: a failing owner may only remove
         *  the slot it created, never a successor's rebuild that
         *  reused the key after an eviction. */
        std::uint64_t gen = 0;
    };

    /** Drop least-recently-used ready entries over capacity. */
    void enforceCapacityLocked(const std::string &keep);

    const std::size_t capacity_;
    const MemoCounters counters_;
    mutable std::mutex mu_;
    std::uint64_t nextGen_ = 0;
    std::unordered_map<std::string, Slot> entries_;
    /** Front = most recently used. */
    std::list<std::string> lru_;
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

    /** @param capacity max resident fronts; 0 = unbounded. */
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

  private:
    detail::OnceMemo<LoopFront> memo_;
};

/** Thread-safe once-per-key compile memo with optional LRU bound. */
class CompileCache
{
  public:
    using Entry = std::shared_ptr<const CompiledBenchmark>;

    /**
     * @param capacity max resident entries per tier; 0 = unbounded.
     * @param store    optional persistent backing store shared
     *                 across processes; null = memory only.
     */
    explicit CompileCache(
        std::size_t capacity = 0,
        std::shared_ptr<PersistentCompileStore> store = nullptr);

    /**
     * Return the compiled form of @p bench under (@p cfg, @p opts),
     * compiling at most once per distinct key process-wide.
     */
    Entry compile(const MachineConfig &cfg,
                  const ToolchainOptions &opts,
                  const BenchmarkSpec &bench);

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

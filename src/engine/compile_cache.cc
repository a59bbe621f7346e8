#include "compile_cache.hh"

#include "support/metrics.hh"

#include <chrono>
#include <sstream>

namespace vliw::engine {

namespace {

/** Store traffic mirrored into the scrapeable registry. */
struct StoreMetrics
{
    metrics::Counter &hits;
    metrics::Counter &misses;
    metrics::Counter &writes;
};

StoreMetrics &
storeMetrics()
{
    metrics::Registry &reg = metrics::registry();
    static StoreMetrics m{
        reg.counter("wivliw_compile_store_hits_total"),
        reg.counter("wivliw_compile_store_misses_total"),
        reg.counter("wivliw_compile_store_writes_total"),
    };
    return m;
}

/** Registry counters of one tier: wivliw_compile_<tier>_*_total. */
detail::MemoCounters
memoCounters(const std::string &tier)
{
    metrics::Registry &reg = metrics::registry();
    return {&reg.counter("wivliw_compile_" + tier + "_hits_total"),
            &reg.counter("wivliw_compile_" + tier + "_misses_total"),
            &reg.counter("wivliw_compile_" + tier + "_evictions_total"),
            &reg.counter("wivliw_compile_waits_total"),
            &reg.histogram("wivliw_compile_wait_us")};
}

const detail::MemoCounters &
artifactCounters()
{
    static const detail::MemoCounters c = memoCounters("cache");
    return c;
}

const detail::MemoCounters &
frontCounters()
{
    static const detail::MemoCounters c = memoCounters("front");
    return c;
}

/**
 * The benchmark's identity in both keys. Ingested workloads carry a
 * content fingerprint: two same-named text kernels with different
 * bodies must not share entries (the persistent store outlives a
 * registration). Builtins have no fingerprint, keeping their keys
 * — and any store published before ingestion existed — unchanged.
 */
std::string
benchIdentity(const BenchmarkSpec &bench)
{
    return bench.fingerprint.empty()
        ? bench.name
        : bench.name + "@" + bench.fingerprint;
}

} // namespace

std::string
compileKey(const MachineConfig &cfg, const ToolchainOptions &opts,
           const std::string &bench)
{
    std::ostringstream key;
    key << bench
        // Core geometry the scheduler packs into.
        << "|c" << cfg.numClusters
        << "u" << cfg.intUnitsPerCluster
        << "," << cfg.fpUnitsPerCluster
        << "," << cfg.memUnitsPerCluster
        << "r" << cfg.regsPerCluster
        // Inter-cluster copies are scheduled operations.
        << "|b" << cfg.regBuses << "," << cfg.regBusOccupancy
        << "," << cfg.regBusLatency
        // Cache organisation picks the latency scheme; geometry
        // drives the profiling pass and the data-set layout.
        << "|o" << int(cfg.cacheOrg)
        << "$" << cfg.cacheBytes << "," << cfg.blockBytes
        << "," << cfg.cacheWays << "," << cfg.interleaveBytes
        // Every latency class the assigner can hand out.
        << "|l" << cfg.latLocalHit << "," << cfg.latRemoteHit
        << "," << cfg.latLocalMiss << "," << cfg.latRemoteMiss
        << "," << cfg.latUnified << "," << cfg.latCoherentHit
        << "," << cfg.latCacheToCache << "," << cfg.latNextLevel
        // Toolchain options seen by the compiler, keyed by the
        // same canonical names the registries and reports use.
        // (The cooperative cancel token is deliberately absent:
        // it never changes the artifact.)
        << "|h" << heuristicName(opts.heuristic)
        << "u" << unrollPolicyName(opts.unroll)
        << (opts.varAlignment ? "a" : "-")
        << (opts.memChains ? "m" : "-")
        << (opts.loopVersioning ? "v" : "-")
        << "|s" << std::hex << opts.profileSeed << std::dec
        << "|p" << opts.profile.maxIterations
        << "|t" << opts.maxIiTries;
    // Attraction Buffers enter the compiler's view only through
    // the hint pass; key them only when that pass runs so plain
    // AB-vs-no-AB arms still share compiles.
    if (opts.abHints) {
        key << "|ab" << (cfg.attractionBuffers ? 1 : 0)
            << "," << opts.abHintBudget;
    }
    // The exact solver changes the artifact; the budget bounds how
    // far its proof gets, so it is compile-relevant too. Keyed only
    // when the solver runs: heuristic keys — and every store
    // published before the solver existed — stay byte-stable.
    if (opts.optimalSolver) {
        key << "|x" << opts.solverBudget.maxNodes
            << "," << opts.solverBudget.maxMillis;
    }
    return key.str();
}

std::string
frontKey(const MachineConfig &cfg, const ToolchainOptions &opts,
         const std::string &bench, std::size_t loop, int factor)
{
    // Deliberately absent, because unrolling, profiling and
    // circuit finding never read them:
    // - the heuristic, chains, versioning and the II-try budget
    //   only steer scheduling, which runs after the front end;
    // - the cache organisation and every latency only choose and
    //   fill latency classes, assigned after the front end (the
    //   profiling pass models the same tag array for every
    //   organisation);
    // - AB hints mark attractable loads on the compile's own copy
    //   of the unrolled body, after the front end;
    // - the exact solver and its budget refine the heuristic
    //   schedule;
    // - the unroll policy: the factor it chose is keyed instead.
    std::ostringstream key;
    key << bench << "#" << loop << "x" << factor
        // The profiling pass's functional tag array (cacheBytes
        // enters only through the set count).
        << "|$" << cfg.cacheSets() << "," << cfg.cacheWays
        << "," << cfg.blockBytes
        // Home clusters, and the data-set layout through
        // mappingPeriod().
        << "|c" << cfg.numClusters << "," << cfg.interleaveBytes
        // The PROFILE data set and the profiling cap.
        << "|s" << std::hex << opts.profileSeed << std::dec
        << (opts.varAlignment ? "a" : "-")
        << "|p" << opts.profile.maxIterations;
    return key.str();
}

namespace detail {

template <class Value>
typename OnceMemo<Value>::Entry
OnceMemo<Value>::get(const std::string &key,
                     const std::function<Entry()> &build,
                     const std::function<void(bool)> &tally)
{
    std::shared_future<Entry> future;
    std::promise<Entry> promise;
    bool owner = false;
    std::uint64_t myGen = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            counters_.hits->add();
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            future = it->second.future;
        } else {
            misses_.fetch_add(1, std::memory_order_relaxed);
            counters_.misses->add();
            future = promise.get_future().share();
            myGen = ++nextGen_;
            lru_.push_front(key);
            entries_.emplace(key, Slot{future, lru_.begin(), myGen});
            enforceCapacityLocked(key);
            owner = true;
        }
    }
    if (tally)
        tally(!owner);

    if (!owner && future.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready) {
        // Another requester is still building this key.
        counters_.waits->add();
        const auto t0 = std::chrono::steady_clock::now();
        future.wait();
        counters_.waitUs->observe(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    if (owner) {
        // A failed build (CompileError, CancelledError) must reach
        // every requester blocked on this key, not leave them
        // waiting on a promise that is never satisfied — and must
        // vacate the slot, so a later request (e.g. an uncancelled
        // job that shared a cancelled owner's compile) retries
        // fresh instead of replaying the failure. The erase
        // happens BEFORE the exception is published (no window
        // where a ready-failed slot can be looked up and spun on)
        // and only under this owner's generation (never a
        // successor's rebuild after an eviction).
        try {
            promise.set_value(build());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                auto it = entries_.find(key);
                if (it != entries_.end() &&
                    it->second.gen == myGen) {
                    lru_.erase(it->second.lruIt);
                    entries_.erase(it);
                }
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

template <class Value>
void
OnceMemo<Value>::enforceCapacityLocked(const std::string &keep)
{
    if (capacity_ == 0)
        return;
    auto victim = lru_.end();
    while (entries_.size() > capacity_ && victim != lru_.begin()) {
        --victim;
        if (*victim == keep)
            continue;
        auto it = entries_.find(*victim);
        // Only evict settled entries; an in-flight build has
        // waiters parked on its future.
        if (it->second.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            continue;
        }
        entries_.erase(it);
        victim = lru_.erase(victim);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        counters_.evictions->add();
    }
}

template <class Value>
std::size_t
OnceMemo<Value>::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

template class OnceMemo<CompiledBenchmark>;
template class OnceMemo<LoopFront>;

} // namespace detail

FrontCache::FrontCache(std::size_t capacity)
    : memo_(capacity, frontCounters())
{
}

FrontCache::Entry
FrontCache::front(const MachineConfig &cfg, const ToolchainOptions &opts,
                  const BenchmarkSpec &bench, std::size_t loop,
                  int factor, const std::function<LoopFront()> &build)
{
    return memo_.get(
        frontKey(cfg, opts, benchIdentity(bench), loop, factor),
        [&build] { return std::make_shared<const LoopFront>(build()); });
}

CompileCache::CompileCache(std::size_t capacity,
                           std::shared_ptr<PersistentCompileStore> store)
    : artifacts_(capacity, artifactCounters()),
      fronts_(std::make_shared<FrontCache>(capacity)),
      store_(std::move(store))
{
}

CompileCache::Entry
CompileCache::compile(const MachineConfig &cfg,
                      const ToolchainOptions &opts,
                      const BenchmarkSpec &bench)
{
    const std::string key = compileKey(cfg, opts, benchIdentity(bench));
    bool compiled = false;
    const Entry entry = artifacts_.get(
        key,
        [&]() -> Entry {
            if (store_) {
                if (Entry loaded = store_->load(key)) {
                    storeHits_.fetch_add(1, std::memory_order_relaxed);
                    storeMetrics().hits.add();
                    return loaded;
                }
                storeMisses_.fetch_add(1, std::memory_order_relaxed);
                storeMetrics().misses.add();
            }
            compiled = true;
            const Toolchain chain(cfg, opts, fronts_);
            return std::make_shared<const CompiledBenchmark>(
                chain.compileBenchmark(bench));
        },
        [&](bool hit) {
            std::lock_guard<std::mutex> lock(benchMu_);
            (hit ? hitsByBench_ : missesByBench_)[bench.name] += 1;
        });
    // Waiters were released when the memo published the entry;
    // persisting a fresh compile is best-effort disk IO nobody
    // blocks on.
    if (store_ && compiled) {
        store_->store(key, *entry);
        stores_.fetch_add(1, std::memory_order_relaxed);
        storeMetrics().writes.add();
    }
    return entry;
}

CompileCacheStats
CompileCache::stats() const
{
    CompileCacheStats out;
    out.hits = artifacts_.hits();
    out.misses = artifacts_.misses();
    out.evictions = artifacts_.evictions();
    out.storeHits = storeHits_.load(std::memory_order_relaxed);
    out.storeMisses = storeMisses_.load(std::memory_order_relaxed);
    out.stores = stores_.load(std::memory_order_relaxed);
    out.frontHits = fronts_->hits();
    out.frontMisses = fronts_->misses();
    out.frontEvictions = fronts_->evictions();
    std::lock_guard<std::mutex> lock(benchMu_);
    out.hitsByBench = hitsByBench_;
    out.missesByBench = missesByBench_;
    return out;
}

} // namespace vliw::engine

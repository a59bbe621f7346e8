#include "compile_cache.hh"

#include "support/metrics.hh"

#include <algorithm>
#include <chrono>
#include <iterator>
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

const detail::MemoCounters &
runCounters()
{
    static const detail::MemoCounters c = memoCounters("run");
    return c;
}

/**
 * The benchmark's identity in every key. Ingested workloads carry a
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

/** What runKey() adds to compileKey(). */
std::string
runFields(const MachineConfig &cfg, const std::vector<std::uint64_t> &seeds)
{
    // compileKey() keys 21 of MachineConfig's 28 fields (all ints
    // but a bool and an enum); the 7 it leaves out are keyed here.
    // A new field must be keyed by one of the two, or two cells
    // that simulate differently would share runs.
    static_assert(sizeof(MachineConfig) == 28 * sizeof(int),
                  "key the new MachineConfig field in compileKey() "
                  "or runKey()");
    std::ostringstream key;
    key << "|r" << (cfg.attractionBuffers ? 1 : 0)
        << "," << cfg.abEntries << "," << cfg.abWays
        << "|m" << cfg.memBuses << "," << cfg.memBusOccupancy
        << "|n" << cfg.unifiedPorts << "," << cfg.nextLevelPorts
        << "|e" << std::hex;
    for (std::uint64_t seed : seeds)
        key << seed << ",";
    return key.str();
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

std::string
runKey(const MachineConfig &cfg, const ToolchainOptions &opts,
       const std::string &bench, const std::vector<std::uint64_t> &seeds)
{
    return compileKey(cfg, opts, bench) + runFields(cfg, seeds);
}

namespace detail {

template <class Value>
typename OnceMemo<Value>::Entry
OnceMemo<Value>::get(const std::string &key, const std::string &group,
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
            Group &g = it->second.group->second;
            lru_.splice(lru_.begin(), lru_, g.lruIt);
            countUseLocked(g);
            future = it->second.future;
        } else {
            misses_.fetch_add(1, std::memory_order_relaxed);
            counters_.misses->add();
            future = promise.get_future().share();
            myGen = ++nextGen_;
            auto [git, fresh] = groups_.try_emplace(group);
            GroupNode &node = *git;
            if (fresh) {
                lru_.push_front(&node);
                node.second.lruIt = lru_.begin();
                // A returning group resumes its count.
                if (capacity_ != 0) {
                    if (auto past = evictedUses_.extract(group))
                        node.second.uses = past.mapped();
                }
            } else {
                lru_.splice(lru_.begin(), lru_, node.second.lruIt);
            }
            countUseLocked(node.second);
            node.second.members.push_back(
                &*entries_.emplace(key, Slot{future, &node, myGen}).first);
            enforceCapacityLocked();
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
        // successor's rebuild after an eviction). A group left
        // without entries goes, as if evicted.
        try {
            promise.set_value(build());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                auto it = entries_.find(key);
                if (it != entries_.end() &&
                    it->second.gen == myGen) {
                    GroupNode &node = *it->second.group;
                    std::erase(node.second.members, &*it);
                    entries_.erase(it);
                    if (node.second.members.empty())
                        dropGroupLocked(node);
                }
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

template <class Value>
void
OnceMemo<Value>::countUseLocked(Group &g)
{
    if (capacity_ == 0)
        return;
    ++g.uses;
    if (++lookupsSinceAging_ < 10 * capacity_)
        return;
    // Aging: recent popularity outweighs old, and a count that
    // halves to zero is forgotten, so the history of evicted
    // groups stays O(capacity) names.
    lookupsSinceAging_ = 0;
    for (auto &[name, resident] : groups_)
        resident.uses /= 2;
    for (auto it = evictedUses_.begin(); it != evictedUses_.end();) {
        it->second /= 2;
        it = it->second == 0 ? evictedUses_.erase(it) : std::next(it);
    }
}

template <class Value>
void
OnceMemo<Value>::enforceCapacityLocked()
{
    while (capacity_ != 0 && groups_.size() > capacity_) {
        // The least used group, walking from the least recent end
        // so that a tie goes to the least recent. Only settled
        // groups qualify; an in-flight build has waiters parked on
        // its future. (The entry being inserted is unsettled, so
        // its own group always stays.)
        GroupNode *victim = nullptr;
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            const Group &g = (*it)->second;
            if (victim && g.uses >= victim->second.uses)
                continue;
            const bool settled = std::all_of(
                g.members.begin(), g.members.end(), [](const Member *m) {
                    return m->second.future.wait_for(std::chrono::seconds(
                               0)) == std::future_status::ready;
                });
            if (settled)
                victim = *it;
        }
        if (!victim)
            return;
        const std::vector<Member *> &members = victim->second.members;
        // By iterator: erasing by key would pass a reference into
        // the node being freed.
        for (const Member *m : members)
            entries_.erase(entries_.find(m->first));
        evictions_.fetch_add(members.size(), std::memory_order_relaxed);
        counters_.evictions->add(members.size());
        dropGroupLocked(*victim);
    }
}

template <class Value>
void
OnceMemo<Value>::dropGroupLocked(GroupNode &node)
{
    if (node.second.uses != 0)
        evictedUses_[node.first] = node.second.uses;
    lru_.erase(node.second.lruIt);
    // By iterator, as above.
    groups_.erase(groups_.find(node.first));
}

template <class Value>
std::size_t
OnceMemo<Value>::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

template <class Value>
std::size_t
OnceMemo<Value>::groups() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return groups_.size();
}

template <class Value>
std::uint64_t
OnceMemo<Value>::uses(const std::string &group) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = groups_.find(group); it != groups_.end())
        return it->second.uses;
    auto past = evictedUses_.find(group);
    return past == evictedUses_.end() ? 0 : past->second;
}

template <class Value>
std::size_t
OnceMemo<Value>::history() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictedUses_.size() +
        std::count_if(groups_.begin(), groups_.end(),
                      [](const auto &g) { return g.second.uses != 0; });
}

template class OnceMemo<CompiledBenchmark>;
template class OnceMemo<LoopFront>;
template class OnceMemo<std::vector<BenchmarkRun>>;

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
    const std::string workload = benchIdentity(bench);
    return memo_.get(
        frontKey(cfg, opts, workload, loop, factor), workload,
        [&build] { return std::make_shared<const LoopFront>(build()); });
}

CompileCache::CompileCache(std::size_t capacity,
                           std::shared_ptr<PersistentCompileStore> store)
    : artifacts_(capacity, artifactCounters()),
      fronts_(std::make_shared<FrontCache>(capacity)),
      runs_(capacity, runCounters()), store_(std::move(store))
{
}

std::string
CompileCache::artifactKey(const MachineConfig &cfg,
                          const ToolchainOptions &opts,
                          const BenchmarkSpec &bench)
{
    return compileKey(cfg, opts, benchIdentity(bench));
}

CompileCache::Entry
CompileCache::compile(const std::string &key, const MachineConfig &cfg,
                      const ToolchainOptions &opts,
                      const BenchmarkSpec &bench)
{
    bool compiled = false;
    // Each artifact is its own group: the bound counts artifacts.
    const Entry entry = artifacts_.get(
        key, key,
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

CompileCache::Runs
CompileCache::runs(const std::string &key, const MachineConfig &cfg,
                   const std::vector<std::uint64_t> &seeds,
                   const std::function<std::vector<BenchmarkRun>()> &simulate)
{
    // Grouped by artifact: the bound counts artifacts whose runs
    // stay resident.
    return runs_.get(key + runFields(cfg, seeds), key,
                     [&simulate] {
                         return std::make_shared<
                             const std::vector<BenchmarkRun>>(simulate());
                     });
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
    out.runHits = runs_.hits();
    out.runMisses = runs_.misses();
    out.runEvictions = runs_.evictions();
    std::lock_guard<std::mutex> lock(benchMu_);
    out.hitsByBench = hitsByBench_;
    out.missesByBench = missesByBench_;
    return out;
}

} // namespace vliw::engine

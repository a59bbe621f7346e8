/**
 * @file
 * The traced replay: re-runs engine cells by calling each layer's
 * public stage functions in the order Toolchain::compileAt /
 * compileLoop and Toolchain::simulateBatch use, with a span around
 * every call. Each replayed cell is checked against the engine's own
 * result (schedules, SimStats), so the spans time the work the
 * program does at this commit.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <map>
#include <memory>
#include <string>

#include "common.hh"
#include "core/toolchain.hh"
#include "engine/experiment.hh"

namespace perfbench {

/** Work counts the replay observed (exact for a given input). */
struct ReplayCounts
{
    std::uint64_t profileCalls = 0;
    std::uint64_t circuits = 0;
    std::uint64_t schedules = 0;
    std::uint64_t iiTries = 0;
    std::uint64_t scheduleAllocs = 0;
    std::uint64_t solves = 0;
    std::uint64_t solverNodes = 0;
    std::uint64_t proven = 0;
    std::uint64_t budgetExhausted = 0;
    std::uint64_t datasets = 0;
    std::uint64_t datasetAllocs = 0;
    /** Modelled, summed over simulated cells and data sets. */
    std::uint64_t iiSum = 0;
    std::uint64_t copiesSum = 0;
    std::uint64_t dynamicOps = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t localHits = 0;
    /** Accesses with an access class (local/remote hit/miss). */
    std::uint64_t classifiedAccesses = 0;
    std::uint64_t abHits = 0;
};

class Replay
{
  public:
    /** @p rec receives the spans; null replays without tracing. */
    explicit Replay(SpanRecorder *rec) : rec_(rec) {}

    /**
     * Compile (unless an artifact for the cell's compile key is
     * already held) and simulate @p cell, then check the replay's
     * schedules and SimStats against the engine's. Fails the run on
     * any difference.
     */
    void replayCell(const vliw::engine::ExperimentResult &cell);

    /** The replay's artifact for @p cell (after replayCell). */
    const vliw::CompiledBenchmark &
    artifact(const vliw::engine::ExperimentResult &cell) const;

    /** Forget every artifact: the next cells compile cold. */
    void clearArtifacts() { artifacts_.clear(); }

    /** Record later calls on @p rec (null: stop recording). */
    void setRecorder(SpanRecorder *rec) { rec_ = rec; }

    ReplayCounts counts;

  private:
    vliw::CompiledLoop compileLoop(const vliw::MachineConfig &cfg,
                                   const vliw::ToolchainOptions &opts,
                                   const vliw::BenchmarkSpec &bench,
                                   const vliw::LoopSpec &loop);
    vliw::CompiledLoop compileAt(const vliw::MachineConfig &cfg,
                                 const vliw::ToolchainOptions &opts,
                                 const vliw::BenchmarkSpec &bench,
                                 const vliw::LoopSpec &loop, int factor);

    SpanRecorder *rec_;
    std::map<std::string, std::shared_ptr<vliw::CompiledBenchmark>>
        artifacts_;
};

/** Cache key of @p cell, as the engine's CompileCache forms it. */
std::string cellCompileKey(const vliw::engine::ExperimentResult &cell);

/** True when two schedules place every op and copy identically. */
bool sameSchedule(const vliw::Schedule &a, const vliw::Schedule &b);

/** True when every SimStats field matches. */
bool sameStats(const vliw::SimStats &a, const vliw::SimStats &b);

/**
 * Check every loop of @p compiled with validateSchedule (chains
 * enforced where the toolchain enforces them); fails the run on a
 * violation.
 */
void validateArtifact(const vliw::MachineConfig &cfg,
                      const vliw::ToolchainOptions &opts,
                      const vliw::CompiledBenchmark &compiled);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH

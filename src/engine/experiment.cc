#include "experiment.hh"

#include "support/logging.hh"

namespace vliw::engine {

std::string
schedulerLabel(const ToolchainOptions &opts)
{
    if (opts.optimalSolver)
        return opt::canonicalBudgetKey(opts.solverBudget);
    return heuristicName(opts.heuristic);
}

std::string
ExperimentSpec::label() const
{
    std::string out = bench + "/" + arch.name + "/" +
        schedulerLabel(opts) + "/" +
        unrollPolicyName(opts.unroll);
    if (!opts.varAlignment)
        out += "/noalign";
    if (!opts.memChains)
        out += "/nochains";
    if (opts.loopVersioning)
        out += "/versioned";
    return out;
}

namespace {

/** The workload identity compileKey uses: name plus fingerprint. */
std::pair<const std::string &, const std::string &>
workloadIdentity(const ExperimentSpec &spec)
{
    vliw_assert(spec.workload, "cell ", spec.label(),
                " has no resolved workload");
    return {spec.workload->name, spec.workload->fingerprint};
}

/** The options as the compiler reads them (see twinCells()). */
ToolchainOptions
compiledOptions(ToolchainOptions opts)
{
    opts.heuristic = compiledHeuristic(opts.heuristic);
    opts.cancel = nullptr;
    return opts;
}

} // namespace

bool
twinCells(const ExperimentSpec &a, const ExperimentSpec &b)
{
    return workloadIdentity(a) == workloadIdentity(b) &&
        a.arch.config == b.arch.config &&
        a.execSeeds == b.execSeeds &&
        compiledOptions(a.opts) == compiledOptions(b.opts);
}

std::size_t
twinHash(const ExperimentSpec &spec)
{
    // The fields grid axes vary; twinCells() confirms the rest.
    const auto [name, fingerprint] = workloadIdentity(spec);
    const MachineConfig &cfg = spec.arch.config;
    const ToolchainOptions &opts = spec.opts;
    std::size_t h = std::hash<std::string>{}(name);
    for (const std::size_t v :
         {std::hash<std::string>{}(fingerprint),
          std::size_t(cfg.cacheOrg), std::size_t(cfg.numClusters),
          std::size_t(cfg.attractionBuffers),
          std::size_t(cfg.latUnified),
          std::size_t(compiledHeuristic(opts.heuristic)),
          std::size_t(opts.unroll), std::size_t(opts.varAlignment),
          std::size_t(opts.memChains),
          std::size_t(opts.loopVersioning),
          std::size_t(opts.optimalSolver),
          std::size_t(opts.execSeed), spec.execSeeds.size()})
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

} // namespace vliw::engine

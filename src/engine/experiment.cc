#include "experiment.hh"

#include "support/logging.hh"
#include "workloads/dataset.hh"

namespace vliw::engine {

const std::vector<std::string> &
archNames()
{
    return api::builtinRegistries().archs.names();
}

std::optional<ArchSpec>
findArch(const std::string &name)
{
    auto cfg = api::builtinRegistries().archs.resolve(name);
    if (!cfg.ok())
        return std::nullopt;
    return ArchSpec{name, cfg.take()};
}

ArchSpec
makeArch(const std::string &name)
{
    auto arch = findArch(name);
    if (!arch)
        vliw_panic("unknown architecture ", name);
    return *arch;
}

std::optional<Heuristic>
findHeuristic(const std::string &name)
{
    auto h = api::builtinRegistries().schedulers.resolve(name);
    if (!h.ok())
        return std::nullopt;
    return h.value().heuristic;
}

std::optional<UnrollPolicy>
findUnrollPolicy(const std::string &name)
{
    auto u = api::builtinRegistries().unrolls.resolve(name);
    if (!u.ok())
        return std::nullopt;
    return u.value();
}

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
    static const std::string none;
    if (spec.workload)
        return {spec.workload->name, spec.workload->fingerprint};
    return {spec.bench, none};
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

std::size_t
ExperimentGrid::size() const
{
    const api::Registries &reg =
        registries ? *registries : api::builtinRegistries();
    const std::size_t nb = benches.empty()
        ? reg.workloads.size() : benches.size();
    const std::size_t na =
        archs.empty() ? reg.archs.size() : archs.size();
    return nb * na * heuristics.size() * unrolls.size() *
        alignment.size() * chains.size() * versioning.size();
}

std::vector<ExperimentSpec>
ExperimentGrid::expand() const
{
    const api::Registries &reg =
        registries ? *registries : api::builtinRegistries();

    const std::vector<std::string> &bench_axis =
        benches.empty() ? reg.workloads.names() : benches;
    const std::vector<std::string> &arch_axis =
        archs.empty() ? reg.archs.names() : archs;

    // Resolve every axis through the registries up front; a name
    // that fails here is library misuse (the façade pre-validates).
    auto must = [](auto result, const char *axis) {
        if (!result.ok()) {
            vliw_panic("grid ", axis, " axis: ",
                       result.status().toString());
        }
        return result.take();
    };

    std::vector<ArchSpec> arch_specs;
    arch_specs.reserve(arch_axis.size());
    for (const std::string &name : arch_axis) {
        arch_specs.push_back(
            ArchSpec{name, must(reg.archs.resolve(name), "arch")});
    }
    std::vector<api::SchedulerChoice> heuristic_axis;
    heuristic_axis.reserve(heuristics.size());
    for (const std::string &name : heuristics) {
        heuristic_axis.push_back(
            must(reg.schedulers.resolve(name), "heuristic"));
    }
    std::vector<UnrollPolicy> unroll_axis;
    unroll_axis.reserve(unrolls.size());
    for (const std::string &name : unrolls) {
        unroll_axis.push_back(
            must(reg.unrolls.resolve(name), "unroll"));
    }
    std::vector<std::shared_ptr<const BenchmarkSpec>> workloads;
    workloads.reserve(bench_axis.size());
    for (const std::string &name : bench_axis) {
        workloads.push_back(
            must(reg.workloads.resolve(name), "bench"));
    }

    vliw_assert(datasets >= 1, "grid wants at least one data set");
    std::vector<std::uint64_t> seeds;
    if (datasets > 1) {
        seeds.reserve(std::size_t(datasets));
        for (int d = 0; d < datasets; ++d)
            seeds.push_back(datasetSeed(base.execSeed, d));
    }

    std::vector<ExperimentSpec> out;
    out.reserve(size());
    for (std::size_t bi = 0; bi < bench_axis.size(); ++bi) {
        for (const ArchSpec &arch : arch_specs) {
            for (const api::SchedulerChoice &h : heuristic_axis) {
                for (UnrollPolicy u : unroll_axis) {
                    for (bool align : alignment) {
                        for (bool chain : chains) {
                            for (bool ver : versioning) {
                                ExperimentSpec spec;
                                spec.bench = bench_axis[bi];
                                spec.arch = arch;
                                spec.opts = base;
                                spec.opts.heuristic = h.heuristic;
                                spec.opts.optimalSolver = h.optimal;
                                spec.opts.solverBudget = h.budget;
                                spec.opts.unroll = u;
                                spec.opts.varAlignment = align;
                                spec.opts.memChains = chain;
                                spec.opts.loopVersioning = ver;
                                spec.execSeeds = seeds;
                                spec.workload = workloads[bi];
                                out.push_back(std::move(spec));
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

} // namespace vliw::engine

#include "search/soma.h"

namespace soma {

SomaOptions
PropagateSomaOptions(SomaOptions opts)
{
    opts.lfa.cost_n = opts.cost_n;
    opts.lfa.cost_m = opts.cost_m;
    opts.dlsa.cost_n = opts.cost_n;
    opts.dlsa.cost_m = opts.cost_m;
    opts.lfa.driver = opts.driver;
    opts.dlsa.driver = opts.driver;
    if (!opts.lfa.tiling_cache) opts.lfa.tiling_cache = opts.warm.tilings;
    if (!opts.lfa.tile_cost_memo)
        opts.lfa.tile_cost_memo = opts.warm.tile_costs;
    return opts;
}

namespace {

/** One profile's iteration budgets (DESIGN.md "SA budgets"). */
struct ProfileBudgets {
    int lfa_beta = 0;
    int lfa_max_iterations = 0;
    int dlsa_beta = 0;
    int dlsa_max_iterations = 0;
    int alloc_max_iterations = 0;
};

// Default was raised from (40/6000, 40/8000) once the incremental LFA
// pipeline (group-memoized parse + shared tiling/tile-cost caches)
// lifted candidates/s; Full carries the paper's budgets (Sec. V-C):
// beta_1 = 100, beta_2 = 1000 — the caps only guard degenerate
// workloads (thousands of layers / tensors).
constexpr ProfileBudgets kQuickBudgets = {10, 600, 10, 1500, 2};
constexpr ProfileBudgets kDefaultBudgets = {60, 12000, 200, 24000, 3};
constexpr ProfileBudgets kFullBudgets = {100, 50000, 1000, 150000, 5};

SomaOptions
OptionsFromBudgets(const ProfileBudgets &b, std::uint64_t seed)
{
    SomaOptions opts;
    opts.seed = seed;
    opts.lfa.beta = b.lfa_beta;
    opts.lfa.max_iterations = b.lfa_max_iterations;
    opts.dlsa.beta = b.dlsa_beta;
    opts.dlsa.max_iterations = b.dlsa_max_iterations;
    opts.alloc.max_iterations = b.alloc_max_iterations;
    return opts;
}

}  // namespace

SomaOptions
QuickSomaOptions(std::uint64_t seed)
{
    return OptionsFromBudgets(kQuickBudgets, seed);
}

SomaOptions
DefaultSomaOptions(std::uint64_t seed)
{
    SomaOptions opts = OptionsFromBudgets(kDefaultBudgets, seed);
    opts.driver.chains = 4;
    return opts;
}

SomaOptions
FullSomaOptions(std::uint64_t seed)
{
    SomaOptions opts = OptionsFromBudgets(kFullBudgets, seed);
    opts.driver.chains = 4;
    return opts;
}

SomaSearchResult
RunSoma(const Graph &graph, const HardwareConfig &hw, SomaOptions opts)
{
    opts = PropagateSomaOptions(std::move(opts));
    Rng rng(opts.seed);
    return RunBufferAllocatedSearch(graph, hw, opts.lfa, opts.dlsa,
                                    opts.alloc, rng);
}

}  // namespace soma

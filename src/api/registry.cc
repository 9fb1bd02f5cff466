#include "api/registry.h"

#include "baselines/cocco.h"
#include "corearray/core_array.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "workload/models.h"

namespace soma {

// ----------------------------------------------------------- ModelRegistry

ModelRegistry
ModelRegistry::WithBuiltins()
{
    ModelRegistry reg;
    for (const std::string &name : AvailableModels()) {
        reg.Register(name, [name](int batch) {
            return BuildModelByName(name, batch);
        });
    }
    return reg;
}

// -------------------------------------------------------- HardwareRegistry

HardwareRegistry
HardwareRegistry::WithBuiltins()
{
    HardwareRegistry reg;
    reg.Register("edge", [] { return EdgeAccelerator(); });
    reg.Register("cloud", [] { return CloudAccelerator(); });
    return reg;
}

// ------------------------------------------------------- SchedulerRegistry

namespace {

SchedulerRunResult
RunSomaScheduler(const Graph &graph, const HardwareConfig &hw,
                 const ScheduleRequest &, const SomaOptions &opts)
{
    SomaSearchResult r = RunSoma(graph, hw, opts);
    SchedulerRunResult out;
    out.lfa = std::move(r.lfa);
    out.parsed = std::move(r.parsed);
    out.dlsa = std::move(r.dlsa);
    out.stage1_dlsa = std::move(r.stage1_dlsa);
    out.report = r.report;
    out.stage1_report = r.stage1_report;
    out.cost = r.cost;
    out.outer_iterations = r.outer_iterations;
    AccumulateSaStats(&out.stats, r.lfa_stats);
    AccumulateSaStats(&out.stats, r.dlsa_stats);
    return out;
}

SchedulerRunResult
RunCoccoScheduler(const Graph &graph, const HardwareConfig &hw,
                  const ScheduleRequest &request, const SomaOptions &)
{
    CoccoResult r = RunCocco(graph, hw, CoccoOptionsForRequest(request));
    SchedulerRunResult out;
    out.lfa = std::move(r.lfa);
    out.parsed = std::move(r.parsed);
    out.dlsa = r.dlsa;
    out.stage1_dlsa = std::move(r.dlsa);
    out.report = r.report;
    out.cost = r.cost;
    out.stats = r.stats;
    out.outer_iterations = 1;
    return out;
}

SchedulerRunResult
RunLfaOnlyScheduler(const Graph &graph, const HardwareConfig &hw,
                    const ScheduleRequest &, const SomaOptions &raw_opts)
{
    SomaOptions opts = PropagateSomaOptions(raw_opts);
    CoreArrayEvaluator core_eval(
        graph, hw,
        opts.lfa.tile_cost_memo ? opts.lfa.tile_cost_memo
                                : std::make_shared<TileCostMemo>());
    Rng rng(opts.seed);
    LfaStageResult r = RunLfaStage(graph, hw, core_eval, hw.gbuf_bytes,
                                   opts.lfa, rng);
    SchedulerRunResult out;
    out.lfa = std::move(r.lfa);
    out.parsed = std::move(r.parsed);
    out.dlsa = r.dlsa;
    out.stage1_dlsa = std::move(r.dlsa);
    out.report = r.report;
    out.cost = r.cost;
    out.stats = r.stats;
    out.outer_iterations = 1;
    return out;
}

}  // namespace

SchedulerRegistry
SchedulerRegistry::WithBuiltins()
{
    SchedulerRegistry reg;
    reg.Register("soma", RunSomaScheduler);
    reg.Register("cocco", RunCoccoScheduler);
    reg.Register("lfa-only", RunLfaOnlyScheduler);
    return reg;
}

}  // namespace soma

/**
 * @file
 * Sec. VI-B LLM analysis: GPT-2 decode vs prefill across batch sizes.
 *
 * Reproduces the paper's two bolded findings:
 *  (1) decode has almost no DRAM-scheduling headroom — its compute
 *      density is so low that latency is pure weight + KV-cache
 *      bandwidth (SoMa ~= Cocco, util ~= theoretical max);
 *  (2) decode utilization grows sublinearly with batch size because the
 *      KV cache grows with batch while weights do not (paper series:
 *      GPT-2-Small 0.66/2.03/4.26/5.84%, GPT-2-XL 0.60/1.90/4.13/5.83%
 *      for batch 1/4/16/64).
 */
#include <algorithm>
#include <iostream>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "workload/models.h"

namespace {

using namespace soma;
using namespace soma::bench;

std::vector<SweepRow> g_rows;

struct LlmRow {
    bool xl;
    bool decode;
    int batch;
    EvalReport cocco;
    EvalReport ours;
    double kv_over_weights;
};

/** The sweep rows as (cocco, soma) pairs — the schedulers axis is
 *  innermost — ordered by model size, batch, then prefill before
 *  decode. */
std::vector<LlmRow>
Rows()
{
    std::vector<LlmRow> rows;
    for (std::size_t i = 0; i + 1 < g_rows.size(); i += 2) {
        const ScheduleRequest &rq = g_rows[i + 1].request;
        const ScheduleResult &ours = g_rows[i + 1].result;
        LlmRow row;
        row.xl = rq.model.rfind("gpt2xl", 0) == 0;
        row.decode = rq.model.find("decode") != std::string::npos;
        row.batch = rq.batch;
        row.cocco = g_rows[i].result.report;
        row.ours = ours.report;
        // The zoo's GPT-2 context lengths: 512 (small), 1024 (XL).
        const Gpt2Config cfg = row.xl ? Gpt2Xl() : Gpt2Small();
        const int tokens = row.xl ? 1024 : 512;
        row.kv_over_weights =
            2.0 * cfg.layers * row.batch * tokens * cfg.hidden /
            static_cast<double>(ours.graph->TotalWeightBytes());
        rows.push_back(row);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const LlmRow &a, const LlmRow &b) {
                         return std::make_tuple(a.xl, a.batch, a.decode) <
                                std::make_tuple(b.xl, b.batch, b.decode);
                     });
    return rows;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    const SearchProfile profile = ProfileFromEnv();
    std::cout << "bench_llm_analysis profile=" << ToString(profile)
              << "\n";
    const std::vector<int> batches =
        profile == SearchProfile::kQuick ? std::vector<int>{1, 4}
                                         : std::vector<int>{1, 4, 16, 64};
    // Decode is the subject of the batch sweep; the prefill side only
    // needs a few points to show the contrast. GPT-2-XL prefill
    // searches are the most expensive configurations, so the XL
    // contrast uses batch 1 only.
    auto spec = [&](const char *model, const char *hardware,
                    const std::vector<int> &model_batches) {
        Json base = Json::Object();
        base.Set("hardware", Json::Str(hardware));
        base.Set("profile", Json::Str(ToString(profile)));
        base.Set("seed", Json::Int(1));
        Json spec = Json::Object();
        spec.Set("base", std::move(base));
        spec.Set("models", JsonArray(std::vector<std::string>{model}));
        spec.Set("batches", JsonArray(model_batches));
        spec.Set("schedulers",
                 JsonArray(std::vector<std::string>{"cocco", "soma"}));
        return spec;
    };
    RegisterSweep("llm/small/prefill",
                  spec("gpt2s-prefill", "edge", {1, 4}), &g_rows);
    RegisterSweep("llm/small/decode", spec("gpt2s-decode", "edge", batches),
                  &g_rows);
    if (profile != SearchProfile::kQuick) {
        RegisterSweep("llm/xl/prefill", spec("gpt2xl-prefill", "cloud", {1}),
                      &g_rows);
        RegisterSweep("llm/xl/decode", spec("gpt2xl-decode", "cloud", batches),
                      &g_rows);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const std::vector<LlmRow> rows = Rows();
    Table t({"model", "phase", "batch", "soma util%", "theory%",
             "soma/cocco speedup", "dram util%", "KV/weights"});
    for (const LlmRow &r : rows) {
        if (!r.ours.valid) continue;
        t.AddRow({r.xl ? "gpt2-xl" : "gpt2-small",
                  r.decode ? "decode" : "prefill", std::to_string(r.batch),
                  FormatDouble(r.ours.compute_util * 100, 2),
                  FormatDouble(r.ours.theory_max_util * 100, 2),
                  r.cocco.valid
                      ? FormatDouble(r.cocco.latency / r.ours.latency, 2)
                      : std::string("-"),
                  FormatDouble(r.ours.dram_util * 100, 1),
                  FormatDouble(r.kv_over_weights, 2)});
    }
    std::cout << "\n=== Sec. VI-B LLM analysis ===\n";
    std::cout << "(paper decode-util series: small 0.66/2.03/4.26/5.84%, "
                 "xl 0.60/1.90/4.13/5.83% at bs 1/4/16/64;\n decode "
                 "speedup over Cocco ~1.14x; prefill ~2.55x)\n";
    t.Print(std::cout);

    // The sublinearity check: utilization growth ratio per 4x batch.
    std::cout << "\ndecode utilization growth per 4x batch (sublinear "
                 "< 4):\n";
    for (bool xl : {false, true}) {
        const char *model = xl ? "gpt2-xl" : "gpt2-small";
        std::vector<double> utils;
        for (const LlmRow &r : rows) {
            if (r.xl == xl && r.decode && r.ours.valid)
                utils.push_back(r.ours.compute_util);
        }
        for (std::size_t i = 1; i < utils.size(); ++i) {
            std::cout << "  " << model << " x" << (1 << (2 * i)) << ": "
                      << FormatDouble(utils[i] / utils[i - 1], 2) << "\n";
        }
    }
    bench::JsonSink::Instance().Flush();
    return 0;
}

/**
 * @file
 * Fig. 6 + Sec. VI-B statistics: the overall comparison between Cocco,
 * SoMa stage 1 (Ours_1) and SoMa stage 2 (Ours_2) over the workload x
 * platform x batch grid.
 *
 * For each configuration the table prints the quantities plotted in
 * Fig. 6: normalized energy (Cocco = 1) split into core-array and DRAM
 * energy, computing-resource utilization (performance), theoretical
 * maximum utilization (blue diamonds), and average buffer utilization.
 * The stats block reproduces the aggregate claims of Sec. VI-B
 * (speedups, energy reduction, LG/tile counts, gap to the theoretical
 * bound).
 *
 * Each configuration is a Cocco and a SoMa ScheduleRequest of one
 * sweep spec, run through the sweep executor. Profiles:
 * SOMA_BENCH_PROFILE=quick|default|full, the request profiles (batch
 * sets {1} / {1,4} / {1,4,16,64}; DESIGN.md "SA budgets").
 */
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <tuple>

#include "bench_common.h"
#include "common/table.h"
#include "sim/memory_validation.h"

namespace {

using namespace soma;
using namespace soma::bench;

std::vector<SweepRow> g_rows;

/** The Fig. 6 grid (Sec. VI-A2) as three sweep specs: the four CNNs on
 *  both platforms, GPT-2-Small on the edge and GPT-2-XL on the cloud,
 *  each point scheduled by Cocco and by SoMa. */
void
RegisterAll()
{
    const SearchProfile profile = ProfileFromEnv();
    auto spec = [&](const std::vector<std::string> &models,
                    const std::vector<std::string> &hardware) {
        Json base = Json::Object();
        base.Set("profile", Json::Str(ToString(profile)));
        base.Set("seed", Json::Int(1));
        Json spec = Json::Object();
        spec.Set("base", std::move(base));
        spec.Set("models", JsonArray(models));
        spec.Set("batches", JsonArray(BatchesFor(profile)));
        spec.Set("hardware", JsonArray(hardware));
        spec.Set("schedulers",
                 JsonArray(std::vector<std::string>{"cocco", "soma"}));
        return spec;
    };
    RegisterSweep("fig6/cnn",
                  spec({"resnet50", "resnet101", "ires", "randwire"},
                       {"edge", "cloud"}),
                  &g_rows);
    RegisterSweep("fig6/gpt2s",
                  spec({"gpt2s-prefill", "gpt2s-decode"}, {"edge"}),
                  &g_rows);
    RegisterSweep("fig6/gpt2xl",
                  spec({"gpt2xl-prefill", "gpt2xl-decode"}, {"cloud"}),
                  &g_rows);
}

/** One configuration of the figure: its Cocco and SoMa rows, plus the
 *  analytical-vs-banked latency gap of the winning SoMa schedule. */
struct Config {
    std::string label;  ///< both GPT-2 sizes share "gpt2-<phase>"
    const SweepRow *cocco = nullptr;
    const SweepRow *ours = nullptr;
    Bytes gbuf = 0;
    bool memory_gap_ok = false;
    double memory_gap_pct = 0.0;

    const std::string &platform() const { return ours->request.hardware; }
    int batch() const { return ours->request.batch; }
    std::string Id() const
    {
        return "fig6/" + label + "/" + platform() + "/bs" +
               std::to_string(batch());
    }
};

/** The configurations in table order: by workload (first-seen order),
 *  then edge before cloud, then batch. The schedulers axis is
 *  innermost, so each configuration is a (cocco, soma) row pair. */
std::vector<Config>
Configs()
{
    std::vector<Config> configs;
    std::map<std::string, int> rank;
    for (std::size_t i = 0; i + 1 < g_rows.size(); i += 2) {
        Config c;
        c.cocco = &g_rows[i];
        c.ours = &g_rows[i + 1];
        const std::string &model = c.ours->request.model;
        c.label = model.rfind("gpt2", 0) == 0
                      ? "gpt2" + model.substr(model.find('-'))
                      : model;
        rank.emplace(c.label, static_cast<int>(rank.size()));
        HardwareConfig hw;
        std::string err;
        BenchService().scheduler().hardware().Make(c.platform(), &hw, &err);
        c.gbuf = hw.gbuf_bytes;
        const ScheduleResult &r = c.ours->result;
        if (r.ok && r.parsed.valid) {
            MemoryValidationResult v =
                ValidateMemoryTiming(*r.graph, hw, r.parsed, r.dlsa);
            c.memory_gap_ok = v.ok;
            c.memory_gap_pct = v.gap_pct;
        }
        configs.push_back(std::move(c));
    }
    std::stable_sort(configs.begin(), configs.end(),
                     [&](const Config &a, const Config &b) {
                         return std::make_tuple(rank[a.label],
                                                a.platform() == "cloud",
                                                a.batch()) <
                                std::make_tuple(rank[b.label],
                                                b.platform() == "cloud",
                                                b.batch());
                     });
    return configs;
}

void
PrintFigure()
{
    const std::vector<Config> configs = Configs();
    Table t({"workload", "platform", "bs", "scheme", "norm core E",
             "norm DRAM E", "util%", "theory%", "avg buf%", "LGs",
             "tiles", "dram gap%"});
    for (const Config &c : configs) {
        const EvalReport &cocco = c.cocco->result.report;
        double base_e = cocco.valid ? cocco.EnergyJ() : 1.0;
        const std::string bs = std::to_string(c.batch());
        // The banked-DRAM validation gap is computed for the winning
        // (ours_2) schedule only; the other rows show "-".
        auto add = [&](const char *scheme, const EvalReport &r,
                       bool with_gap) {
            if (!r.valid) {
                t.AddRow({c.label, c.platform(), bs, scheme, "-", "-", "-",
                          "-", "-", "-", "-", "-"});
                return;
            }
            t.AddRow({c.label, c.platform(), bs, scheme,
                      FormatDouble(r.core_energy_j / base_e),
                      FormatDouble(r.dram_energy_j / base_e),
                      FormatDouble(r.compute_util * 100, 1),
                      FormatDouble(r.theory_max_util * 100, 1),
                      FormatDouble(r.avg_buffer / c.gbuf * 100, 1),
                      std::to_string(r.num_lgs),
                      std::to_string(r.num_tiles),
                      with_gap && c.memory_gap_ok
                          ? FormatDouble(c.memory_gap_pct, 1)
                          : "-"});
        };
        add("cocco", cocco, false);
        add("ours_1", c.ours->result.stage1_report, false);
        add("ours_2", c.ours->result.report, true);
    }
    std::cout << "\n=== Fig. 6: Overall Comparisons (Cocco vs Ours_1 vs "
                 "Ours_2) ===\n";
    t.Print(std::cout);

    // --- Sec. VI-B aggregate statistics ---
    double s1_speedup = 0, s2_speedup = 0, total_speedup = 0;
    double energy_red = 0, theory_gap = 0;
    double mem_gap = 0;
    int mem_gap_n = 0;
    double cocco_lgs = 0, ours_lgs = 0, cocco_tiles = 0, ours_tiles = 0;
    double ours_flgs = 0;
    int n = 0;
    // Per-workload averages (paper reports per-network speedups).
    std::map<std::string, std::pair<double, int>> per_net;
    for (const Config &c : configs) {
        const EvalReport &cocco = c.cocco->result.report;
        const EvalReport &ours1 = c.ours->result.stage1_report;
        const EvalReport &ours2 = c.ours->result.report;
        if (!cocco.valid || !ours1.valid || !ours2.valid) continue;
        ++n;
        const std::string id = c.Id();
        JsonSink::Instance().Add(id, "speedup_vs_cocco",
                                 cocco.latency / ours2.latency);
        JsonSink::Instance().Add(id, "energy_reduction",
                                 1.0 - ours2.EnergyJ() / cocco.EnergyJ());
        JsonSink::Instance().Add(id, "compute_util", ours2.compute_util);
        if (c.memory_gap_ok)
            JsonSink::Instance().Add(id, "memory_gap_pct",
                                     c.memory_gap_pct);
        s1_speedup += cocco.latency / ours1.latency;
        s2_speedup += ours1.latency / ours2.latency;
        total_speedup += cocco.latency / ours2.latency;
        energy_red += 1.0 - ours2.EnergyJ() / cocco.EnergyJ();
        theory_gap +=
            1.0 - ours2.compute_util / ours2.theory_max_util;
        if (c.memory_gap_ok) {
            mem_gap += c.memory_gap_pct;
            ++mem_gap_n;
        }
        cocco_lgs += cocco.num_lgs;
        ours_lgs += ours2.num_lgs;
        cocco_tiles += cocco.num_tiles;
        ours_tiles += ours2.num_tiles;
        ours_flgs += ours2.num_flgs;
        auto &acc = per_net[c.label];
        acc.first += cocco.latency / ours2.latency;
        acc.second += 1;
    }
    if (n == 0) {
        std::cout << "\n(no valid configurations)\n";
        return;
    }
    JsonSink::Instance().Add("fig6/aggregate", "avg_total_speedup",
                             total_speedup / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_stage1_speedup",
                             s1_speedup / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_stage2_speedup",
                             s2_speedup / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_energy_reduction",
                             energy_red / n);
    JsonSink::Instance().Add("fig6/aggregate", "avg_theory_gap",
                             theory_gap / n);
    if (mem_gap_n > 0)
        JsonSink::Instance().Add("fig6/aggregate", "avg_memory_gap_pct",
                                 mem_gap / mem_gap_n);
    std::cout << "\n=== Sec. VI-B statistics (paper values in brackets) "
                 "===\n";
    std::cout << "avg stage-1 speedup over Cocco: "
              << FormatDouble(s1_speedup / n, 2) << "x  [1.82x]\n";
    std::cout << "avg stage-2 speedup over stage 1: "
              << FormatDouble(s2_speedup / n, 2) << "x  [1.16x]\n";
    std::cout << "avg total speedup over Cocco: "
              << FormatDouble(total_speedup / n, 2) << "x  [2.11x]\n";
    std::cout << "avg energy reduction: "
              << FormatDouble(energy_red / n * 100, 1) << "%  [37.3%]\n";
    std::cout << "avg gap to theoretical max utilization: "
              << FormatDouble(theory_gap / n * 100, 1) << "%  [3.1%]\n";
    if (mem_gap_n > 0)
        std::cout << "avg analytical-vs-banked DRAM latency gap: "
                  << FormatDouble(mem_gap / mem_gap_n, 1) << "%\n";
    std::cout << "avg LGs per network: cocco "
              << FormatDouble(cocco_lgs / n, 1) << " [13.0], ours "
              << FormatDouble(ours_lgs / n, 1) << " [2.5], ours FLGs "
              << FormatDouble(ours_flgs / n, 1) << " [3.9]\n";
    std::cout << "avg computing tiles per network: cocco "
              << FormatDouble(cocco_tiles / n, 0) << " [7962], ours "
              << FormatDouble(ours_tiles / n, 0) << " [751]\n";
    std::cout << "\nper-workload total speedup:\n";
    for (const auto &[net, acc] : per_net) {
        std::cout << "  " << net << ": "
                  << FormatDouble(acc.first / acc.second, 2) << "x\n";
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    std::cout << "bench_fig6_overall profile="
              << ToString(ProfileFromEnv()) << "\n";
    RegisterAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    PrintFigure();
    bench::JsonSink::Instance().Flush();
    return 0;
}

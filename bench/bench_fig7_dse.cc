/**
 * @file
 * Fig. 7: design-space exploration over DRAM bandwidth x buffer size for
 * the 16 TOPS edge accelerator. Prints the latency heat-map rows for
 * Cocco and SoMa per workload and batch size, and marks the
 * minimum-latency envelope (the paper's red curve: with SoMa, a larger
 * buffer substitutes for DRAM bandwidth — a lower-right triangle of
 * near-minimal configurations that Cocco does not exhibit).
 *
 * Insights to reproduce: (1) at batch 1, bandwidth dominates and buffer
 * barely helps; (2) at larger batches the buffer column gradient grows;
 * (3) big-buffer + big-bandwidth corners are wasteful.
 *
 * The grid is one sweep spec (gbuf_mb x dram_gbps axes on the edge
 * preset, both schedulers) run through the sweep executor; a point
 * where no schedule fits the buffer is an error row, printed as inf.
 */
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

using namespace soma;
using namespace soma::bench;

const std::vector<double> kBandwidths = {8, 16, 32, 64};
const std::vector<int> kBuffersMb = {2, 4, 8, 16, 32};

std::vector<SweepRow> g_rows;

struct GridResult {
    std::string net;
    int batch;
    bool use_soma;
    // latency[bw index][buf index]; inf where no schedule fits
    std::vector<std::vector<double>> latency;
};

std::vector<std::string>
NetsFor(SearchProfile p)
{
    if (p == SearchProfile::kQuick) return {"resnet50"};
    if (p == SearchProfile::kDefault) return {"resnet50", "gpt2s-decode"};
    return {"resnet50", "resnet101", "ires", "randwire", "gpt2s-prefill",
            "gpt2s-decode"};
}

/** The sweep rows folded into one grid per (net, batch, scheduler),
 *  in first-seen order: the schedulers axis is innermost, so each net
 *  and batch yields its Cocco grid, then its SoMa grid. */
std::vector<GridResult>
Grids()
{
    std::vector<GridResult> grids;
    for (const SweepRow &row : g_rows) {
        const ScheduleRequest &rq = row.request;
        const bool use_soma = rq.scheduler == "soma";
        auto grid = std::find_if(
            grids.begin(), grids.end(), [&](const GridResult &g) {
                return g.net == rq.model && g.batch == rq.batch &&
                       g.use_soma == use_soma;
            });
        if (grid == grids.end()) {
            grids.push_back(
                {rq.model, rq.batch, use_soma,
                 std::vector<std::vector<double>>(
                     kBandwidths.size(),
                     std::vector<double>(kBuffersMb.size()))});
            grid = grids.end() - 1;
        }
        const auto bw =
            std::find(kBandwidths.begin(), kBandwidths.end(), rq.dram_gbps) -
            kBandwidths.begin();
        const auto buf = std::find(kBuffersMb.begin(), kBuffersMb.end(),
                                   rq.gbuf_bytes >> 20) -
                         kBuffersMb.begin();
        grid->latency[bw][buf] = row.result.ok
                                     ? row.result.report.latency
                                     : std::numeric_limits<double>::infinity();
    }
    return grids;
}

void
PrintGrids()
{
    const std::vector<GridResult> grids = Grids();
    for (const GridResult &grid : grids) {
        std::cout << "\n=== Fig. 7: " << (grid.use_soma ? "SoMa" : "Cocco")
                  << " | " << grid.net << " | batch " << grid.batch
                  << " | latency ms (rows GB/s, cols buffer MB; * = within "
                     "2% of minimum) ===\n";
        double best = 1e30;
        for (const auto &row : grid.latency)
            for (double v : row) best = std::min(best, v);

        std::vector<std::string> header = {"GB/s\\MB"};
        for (int mb : kBuffersMb) header.push_back(std::to_string(mb));
        Table t(header);
        for (std::size_t i = 0; i < kBandwidths.size(); ++i) {
            std::vector<std::string> row = {
                FormatDouble(kBandwidths[i], 0)};
            for (std::size_t j = 0; j < kBuffersMb.size(); ++j) {
                double v = grid.latency[i][j];
                std::string cell = std::isfinite(v)
                                       ? FormatDouble(v * 1e3, 2)
                                       : "inf";
                if (std::isfinite(v) && v <= best * 1.02) cell += "*";
                row.push_back(cell);
            }
            t.AddRow(row);
        }
        t.Print(std::cout);
    }

    // Envelope summary: how many near-minimal cells each framework has
    // (the paper's red-envelope "triangle" appears for SoMa only).
    std::cout << "\n=== Envelope summary (near-minimal cells per grid) "
                 "===\n";
    Table t({"net", "batch", "scheme", "cells within 2% of min"});
    for (const GridResult &grid : grids) {
        double best = 1e30;
        int count = 0;
        for (const auto &row : grid.latency)
            for (double v : row) best = std::min(best, v);
        for (const auto &row : grid.latency)
            for (double v : row)
                if (std::isfinite(v) && v <= best * 1.02) ++count;
        t.AddRow({grid.net, std::to_string(grid.batch),
                  grid.use_soma ? "soma" : "cocco", std::to_string(count)});
    }
    t.Print(std::cout);
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    const SearchProfile profile = ProfileFromEnv();
    std::cout << "bench_fig7_dse profile=" << ToString(profile) << "\n";
    // The DSE sweep runs many searches; drop one budget tier.
    const SearchProfile inner = profile == SearchProfile::kFull
                                    ? SearchProfile::kDefault
                                    : SearchProfile::kQuick;
    Json base = Json::Object();
    base.Set("hardware", Json::Str("edge"));
    base.Set("profile", Json::Str(ToString(inner)));
    base.Set("seed", Json::Int(1));
    Json spec = Json::Object();
    spec.Set("base", std::move(base));
    spec.Set("models", JsonArray(NetsFor(profile)));
    spec.Set("batches", JsonArray(BatchesFor(profile)));
    spec.Set("gbuf_mb", JsonArray(kBuffersMb));
    spec.Set("dram_gbps", JsonArray(kBandwidths));
    spec.Set("schedulers",
             JsonArray(std::vector<std::string>{"cocco", "soma"}));
    RegisterSweep("fig7/dse", spec, &g_rows);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    PrintGrids();
    bench::JsonSink::Instance().Flush();
    return 0;
}

/**
 * @file
 * SA hot-path throughput: candidates evaluated per second, the number
 * every search-stage speedup ultimately cashes out as. Tracks four
 * configurations of the DLSA inner loop —
 *
 *   legacy        mutate + EvaluateSchedule (the pre-refactor shape:
 *                 every candidate rebuilds all evaluation state)
 *   context-full  mutate + EvalContext::Evaluate (reused scratch,
 *                 allocation-free after warm-up)
 *   delta         mutate + EvalContext::EvaluateDelta (re-run only the
 *                 affected window, splice the cached suffix)
 *   driver KxN    RunDlsaStage on the SearchDriver with K chains on N
 *                 threads (aggregate candidates/s at equal per-chain
 *                 budget)
 *
 * plus the LFA loop (parse-dominated) as legacy (from-scratch parse +
 * full evaluation) / incremental (memoized group segments stitched per
 * candidate + shared TilingCache, full timeline per candidate) / delta
 * (incremental parse + EvaluateLfa's windowed delta timeline against
 * the committed base) on resnet50, and legacy / delta on gpt2s-prefill
 * (lfa-llm/...), with cross-check passes asserting incremental parses
 * bit-identical to full parses and delta evaluations bit-identical to
 * full simulations. CI gates lfa/incremental >= 2x lfa/legacy,
 * lfa/delta >= 2x lfa/legacy and dlsa/delta >= 4x dlsa/legacy; each
 * resnet50 DLSA and LFA row is its fastest of 15 identical walks,
 * timed round-robin with the other rows of its loop.
 *
 * An observability section replays the incremental walk with the
 * SOMA_PROF_SCOPE hot-path hooks disabled (the default) and enabled
 * (what --trace/--stats turn on), and microbenches the cost of one
 * disabled scope. CI gates obs/disabled_overhead_pct — the estimated
 * per-candidate cost of the dormant instrumentation — at < 2%.
 *
 * Profiles: SOMA_BENCH_PROFILE=quick|default|full scales the walks
 * (LoopSizesFor).
 *
 * Run: ./build/bench_sa_throughput [--json <path>]
 */
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <string>

#include "bench_common.h"
#include "obs/clock.h"
#include "obs/prof.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/driver.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

#if defined(__GNUC__)
#define BENCH_NOINLINE __attribute__((noinline))
#else
#define BENCH_NOINLINE
#endif

namespace {

using namespace soma;
using obs::MonotonicNow;
using obs::MonotonicTime;
using obs::SecondsSince;

/** The two probes behind obs/disabled_overhead_pct: an identical tiny
 *  body with and without a SOMA_PROF_SCOPE, kept out of line so the
 *  timed loops measure the scope, not the inliner. */
BENCH_NOINLINE std::uint64_t
ProbeBaseline(std::uint64_t x)
{
    return x * 2654435761ULL + 12345;
}

BENCH_NOINLINE std::uint64_t
ProbeWithScope(std::uint64_t x)
{
    SOMA_PROF_SCOPE("bench.disabled_probe");
    return x * 2654435761ULL + 12345;
}

/** The walks' fixed sizes at one profile: DLSA and LFA walk iterations
 *  and the driver-stage per-chain iteration cap. */
struct LoopSizes {
    int dlsa_iters;
    int lfa_iters;
    int stage_iters;
};

LoopSizes
LoopSizesFor(SearchProfile profile)
{
    switch (profile) {
      case SearchProfile::kQuick: return {2000, 200, 1500};
      case SearchProfile::kDefault: return {10000, 1000, 6000};
      case SearchProfile::kFull: return {50000, 4000, 20000};
    }
    return {10000, 1000, 6000};
}

struct Row {
    std::string name;
    int candidates = 0;
    double seconds = 0.0;
    double PerSecond() const
    {
        return seconds > 0.0 ? candidates / seconds : 0.0;
    }
};

void
PrintRows(const std::vector<Row> &rows, const std::string &baseline)
{
    double base_rate = 0.0;
    for (const Row &r : rows)
        if (r.name == baseline) base_rate = r.PerSecond();
    for (const Row &r : rows) {
        double rel = base_rate > 0.0 ? r.PerSecond() / base_rate : 0.0;
        std::printf("  %-22s %10d cands %8.3f s %12.0f cands/s %7.2fx\n",
                    r.name.c_str(), r.candidates, r.seconds, r.PerSecond(),
                    rel);
        bench::JsonSink::Instance().Add("sa_throughput/" + r.name,
                                        "candidates_per_second",
                                        r.PerSecond());
    }
}

/** A timed row: its name and a walk that returns its candidate count
 *  and does identical work on every call. */
struct Walk {
    std::string name;
    std::function<int()> run;
};

/** Timed rounds of the resnet50 DLSA and LFA rows, whose ratios CI
 *  gates. */
constexpr int kGatedRounds = 15;

/**
 * Time @p walks round-robin for @p rounds rounds and keep each row's
 * fastest walk. One resnet50 walk lasts 1-5 ms at the quick profile,
 * while host noise on a shared runner comes in stretches of 100 ms and
 * more; interleaving makes the rows of a group sample the same
 * stretches, so a slow stretch slows them alike instead of slowing
 * every repeat of one row.
 */
std::vector<Row>
TimeInterleaved(const std::vector<Walk> &walks, int rounds)
{
    std::vector<Row> rows(walks.size());
    for (int round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < walks.size(); ++i) {
            const MonotonicTime t0 = MonotonicNow();
            const int candidates = walks[i].run();
            const double seconds = SecondsSince(t0);
            if (round == 0 || seconds < rows[i].seconds) {
                rows[i].name = walks[i].name;
                rows[i].candidates = candidates;
                rows[i].seconds = seconds;
            }
        }
    }
    return rows;
}

/** Greedy-walk harness shared by the three DLSA loop variants: mutate,
 *  evaluate, and adopt improvements (the accept pattern whose cost the
 *  SA loop pays). Returns the number of candidates evaluated. */
template <typename EvalFn, typename AcceptFn>
int
DlsaWalk(const ParsedSchedule &parsed, const DlsaEncoding &initial,
         double initial_cost, int iters, EvalFn &&evaluate,
         AcceptFn &&on_accept)
{
    DlsaMutator mutate(parsed);
    Rng rng(17);
    DlsaEncoding current = initial, cand;
    DlsaDelta delta;
    double current_cost = initial_cost;
    int candidates = 0;
    for (int i = 0; i < iters; ++i) {
        if (!mutate(current, &cand, rng, &delta)) continue;
        double c = evaluate(cand, delta);
        ++candidates;
        if (c < current_cost) {
            on_accept();
            std::swap(current, cand);
            current_cost = c;
        }
    }
    return candidates;
}

/** A fused multi-LG scheme with real prefetch headroom: the result of a
 *  short single-chain LFA stage (the unfused initial scheme if that
 *  finds nothing valid). */
LfaEncoding
SeededLfa(const Graph &graph, const HardwareConfig &hw,
          CoreArrayEvaluator &core_eval)
{
    LfaEncoding lfa = MakeInitialLfa(graph, hw, 64);
    Rng seed_rng(3);
    LfaStageOptions seed_opts;
    seed_opts.beta = 5;
    seed_opts.max_iterations = 200;
    seed_opts.driver.chains = 1;
    seed_opts.driver.threads = 1;
    LfaStageResult seeded = RunLfaStage(graph, hw, core_eval, hw.gbuf_bytes,
                                        seed_opts, seed_rng);
    if (seeded.report.valid) lfa = seeded.lfa;
    return lfa;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::InitBenchJson(&argc, argv);
    const SearchProfile profile = bench::ProfileFromEnv();
    const LoopSizes sizes = LoopSizesFor(profile);
    const int dlsa_iters = sizes.dlsa_iters;
    const int lfa_iters = sizes.lfa_iters;
    const int stage_cap = sizes.stage_iters;

    Graph graph = BuildResNet50(1);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator core_eval(graph, hw);
    const Ops total_ops = graph.TotalOps();

    // A fused multi-LG scheme with real prefetch headroom.
    const LfaEncoding lfa = SeededLfa(graph, hw, core_eval);
    ParsedSchedule parsed = ParseLfa(graph, lfa, core_eval);
    DlsaEncoding initial = MakeDoubleBufferDlsa(parsed);
    double initial_cost =
        EvaluateSchedule(graph, hw, parsed, initial, hw.gbuf_bytes,
                         total_ops)
            .Cost();

    std::printf("SA hot-path throughput (profile=%s)\n",
                ToString(profile));
    std::printf("workload=resnet50 b=1: %d tiles, %d DRAM tensors, "
                "%d LGs\n\n",
                parsed.NumTiles(), parsed.NumTensors(), parsed.num_lgs);

    // ----------------------------------------------------- DLSA loop
    // Each walk starts from fresh state, so every round of a row does
    // identical work.
    auto dlsa_legacy_walk = [&] {
        return DlsaWalk(
            parsed, initial, initial_cost, dlsa_iters,
            [&](const DlsaEncoding &d, const DlsaDelta &) {
                return EvaluateSchedule(graph, hw, parsed, d, hw.gbuf_bytes,
                                        total_ops)
                    .Cost();
            },
            [] {});
    };
    auto dlsa_context_walk = [&] {
        EvalContext ctx;
        return DlsaWalk(
            parsed, initial, initial_cost, dlsa_iters,
            [&](const DlsaEncoding &d, const DlsaDelta &) {
                return ctx
                    .Evaluate(graph, hw, parsed, d, hw.gbuf_bytes,
                              total_ops)
                    .Cost();
            },
            [] {});
    };
    // mutate + EvaluateDelta against the committed base; also the walk
    // the observability section below replays.
    auto delta_walk = [&] {
        EvalContext ctx;
        ctx.Evaluate(graph, hw, parsed, initial, hw.gbuf_bytes, total_ops);
        ctx.Commit();
        return DlsaWalk(
            parsed, initial, initial_cost, dlsa_iters,
            [&](const DlsaEncoding &d, const DlsaDelta &delta) {
                return ctx
                    .EvaluateDelta(graph, hw, parsed, d, delta,
                                   hw.gbuf_bytes, total_ops)
                    .Cost();
            },
            [&] { ctx.Commit(); });
    };
    const std::vector<Row> dlsa_rows =
        TimeInterleaved({{"dlsa/legacy", dlsa_legacy_walk},
                         {"dlsa/context-full", dlsa_context_walk},
                         {"dlsa/delta", delta_walk}},
                        kGatedRounds);
    std::printf("DLSA inner loop (%d iterations, best of %d rounds):\n",
                dlsa_iters, kGatedRounds);
    PrintRows(dlsa_rows, "dlsa/legacy");

    // ------------------------------------------------------ LFA loop
    // Three shapes of the parse-dominated loop:
    //   legacy       rebuild everything per candidate (from-scratch
    //                ParseLfa + EvaluateSchedule)
    //   incremental  memoized group segments stitched per candidate +
    //                shared TilingCache, full timeline per candidate
    //   delta        incremental parse + EvaluateLfa's windowed delta
    //                timeline against the committed base (the LFA-stage
    //                production path)
    // run on resnet50 (lfa/...) and on gpt2s-prefill (lfa-llm/...,
    // legacy and delta), where the parse dominates a whole request.
    auto lfa_legacy_walk = [&](const Graph &g, const HardwareConfig &h,
                               CoreArrayEvaluator &ce,
                               const LfaEncoding &start) {
        const Ops ops = g.TotalOps();
        return [&g, &h, &ce, &start, ops, lfa_iters] {
            Rng rng(23);
            LfaEncoding cur = start, cand;
            int candidates = 0;
            for (int i = 0; i < lfa_iters; ++i) {
                if (!MutateLfaEncoding(g, cur, &cand, 64, rng)) continue;
                ParsedSchedule p = ParseLfa(g, cand, ce);
                if (p.valid) {
                    DlsaEncoding d = MakeDoubleBufferDlsa(p);
                    EvaluateSchedule(g, h, p, d, h.gbuf_bytes, ops);
                }
                ++candidates;
            }
            return candidates;
        };
    };
    auto lfa_context_walk = [&](const Graph &g, const HardwareConfig &h,
                                CoreArrayEvaluator &ce,
                                const LfaEncoding &start, bool delta_eval) {
        const Ops ops = g.TotalOps();
        return [&g, &h, &ce, &start, ops, lfa_iters, delta_eval] {
            Rng rng(23);
            EvalContext ctx;
            ctx.set_tiling_cache(std::make_shared<TilingCache>());
            DlsaEncoding dlsa_scratch;
            LfaEncoding cur = start, cand;
            if (delta_eval) {
                // Commit the walk's base state once; every candidate
                // then diffs against it (the stage's accept pattern).
                const ParsedSchedule &p = ctx.Parse(g, cur, ce);
                MakeDoubleBufferDlsaInto(p, &dlsa_scratch);
                ctx.EvaluateLfa(g, h, p, dlsa_scratch, h.gbuf_bytes, ops);
                ctx.Commit();
            }
            int candidates = 0;
            for (int i = 0; i < lfa_iters; ++i) {
                if (!MutateLfaEncoding(g, cur, &cand, 64, rng)) continue;
                const ParsedSchedule &p = ctx.Parse(g, cand, ce);
                if (p.valid) {
                    MakeDoubleBufferDlsaInto(p, &dlsa_scratch);
                    if (delta_eval) {
                        ctx.EvaluateLfa(g, h, p, dlsa_scratch, h.gbuf_bytes,
                                        ops);
                    } else {
                        ctx.Evaluate(g, h, p, dlsa_scratch, h.gbuf_bytes,
                                     ops);
                    }
                }
                ++candidates;
            }
            return candidates;
        };
    };
    const std::vector<Row> lfa_rows = TimeInterleaved(
        {{"lfa/legacy", lfa_legacy_walk(graph, hw, core_eval, lfa)},
         {"lfa/incremental",
          lfa_context_walk(graph, hw, core_eval, lfa, false)},
         {"lfa/delta", lfa_context_walk(graph, hw, core_eval, lfa, true)}},
        kGatedRounds);
    std::printf("\nLFA inner loop (%d iterations, best of %d rounds, "
                "parse-dominated):\n",
                lfa_iters, kGatedRounds);
    PrintRows(lfa_rows, "lfa/legacy");
    {
        Graph llm = BuildModelByName("gpt2s-prefill", 1);
        CoreArrayEvaluator llm_eval(llm, hw);
        LfaEncoding llm_lfa = SeededLfa(llm, hw, llm_eval);
        const int llm_rounds = 3;
        const std::vector<Row> llm_rows = TimeInterleaved(
            {{"lfa-llm/legacy", lfa_legacy_walk(llm, hw, llm_eval, llm_lfa)},
             {"lfa-llm/delta",
              lfa_context_walk(llm, hw, llm_eval, llm_lfa, true)}},
            llm_rounds);
        std::printf("\nLFA inner loop on gpt2s-prefill (%d iterations, "
                    "best of %d rounds):\n",
                    lfa_iters, llm_rounds);
        PrintRows(llm_rows, "lfa-llm/legacy");
    }

    // The debug cross-checks: replay a slice of the same walk with
    // every incremental parse verified bit-identical against a
    // from-scratch parse (ParseLfaInto aborts on divergence), and every
    // delta timeline evaluation verified bit-identical against a full
    // simulation (EvalContext's cross_check mode aborts on divergence).
    {
        ParseOptions popts;
        popts.cross_check = true;
        Rng rng(23);
        EvalContext ctx;
        ctx.set_cross_check(true);
        ctx.set_tiling_cache(std::make_shared<TilingCache>());
        DlsaEncoding dlsa_scratch;
        LfaEncoding cur = lfa, cand;
        {
            const ParsedSchedule &p = ctx.Parse(graph, cur, core_eval,
                                                popts);
            MakeDoubleBufferDlsaInto(p, &dlsa_scratch);
            ctx.EvaluateLfa(graph, hw, p, dlsa_scratch, hw.gbuf_bytes,
                            total_ops);
            ctx.Commit();
        }
        int checked = 0;
        const int check_iters = std::min(lfa_iters, 100);
        for (int i = 0; i < check_iters; ++i) {
            if (!MutateLfaEncoding(graph, cur, &cand, 64, rng)) continue;
            const ParsedSchedule &p = ctx.Parse(graph, cand, core_eval,
                                                popts);
            if (p.valid) {
                MakeDoubleBufferDlsaInto(p, &dlsa_scratch);
                ctx.EvaluateLfa(graph, hw, p, dlsa_scratch, hw.gbuf_bytes,
                                total_ops);
            }
            ++checked;
        }
        const auto &ds = ctx.delta_stats();
        std::printf("  cross-check: %d incremental parses bit-identical "
                    "to full parses, %llu delta evals bit-identical to "
                    "full simulations\n",
                    checked,
                    static_cast<unsigned long long>(ds.cross_check_passes));
        bench::JsonSink::Instance().Add("sa_throughput/lfa/cross_check",
                                        "parses_verified",
                                        static_cast<double>(checked));
        bench::JsonSink::Instance().Add(
            "sa_throughput/delta/cross_check", "evals_verified",
            static_cast<double>(ds.cross_check_passes));
    }

    // --------------------------------------- SearchDriver (DLSA stage)
    const int hw_threads = ResolveDriverThreads(SearchDriverOptions{});
    std::vector<Row> driver_rows;
    for (int chains : {1, hw_threads > 1 ? hw_threads : 4}) {
        DlsaStageOptions opts;
        opts.beta = 1000;
        opts.max_iterations = stage_cap;
        opts.driver.chains = chains;
        opts.driver.threads = hw_threads;
        Rng rng(31);
        Row row;
        row.name = "driver/" + std::to_string(chains) + "x" +
                   std::to_string(std::min(chains, hw_threads));
        const MonotonicTime t0 = MonotonicNow();
        DlsaStageResult res = RunDlsaStage(graph, hw, parsed, initial,
                                           hw.gbuf_bytes, opts, rng);
        row.seconds = SecondsSince(t0);
        row.candidates = res.stats.evaluated;
        driver_rows.push_back(row);
    }
    std::printf("\nSearchDriver DLSA stage (cap %d iters/chain, %d hw "
                "threads):\n",
                stage_cap, hw_threads);
    PrintRows(driver_rows, driver_rows.front().name);

    // ---------------------------- observability overhead (obs layer)
    // The delta walk crosses two SOMA_PROF_SCOPE sites per candidate
    // (eval.delta + eval.timeline.delta). Replay it with the hooks
    // dormant (default) and recording (ProfEnableScope — what
    // --trace/--stats hold), then microbench one *disabled* scope to
    // estimate the cost instrumentation adds when nobody is looking.
    {
        std::vector<Row> obs_rows =
            TimeInterleaved({{"obs/tracing_off", delta_walk}}, 1);
        const std::vector<obs::ProfEntry> before = obs::ProfSnapshot();
        double timeline_share = 0.0;
        {
            obs::ProfEnableScope hold;
            obs_rows.push_back(
                TimeInterleaved({{"obs/tracing_on", delta_walk}}, 1).front());
            const std::vector<obs::ProfEntry> after = obs::ProfSnapshot();
            const std::uint64_t timeline_nanos =
                obs::ProfNanos(after, "eval.timeline") -
                obs::ProfNanos(before, "eval.timeline") +
                obs::ProfNanos(after, "eval.timeline.delta") -
                obs::ProfNanos(before, "eval.timeline.delta");
            const double wall = obs_rows.back().seconds;
            if (wall > 0.0)
                timeline_share =
                    std::min(1.0, timeline_nanos * 1e-9 / wall);
        }

        // One disabled scope = one relaxed load + branch; measure it as
        // (with-scope - baseline) over a long probe loop. The sink
        // keeps the probes from being folded away.
        const int probe_iters = 10000000;
        std::uint64_t acc = 1;
        MonotonicTime t0 = MonotonicNow();
        for (int i = 0; i < probe_iters; ++i) acc = ProbeBaseline(acc);
        const double base_s = SecondsSince(t0);
        t0 = MonotonicNow();
        for (int i = 0; i < probe_iters; ++i) acc = ProbeWithScope(acc);
        const double scoped_s = SecondsSince(t0);
        volatile std::uint64_t sink = acc;
        (void)sink;
        const double scope_ns = std::max(
            0.0, (scoped_s - base_s) * 1e9 / probe_iters);
        const Row &off = obs_rows.front();
        const double cand_ns =
            off.candidates > 0 ? off.seconds * 1e9 / off.candidates : 0.0;
        const double overhead_pct =
            cand_ns > 0.0 ? 100.0 * (2.0 * scope_ns) / cand_ns : 0.0;

        std::printf("\nobservability (delta walk, %d iterations):"
                    "\n",
                    dlsa_iters);
        PrintRows(obs_rows, "obs/tracing_off");
        std::printf("  disabled scope: %.2f ns/scope -> %.3f%% of a "
                    "%.0f ns candidate (2 scopes); timeline share "
                    "(enabled) %.3f\n",
                    scope_ns, overhead_pct, cand_ns, timeline_share);
        bench::JsonSink::Instance().Add("sa_throughput/obs/"
                                        "disabled_overhead_pct",
                                        "percent", overhead_pct);
        bench::JsonSink::Instance().Add("sa_throughput/prof/"
                                        "timeline_share", "share",
                                        timeline_share);
    }

    const Row &delta_row = dlsa_rows.back();
    const Row &legacy = dlsa_rows.front();
    const Row &par = driver_rows.back();
    double single = legacy.PerSecond();
    std::printf("\nsummary: delta %.2fx, parallel driver %.2fx vs "
                "legacy single-thread\n",
                single > 0 ? delta_row.PerSecond() / single : 0.0,
                single > 0 ? par.PerSecond() / single : 0.0);
    bench::JsonSink::Instance().Flush();
    return 0;
}

/**
 * @file
 * EvalContext tests: incremental (suffix-resumed) re-evaluation must be
 * bit-identical to full evaluation across randomized DLSA mutations,
 * including the invalid paths (buffer overflow, schedule deadlock), and
 * the reusable parse must match the allocating ParseLfa.
 */
#include <gtest/gtest.h>

#include <limits>

#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "workload/graph_builder.h"
#include "workload/models.h"

namespace soma {
namespace {

Graph
MakeConvChain(int layers)
{
    GraphBuilder b("chain", 1);
    LayerId x = b.InputConv("c0", ExtShape{3, 32, 32}, 64, 3, 1, 1);
    for (int i = 1; i < layers; ++i)
        x = b.Conv("c" + std::to_string(i), x, 64, 3, 1, 1);
    b.MarkOutput(x);
    return b.Take();
}

/** Two LGs with tiling, so the parse has weight loads, cross-LG ifmap
 *  loads, ofmap stores, and on-chip intervals. */
LfaEncoding
MakeTwoLgLfa(const Graph &g)
{
    LfaEncoding lfa;
    lfa.order = g.TopoOrder();
    lfa.flc_cuts = {3};
    lfa.dram_cuts = {3};
    lfa.tiling = {2, 2};
    return lfa;
}

void
ExpectReportsIdentical(const EvalReport &a, const EvalReport &b)
{
    ASSERT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.why_invalid, b.why_invalid);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.core_energy_j, b.core_energy_j);
    EXPECT_EQ(a.dram_energy_j, b.dram_energy_j);
    EXPECT_EQ(a.compute_busy, b.compute_busy);
    EXPECT_EQ(a.dram_busy, b.dram_busy);
    EXPECT_EQ(a.compute_util, b.compute_util);
    EXPECT_EQ(a.dram_util, b.dram_util);
    EXPECT_EQ(a.theory_max_util, b.theory_max_util);
    EXPECT_EQ(a.peak_buffer, b.peak_buffer);
    EXPECT_EQ(a.avg_buffer, b.avg_buffer);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.num_tiles, b.num_tiles);
    EXPECT_EQ(a.num_tensors, b.num_tensors);
    EXPECT_EQ(a.num_flgs, b.num_flgs);
    EXPECT_EQ(a.num_lgs, b.num_lgs);
    ASSERT_EQ(a.tile_times.size(), b.tile_times.size());
    for (std::size_t i = 0; i < a.tile_times.size(); ++i) {
        EXPECT_EQ(a.tile_times[i].start, b.tile_times[i].start) << i;
        EXPECT_EQ(a.tile_times[i].finish, b.tile_times[i].finish) << i;
    }
    ASSERT_EQ(a.tensor_times.size(), b.tensor_times.size());
    for (std::size_t i = 0; i < a.tensor_times.size(); ++i) {
        EXPECT_EQ(a.tensor_times[i].start, b.tensor_times[i].start) << i;
        EXPECT_EQ(a.tensor_times[i].finish, b.tensor_times[i].finish) << i;
    }
}

/** Random walk of mutations; every candidate is evaluated both
 *  incrementally and from scratch, and random acceptances advance the
 *  incremental base. */
void
RunIncrementalWalk(Bytes budget, std::uint64_t seed, int steps)
{
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule parsed = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(parsed.valid);
    ASSERT_GT(parsed.NumTensors(), 4);
    const Ops ops = g.TotalOps();

    EvalContext ctx;
    DlsaEncoding current = MakeDoubleBufferDlsa(parsed);
    ctx.Evaluate(g, hw, parsed, current, budget, ops);
    ctx.Commit();

    DlsaMutator mutate(parsed);
    Rng rng(seed);
    DlsaEncoding cand;
    DlsaDelta delta;
    int evaluated = 0, incremental_hits = 0;
    for (int i = 0; i < steps; ++i) {
        if (!mutate(current, &cand, rng, &delta)) continue;
        if (ctx.HasBase()) ++incremental_hits;
        const EvalReport &inc =
            ctx.EvaluateDelta(g, hw, parsed, cand, delta, budget, ops);
        EvalReport full = EvaluateSchedule(g, hw, parsed, cand, budget, ops);
        ExpectReportsIdentical(inc, full);
        ++evaluated;
        // SA only ever accepts valid candidates (invalid cost +inf);
        // mirror that so the committed base stays valid.
        if (full.valid && rng.Flip()) {
            ctx.Commit();
            current = cand;
        }
    }
    EXPECT_GT(evaluated, steps / 2);
    // The walk must actually exercise the incremental path, not the
    // full-evaluation fallback.
    EXPECT_GT(incremental_hits, evaluated / 2);
}

TEST(EvalContext, IncrementalMatchesFullUnderFullBudget)
{
    HardwareConfig hw = EdgeAccelerator();
    RunIncrementalWalk(hw.gbuf_bytes, 101, 400);
}

TEST(EvalContext, IncrementalMatchesFullUnderTightBudget)
{
    // A budget near the double-buffer peak makes many mutations overflow
    // the buffer, covering the early-invalid incremental path.
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule parsed = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(parsed.valid);
    Bytes peak = PeakBufferUsage(parsed, MakeDoubleBufferDlsa(parsed));
    RunIncrementalWalk(peak + peak / 16, 202, 400);
}

TEST(EvalContext, CommitIsOptionalBetweenEvaluations)
{
    // Rejected candidates must not disturb the base: evaluating the
    // same candidate twice with other rejected evaluations in between
    // yields identical reports.
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule parsed = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(parsed.valid);
    const Ops ops = g.TotalOps();

    EvalContext ctx;
    DlsaEncoding base = MakeDoubleBufferDlsa(parsed);
    ctx.Evaluate(g, hw, parsed, base, hw.gbuf_bytes, ops);
    ctx.Commit();

    DlsaMutator mutate(parsed);
    Rng rng(7);
    DlsaEncoding cand;
    DlsaDelta delta;
    ASSERT_TRUE(mutate(base, &cand, rng, &delta));
    EvalReport first =
        ctx.EvaluateDelta(g, hw, parsed, cand, delta, hw.gbuf_bytes, ops);

    DlsaEncoding other;
    DlsaDelta other_delta;
    for (int i = 0; i < 10; ++i) {
        if (mutate(base, &other, rng, &other_delta)) {
            ctx.EvaluateDelta(g, hw, parsed, other, other_delta,
                              hw.gbuf_bytes, ops);  // rejected
        }
    }
    const EvalReport &again =
        ctx.EvaluateDelta(g, hw, parsed, cand, delta, hw.gbuf_bytes, ops);
    ExpectReportsIdentical(first, again);
}

/** Hand-built two-load schedule whose DRAM order deadlocks: the first
 *  tensor in DRAM order waits for tile 0, which waits for the second. */
ParsedSchedule
MakeDeadlockParse()
{
    ParsedSchedule p;
    p.valid = true;
    p.num_flgs = 1;
    p.num_lgs = 1;
    p.tile_seconds.assign(3, 1e-3);
    p.tile_energy_pj.assign(3, 0.0);
    DramTensor l0;
    l0.kind = DramTensorKind::kWeight;
    l0.layer = 0;
    l0.bytes = 128;
    l0.first_use = 0;
    l0.fixed_end = 3;
    DramTensor l1 = l0;
    l1.layer = 1;
    l1.first_use = 2;
    p.tensors = {l0, l1};
    p.need_off = {0, 1, 1, 2};  // tile 0 needs tensor 0, tile 2 tensor 1
    p.need_idx = {0, 1};
    return p;
}

TEST(Evaluator, ReportsScheduleDeadlock)
{
    Graph g = MakeConvChain(2);  // evaluator only reads parsed + hw
    HardwareConfig hw = EdgeAccelerator();
    ParsedSchedule p = MakeDeadlockParse();

    DlsaEncoding dlsa;
    dlsa.order = {1, 0};      // tensor 1 first: waits for tiles 0..1
    dlsa.free_point = {0, 2};  // tensor 1 starts at tile 2
    ASSERT_TRUE(DlsaValid(p, dlsa));

    EvalReport rep =
        EvaluateSchedule(g, hw, p, dlsa, 1 << 20, /*total_ops=*/1000);
    EXPECT_FALSE(rep.valid);
    EXPECT_EQ(rep.why_invalid, "schedule deadlock (DLSA order)");
    EXPECT_EQ(rep.Cost(), std::numeric_limits<double>::infinity());
}

TEST(EvalContext, IncrementalDeadlockMatchesFull)
{
    Graph g = MakeConvChain(2);
    HardwareConfig hw = EdgeAccelerator();
    ParsedSchedule p = MakeDeadlockParse();
    const Ops ops = 1000;
    const Bytes budget = 1 << 20;

    DlsaEncoding base;
    base.order = {0, 1};
    base.free_point = {0, 2};

    EvalContext ctx;
    ASSERT_TRUE(ctx.Evaluate(g, hw, p, base, budget, ops).valid);
    ctx.Commit();

    // Swap the order: tensor 0 moves behind tensor 1 -> deadlock.
    DlsaEncoding cand = base;
    cand.order = {1, 0};
    DlsaDelta delta;
    delta.kind = DlsaDelta::Kind::kOrderMove;
    delta.tensor = 0;
    delta.from_rank = 0;
    delta.to_rank = 1;

    const EvalReport &inc =
        ctx.EvaluateDelta(g, hw, p, cand, delta, budget, ops);
    EvalReport full = EvaluateSchedule(g, hw, p, cand, budget, ops);
    ExpectReportsIdentical(inc, full);
    EXPECT_FALSE(inc.valid);

    // The base must survive the rejected deadlock candidate.
    DlsaEncoding cand2 = base;
    cand2.free_point = {0, 1};
    DlsaDelta d2;
    d2.kind = DlsaDelta::Kind::kFreePoint;
    d2.tensor = 1;
    d2.old_point = 2;
    d2.new_point = 1;
    const EvalReport &inc2 =
        ctx.EvaluateDelta(g, hw, p, cand2, d2, budget, ops);
    EvalReport full2 = EvaluateSchedule(g, hw, p, cand2, budget, ops);
    ExpectReportsIdentical(inc2, full2);
}

/** @p dlsa with one store moved ahead of a load its producing tile
 *  needs: the DRAM head then waits for the producer, and the producer
 *  for the load behind the store. Data existence still holds (only
 *  loads of the store's own layer must follow it). */
DlsaEncoding
StoreAheadOfItsProducersLoad(const ParsedSchedule &p, DlsaEncoding dlsa)
{
    const int D = p.NumTensors();
    std::vector<int> rank(D);
    for (int r = 0; r < D; ++r) rank[dlsa.order[r]] = r;
    for (int j = 0; j < D; ++j) {
        if (p.tensors[j].IsLoad()) continue;
        const TilePos producer = p.tensors[j].first_use;
        for (int k = p.need_off[producer]; k < p.need_off[producer + 1];
             ++k) {
            const int load = p.need_idx[k];
            if (rank[load] > rank[j]) continue;
            dlsa.order.erase(dlsa.order.begin() + rank[j]);
            dlsa.order.insert(dlsa.order.begin() + rank[load], j);
            return dlsa;
        }
    }
    ADD_FAILURE() << "no store follows a load its producer needs";
    return dlsa;
}

/** @p dlsa with every tensor living as long as it may: loads issued at
 *  their earliest Start, stores freed at their latest End. */
DlsaEncoding
LongestLived(const ParsedSchedule &p, DlsaEncoding dlsa)
{
    for (int j = 0; j < p.NumTensors(); ++j) {
        dlsa.free_point[j] = p.tensors[j].IsLoad() ? p.FreePointMin(j)
                                                   : p.FreePointMax(j);
    }
    return dlsa;
}

TEST(EvalContext, CommittingAnOverBudgetCandidateLeavesNoBase)
{
    // A DLSA delta is relative to whatever was committed last, so an
    // over-budget candidate must not leave the previous base in place.
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    ParsedSchedule parsed = ParseLfa(g, MakeTwoLgLfa(g), ce);
    ASSERT_TRUE(parsed.valid);
    const Ops ops = g.TotalOps();
    const DlsaEncoding base = MakeDoubleBufferDlsa(parsed);
    const Bytes budget = PeakBufferUsage(parsed, base);

    EvalContext ctx;
    ASSERT_TRUE(ctx.Evaluate(g, hw, parsed, base, budget, ops).valid);
    ctx.Commit();
    ASSERT_TRUE(ctx.HasBase());
    EXPECT_EQ(ctx.Evaluate(g, hw, parsed, LongestLived(parsed, base), budget,
                           ops)
                  .why_invalid,
              "buffer overflow");
    ctx.Commit();
    EXPECT_FALSE(ctx.HasBase());
}

TEST(EvalContext, LfaFastPathInvalidExitsMatchFull)
{
    // EvaluateLfa reports a deadlocked and an over-budget candidate on
    // its fast path, field for field as a full evaluation does, and
    // leaves the committed base usable for the next candidate.
    Graph g = BuildResNet50(1);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    const Ops ops = g.TotalOps();
    const LfaEncoding lfa = MakeInitialLfa(g, hw, 64);

    EvalContext ctx;
    const ParsedSchedule &first = ctx.Parse(g, lfa, ce);
    ASSERT_TRUE(first.valid);
    const int base_tiles = first.NumTiles();
    const DlsaEncoding base_dlsa = MakeDoubleBufferDlsa(first);
    const Bytes budget = PeakBufferUsage(first, base_dlsa);
    ASSERT_TRUE(ctx.EvaluateLfa(g, hw, first, base_dlsa, budget, ops).valid);
    ctx.Commit();

    // A second candidate LFA whose parse has another tile count (no
    // splice: the run from the shared prefix goes to the end) and whose
    // double-buffer DLSA fits the base's budget.
    LfaEncoding other;
    {
        Rng rng(5);
        bool found = false;
        for (int i = 0; i < 500 && !found; ++i) {
            if (!MutateLfaEncoding(g, lfa, &other, 64, rng)) continue;
            ParsedSchedule p = ParseLfa(g, other, ce);
            found = p.valid && p.NumTiles() != base_tiles &&
                    PeakBufferUsage(p, MakeDoubleBufferDlsa(p)) <= budget;
        }
        ASSERT_TRUE(found);
    }

    auto expect_fast_and_full = [&](const ParsedSchedule &p,
                                    const DlsaEncoding &d,
                                    const std::string &why) {
        ASSERT_TRUE(DlsaValid(p, d));
        const EvalContext::DeltaStats before = ctx.delta_stats();
        const EvalReport &fast = ctx.EvaluateLfa(g, hw, p, d, budget, ops);
        EXPECT_EQ(fast.why_invalid, why);
        ExpectReportsIdentical(fast,
                               EvaluateSchedule(g, hw, p, d, budget, ops));
        EXPECT_EQ(ctx.delta_stats().delta_evals, before.delta_evals + 1);
        EXPECT_EQ(ctx.delta_stats().full_fallbacks, before.full_fallbacks);
    };
    for (const LfaEncoding &cand : {lfa, other}) {
        const ParsedSchedule &p = ctx.Parse(g, cand, ce);
        ASSERT_TRUE(p.valid);
        const DlsaEncoding dbuf = MakeDoubleBufferDlsa(p);
        expect_fast_and_full(p, StoreAheadOfItsProducersLoad(p, dbuf),
                             "schedule deadlock (DLSA order)");
        expect_fast_and_full(p, LongestLived(p, dbuf), "buffer overflow");
    }

    // The base survived both: a valid candidate against it still takes
    // the windowed run.
    const ParsedSchedule &p = ctx.Parse(g, lfa, ce);
    const DlsaEncoding lazy = MakeLazyDlsa(p);
    const EvalContext::DeltaStats before = ctx.delta_stats();
    const EvalReport &fast = ctx.EvaluateLfa(g, hw, p, lazy, budget, ops);
    EXPECT_TRUE(fast.valid);
    ExpectReportsIdentical(fast,
                           EvaluateSchedule(g, hw, p, lazy, budget, ops));
    EXPECT_EQ(ctx.delta_stats().windowed_runs, before.windowed_runs + 1);
    EXPECT_EQ(ctx.delta_stats().full_fallbacks, before.full_fallbacks);
}

TEST(EvalContext, ParseMatchesParseLfa)
{
    Graph g = MakeConvChain(6);
    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator ce(g, hw);
    LfaEncoding lfa = MakeTwoLgLfa(g);

    EvalContext ctx;
    // Parse twice through the same scratch: the second result must be
    // unaffected by the first's leftovers.
    ctx.Parse(g, lfa, ce);
    const ParsedSchedule &a = ctx.Parse(g, lfa, ce);
    ParsedSchedule b = ParseLfa(g, lfa, ce);
    ASSERT_EQ(a.valid, b.valid);
    ASSERT_EQ(a.NumTiles(), b.NumTiles());
    ASSERT_EQ(a.NumTensors(), b.NumTensors());
    EXPECT_EQ(a.num_flgs, b.num_flgs);
    EXPECT_EQ(a.num_lgs, b.num_lgs);
    for (int j = 0; j < a.NumTensors(); ++j) {
        EXPECT_EQ(a.tensors[j].kind, b.tensors[j].kind) << j;
        EXPECT_EQ(a.tensors[j].bytes, b.tensors[j].bytes) << j;
        EXPECT_EQ(a.tensors[j].first_use, b.tensors[j].first_use) << j;
        EXPECT_EQ(a.tensors[j].fixed_end, b.tensors[j].fixed_end) << j;
    }
    for (int i = 0; i < a.NumTiles(); ++i) {
        EXPECT_EQ(a.tile_seconds[i], b.tiles[i].cost.seconds) << i;
        EXPECT_EQ(a.tile_energy_pj[i], b.tiles[i].cost.energy_pj) << i;
    }
    EXPECT_EQ(a.need_off, b.need_off);
    EXPECT_EQ(a.need_idx, b.need_idx);
    ASSERT_EQ(a.onchip.size(), b.onchip.size());
    // Only the from-scratch parse materializes tile rows.
    EXPECT_TRUE(a.tiles.empty());
    EXPECT_EQ(static_cast<int>(b.tiles.size()), b.NumTiles());
}

}  // namespace
}  // namespace soma

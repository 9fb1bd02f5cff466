/**
 * @file
 * Parser tests built around the paper's Fig. 4 five-layer example:
 * tile sequences, DRAM tensor enumeration, on-chip intervals, Living
 * Duration bounds, Cocco weight-residency semantics, load dedup, and
 * DLSA validity rules.
 */
#include <gtest/gtest.h>

#include <numeric>

#include "corearray/core_array.h"
#include "notation/parser.h"
#include "search/dlsa_heuristics.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

/**
 * The Fig. 4 topology: A -> B -> C (pool); C -> E; C -> D; E and D are
 * network outputs (their Living Durations end at END in the paper).
 */
Graph
MakeFig4()
{
    GraphBuilder b("fig4", 1);
    LayerId a = b.InputConv("A", ExtShape{3, 16, 16}, 8, 3, 1, 1);
    LayerId bb = b.Conv("B", a, 8, 3, 1, 1);
    LayerId c = b.Pool("C", bb, 2, 2, 0);
    LayerId e = b.Conv("E", c, 8, 3, 1, 1);
    LayerId d = b.Conv("D", c, 8, 3, 1, 1);
    b.MarkOutput(e);
    b.MarkOutput(d);
    return b.Take();
}

/** The exact encoding of Fig. 4: [A | B || C,E,D]{2,1,2}, DRAM cut {2}. */
LfaEncoding
Fig4Encoding()
{
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.flc_cuts = {1, 2};
    lfa.dram_cuts = {2};
    lfa.tiling = {2, 1, 2};
    return lfa;
}

class ParserTest : public ::testing::Test {
  protected:
    ParserTest() : graph_(MakeFig4()), hw_(EdgeAccelerator()),
                   eval_(graph_, hw_) {}
    Graph graph_;
    HardwareConfig hw_;
    CoreArrayEvaluator eval_;
};

TEST_F(ParserTest, Fig4TileSequence)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    ASSERT_TRUE(p.valid) << p.why_invalid;
    // A1 A2 B C1 E1 D1 C2 E2 D2 (paper's COMPUTE row).
    ASSERT_EQ(p.NumTiles(), 9);
    const char *expect[] = {"A", "A", "B", "C", "E", "D", "C", "E", "D"};
    const int rounds[] = {0, 1, 0, 0, 0, 0, 1, 1, 1};
    for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(graph_.layer(p.tiles[i].layer).name(), expect[i])
            << "tile " << i;
        EXPECT_EQ(p.tiles[i].round, rounds[i]) << "tile " << i;
    }
    EXPECT_EQ(p.num_flgs, 3);
    EXPECT_EQ(p.num_lgs, 2);
    // LG membership: A, B in LG0, the rest LG1.
    EXPECT_EQ(p.tiles[0].lg, 0);
    EXPECT_EQ(p.tiles[2].lg, 0);
    EXPECT_EQ(p.tiles[3].lg, 1);
}

TEST_F(ParserTest, Fig4DramTensorInventory)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    ASSERT_TRUE(p.valid);
    // Paper's list: IA1 IA2 WA WB OB WD IC1 IC2 WE OE1 OD1 OE2 OD2 = 13.
    EXPECT_EQ(p.NumTensors(), 13);
    int weights = 0, ifmaps = 0, ofmaps = 0;
    for (const DramTensor &t : p.tensors) {
        switch (t.kind) {
          case DramTensorKind::kWeight: ++weights; break;
          case DramTensorKind::kIfmap: ++ifmaps; break;
          case DramTensorKind::kOfmap: ++ofmaps; break;
        }
    }
    EXPECT_EQ(weights, 4);  // WA WB WE WD (pool C has none)
    EXPECT_EQ(ifmaps, 4);   // IA1 IA2 IC1 IC2
    EXPECT_EQ(ofmaps, 5);   // OB OE1 OE2 OD1 OD2
}

TEST_F(ParserTest, Fig4OnchipIntervals)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    ASSERT_TRUE(p.valid);
    // A->B aggregates across FLGs (1 interval), C->{E,D} rolls per round
    // (2 intervals).
    ASSERT_EQ(p.onchip.size(), 3u);
    // The aggregated A interval spans from A's first tile to B.
    const OnchipInterval *agg = nullptr;
    for (const auto &iv : p.onchip) {
        if (iv.producer == 0) agg = &iv;
    }
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->from, 0);
    EXPECT_EQ(agg->to, 3);  // B is tile 2; held through [0, 3)
    EXPECT_EQ(agg->bytes, graph_.layer(0).PerSampleOutputBytes());
}

TEST_F(ParserTest, WeightLifetimes)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    for (const DramTensor &t : p.tensors) {
        if (t.kind != DramTensorKind::kWeight) continue;
        const std::string &name = graph_.layer(t.layer).name();
        if (name == "A") {
            EXPECT_EQ(t.first_use, 0);
            EXPECT_EQ(t.fixed_end, 2);  // released after A's last tile
        } else if (name == "E") {
            EXPECT_EQ(t.first_use, 4);
            EXPECT_EQ(t.fixed_end, 8);  // E's last tile is pos 7
        }
    }
}

TEST_F(ParserTest, CoccoSemanticsHoldWeightsToLgEnd)
{
    ParseOptions popts{/*lg_resident_weights=*/true};
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_, popts);
    for (const DramTensor &t : p.tensors) {
        if (t.kind != DramTensorKind::kWeight) continue;
        const std::string &name = graph_.layer(t.layer).name();
        if (name == "A" || name == "B") {
            EXPECT_EQ(t.fixed_end, 3) << name;  // LG0 = tiles [0,3)
        } else {
            EXPECT_EQ(t.fixed_end, 9) << name;  // LG1 = tiles [3,9)
        }
    }
}

TEST_F(ParserTest, CanonicalOrderSortedByNeed)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    for (int j = 1; j < p.NumTensors(); ++j) {
        EXPECT_LE(p.tensors[j - 1].first_use, p.tensors[j].first_use);
    }
    // Weight-before-ifmap at the same position.
    EXPECT_EQ(p.tensors[0].kind, DramTensorKind::kWeight);  // WA before IA1
}

TEST_F(ParserTest, NeedLoadsAttachedAtFirstUse)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    // Tile 0 (A round 0) needs WA and IA1.
    EXPECT_EQ(p.NeedEnd(0) - p.NeedBegin(0), 2);
    // Tile 2 (B) needs WB only (reads A on-chip).
    ASSERT_EQ(p.NeedEnd(2) - p.NeedBegin(2), 1);
    EXPECT_EQ(p.tensors[*p.NeedBegin(2)].kind, DramTensorKind::kWeight);
    // Tile 3 (C round 0) needs IC1 only (pool has no weights).
    ASSERT_EQ(p.NeedEnd(3) - p.NeedBegin(3), 1);
    EXPECT_EQ(p.tensors[*p.NeedBegin(3)].kind, DramTensorKind::kIfmap);
}

TEST_F(ParserTest, FreePointRanges)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    for (int j = 0; j < p.NumTensors(); ++j) {
        const DramTensor &t = p.tensors[j];
        if (t.IsLoad()) {
            EXPECT_EQ(p.FreePointMin(j), 0);
            EXPECT_EQ(p.FreePointMax(j), t.first_use);
        } else {
            EXPECT_EQ(p.FreePointMin(j), t.first_use + 1);
            EXPECT_EQ(p.FreePointMax(j), p.NumTiles());
        }
    }
}

TEST_F(ParserTest, FusionReducesDramTraffic)
{
    // Fully fused (single LG) vs fully unfused.
    LfaEncoding fused;
    fused.order = {0, 1, 2, 3, 4};
    fused.tiling = {1};
    ParsedSchedule pf = ParseLfa(graph_, fused, eval_);
    ASSERT_TRUE(pf.valid);

    LfaEncoding unfused = MakeUnfusedLfa(graph_, {1, 1, 1, 1, 1});
    ParsedSchedule pu = ParseLfa(graph_, unfused, eval_);
    ASSERT_TRUE(pu.valid);

    EXPECT_LT(pf.TotalDramBytes(), pu.TotalDramBytes());
    // Fused: 4 weights + 1 input + 2 outputs = 7 tensors.
    EXPECT_EQ(pf.NumTensors(), 7);
}

TEST_F(ParserTest, InvalidTilingReported)
{
    LfaEncoding lfa;
    lfa.order = {0, 1, 2, 3, 4};
    lfa.tiling = {4096};  // cannot split 16x16 into 4096 spatial tiles
    ParsedSchedule p = ParseLfa(graph_, lfa, eval_);
    EXPECT_FALSE(p.valid);
    EXPECT_NE(p.why_invalid.find("tiling"), std::string::npos);
}

TEST_F(ParserTest, StructurallyInvalidEncodingReported)
{
    LfaEncoding lfa;
    lfa.order = {1, 0, 2, 3, 4};
    lfa.tiling = {1};
    ParsedSchedule p = ParseLfa(graph_, lfa, eval_);
    EXPECT_FALSE(p.valid);
}

TEST(ParserDedup, IdenticalFullLoadsMergeAcrossRounds)
{
    // A matmul whose B operand is an external kFull tensor: with T > 1
    // every round needs the identical region -> one load, longer life.
    GraphBuilder b("attn", 1);
    Layer q("q", LayerKind::kGemm, 8, 16, 1);
    q.setOpsPerElement(6);
    q.setWeightBytes(64);
    q.addInput(InputRef{kNoLayer, AccessPattern::kRowAligned,
                        ExtShape{3, 16, 1}});
    LayerId qid = b.graph().AddLayer(std::move(q));
    LayerId mm = b.Matmul("mm", qid, qid, 8, 16);
    b.AddExternalInput(mm, ExtShape{8, 32, 1});  // KV-cache-like
    b.MarkOutput(mm);
    Graph g = b.Take();

    HardwareConfig hw = EdgeAccelerator();
    CoreArrayEvaluator eval(g, hw);
    LfaEncoding lfa;
    lfa.order = {0, 1};
    lfa.tiling = {4};
    ParsedSchedule p = ParseLfa(g, lfa, eval);
    ASSERT_TRUE(p.valid) << p.why_invalid;

    int ext_loads = 0;
    for (const DramTensor &t : p.tensors) {
        if (t.kind == DramTensorKind::kIfmap && t.layer == mm &&
            t.input_index == 2) {
            ++ext_loads;
            EXPECT_EQ(t.bytes, 8LL * 32);
            // Held until the last round's tile.
            EXPECT_EQ(t.fixed_end, p.NumTiles());
        }
    }
    EXPECT_EQ(ext_loads, 1);
}

TEST_F(ParserTest, DlsaValidationCatchesCorruption)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);
    EXPECT_TRUE(DlsaValid(p, dlsa));

    DlsaEncoding bad = dlsa;
    bad.order.pop_back();
    EXPECT_FALSE(DlsaValid(p, bad));  // arity

    bad = dlsa;
    bad.order[0] = bad.order[1];
    EXPECT_FALSE(DlsaValid(p, bad));  // not a permutation

    bad = dlsa;
    bad.free_point[0] = -1;
    EXPECT_FALSE(DlsaValid(p, bad));  // out of range
}

TEST_F(ParserTest, DlsaValidationEnforcesStoreBeforeLoad)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    DlsaEncoding dlsa = MakeDoubleBufferDlsa(p);

    // Find OB (store of B) and IC1 (load reading B) and swap them so the
    // load precedes the store.
    int ob_rank = -1, ic_rank = -1;
    for (int r = 0; r < p.NumTensors(); ++r) {
        const DramTensor &t = p.tensors[dlsa.order[r]];
        if (t.kind == DramTensorKind::kOfmap &&
            graph_.layer(t.layer).name() == "B") {
            ob_rank = r;
        }
        if (t.kind == DramTensorKind::kIfmap && t.src_layer == 1 &&
            ic_rank < 0) {
            ic_rank = r;
        }
    }
    ASSERT_GE(ob_rank, 0);
    ASSERT_GE(ic_rank, 0);
    ASSERT_LT(ob_rank, ic_rank);
    std::swap(dlsa.order[ob_rank], dlsa.order[ic_rank]);
    EXPECT_FALSE(DlsaValid(p, dlsa));
}

TEST_F(ParserTest, LabelsFollowPaperConvention)
{
    ParsedSchedule p = ParseLfa(graph_, Fig4Encoding(), eval_);
    bool saw_weight = false, saw_ifmap = false, saw_ofmap = false;
    for (const DramTensor &t : p.tensors) {
        std::string label = t.Label(graph_);
        switch (t.kind) {
          case DramTensorKind::kWeight:
            EXPECT_EQ(label.rfind("W:", 0), 0u);
            saw_weight = true;
            break;
          case DramTensorKind::kIfmap:
            EXPECT_EQ(label.rfind("I:", 0), 0u);
            saw_ifmap = true;
            break;
          case DramTensorKind::kOfmap:
            EXPECT_EQ(label.rfind("O:", 0), 0u);
            saw_ofmap = true;
            break;
        }
    }
    EXPECT_TRUE(saw_weight && saw_ifmap && saw_ofmap);
}

}  // namespace
}  // namespace soma

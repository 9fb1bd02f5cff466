#include "notation/parser.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>

#include "common/logging.h"
#include "obs/prof.h"
#include "tiling/tiling_cache.h"

namespace soma {

std::string
DramTensor::Label(const Graph &graph) const
{
    std::string base;
    switch (kind) {
      case DramTensorKind::kWeight:
        base = "W:" + graph.layer(layer).name();
        break;
      case DramTensorKind::kIfmap:
        base = "I:" + graph.layer(layer).name();
        break;
      case DramTensorKind::kOfmap:
        base = "O:" + graph.layer(layer).name();
        break;
    }
    if (round >= 0) base += "#" + std::to_string(round);
    return base;
}

TilePos
ParsedSchedule::FreePointMin(int j) const
{
    const DramTensor &t = tensors[j];
    return t.IsLoad() ? 0 : t.first_use + 1;
}

TilePos
ParsedSchedule::FreePointMax(int j) const
{
    const DramTensor &t = tensors[j];
    return t.IsLoad() ? t.first_use : NumTiles();
}

Bytes
ParsedSchedule::TotalDramBytes() const
{
    Bytes total = 0;
    for (const DramTensor &t : tensors) total += t.bytes;
    return total;
}

double
ParsedSchedule::TotalComputeSeconds() const
{
    double total = 0.0;
    for (double s : tile_seconds) total += s;
    return total;
}

namespace {

/** Producer shape lookup covering both graph layers and external refs. */
void
ProducerShape(const Graph &graph, const InputRef &in, int *c, int *h, int *w)
{
    if (in.producer == kNoLayer) {
        *c = in.ext.channels;
        *h = in.ext.height;
        *w = in.ext.width;
    } else {
        const Layer &p = graph.layer(in.producer);
        *c = p.outChannels();
        *h = p.outHeight();
        *w = p.outWidth();
    }
}

std::string
InfeasibleTiling(const LfaEncoding &lfa, int g)
{
    return "tiling " + std::to_string(lfa.tiling[g]) +
           " infeasible for FLG " + std::to_string(g);
}

}  // namespace

ParsedSchedule
ParseLfa(const Graph &graph, const LfaEncoding &lfa,
         CoreArrayEvaluator &core_eval, const ParseOptions &popts)
{
    ParsedSchedule out;
    if (!lfa.StructurallyValid(graph, &out.why_invalid)) return out;
    out.num_flgs = lfa.NumFlgs();
    out.num_lgs = lfa.NumLgs();

    const int n = graph.NumLayers();
    const int num_flgs = lfa.NumFlgs();
    std::vector<int> flg_of_layer(n, -1), lg_of_layer(n, -1),
        idx_in_flg(n, -1);
    std::vector<std::vector<LayerId>> flg_layers(num_flgs);
    std::vector<FlgTiling> tilings(num_flgs);
    for (int g = 0; g < num_flgs; ++g) {
        int begin, end;
        lfa.FlgRange(g, &begin, &end);
        for (int p = begin; p < end; ++p) {
            LayerId id = lfa.order[p];
            flg_of_layer[id] = g;
            lg_of_layer[id] = lfa.LgOfPos(p);
            idx_in_flg[id] = p - begin;
            flg_layers[g].push_back(id);
        }
        tilings[g] = ComputeFlgTiling(graph, flg_layers[g], lfa.tiling[g]);
        if (!tilings[g].valid) {
            out.why_invalid = InfeasibleTiling(lfa, g);
            return out;
        }
    }

    // Serialize the compute sequence: per FLG, round-robin over rounds.
    std::vector<std::vector<TilePos>> pos_of(n);
    for (int g = 0; g < num_flgs; ++g) {
        const int rounds = lfa.tiling[g];
        const auto &layers = flg_layers[g];
        for (LayerId id : layers) pos_of[id].resize(rounds);
        for (int t = 0; t < rounds; ++t) {
            for (std::size_t i = 0; i < layers.size(); ++i) {
                LayerId id = layers[i];
                TileInfo tile;
                tile.layer = id;
                tile.flg = g;
                tile.lg = lg_of_layer[id];
                tile.round = t;
                tile.region = tilings[g].regions[i][t];
                assert(!tile.region.Empty());
                tile.cost = core_eval.Evaluate(id, tile.region);
                pos_of[id][t] = static_cast<TilePos>(out.tiles.size());
                out.tile_seconds.push_back(tile.cost.seconds);
                out.tile_energy_pj.push_back(tile.cost.energy_pj);
                out.tiles.push_back(tile);
            }
        }
    }

    // LG extents in tile-position space.
    std::vector<TilePos> lg_first(lfa.NumLgs(), INT32_MAX);
    std::vector<TilePos> lg_last(lfa.NumLgs(), -1);
    for (int i = 0; i < out.NumTiles(); ++i) {
        const int lg = out.tiles[i].lg;
        lg_first[lg] = std::min(lg_first[lg], static_cast<TilePos>(i));
        lg_last[lg] = std::max(lg_last[lg], static_cast<TilePos>(i));
    }

    // Enumerate DRAM tensors and on-chip reuse intervals.
    std::vector<DramTensor> tensors;
    std::vector<OnchipInterval> same_flg, cross_flg;
    for (LayerId id = 0; id < n; ++id) {
        const Layer &l = graph.layer(id);
        const int g = flg_of_layer[id];
        const int lg = lg_of_layer[id];
        const int rounds = lfa.tiling[g];
        const TilePos lg_begin = lg_first[lg];
        const TilePos lg_end = lg_last[lg] + 1;
        const auto &regions = tilings[g].regions[idx_in_flg[id]];

        // Weights: one load per layer. SoMa releases them right after
        // the layer's last tile; Cocco semantics hold them to LG end.
        if (l.weightBytes() > 0) {
            DramTensor t;
            t.kind = DramTensorKind::kWeight;
            t.layer = id;
            t.bytes = l.weightBytes();
            t.first_use = pos_of[id][0];
            t.fixed_end = popts.lg_resident_weights
                              ? lg_end
                              : pos_of[id][rounds - 1] + 1;
            t.lg_begin = lg_begin;
            t.lg_end = lg_end;
            tensors.push_back(t);
        }

        // Ifmaps: external inputs and cross-LG producers load per tile.
        const auto &ins = l.inputs();
        for (int k = 0; k < static_cast<int>(ins.size()); ++k) {
            const InputRef &in = ins[k];
            bool from_dram =
                (in.producer == kNoLayer) ||
                (lg_of_layer[in.producer] != lg_of_layer[id]);
            if (!from_dram) continue;
            int pc, ph, pw;
            ProducerShape(graph, in, &pc, &ph, &pw);
            Region prev_need;
            int prev_tensor = -1;
            for (int t = 0; t < rounds; ++t) {
                Region need =
                    l.RequiredInputRegion(in, regions[t], ph, pw);
                if (prev_tensor >= 0 && need == prev_need) {
                    // Identical region as the previous round (kFull
                    // operands like KV caches): the data is already in
                    // the GBUF — extend the residency, don't re-load.
                    tensors[prev_tensor].fixed_end = pos_of[id][t] + 1;
                    continue;
                }
                DramTensor dt;
                dt.kind = DramTensorKind::kIfmap;
                dt.layer = id;
                dt.src_layer = in.producer;
                dt.round = t;
                dt.input_index = k;
                dt.bytes = need.Sites() * pc * l.elemBytes();
                dt.first_use = pos_of[id][t];
                dt.fixed_end = pos_of[id][t] + 1;
                dt.lg_begin = lg_begin;
                dt.lg_end = lg_end;
                if (dt.bytes > 0) {
                    prev_need = need;
                    prev_tensor = static_cast<int>(tensors.size());
                    tensors.push_back(dt);
                }
            }
        }

        // Ofmaps: stored when the layer is a network output or feeds a
        // later LG. The canonical (non-overlapping) slice is stored.
        bool stores = l.isNetworkOutput();
        for (const Edge &e : graph.Consumers(id)) {
            if (lg_of_layer[e.consumer] != lg_of_layer[id]) stores = true;
        }
        if (stores) {
            for (int t = 0; t < rounds; ++t) {
                Region slice =
                    CanonicalSlice(tilings[g].split, t, graph.batch(),
                                   l.outHeight(), l.outWidth());
                DramTensor dt;
                dt.kind = DramTensorKind::kOfmap;
                dt.layer = id;
                dt.round = t;
                dt.bytes = l.OutputBytes(slice);
                dt.first_use = pos_of[id][t];
                dt.fixed_end = 0;  // End is the DLSA knob
                dt.lg_begin = lg_begin;
                dt.lg_end = lg_end;
                if (dt.bytes > 0) tensors.push_back(dt);
            }
        }

        // On-chip intervals. Same-FLG consumers: the producer's round-t
        // tile lives from its production to its last in-FLG consumption.
        for (int t = 0; t < rounds; ++t) {
            TilePos last_same_flg = -1;
            for (const Edge &e : graph.Consumers(id)) {
                if (flg_of_layer[e.consumer] == g) {
                    last_same_flg = std::max(last_same_flg,
                                             pos_of[e.consumer][t]);
                }
            }
            if (last_same_flg >= 0) {
                OnchipInterval iv;
                iv.from = pos_of[id][t];
                iv.to = last_same_flg + 1;
                iv.bytes = l.OutputBytes(regions[t]);
                iv.producer = id;
                same_flg.push_back(iv);
            }
        }
        // Cross-FLG consumers within the same LG: the full ofmap is
        // aggregated on chip from the producer's first tile until the
        // last consuming tile.
        TilePos last_cross_flg = -1;
        for (const Edge &e : graph.Consumers(id)) {
            if (flg_of_layer[e.consumer] != g &&
                lg_of_layer[e.consumer] == lg_of_layer[id]) {
                const int c_rounds = lfa.tiling[flg_of_layer[e.consumer]];
                last_cross_flg = std::max(
                    last_cross_flg, pos_of[e.consumer][c_rounds - 1]);
            }
        }
        if (last_cross_flg >= 0) {
            OnchipInterval iv;
            iv.from = pos_of[id][0];
            iv.to = last_cross_flg + 1;
            iv.bytes = l.PerSampleOutputBytes() * graph.batch();
            iv.producer = id;
            cross_flg.push_back(iv);
        }
    }

    // Canonical interval order: the same-FLG intervals by `from`, then
    // the cross-FLG ones by `from` (one tile per position, so the keys
    // are unique).
    auto by_from = [](const OnchipInterval &a, const OnchipInterval &b) {
        return a.from < b.from;
    };
    std::sort(same_flg.begin(), same_flg.end(), by_from);
    std::sort(cross_flg.begin(), cross_flg.end(), by_from);
    out.onchip = std::move(same_flg);
    out.onchip.insert(out.onchip.end(), cross_flg.begin(), cross_flg.end());

    // Canonical tensor order: by need position; at equal positions
    // weights, then ifmaps, then stores (stable, so ifmaps keep their
    // input-slot order).
    auto key = [](const DramTensor &t) {
        int k = t.kind == DramTensorKind::kWeight ? 0
                : t.kind == DramTensorKind::kIfmap ? 1
                                                   : 2;
        return static_cast<std::int64_t>(t.first_use) * 3 + k;
    };
    std::stable_sort(tensors.begin(), tensors.end(),
                     [&](const DramTensor &a, const DramTensor &b) {
                         return key(a) < key(b);
                     });
    out.tensors = std::move(tensors);

    // Load dependencies as CSR need lists.
    out.need_off.assign(out.NumTiles() + 1, 0);
    for (const DramTensor &t : out.tensors)
        if (t.IsLoad()) ++out.need_off[t.first_use + 1];
    for (int i = 0; i < out.NumTiles(); ++i)
        out.need_off[i + 1] += out.need_off[i];
    for (int j = 0; j < out.NumTensors(); ++j)
        if (out.tensors[j].IsLoad()) out.need_idx.push_back(j);

    out.valid = true;
    return out;
}

bool
ParsedSchedulesIdentical(const ParsedSchedule &a, const ParsedSchedule &b)
{
    const bool both_materialized =
        a.tiles.size() == a.tile_seconds.size() &&
        b.tiles.size() == b.tile_seconds.size();
    return a.valid == b.valid && a.why_invalid == b.why_invalid &&
           a.num_flgs == b.num_flgs && a.num_lgs == b.num_lgs &&
           a.tile_seconds == b.tile_seconds &&
           a.tile_energy_pj == b.tile_energy_pj &&
           a.need_off == b.need_off && a.need_idx == b.need_idx &&
           a.tensors == b.tensors && a.onchip == b.onchip &&
           (!both_materialized || a.tiles == b.tiles);
}

namespace {

/** Derive a fresh block's segment (the block's tiling, layers and perm
 *  are set; the members are FLG @p g of the current parse). */
void
BuildSegment(const Graph &graph, CoreArrayEvaluator &core_eval, int g,
             const ParseScratch &s, ParseScratch::GroupParse *b)
{
    const std::size_t n = b->layers.size();
    const int rounds = b->tiles;
    const FlgTiling &tiling = *b->tiling;
    auto outside = [&](const InputRef &in) {
        return in.producer == kNoLayer || s.flg_of_layer[in.producer] != g;
    };

    // Ifmap rows are grouped by derivation index: count them first.
    std::vector<int> base(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        int outside_inputs = 0;
        for (const InputRef &in : graph.layer(b->layers[i]).inputs())
            outside_inputs += outside(in) ? 1 : 0;
        base[b->Perm(i) + 1] = outside_inputs * rounds;
    }
    for (std::size_t k = 0; k < n; ++k) base[k + 1] += base[k];
    b->seg.resize(n * static_cast<std::size_t>(rounds));
    b->seg_ifmaps.assign(static_cast<std::size_t>(base[n]), {});

    for (std::size_t i = 0; i < n; ++i) {
        const LayerId id = b->layers[i];
        const Layer &l = graph.layer(id);
        const std::size_t k = b->Perm(i);
        const std::vector<Region> &regions = tiling.regions[k];
        bool may_store = l.isNetworkOutput();
        bool feeds_flg = false;
        for (const Edge &e : graph.Consumers(id)) {
            if (s.flg_of_layer[e.consumer] == g) {
                feeds_flg = true;
            } else {
                may_store = true;
            }
        }
        for (int t = 0; t < rounds; ++t) {
            const TileCost &cost = core_eval.Evaluate(id, regions[t]);
            ParseScratch::SegTile &row =
                b->seg[static_cast<std::size_t>(t) * n + k];
            row.seconds = cost.seconds;
            row.energy_pj = cost.energy_pj;
            row.store_bytes =
                may_store ? l.OutputBytes(CanonicalSlice(
                                tiling.split, t, graph.batch(),
                                l.outHeight(), l.outWidth()))
                          : 0;
            row.onchip_bytes = feeds_flg ? l.OutputBytes(regions[t]) : 0;
        }
        // The identical-region rule of ParseLfa, resolved once: a round
        // whose need equals the previous load's extends that load.
        ParseScratch::SegIfmap *rows = b->seg_ifmaps.data() + base[k];
        for (const InputRef &in : l.inputs()) {
            if (!outside(in)) continue;
            int pc, ph, pw;
            ProducerShape(graph, in, &pc, &ph, &pw);
            Region prev_need;
            int prev = -1;
            for (int t = 0; t < rounds; ++t) {
                Region need = l.RequiredInputRegion(in, regions[t], ph, pw);
                if (prev >= 0 && need == prev_need) {
                    rows[prev].end_round = t;
                    continue;
                }
                const Bytes bytes = need.Sites() * pc * l.elemBytes();
                if (bytes > 0) {
                    rows[t].bytes = bytes;
                    rows[t].end_round = t;
                    prev_need = need;
                    prev = t;
                }
            }
            rows += rounds;
        }
    }
}

/** Appends cross-group decision bits to ParsedSchedule::group_flags. */
class FlagWriter {
  public:
    explicit FlagWriter(std::vector<std::uint64_t> *words) : words_(words)
    {
    }
    void Add(bool bit)
    {
        if (used_ == 64) Flush();
        word_ |= static_cast<std::uint64_t>(bit) << used_++;
    }
    void Flush()
    {
        if (used_ > 0) words_->push_back(word_);
        word_ = 0;
        used_ = 0;
    }

  private:
    std::vector<std::uint64_t> *words_;
    std::uint64_t word_ = 0;
    int used_ = 0;
};

/** Blocks are stamped from one process-wide counter, so spans written
 *  by different scratches never compare equal by accident. */
std::uint64_t
NextStamp()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

/** Whether two spans describe the same stitched content (the tensor and
 *  interval offsets follow from equal predecessors). */
bool
SameSpan(const GroupSpan &a, const std::uint64_t *a_flags,
         const GroupSpan &a_next, const GroupSpan &b,
         const std::uint64_t *b_flags, const GroupSpan &b_next)
{
    return a.stamp == b.stamp && a.tile_begin == b.tile_begin &&
           a.lg_begin == b.lg_begin && a.lg_end == b.lg_end &&
           std::equal(a_flags + a.flags_begin, a_flags + a_next.flags_begin,
                      b_flags + b.flags_begin, b_flags + b_next.flags_begin);
}

/** How many leading groups of the planned parse (@p spans, @p flags)
 *  @p prev holds unchanged. */
int
SharedPrefix(const std::vector<GroupSpan> &spans,
             const std::vector<std::uint64_t> &flags,
             const ParsedSchedule &prev)
{
    const std::vector<GroupSpan> &old = prev.group_spans;
    const int groups = static_cast<int>(spans.size()) - 1;
    const int old_groups = static_cast<int>(old.size()) - 1;
    int g = 0;
    while (g < groups && g < old_groups &&
           SameSpan(spans[g], flags.data(), spans[g + 1], old[g],
                    prev.group_flags.data(), old[g + 1]))
        ++g;
    return g;
}

/** Concatenate the groups' segments in FLG order into @p out. The
 *  leading groups that @p out or @p like (an earlier output, may be
 *  null) holds unchanged are taken from whichever holds more of them;
 *  the rest are emitted from their blocks. */
void
Stitch(const Graph &graph, const LfaEncoding &lfa,
       const ParseOptions &popts, ParseScratch *s,
       const ParsedSchedule *like, ParsedSchedule *out)
{
    const int num_flgs = lfa.NumFlgs();
    std::vector<TilePos> &flg_begin = s->flg_begin;
    flg_begin.resize(num_flgs + 1);
    TilePos total = 0;
    for (int g = 0; g < num_flgs; ++g) {
        flg_begin[g] = total;
        total += static_cast<TilePos>(s->flg_layers[g].size()) *
                 lfa.tiling[g];
    }
    flg_begin[num_flgs] = total;
    // LGs are runs of whole FLGs (DRAM cuts are FLCs).
    s->lg_first.assign(lfa.NumLgs(), INT32_MAX);
    s->lg_end.assign(lfa.NumLgs(), 0);
    for (int g = 0; g < num_flgs; ++g) {
        const int lg = s->lg_of_layer[s->flg_layers[g][0]];
        s->lg_first[lg] = std::min(s->lg_first[lg], flg_begin[g]);
        s->lg_end[lg] = std::max(s->lg_end[lg], flg_begin[g + 1]);
    }

    // Plan every group: its span, its cross-group decisions, and per
    // layer where its rows sit in the block (ifmap rows by derivation
    // index).
    std::vector<GroupSpan> &spans = s->spans;
    spans.assign(num_flgs + 1, GroupSpan{});
    s->flags.clear();
    FlagWriter flags(&s->flags);
    s->plans.resize(lfa.order.size());
    s->plan_ifmaps.clear();
    int plan_base = 0;
    for (int g = 0; g < num_flgs; ++g) {
        const ParseScratch::GroupParse &b = *s->groups[g];
        const std::vector<LayerId> &layers = s->flg_layers[g];
        const int n = static_cast<int>(layers.size());
        const int rounds = lfa.tiling[g];
        const int lg = s->lg_of_layer[layers[0]];
        GroupSpan &span = spans[g];
        span.stamp = b.stamp;
        span.tile_begin = flg_begin[g];
        span.flags_begin = static_cast<int>(s->flags.size());
        span.lg_begin = s->lg_first[lg];
        span.lg_end = s->lg_end[lg];
        flags.Add(popts.lg_resident_weights);

        std::vector<int> &seg_base = s->seg_base;
        seg_base.assign(static_cast<std::size_t>(n) + 1, 0);
        for (int i = 0; i < n; ++i) {
            int outside_inputs = 0;
            for (const InputRef &in : graph.layer(layers[i]).inputs())
                outside_inputs += (in.producer == kNoLayer ||
                                   s->flg_of_layer[in.producer] != g);
            seg_base[b.Perm(i) + 1] = outside_inputs * rounds;
        }
        for (int k = 0; k < n; ++k) seg_base[k + 1] += seg_base[k];

        for (int i = 0; i < n; ++i) {
            const LayerId id = layers[i];
            const Layer &l = graph.layer(id);
            ParseScratch::LayerPlan &plan = s->plans[plan_base + i];
            plan.k = static_cast<int>(b.Perm(i));
            plan.weight = l.weightBytes() > 0;
            plan.ifmaps_begin = static_cast<int>(s->plan_ifmaps.size());
            int row = seg_base[plan.k];
            const auto &ins = l.inputs();
            for (int kin = 0; kin < static_cast<int>(ins.size()); ++kin) {
                const LayerId src = ins[kin].producer;
                if (src != kNoLayer && s->flg_of_layer[src] == g) continue;
                const bool from_dram =
                    src == kNoLayer || s->lg_of_layer[src] != lg;
                if (src != kNoLayer) flags.Add(from_dram);
                if (from_dram) s->plan_ifmaps.push_back({kin, src, row});
                row += rounds;
            }
            plan.ifmaps_end = static_cast<int>(s->plan_ifmaps.size());

            bool feeds_later_lg = false;
            bool feeds_other_flg = false;
            plan.same_flg_last = -1;
            plan.cross_flg_last = -1;
            for (const Edge &e : graph.Consumers(id)) {
                const LayerId c = e.consumer;
                const int fc = s->flg_of_layer[c];
                if (fc == g) {
                    plan.same_flg_last =
                        std::max(plan.same_flg_last, s->idx_in_flg[c]);
                    continue;
                }
                feeds_other_flg = true;
                if (s->lg_of_layer[c] != lg) {
                    feeds_later_lg = true;
                } else {
                    const TilePos last =
                        flg_begin[fc + 1] -
                        static_cast<TilePos>(s->flg_layers[fc].size()) +
                        s->idx_in_flg[c];
                    plan.cross_flg_last =
                        std::max(plan.cross_flg_last, last);
                }
            }
            if (!l.isNetworkOutput() && feeds_other_flg)
                flags.Add(feeds_later_lg);
            plan.stores = l.isNetworkOutput() || feeds_later_lg;
            plan.tensors = plan.weight || plan.stores ||
                           plan.ifmaps_end > plan.ifmaps_begin;
        }
        flags.Flush();
        plan_base += n;
    }
    spans[num_flgs].tile_begin = total;
    spans[num_flgs].flags_begin = static_cast<int>(s->flags.size());

    // Take the leading groups whose spans equal an earlier output's.
    int g0 = SharedPrefix(spans, s->flags, *out);
    const ParsedSchedule *from = out;
    if (like != nullptr) {
        const int like_g0 = SharedPrefix(spans, s->flags, *like);
        if (like_g0 > g0) {
            g0 = like_g0;
            from = like;
        }
    }
    const ParsedSchedule &prev = *from;
    const std::vector<GroupSpan> &old = prev.group_spans;
    const int old_groups = static_cast<int>(old.size()) - 1;
    GroupSpan cut;
    if (old_groups >= 0) cut = old[g0];
    for (int g = 0; g < g0; ++g) {
        spans[g].tensor_begin = old[g].tensor_begin;
        spans[g].onchip_begin = old[g].onchip_begin;
    }
    const int keep_needs = old_groups >= 0 ? prev.need_off[cut.tile_begin] : 0;
    if (&prev == out) {
        out->tensors.resize(cut.tensor_begin);
        out->onchip.resize(cut.onchip_begin);
        out->need_idx.resize(keep_needs);
    } else {
        auto take = [](const auto &from, std::size_t count, auto *to) {
            to->assign(from.begin(), from.begin() + count);
        };
        take(prev.tensors, cut.tensor_begin, &out->tensors);
        take(prev.onchip, cut.onchip_begin, &out->onchip);
        take(prev.need_idx, keep_needs, &out->need_idx);
        take(prev.tile_seconds, cut.tile_begin, &out->tile_seconds);
        take(prev.tile_energy_pj, cut.tile_begin, &out->tile_energy_pj);
        take(prev.need_off, cut.tile_begin, &out->need_off);
    }
    out->tile_seconds.resize(total);
    out->tile_energy_pj.resize(total);
    out->need_off.resize(static_cast<std::size_t>(total) + 1);

    // Emit in position order: the canonical tensor and interval orders
    // fall out without a sort.
    double *tile_seconds = out->tile_seconds.data();
    double *tile_energy = out->tile_energy_pj.data();
    int *need_off = out->need_off.data();
    std::vector<int> &need_idx = out->need_idx;
    std::vector<DramTensor> &tensors = out->tensors;
    std::vector<OnchipInterval> &onchip = out->onchip;
    plan_base = 0;
    for (int g = 0; g < g0; ++g)
        plan_base += static_cast<int>(s->flg_layers[g].size());
    for (int g = g0; g < num_flgs; ++g) {
        const ParseScratch::LayerPlan *plans = s->plans.data() + plan_base;
        const ParseScratch::GroupParse &b = *s->groups[g];
        const std::vector<LayerId> &layers = s->flg_layers[g];
        const int n = static_cast<int>(layers.size());
        const int rounds = lfa.tiling[g];
        const TilePos base = flg_begin[g];
        spans[g].tensor_begin = static_cast<int>(tensors.size());
        spans[g].onchip_begin = static_cast<int>(onchip.size());
        for (int t = 0; t < rounds; ++t) {
            const TilePos row_pos = base + static_cast<TilePos>(t) * n;
            const ParseScratch::SegTile *seg =
                b.seg.data() + static_cast<std::size_t>(t) * n;
            for (int i = 0; i < n; ++i) {
                const ParseScratch::LayerPlan &plan = plans[i];
                const ParseScratch::SegTile &st = seg[plan.k];
                const TilePos pos = row_pos + i;
                tile_seconds[pos] = st.seconds;
                tile_energy[pos] = st.energy_pj;
                need_off[pos] = static_cast<int>(need_idx.size());
                if (plan.same_flg_last >= 0) {
                    onchip.push_back({pos, row_pos + plan.same_flg_last + 1,
                                      st.onchip_bytes, layers[i]});
                }
                if (!plan.tensors) continue;
                const LayerId id = layers[i];
                DramTensor dt;
                dt.layer = id;
                dt.first_use = pos;
                dt.lg_begin = spans[g].lg_begin;
                dt.lg_end = spans[g].lg_end;
                if (t == 0 && plan.weight) {
                    dt.kind = DramTensorKind::kWeight;
                    dt.bytes = graph.layer(id).weightBytes();
                    dt.fixed_end =
                        popts.lg_resident_weights
                            ? dt.lg_end
                            : row_pos + static_cast<TilePos>(rounds - 1) * n +
                                  i + 1;
                    need_idx.push_back(static_cast<int>(tensors.size()));
                    tensors.push_back(dt);
                }
                dt.round = t;
                for (int f = plan.ifmaps_begin; f < plan.ifmaps_end; ++f) {
                    const ParseScratch::IfmapPlan &ip = s->plan_ifmaps[f];
                    const ParseScratch::SegIfmap &r =
                        b.seg_ifmaps[static_cast<std::size_t>(ip.seg_begin) +
                                     t];
                    if (r.bytes == 0) continue;
                    dt.kind = DramTensorKind::kIfmap;
                    dt.src_layer = ip.src_layer;
                    dt.input_index = ip.input_index;
                    dt.bytes = r.bytes;
                    dt.fixed_end =
                        base + static_cast<TilePos>(r.end_round) * n + i + 1;
                    need_idx.push_back(static_cast<int>(tensors.size()));
                    tensors.push_back(dt);
                }
                if (plan.stores && st.store_bytes > 0) {
                    dt.kind = DramTensorKind::kOfmap;
                    dt.src_layer = kNoLayer;
                    dt.input_index = -1;
                    dt.bytes = st.store_bytes;
                    dt.fixed_end = 0;  // End is the DLSA knob
                    tensors.push_back(dt);
                }
            }
        }
        plan_base += n;
    }
    out->need_off[total] = static_cast<int>(out->need_idx.size());
    spans[num_flgs].tensor_begin = out->NumTensors();
    spans[num_flgs].onchip_begin = static_cast<int>(out->onchip.size());

    // Cross-FLG intervals point into later groups: always rebuilt.
    plan_base = 0;
    const int batch = graph.batch();
    for (int g = 0; g < num_flgs; ++g) {
        const std::vector<LayerId> &layers = s->flg_layers[g];
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const TilePos last = s->plans[plan_base + i].cross_flg_last;
            if (last < 0) continue;
            out->onchip.push_back(
                {flg_begin[g] + static_cast<TilePos>(i), last + 1,
                 graph.layer(layers[i]).PerSampleOutputBytes() * batch,
                 layers[i]});
        }
        plan_base += static_cast<int>(layers.size());
    }
    out->group_spans.swap(spans);
    out->group_flags.swap(s->flags);
}

/** Reset @p out to an empty (invalid) parse. */
void
ClearColumns(ParsedSchedule *out)
{
    out->tile_seconds.clear();
    out->tile_energy_pj.clear();
    out->need_off.clear();
    out->need_idx.clear();
    out->tensors.clear();
    out->onchip.clear();
    out->tiles.clear();
    out->group_spans.clear();
    out->group_flags.clear();
}

void
ParseLfaIntoImpl(const Graph &graph, const LfaEncoding &lfa,
                 CoreArrayEvaluator &core_eval, const ParseOptions &popts,
                 ParseScratch *scratch, ParsedSchedule *out,
                 TilingCache *tiling_cache, const ParsedSchedule *like)
{
    // The columns stay: Stitch keeps what is unchanged since the
    // previous parse written into @p out.
    out->valid = false;
    out->why_invalid.clear();
    out->tiles.clear();
    out->num_flgs = 0;
    out->num_lgs = 0;
    if (!lfa.StructurallyValid(graph, &out->why_invalid)) {
        ClearColumns(out);
        return;
    }
    out->num_flgs = lfa.NumFlgs();
    out->num_lgs = lfa.NumLgs();
    const int n = graph.NumLayers();

    // Per-layer placement metadata.
    std::vector<int> &flg_of_layer = scratch->flg_of_layer;
    std::vector<int> &lg_of_layer = scratch->lg_of_layer;
    std::vector<int> &idx_in_flg = scratch->idx_in_flg;
    flg_of_layer.assign(n, -1);
    lg_of_layer.assign(n, -1);
    idx_in_flg.assign(n, -1);
    std::vector<std::vector<LayerId>> &flg_layers = scratch->flg_layers;
    flg_layers.resize(lfa.NumFlgs());
    int lg = 0;  // DRAM cuts are FLCs: one LG per FLG
    for (int g = 0; g < lfa.NumFlgs(); ++g) {
        flg_layers[g].clear();
        int begin, end;
        lfa.FlgRange(g, &begin, &end);
        while (lg < static_cast<int>(lfa.dram_cuts.size()) &&
               lfa.dram_cuts[lg] <= begin)
            ++lg;
        for (int p = begin; p < end; ++p) {
            LayerId id = lfa.order[p];
            flg_of_layer[id] = g;
            lg_of_layer[id] = lg;
            idx_in_flg[id] = p - begin;
            flg_layers[g].push_back(id);
        }
    }

    // Look up every FLG's block. Blocks are content-addressed by their
    // sink-set signature (canonical member set + Tiling Number): groups
    // untouched by the last mutation ("clean") reuse their memoized
    // block verbatim; a clean group whose *interior order* moved
    // re-points the block's view (regions and segment rows are
    // order-invariant per layer, only their positional indexing follows
    // the order); only dirty groups derive a new block.
    std::vector<const ParseScratch::GroupParse *> &prev =
        scratch->prev_groups;
    prev.swap(scratch->groups);
    if (scratch->memo_graph != static_cast<const void *>(&graph) ||
        scratch->memo_eval != static_cast<const void *>(&core_eval)) {
        scratch->group_memo.clear();
        scratch->memo_graph = &graph;
        scratch->memo_eval = &core_eval;
        prev.clear();
    }
    if (scratch->group_memo.size() > ParseScratch::kGroupMemoCap) {
        scratch->group_memo.clear();
        prev.clear();
    }
    if (!scratch->group_overflow.empty()) {
        scratch->group_overflow.clear();
        prev.clear();
    }
    scratch->last_dirty_groups = 0;
    scratch->last_clean_groups = 0;
    scratch->last_remapped_groups = 0;
    std::vector<const ParseScratch::GroupParse *> &groups = scratch->groups;
    groups.assign(lfa.NumFlgs(), nullptr);
    for (int g = 0; g < lfa.NumFlgs(); ++g) {
        const int rounds = lfa.tiling[g];
        const auto &layers = flg_layers[g];
        if (g < static_cast<int>(prev.size()) && prev[g] != nullptr &&
            prev[g]->tiles == rounds && prev[g]->layers == layers) {
            groups[g] = prev[g];  // same block as the previous parse's
            ++scratch->last_clean_groups;
            if (!groups[g]->tiling->valid) {
                ClearColumns(out);
                out->why_invalid = InfeasibleTiling(lfa, g);
                return;
            }
            continue;
        }
        // Sink-set signature (collision-checked below against the full
        // sorted-members/tiles key).
        std::vector<LayerId> &sorted = scratch->sorted_members;
        sorted = layers;
        std::sort(sorted.begin(), sorted.end());
        const std::uint64_t sig = GroupKeyHash(sorted, rounds);
        auto it = scratch->group_memo.find(sig);
        const bool key_matches = it != scratch->group_memo.end() &&
                                 it->second.tiles == rounds &&
                                 it->second.sorted_layers == sorted;
        if (key_matches && it->second.layers == layers) {
            groups[g] = &it->second;
            ++scratch->last_clean_groups;
        } else if (key_matches) {
            // Same member set (hence same sink set and tiling), new
            // interior order: re-point the block's permutation view at
            // the new order. Regions and segment stay untouched in
            // their derivation order — an order move is allocation-
            // free, no matter how large the group. The update is safe
            // mid-parse: FLGs partition the layers, so no other group
            // of this parse can share the member set behind `sig`, and
            // reads from an earlier clean hit of the same block in this
            // parse are impossible for the same reason. Stitched parses
            // are copies, so earlier parses are unaffected too.
            ParseScratch::GroupParse &blk = it->second;
            std::vector<int> &pos = scratch->view_pos;
            if (pos.size() < static_cast<std::size_t>(n)) pos.resize(n);
            for (std::size_t i = 0; i < blk.layers.size(); ++i)
                pos[blk.layers[i]] = static_cast<int>(i);
            // Compose with the existing view so repeated moves stay a
            // single indirection deep: new[i] = derivation-order index
            // of layers[i], found via its position in the old view.
            std::vector<std::size_t> &next = scratch->view_perm;
            next.resize(layers.size());
            for (std::size_t i = 0; i < layers.size(); ++i)
                next[i] = blk.Perm(
                    static_cast<std::size_t>(pos[layers[i]]));
            blk.perm.swap(next);
            blk.layers = layers;
            blk.stamp = NextStamp();
            groups[g] = &blk;
            ++scratch->last_clean_groups;
            ++scratch->last_remapped_groups;
        } else {
            ParseScratch::GroupParse block;
            block.layers = layers;
            block.sorted_layers = sorted;
            block.tiles = rounds;
            block.stamp = NextStamp();
            // GetView shares the cached tiling as stored — a hit under
            // a different derivation order costs a perm, not a deep
            // copy of every region row.
            block.tiling =
                tiling_cache
                    ? tiling_cache->GetView(graph, layers, rounds,
                                            &block.perm)
                    : std::make_shared<const FlgTiling>(
                          ComputeFlgTiling(graph, layers, rounds));
            if (block.tiling->valid)
                BuildSegment(graph, core_eval, g, *scratch, &block);
            if (it != scratch->group_memo.end()) {
                // The signature collided with a *different* resident
                // group, which must never be evicted mid-parse (an
                // earlier group may already point at it). Park the
                // block in per-parse overflow storage.
                scratch->group_overflow.push_back(
                    std::make_unique<ParseScratch::GroupParse>(
                        std::move(block)));
                groups[g] = scratch->group_overflow.back().get();
            } else {
                groups[g] = &scratch->group_memo
                                 .emplace(sig, std::move(block))
                                 .first->second;
            }
            ++scratch->last_dirty_groups;
        }
        if (!groups[g]->tiling->valid) {
            ClearColumns(out);
            out->why_invalid = InfeasibleTiling(lfa, g);
            return;
        }
    }

    Stitch(graph, lfa, popts, scratch, like, out);
    out->valid = true;
}

}  // namespace

void
ParseLfaInto(const Graph &graph, const LfaEncoding &lfa,
             CoreArrayEvaluator &core_eval, const ParseOptions &popts,
             ParseScratch *scratch, ParsedSchedule *out_ptr,
             TilingCache *tiling_cache, const ParsedSchedule *like)
{
    SOMA_PROF_SCOPE("parse.lfa");
    assert(like != out_ptr);
    ParseLfaIntoImpl(graph, lfa, core_eval, popts, scratch, out_ptr,
                     tiling_cache, like);
    if (popts.cross_check) {
        // Any divergence from the from-scratch reference is a bug in
        // the incremental path — fail loudly, never silently
        // mis-schedule.
        const ParsedSchedule ref = ParseLfa(graph, lfa, core_eval, popts);
        if (!ParsedSchedulesIdentical(*out_ptr, ref)) {
            SOMA_ERROR << "incremental parse diverged from full parse "
                          "for "
                       << lfa.ToString(graph);
            std::abort();
        }
    }
}

bool
DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
          std::string *why)
{
    DlsaCheckScratch scratch;
    return DlsaValid(parsed, dlsa, why, &scratch);
}

bool
DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
          std::string *why, DlsaCheckScratch *scratch)
{
    auto fail = [&](const char *msg) {
        if (why) *why = msg;
        return false;
    };
    const int d = parsed.NumTensors();
    if (static_cast<int>(dlsa.order.size()) != d ||
        static_cast<int>(dlsa.free_point.size()) != d) {
        return fail("dlsa arity mismatch");
    }
    std::vector<char> &seen = scratch->seen;
    seen.assign(d, 0);
    for (int j : dlsa.order) {
        if (j < 0 || j >= d || seen[j]) return fail("order not a permutation");
        seen[j] = 1;
    }
    for (int j = 0; j < d; ++j) {
        if (dlsa.free_point[j] < parsed.FreePointMin(j) ||
            dlsa.free_point[j] > parsed.FreePointMax(j)) {
            return fail("living duration out of range");
        }
    }
    // Data existence: a cross-LG ifmap load must follow every store of
    // its source layer in the DRAM order.
    std::vector<int> &rank = scratch->rank;
    rank.assign(d, 0);
    for (int r = 0; r < d; ++r) rank[dlsa.order[r]] = r;
    // max store rank per source layer (-1: layer stores nothing):
    LayerId max_layer = -1;
    for (int j = 0; j < d; ++j)
        max_layer = std::max(max_layer, parsed.tensors[j].layer);
    std::vector<int> &store_rank = scratch->store_rank_by_layer;
    store_rank.assign(static_cast<std::size_t>(max_layer + 1), -1);
    for (int j = 0; j < d; ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.kind == DramTensorKind::kOfmap) {
            store_rank[t.layer] = std::max(store_rank[t.layer], rank[j]);
        }
    }
    for (int j = 0; j < d; ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.kind == DramTensorKind::kIfmap && t.src_layer != kNoLayer &&
            t.src_layer <= max_layer && store_rank[t.src_layer] >= 0 &&
            rank[j] < store_rank[t.src_layer]) {
            return fail("ifmap load ordered before producer store");
        }
    }
    return true;
}

}  // namespace soma

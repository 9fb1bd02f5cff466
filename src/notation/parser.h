/**
 * @file
 * Parsing the Tensor-centric Notation into concrete hardware behaviour
 * (Sec. IV-A): stage 1 lowers the LFA into the serial tile compute
 * sequence, the set of DRAM tensors, and the on-chip fmap buffer
 * intervals; stage 2 (the DLSA, applied by the evaluator) supplies each
 * DRAM tensor's order and Living Duration.
 *
 * Two parsers produce the same ParsedSchedule columns: ParseLfa, the
 * from-scratch reference, and ParseLfaInto, the search loop's
 * incremental parse that stitches memoized group segments.
 */
#ifndef SOMA_NOTATION_PARSER_H
#define SOMA_NOTATION_PARSER_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "corearray/core_array.h"
#include "notation/encoding.h"
#include "tiling/tiler.h"
#include "workload/graph.h"

namespace soma {

class TilingCache;

/** What a DRAM tensor is. Loads are weights/ifmaps; stores are ofmaps. */
enum class DramTensorKind { kWeight, kIfmap, kOfmap };

/**
 * Parse-time semantic switches.
 *
 * lg_resident_weights reproduces Cocco's conservative buffer semantics:
 * every weight stays resident until its whole Layer-fusion Group
 * finishes. SoMa's default releases a weight right after the layer's
 * last tile — the headroom the paper attributes to FLCs ("shuffling
 * weights can save buffer space, enabling the fusion of more layers",
 * Sec. VI-B1).
 */
struct ParseOptions {
    bool lg_resident_weights = false;
    /**
     * Debug invariant check for the incremental (group-memoized) parse:
     * after every ParseLfaInto, re-parse with the from-scratch reference
     * (ParseLfa) and abort unless the two ParsedSchedules are
     * bit-identical. Enable in property tests and verification runs
     * only (the LFA stage turns it on under SOMA_CROSS_CHECK=1).
     */
    bool cross_check = false;
};

/** One tensor that must move between DRAM and the GBUF. */
struct DramTensor {
    DramTensorKind kind = DramTensorKind::kWeight;
    LayerId layer = kNoLayer;    ///< consumer (loads) / producer (stores)
    LayerId src_layer = kNoLayer;///< ifmaps: cross-LG producer, or external
    int round = -1;              ///< tile round within the FLG; -1: weights
    int input_index = -1;        ///< ifmaps: which input slot of `layer`
    Bytes bytes = 0;

    /**
     * Loads: the tile position that first requires the data (upper bound
     * of the adjustable Start). Stores: the producing tile position (the
     * fixed Start).
     */
    TilePos first_use = 0;

    /**
     * Loads: the fixed End — one past the last tile position using the
     * data (release point). Stores: unused (the End is the DLSA knob).
     */
    TilePos fixed_end = 0;

    /** Tile-position range [lg_begin, lg_end) of the owning layer's LG
     *  (used by Cocco's group-granular prefetch heuristic). */
    TilePos lg_begin = 0;
    TilePos lg_end = 0;

    bool IsLoad() const { return kind != DramTensorKind::kOfmap; }

    bool operator==(const DramTensor &o) const
    {
        return kind == o.kind && layer == o.layer &&
               src_layer == o.src_layer && round == o.round &&
               input_index == o.input_index && bytes == o.bytes &&
               first_use == o.first_use && fixed_end == o.fixed_end &&
               lg_begin == o.lg_begin && lg_end == o.lg_end;
    }

    /** "WA", "IC2", "OE1"-style label for execution-graph dumps. */
    std::string Label(const Graph &graph) const;
};

/** One computing tile of a materialized parse: identity, the ofmap
 *  region it computes (halo included) and its full core-array cost. */
struct TileInfo {
    LayerId layer = kNoLayer;
    int flg = 0;
    int lg = 0;
    int round = 0;       ///< tile index within the FLG
    Region region;
    TileCost cost;

    bool operator==(const TileInfo &o) const
    {
        return layer == o.layer && flg == o.flg && lg == o.lg &&
               round == o.round && region == o.region && cost == o.cost;
    }
};

/** GBUF bytes held during tile-position slots [from, to). */
struct OnchipInterval {
    TilePos from = 0;
    TilePos to = 0;
    Bytes bytes = 0;
    LayerId producer = kNoLayer;

    bool operator==(const OnchipInterval &o) const
    {
        return from == o.from && to == o.to && bytes == o.bytes &&
               producer == o.producer;
    }
};

/**
 * Where one FLG of an incremental parse starts in the stitched columns
 * and what produced it: the memo block state (`stamp`, process-wide
 * unique per derived or re-indexed block), the extent of the group's
 * LG, and its cross-group decisions (`group_flags` words from
 * `flags_begin` to the next span's: ifmap from-DRAM and ofmap store
 * decisions, lg_resident_weights). Two parses whose spans for a group
 * are equal in stamp, tile_begin, tensor_begin and flags hold identical
 * tiles and tensors for it in timeline terms (seconds, need lists,
 * tensor kinds, bytes and first uses); equal LG extents as well make
 * every tensor field and same-FLG interval of the group identical.
 */
struct GroupSpan {
    std::uint64_t stamp = 0;
    TilePos tile_begin = 0;
    int tensor_begin = 0;
    int onchip_begin = 0;  ///< first same-FLG interval of the group
    int flags_begin = 0;
    TilePos lg_begin = 0;
    TilePos lg_end = 0;
};

/**
 * The LFA parse result: everything about a scheme except DRAM timing,
 * as columns.
 *
 * Every parse fills the tile columns (seconds, energy, CSR need lists),
 * the tensor table in canonical order (by need position; at equal
 * positions weights, then ifmaps by input slot, then stores) and the
 * on-chip intervals (the same-FLG ones by `from`, then the cross-FLG
 * ones by `from`). The from-scratch parse (ParseLfa) additionally
 * materializes `tiles` — identity, region and full cost per tile — for
 * the consumers after the search (report, compiler, traces); the
 * incremental parse (ParseLfaInto) leaves it empty and instead records
 * `group_spans` (one per FLG plus a closing span holding the totals),
 * the window source of EvalContext::EvaluateLfa.
 */
struct ParsedSchedule {
    bool valid = false;
    std::string why_invalid;

    std::vector<double> tile_seconds;
    std::vector<double> tile_energy_pj;
    std::vector<int> need_off;  ///< CSR offsets, NumTiles() + 1 entries
    std::vector<int> need_idx;  ///< load tensor ids, ascending per tile

    std::vector<DramTensor> tensors;
    std::vector<OnchipInterval> onchip;

    std::vector<TileInfo> tiles;  ///< ParseLfa only

    std::vector<GroupSpan> group_spans;         ///< ParseLfaInto only
    std::vector<std::uint64_t> group_flags;     ///< ParseLfaInto only

    int num_flgs = 0;
    int num_lgs = 0;

    int NumTiles() const { return static_cast<int>(tile_seconds.size()); }
    int NumTensors() const { return static_cast<int>(tensors.size()); }

    /** Load tensors tile @p t waits for: [NeedBegin(t), NeedEnd(t)). */
    const int *NeedBegin(int t) const
    {
        return need_idx.data() + need_off[t];
    }
    const int *NeedEnd(int t) const
    {
        return need_idx.data() + need_off[t + 1];
    }

    /** Range of the adjustable Living Duration endpoint of tensor @p j:
     *  Start in [0, first_use] for loads, End in (first_use, NumTiles]
     *  for stores. */
    TilePos FreePointMin(int j) const;
    TilePos FreePointMax(int j) const;

    /** Sum of all DRAM tensor bytes. */
    Bytes TotalDramBytes() const;

    /** Sum of all tile compute seconds. */
    double TotalComputeSeconds() const;
};

/**
 * Reusable state of ParseLfaInto. The SA inner loop parses thousands of
 * candidate LFAs; keeping one scratch per search thread (EvalContext
 * owns one) lets consecutive parses reuse the per-layer containers and,
 * above all, the *group memo*.
 *
 * The memo caches each FLG's expensive work by the group's sink-set
 * content signature (canonical member set, Tiling Number): its tiling
 * (backward halo propagation) and a flat group-local *segment* of
 * everything the parse needs from it — per-tile seconds and energy,
 * ifmap bytes per (layer, outside input, round) with the identical-
 * region (KV) extensions already resolved, and per-round store and
 * on-chip bytes. An FLG's tiling depends on its sink set, which the
 * member set determines, not on the interior computing order; an order
 * move *within* a group is therefore a memo hit too: the block's
 * permutation view (GroupParse::perm) is re-pointed at the new order,
 * and regions and segment stay in derivation order.
 *
 * A parse is then block lookup plus a *stitch* in FLG order: every
 * tile's seconds, tensors and intervals are copied out of its block
 * with position offsets, applying only the cross-group rules (ifmap
 * from-DRAM and ofmap store decisions by LG, LG extents, cross-FLG
 * intervals, lg_resident_weights). A tensor's first use lies inside its
 * group's contiguous position range, so walking positions in order
 * emits the canonical tensor order without a sort. The leading groups
 * whose spans equal those of an earlier output (the one being
 * overwritten, or a caller-named one) are taken from it instead of
 * re-emitted. The result is bit-identical to ParseLfa
 * (ParseOptions::cross_check asserts this).
 */
struct ParseScratch {
    /** One tile of a segment, at [round * layers + derivation index]. */
    struct SegTile {
        double seconds = 0.0;
        double energy_pj = 0.0;
        Bytes store_bytes = 0;   ///< ofmap slice, if the layer can store
        Bytes onchip_bytes = 0;  ///< tile ofmap, if kept for its FLG
    };
    /** One (layer, outside input, round) of a segment: the ifmap load
     *  that starts at this round (bytes 0: none — empty, or the same
     *  region as an earlier round whose load stays resident through
     *  `end_round`). */
    struct SegIfmap {
        Bytes bytes = 0;
        int end_round = 0;
    };

    /** One fused group's memoized parse block. `sorted_layers`/`tiles`
     *  are the full canonical key (signature hashes are collision-
     *  checked); `layers` is the order the block is indexed by. Blocks
     *  are content-addressed pure values. */
    struct GroupParse {
        std::vector<LayerId> layers;
        std::vector<LayerId> sorted_layers;
        int tiles = 0;
        std::shared_ptr<const FlgTiling> tiling;
        /** Permutation view: `tiling->regions` and the segment stay in
         *  the order the block was first derived in; an interior order
         *  move only re-points this view (perm[i] = derivation-order
         *  index of layers[i]). Empty means identity. */
        std::vector<std::size_t> perm;
        /** Changes whenever `layers` does (see GroupSpan). */
        std::uint64_t stamp = 0;
        /** Tile rows, round-major: seg[t * layers.size() + Perm(i)]. */
        std::vector<SegTile> seg;
        /** Ifmap rows of the outside inputs, grouped by derivation
         *  index, then input slot, then round. */
        std::vector<SegIfmap> seg_ifmaps;

        std::size_t Perm(std::size_t i) const
        {
            return perm.empty() ? i : perm[i];
        }
    };

    /** The stitch's per-parse view of one layer, by LFA position. */
    struct LayerPlan {
        int k = 0;                  ///< derivation index in the block
        int ifmaps_begin = 0;       ///< [begin, end) in `plan_ifmaps`
        int ifmaps_end = 0;
        int same_flg_last = -1;     ///< last in-FLG consumer's index
        TilePos cross_flg_last = -1;///< last cross-FLG consumer's tile
        bool weight = false;
        bool stores = false;
        bool tensors = false;       ///< emits any DRAM tensor
    };
    /** A from-DRAM input of a planned layer: its slot, producer and
     *  first row in the block's `seg_ifmaps`. */
    struct IfmapPlan {
        int input_index = 0;
        LayerId src_layer = kNoLayer;
        int seg_begin = 0;
    };

    std::vector<int> flg_of_layer, lg_of_layer, idx_in_flg;
    std::vector<std::vector<LayerId>> flg_layers;
    std::vector<LayerId> sorted_members;  ///< per-group signature scratch
    std::vector<int> view_pos;            ///< perm-composition scratch
    std::vector<std::size_t> view_perm;   ///< perm-composition scratch
    std::vector<const GroupParse *> groups;  ///< per-FLG view, this parse
    /** The previous parse's view: a group whose layers and Tiling
     *  Number match its predecessor at the same FLG index reuses the
     *  block without a signature lookup. Dropped whenever the blocks it
     *  points at may be gone (memo cleared, overflow blocks). */
    std::vector<const GroupParse *> prev_groups;
    std::vector<TilePos> flg_begin;       ///< per-FLG first tile, + end
    std::vector<TilePos> lg_first, lg_end;
    std::vector<int> seg_base;            ///< per derivation index
    std::vector<LayerPlan> plans;         ///< per LFA position
    std::vector<IfmapPlan> plan_ifmaps;
    std::vector<GroupSpan> spans;         ///< this parse's, + closing
    std::vector<std::uint64_t> flags;     ///< this parse's group_flags

    /** Signature-keyed group memo (cleared wholesale beyond the cap).
     *  Blocks are only valid for one (graph, evaluator) pair — layer
     *  ids restart at 0 in every graph — so ParseLfaInto drops the
     *  memo whenever either identity changes (tracked below, same
     *  pointer-identity convention as EvalContext's incremental base). */
    std::unordered_map<std::uint64_t, GroupParse> group_memo;
    /** Per-parse home for blocks whose signature collided with a
     *  different resident group (never evict mid-parse). */
    std::vector<std::unique_ptr<GroupParse>> group_overflow;
    static constexpr std::size_t kGroupMemoCap = 1 << 12;
    const void *memo_graph = nullptr;  ///< graph the memo describes
    const void *memo_eval = nullptr;   ///< evaluator the costs came from

    /** Dirty-set telemetry of the most recent ParseLfaInto call: groups
     *  re-derived vs reused; `last_remapped_groups` counts the reused
     *  subset that was re-indexed to a new interior order (sink-set
     *  signature hits). Exposed for tests and benches. */
    int last_dirty_groups = 0;
    int last_clean_groups = 0;
    int last_remapped_groups = 0;
};

/**
 * Parse the LFA from scratch — the reference every incremental parse is
 * checked against: tile every FLG, cost every tile through the core
 * array evaluator, enumerate the DRAM tensors per layer and sort them
 * into canonical order, and collect the on-chip reuse intervals.
 * Materializes `tiles`. Returns an invalid schedule (with a reason)
 * when the encoding cannot be realized.
 */
ParsedSchedule ParseLfa(const Graph &graph, const LfaEncoding &lfa,
                        CoreArrayEvaluator &core_eval,
                        const ParseOptions &popts = {});

/**
 * The incremental parse of the search loop: writes into @p out and
 * draws intermediate storage (including the group memo) from
 * @p scratch, both of which retain their state across calls. Fills
 * every column ParseLfa does except `tiles`, plus `group_spans`. When
 * @p tiling_cache is given, dirty groups fetch their FlgTiling through
 * it, sharing the halo-propagation work across every search chain of a
 * stage. Leading groups unchanged since @p like (another output of
 * ParseLfaInto, e.g. a committed base) or since what @p out holds are
 * copied rather than re-emitted. @p out must hold nothing but
 * ParseLfaInto outputs and default-constructed state.
 */
void ParseLfaInto(const Graph &graph, const LfaEncoding &lfa,
                  CoreArrayEvaluator &core_eval, const ParseOptions &popts,
                  ParseScratch *scratch, ParsedSchedule *out,
                  TilingCache *tiling_cache = nullptr,
                  const ParsedSchedule *like = nullptr);

/**
 * Bit-exact equality of two parse results: every tile column, tensor
 * and interval field, including the doubles, and the materialized
 * `tiles` when both sides have them. `group_spans` (incremental-only
 * bookkeeping) is not compared. The contract the incremental parse
 * upholds against the from-scratch parse.
 */
bool ParsedSchedulesIdentical(const ParsedSchedule &a,
                              const ParsedSchedule &b);

/** Reusable storage for the scratch-based DlsaValid overload. */
struct DlsaCheckScratch {
    std::vector<char> seen;
    std::vector<int> rank;
    std::vector<int> store_rank_by_layer;
};

/**
 * Validity of a DLSA against a parse: permutation arity, free points in
 * range, and every cross-LG ifmap load ordered after all ofmap stores of
 * its source layer.
 */
bool DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
               std::string *why = nullptr);

/** Allocation-lean DlsaValid for the SA inner loop. */
bool DlsaValid(const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
               std::string *why, DlsaCheckScratch *scratch);

}  // namespace soma

#endif  // SOMA_NOTATION_PARSER_H

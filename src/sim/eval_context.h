/**
 * @file
 * Incremental evaluation engine for the SA inner loop.
 *
 * The paper's search evaluates millions of candidate schemes; the seed
 * implementation rebuilt every per-candidate data structure (parsed
 * schedule, buffer difference array, DRAM/compute timelines) from
 * scratch for each one. An EvalContext owns all of that scratch state
 * per search thread, so repeated evaluations are allocation-free after
 * warm-up, and it supports *incremental* re-evaluation:
 *
 *  - EvaluateDelta: DLSA-only mutations (free-point / order moves)
 *    resume the two-pointer timeline at the earliest affected
 *    (tile, rank) checkpoint and *splice* back into the base timeline
 *    as soon as the recomputed window reconverges with it bit-for-bit,
 *    so only the perturbed region is simulated.
 *  - EvaluateLfa: LFA mutations re-parse the scheme; the incremental
 *    parse's group spans name the first and last FLG whose memo block,
 *    offsets or cross-group decisions changed against the committed
 *    base's parse, the unchanged timeline prefix is copied verbatim,
 *    and the window is re-simulated with the same splice rule.
 *
 * Each entry only derives its window: the resume checkpoint (ci0, di0),
 * the splice floors (min_ci, min_di) and what it already knows about
 * the buffer (EvaluateDelta patches the integer occupancy; an order
 * move keeps the base's average). Evaluate's window is empty of base:
 * resume at 0/0, run to the end. One private routine does the rest for
 * all three and for the cross-check reference run: side preparation,
 * the buffer-overflow report, the prefix copy from the base, the run
 * (windowed, and so able to splice, only against a base of equal tile
 * and tensor counts), the aggregates and the DeltaStats. A resume
 * checkpoint at the very end (no tile or rank left to re-simulate) is
 * an empty window: the copied base timeline is the candidate's and
 * counts as a splice. A deadlocked run has reproduced the full
 * trajectory up to its stalled heads; the report is zero-filled beyond
 * them, which is exactly the full evaluator's partial report, so a
 * deadlock never falls back to a full evaluation.
 *
 * The timeline reads the parse's own columns (per-tile seconds, CSR
 * need lists, the tensor table); the context only adds what depends on
 * the hardware — per-tensor DRAM seconds and cached aggregate sums,
 * refilled when the parse or hardware changes. Per-candidate transient
 * scratch comes from one MonotonicArena reset at the top of each
 * evaluation.
 *
 * Incremental results are bit-identical to full evaluation: the resumed
 * timeline executes the same recurrences on the same operands, the
 * splice fires only when the recomputed window equals the base
 * trajectory bitwise, and the integer buffer-occupancy array is patched
 * exactly. `set_cross_check(true)` (or SOMA_CROSS_CHECK=1) runs the
 * full simulation after every fast path and aborts on any divergence,
 * mirroring the incremental parser's cross-check mode.
 */
#ifndef SOMA_SIM_EVAL_CONTEXT_H
#define SOMA_SIM_EVAL_CONTEXT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "hw/hardware.h"
#include "notation/parser.h"
#include "sim/report.h"
#include "tiling/tiling_cache.h"

namespace soma {

/**
 * How a candidate DLSA differs from an EvalContext's committed base.
 * Produced by the DLSA mutation operators; consumed by
 * EvalContext::EvaluateDelta.
 */
struct DlsaDelta {
    enum class Kind {
        kNone,       ///< unknown / not a single-move delta: full evaluation
        kOrderMove,  ///< `tensor` moved from `from_rank` to `to_rank`
        kFreePoint,  ///< `tensor`'s free endpoint moved old->new
    };
    Kind kind = Kind::kNone;
    int tensor = -1;
    int from_rank = -1;       ///< kOrderMove: rank of `tensor` in the base
    int to_rank = -1;         ///< kOrderMove: rank of `tensor` in the cand
    TilePos old_point = 0;    ///< kFreePoint: base free endpoint
    TilePos new_point = 0;    ///< kFreePoint: candidate free endpoint
};

/**
 * Buffer occupancy per tile slot via a difference array. Slots are
 * [0, NumTiles()); @p diff is caller-supplied scratch of NumTiles() + 1
 * entries (a vector in PeakBufferUsage, the per-candidate arena in the
 * EvalContext hot path).
 */
void ComputeBufferBySlot(const ParsedSchedule &parsed,
                         const std::vector<TilePos> &free_point, Bytes *diff,
                         std::vector<Bytes> *usage);

/**
 * The one verification switch: SOMA_CROSS_CHECK set to anything but
 * "" or "0" turns on both debug cross-checks process-wide — the
 * incremental parse's (ParseOptions::cross_check, in the LFA stage) and
 * the delta timeline's (EvalContext::set_cross_check). Read once.
 */
bool CrossCheckFromEnv();

/**
 * Per-thread evaluation context. Typical SA usage:
 *
 *   ctx.Evaluate(...);          // full evaluation of the initial state
 *   ctx.Commit();               // make it the incremental base
 *   loop:
 *     mutate -> delta
 *     ctx.EvaluateDelta(...);   // windowed re-evaluation
 *     if accepted: ctx.Commit();
 *
 * Not thread safe; create one per search chain.
 */
class EvalContext {
  public:
    EvalContext();

    /** Counters for the delta fast paths (cumulative per context). */
    struct DeltaStats {
        std::uint64_t delta_evals = 0;   ///< EvaluateDelta/Lfa fast paths
        std::uint64_t windowed_runs = 0; ///< windowed timeline resumes
        std::uint64_t splices = 0;       ///< windows that reconverged
        std::uint64_t full_fallbacks = 0;///< fast-path calls gone full
        std::uint64_t window_events = 0; ///< events re-simulated in windows
        std::uint64_t cross_check_passes = 0;
        int last_resume_ci = 0;   ///< window start: compute slot
        int last_resume_di = 0;   ///< window start: DRAM rank
        int last_window_events = 0;
    };

    /**
     * Parse an LFA with reusable scratch (including the group memo of
     * the incremental parse). The returned reference stays owned by the
     * context and is overwritten by the next Parse call — except across
     * Commit: the parse backing the committed base is double-buffered
     * and stays valid until the *next* Commit, which is what lets
     * EvaluateLfa diff a candidate parse against the base's.
     */
    const ParsedSchedule &Parse(const Graph &graph, const LfaEncoding &lfa,
                                CoreArrayEvaluator &core_eval,
                                const ParseOptions &popts = {});

    /**
     * Share a stage-wide TilingCache: subsequent Parse calls fetch
     * dirty-group tilings through it instead of recomputing them. Pass
     * nullptr to detach. The cache must describe the graph this context
     * parses (one cache per search, like the evaluator memo).
     */
    void set_tiling_cache(std::shared_ptr<TilingCache> cache)
    {
        tiling_cache_ = std::move(cache);
    }
    const std::shared_ptr<TilingCache> &tiling_cache() const
    {
        return tiling_cache_;
    }

    /**
     * Full evaluation (semantics of EvaluateSchedule) into the context's
     * reusable report. The returned reference is overwritten by the next
     * evaluation. The committed base (if any) is left intact, so a full
     * evaluation of one candidate does not cost later candidates their
     * delta path.
     */
    const EvalReport &Evaluate(const Graph &graph, const HardwareConfig &hw,
                               const ParsedSchedule &parsed,
                               const DlsaEncoding &dlsa, Bytes buffer_budget,
                               Ops total_ops);

    /**
     * Evaluate a candidate that differs from the committed base by
     * @p delta. Resumes the two-pointer timeline from the earliest
     * affected (tile, rank) checkpoint instead of replaying it from
     * slot 0, and splices back into the base timeline once the window
     * reconverges. Falls back to Evaluate when there is
     * no usable base (not committed, different parse/budget, or
     * delta.kind == kNone).
     *
     * Precondition: @p cand is a legal DLSA (the mutation operators only
     * produce legal moves); the data-existence check is skipped here.
     */
    const EvalReport &EvaluateDelta(const Graph &graph,
                                    const HardwareConfig &hw,
                                    const ParsedSchedule &parsed,
                                    const DlsaEncoding &cand,
                                    const DlsaDelta &delta,
                                    Bytes buffer_budget, Ops total_ops);

    /**
     * Evaluate an LFA-stage candidate: @p parsed must be the result of
     * this context's latest Parse call. When the committed base was
     * also evaluated against a context-owned parse, the two parses'
     * group spans bound the affected timeline window (DLSA differences
     * are found by comparing the two encodings); the unchanged prefix
     * is copied from the base and only the window (and whatever suffix
     * fails to splice) is re-simulated; when the tile or tensor counts
     * differ only the prefix is shared and the run goes to the end.
     * Falls back to Evaluate whenever no window can be derived (no
     * base, a parse this context did not produce, different budget).
     * Bit-identical to Evaluate in all cases.
     *
     * Precondition: @p dlsa is a legal DLSA for @p parsed (the LFA
     * stage derives it with MakeDoubleBufferDlsaInto /
     * MakeLazyDlsaInto); the data-existence check is skipped on the
     * fast path exactly as in EvaluateDelta.
     */
    const EvalReport &EvaluateLfa(const Graph &graph,
                                  const HardwareConfig &hw,
                                  const ParsedSchedule &parsed,
                                  const DlsaEncoding &dlsa,
                                  Bytes buffer_budget, Ops total_ops);

    /** Promote the last evaluated candidate to the incremental base. */
    void Commit();

    /** Drop the incremental base (e.g. after adopting a foreign state). */
    void InvalidateBase();

    /** Whether EvaluateDelta currently has a usable base. */
    bool HasBase() const { return base_ok_; }

    /** Cross-check mode (default: CrossCheckFromEnv()): after every
     *  fast-path evaluation, run the full simulation and abort on any
     *  byte divergence. */
    void set_cross_check(bool on) { cross_check_ = on; }
    bool cross_check() const { return cross_check_; }

    const DeltaStats &delta_stats() const { return delta_stats_; }

    /** The incremental-parse scratch (read-only): span tracers read the
     *  group-memo telemetry off it (last_dirty_groups /
     *  last_clean_groups / last_remapped_groups) after a Parse call. */
    const ParseScratch &parse_scratch() const { return parse_scratch_; }

  private:
    /** One copy of all per-evaluation result state. Two instances are
     *  kept so a candidate can be evaluated without clobbering the base
     *  it resumes from; Commit swaps them. (A third backs cross-check
     *  reference runs.) */
    struct Side {
        EvalReport report;
        std::vector<double> tile_finish;
        std::vector<double> tensor_finish;  ///< -1: unscheduled
        std::vector<int> ci_at_rank;   ///< compute head when rank issued
        std::vector<int> rank_at_tile; ///< DRAM head when tile issued
        std::vector<Bytes> usage;      ///< buffer occupancy per slot
        std::vector<int> order;        ///< DLSA copy (rank -> tensor)
        std::vector<int> rank_of;      ///< inverse of order
        std::vector<TilePos> free_point;
    };

    /** What a parse costs on one hardware: per-tensor channel seconds
     *  from the hw's MemoryModel seam, plus the aggregate sums
     *  FinalizeAggregates would otherwise recompute per candidate.
     *  Refilled only when the parse or the hardware changes (tracked by
     *  pointer identity, like the base parse). */
    struct HwFill {
        const ParsedSchedule *parse = nullptr;
        const HardwareConfig *hw = nullptr;
        std::vector<double> t_dram_seconds;
        double sum_seconds = 0.0;    ///< == full-eval compute_busy
        double sum_energy_pj = 0.0;  ///< == full-eval core picojoules
        Bytes sum_dram_bytes = 0;    ///< == parsed.TotalDramBytes()
        /// Model-provided aggregate for EvalReport::dram_busy.
        double dram_busy_seconds = 0.0;
    };

    /** A candidate's window against the committed base: where the
     *  re-simulation resumes, how early the splice may fire, and what
     *  the entry already knows about the buffer. Evaluate passes the
     *  default (no base: resume at 0/0, run to the end); the windowed
     *  runner also counts in it how far the re-simulation got. */
    struct Window {
        const Side *base = nullptr;  ///< committed base, or none
        int ci0 = 0;     ///< resume checkpoint: compute slot
        int di0 = 0;     ///< resume checkpoint: DRAM rank
        int min_ci = 0;  ///< earliest compute slot the splice may fire at
        int min_di = 0;  ///< earliest DRAM rank the splice may fire at
        /// The entry patched the candidate's occupancy, rank_of and
        /// store buckets from the base's; `peak` is the patched peak.
        bool patched = false;
        Bytes peak = 0;
        /// >= 0: the buffer profile is bitwise the base's; its average.
        double known_avg = -1.0;
        int dirty = 0;   ///< recomputed events differing from base
        int events = 0;  ///< events re-simulated before splice/end
        bool spliced = false;
    };

    /** Sets every field but the event arrays (the run and the early
     *  exits own those). */
    static void ResetReportForEval(const ParsedSchedule &parsed,
                                   EvalReport *rep);

    /** The fill_[] slot for @p parsed on @p hw, refilled on demand. */
    const HwFill &FillFor(const ParsedSchedule &parsed,
                          const HardwareConfig &hw);

    /** Everything after the window, shared by all entries: side
     *  preparation, occupancy and the buffer-overflow report, the
     *  prefix copy from the base, the windowed (same-shape base) or
     *  plain run, the deadlock report, the aggregates, the DeltaStats
     *  and the cross-check of fast paths. Writes @p side. */
    const EvalReport &Simulate(const HardwareConfig &hw,
                               const ParsedSchedule &parsed,
                               const DlsaEncoding &dlsa, Bytes buffer_budget,
                               Ops total_ops, Window w, Side *side);

    template <bool kWindowed>
    bool RunTimelineImpl(const ParsedSchedule &parsed, const HwFill &fill,
                         Side *side, int ci, int di, double dram_prev_finish,
                         Window *w);
    /** Where a failed (deadlocked) timeline run left its heads — the
     *  first unwritten tile slot / DRAM rank; the report is zero-filled
     *  from there. */
    int run_dead_ci_ = 0;
    int run_dead_di_ = 0;
    static void SpliceSuffix(const Side &base, Side *side, int ci, int di);

    /** @p known_latency >= 0 is taken as the makespan (the splice
     *  proved the timeline equals the base's); @p known_avg
     *  >= 0 likewise skips the weighted-usage scan (the buffer profile
     *  is bitwise the base's, e.g. after an order move). */
    void FinalizeAggregates(const ParsedSchedule &parsed,
                            const HwFill &fill, const HardwareConfig &hw,
                            Ops total_ops, Side *side, double known_latency,
                            double known_avg);
    void RebuildStoreBuckets(const ParsedSchedule &parsed, const Side &side);
    void ApplyStoreMove(int tensor, TilePos from, TilePos to);
    void RevertPendingStoreMove();

    /** Run the reference full simulation into check_side_ and abort on
     *  any divergence from the fast-path result in sides_[cand_]. */
    void CrossCheckAgainstFull(const HardwareConfig &hw,
                               const ParsedSchedule &parsed,
                               const DlsaEncoding &dlsa, Bytes buffer_budget,
                               Ops total_ops);

    const ParsedSchedule *OwnCandParse() const
    {
        return &parsed_storage_[ps_cand_];
    }
    const ParsedSchedule *OwnBaseParse() const
    {
        return &parsed_storage_[ps_base_];
    }

    ParseScratch parse_scratch_;
    /** Double-buffered parse storage: Parse writes the cand slot; the
     *  slot backing the committed base is only released by the Commit
     *  that replaces it. */
    ParsedSchedule parsed_storage_[2];
    int ps_cand_ = 0;
    int ps_base_ = 1;
    std::shared_ptr<TilingCache> tiling_cache_;
    DlsaCheckScratch check_scratch_;
    std::string why_scratch_;

    /** Fills for the two parse slots + one for external parses
     *  (DLSA-stage walks evaluate one caller-owned parse). */
    HwFill fill_[2];
    HwFill fill_ext_;
    /** Seam-path scratch: the transfer list's byte and direction
     *  columns. */
    std::vector<Bytes> fill_bytes_;
    std::vector<unsigned char> fill_is_load_;

    MonotonicArena arena_;  ///< per-candidate scratch, reset per eval

    /** Stores indexed by their End slot, kept in sync with either the
     *  base free points (plus at most one pending candidate move) or —
     *  after a full/LFA evaluation — the last candidate's
     *  (buckets_for_base_ says which). */
    std::vector<std::vector<int>> stores_by_end_;

    Side sides_[2];
    Side check_side_;  ///< cross-check reference result
    int cand_ = 0;  ///< side written by the next evaluation
    int base_ = 1;  ///< side holding the committed base

    const ParsedSchedule *base_parsed_ = nullptr;  ///< base's parse
    const ParsedSchedule *cand_parsed_ = nullptr;  ///< last eval's parse
    Bytes base_budget_ = -1;
    Ops base_ops_ = -1;
    Bytes cand_budget_ = -1;
    Ops cand_ops_ = -1;
    bool base_ok_ = false;
    bool cand_fresh_ = false;  ///< cand side holds an uncommitted result
    bool buckets_for_base_ = false;

    bool cross_check_;
    DeltaStats delta_stats_;

    bool pending_move_ = false;
    int pending_tensor_ = -1;
    TilePos pending_from_ = 0;
    TilePos pending_to_ = 0;
};

}  // namespace soma

#endif  // SOMA_SIM_EVAL_CONTEXT_H

#include "sim/eval_context.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "hw/memory_model.h"
#include "obs/prof.h"

namespace soma {

void
ComputeBufferBySlot(const ParsedSchedule &parsed,
                    const std::vector<TilePos> &free_point, Bytes *diff,
                    std::vector<Bytes> *usage)
{
    const int slots = parsed.NumTiles();
    std::fill_n(diff, slots + 1, Bytes{0});
    auto add = [&](TilePos from, TilePos to, Bytes bytes) {
        from = std::clamp<TilePos>(from, 0, slots);
        to = std::clamp<TilePos>(to, 0, slots);
        if (from >= to) return;
        diff[from] += bytes;
        diff[to] -= bytes;
    };
    for (const OnchipInterval &iv : parsed.onchip)
        add(iv.from, iv.to, iv.bytes);
    for (int j = 0; j < parsed.NumTensors(); ++j) {
        const DramTensor &t = parsed.tensors[j];
        if (t.IsLoad()) {
            add(free_point[j], t.fixed_end, t.bytes);
        } else {
            add(t.first_use, free_point[j], t.bytes);
        }
    }
    usage->assign(slots, 0);
    Bytes run = 0;
    for (int s = 0; s < slots; ++s) {
        run += diff[s];
        (*usage)[s] = run;
    }
}

namespace {

bool
TimesEqual(const std::vector<EventTiming> &a,
           const std::vector<EventTiming> &b)
{
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].start != b[i].start || a[i].finish != b[i].finish)
            return false;
    }
    return true;
}

bool
ReportsEqual(const EvalReport &a, const EvalReport &b)
{
    return a.valid == b.valid && a.why_invalid == b.why_invalid &&
           a.latency == b.latency && a.core_energy_j == b.core_energy_j &&
           a.dram_energy_j == b.dram_energy_j &&
           a.compute_busy == b.compute_busy && a.dram_busy == b.dram_busy &&
           a.compute_util == b.compute_util && a.dram_util == b.dram_util &&
           a.theory_max_util == b.theory_max_util &&
           a.peak_buffer == b.peak_buffer && a.avg_buffer == b.avg_buffer &&
           a.dram_bytes == b.dram_bytes && a.num_tiles == b.num_tiles &&
           a.num_tensors == b.num_tensors && a.num_flgs == b.num_flgs &&
           a.num_lgs == b.num_lgs && TimesEqual(a.tile_times, b.tile_times) &&
           TimesEqual(a.tensor_times, b.tensor_times);
}

}  // namespace

bool
CrossCheckFromEnv()
{
    static const bool enabled = [] {
        const char *v = std::getenv("SOMA_CROSS_CHECK");
        return v && *v && std::strcmp(v, "0") != 0;
    }();
    return enabled;
}

EvalContext::EvalContext() : cross_check_(CrossCheckFromEnv()) {}

const ParsedSchedule &
EvalContext::Parse(const Graph &graph, const LfaEncoding &lfa,
                   CoreArrayEvaluator &core_eval, const ParseOptions &popts)
{
    // The candidate slot is overwritten: any uncommitted evaluation
    // against it is orphaned. The committed base lives in the other
    // slot and survives — that is what EvaluateLfa diffs against.
    cand_fresh_ = false;
    cand_parsed_ = nullptr;
    fill_[ps_cand_].parse = nullptr;
    // The committed base is the closest earlier parse: the candidate
    // copies its unchanged leading groups.
    const ParsedSchedule *like =
        base_ok_ && base_parsed_ == OwnBaseParse() ? base_parsed_ : nullptr;
    ParseLfaInto(graph, lfa, core_eval, popts, &parse_scratch_,
                 &parsed_storage_[ps_cand_], tiling_cache_.get(), like);
    return parsed_storage_[ps_cand_];
}

void
EvalContext::ResetReportForEval(const ParsedSchedule &parsed, EvalReport *rep)
{
    rep->valid = false;
    rep->why_invalid.clear();
    rep->latency = std::numeric_limits<double>::infinity();
    rep->core_energy_j = 0.0;
    rep->dram_energy_j = 0.0;
    rep->compute_busy = 0.0;
    rep->dram_busy = 0.0;
    rep->compute_util = 0.0;
    rep->dram_util = 0.0;
    rep->theory_max_util = 0.0;
    rep->avg_buffer = 0.0;
    rep->dram_bytes = 0;
    rep->peak_buffer = 0;
    rep->num_tiles = parsed.NumTiles();
    rep->num_tensors = parsed.NumTensors();
    rep->num_flgs = parsed.num_flgs;
    rep->num_lgs = parsed.num_lgs;
}

void
EvalContext::RebuildStoreBuckets(const ParsedSchedule &parsed,
                                 const Side &side)
{
    const int T = parsed.NumTiles();
    stores_by_end_.resize(T + 1);
    for (auto &bucket : stores_by_end_) bucket.clear();
    for (int j = 0; j < parsed.NumTensors(); ++j) {
        if (!parsed.tensors[j].IsLoad())
            stores_by_end_[side.free_point[j]].push_back(j);
    }
    pending_move_ = false;
}

void
EvalContext::ApplyStoreMove(int tensor, TilePos from, TilePos to)
{
    std::vector<int> &src = stores_by_end_[from];
    auto it = std::find(src.begin(), src.end(), tensor);
    assert(it != src.end());
    src.erase(it);
    stores_by_end_[to].push_back(tensor);
    pending_move_ = true;
    pending_tensor_ = tensor;
    pending_from_ = from;
    pending_to_ = to;
}

void
EvalContext::RevertPendingStoreMove()
{
    if (!pending_move_) return;
    std::vector<int> &dst = stores_by_end_[pending_to_];
    auto it = std::find(dst.begin(), dst.end(), pending_tensor_);
    assert(it != dst.end());
    dst.erase(it);
    stores_by_end_[pending_from_].push_back(pending_tensor_);
    pending_move_ = false;
}

const EvalContext::HwFill &
EvalContext::FillFor(const ParsedSchedule &parsed, const HardwareConfig &hw)
{
    HwFill *fill;
    if (&parsed == &parsed_storage_[0]) {
        fill = &fill_[0];
    } else if (&parsed == &parsed_storage_[1]) {
        fill = &fill_[1];
    } else {
        fill = &fill_ext_;
    }
    if (fill->parse == &parsed && fill->hw == &hw) return *fill;

    const int D = parsed.NumTensors();
    // Separate accumulators in parse order: bitwise-identical to the
    // sums the full evaluator used to fold per candidate.
    double sum_seconds = 0.0;
    for (double s : parsed.tile_seconds) sum_seconds += s;
    double sum_energy = 0.0;
    for (double e : parsed.tile_energy_pj) sum_energy += e;
    Bytes sum_bytes = 0;
    for (const DramTensor &t : parsed.tensors) sum_bytes += t.bytes;
    fill->sum_seconds = sum_seconds;
    fill->sum_energy_pj = sum_energy;
    fill->sum_dram_bytes = sum_bytes;
    if (hw.memory_model == nullptr) {
        // Default (analytical) path kept inline so a null seam is
        // trivially the legacy math: DramSeconds is a pure function of
        // the byte count, so hoisting it out of the event loop cannot
        // change a single result bit.
        fill->t_dram_seconds.resize(D);
        for (int j = 0; j < D; ++j)
            fill->t_dram_seconds[j] = hw.DramSeconds(parsed.tensors[j].bytes);
        fill->dram_busy_seconds = hw.DramSeconds(sum_bytes);
    } else {
        // Seam path. The model sees the tensor-index-ordered transfer
        // list; its contract (memory_model.h) makes the fill a pure
        // function of (parse, hw), which is all the delta/splice logic
        // relies on — the hot loop only ever reads this array.
        fill_bytes_.resize(D);
        fill_is_load_.resize(D);
        for (int j = 0; j < D; ++j) {
            fill_bytes_[j] = parsed.tensors[j].bytes;
            fill_is_load_[j] = parsed.tensors[j].IsLoad() ? 1 : 0;
        }
        DramTransferList transfers;
        transfers.bytes = fill_bytes_.data();
        transfers.is_load = fill_is_load_.data();
        transfers.count = D;
        hw.memory_model->FillTransferSeconds(hw, transfers,
                                             &fill->t_dram_seconds);
        fill->dram_busy_seconds = hw.memory_model->ChannelBusySeconds(
            hw, sum_bytes, fill->t_dram_seconds);
    }
    fill->parse = &parsed;
    fill->hw = &hw;
    return *fill;
}

void
EvalContext::SpliceSuffix(const Side &base, Side *side, int ci, int di)
{
    const int D = static_cast<int>(base.ci_at_rank.size());
    std::copy(base.tile_finish.begin() + ci, base.tile_finish.end(),
              side->tile_finish.begin() + ci);
    std::copy(base.rank_at_tile.begin() + ci, base.rank_at_tile.end(),
              side->rank_at_tile.begin() + ci);
    std::copy(base.report.tile_times.begin() + ci,
              base.report.tile_times.end(),
              side->report.tile_times.begin() + ci);
    std::copy(base.ci_at_rank.begin() + di, base.ci_at_rank.end(),
              side->ci_at_rank.begin() + di);
    for (int r = di; r < D; ++r) {
        const int j = base.order[r];  // == side->order[r] beyond min_di
        side->tensor_finish[j] = base.tensor_finish[j];
        side->report.tensor_times[j] = base.report.tensor_times[j];
    }
}

template <bool kWindowed>
bool
EvalContext::RunTimelineImpl(const ParsedSchedule &parsed,
                             const HwFill &fill, Side *side, int ci, int di,
                             double dram_prev_finish, Window *w)
{
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    EvalReport &rep = side->report;
    const double *tile_seconds = parsed.tile_seconds.data();
    const double *t_dram = fill.t_dram_seconds.data();
    const int *need_off = parsed.need_off.data();
    const int *need_idx = parsed.need_idx.data();
    const DramTensor *tensors = parsed.tensors.data();

    while (ci < T || di < D) {
        bool progress = false;

        // DRAM head: a load waits for tiles before its Start; a store
        // waits for its producing tile.
        while (di < D) {
            if constexpr (kWindowed) {
                // Reconverged with the base trajectory at an aligned
                // state: every remaining event would recompute the base
                // values, so copy them instead.
                if (w->dirty == 0 && di >= w->min_di && ci >= w->min_ci &&
                    w->base->ci_at_rank[di] == ci) {
                    SpliceSuffix(*w->base, side, ci, di);
                    w->spliced = true;
                    return true;
                }
            }
            const int j = side->order[di];
            double ready;
            if (tensors[j].IsLoad()) {
                TilePos s = side->free_point[j];
                if (s > ci) break;  // tiles before Start not yet scheduled
                ready = (s == 0) ? 0.0 : side->tile_finish[s - 1];
            } else {
                const TilePos producer = tensors[j].first_use;
                if (producer >= ci) break;  // producer not scheduled
                ready = side->tile_finish[producer];
            }
            const double start = std::max(dram_prev_finish, ready);
            const double finish = start + t_dram[j];
            if constexpr (kWindowed) {
                ++w->events;
                if (start != w->base->report.tensor_times[j].start ||
                    finish != w->base->tensor_finish[j] ||
                    ci != w->base->ci_at_rank[di])
                    ++w->dirty;
            }
            rep.tensor_times[j] = EventTiming{start, finish};
            side->tensor_finish[j] = finish;
            side->ci_at_rank[di] = ci;
            dram_prev_finish = finish;
            ++di;
            progress = true;
        }

        // Compute head: waits for the previous tile, its operand loads,
        // and all stores whose End equals this tile.
        while (ci < T) {
            if constexpr (kWindowed) {
                if (w->dirty == 0 && ci >= w->min_ci && di >= w->min_di &&
                    w->base->rank_at_tile[ci] == di) {
                    SpliceSuffix(*w->base, side, ci, di);
                    w->spliced = true;
                    return true;
                }
            }
            double start = (ci == 0) ? 0.0 : side->tile_finish[ci - 1];
            bool blocked = false;
            for (int k = need_off[ci]; k < need_off[ci + 1]; ++k) {
                const int j = need_idx[k];
                if (side->tensor_finish[j] < 0.0) { blocked = true; break; }
                start = std::max(start, side->tensor_finish[j]);
            }
            if (!blocked) {
                for (int j : stores_by_end_[ci]) {
                    if (side->tensor_finish[j] < 0.0) {
                        blocked = true;
                        break;
                    }
                    start = std::max(start, side->tensor_finish[j]);
                }
            }
            if (blocked) break;
            const double finish = start + tile_seconds[ci];
            if constexpr (kWindowed) {
                ++w->events;
                if (start != w->base->report.tile_times[ci].start ||
                    finish != w->base->tile_finish[ci] ||
                    di != w->base->rank_at_tile[ci])
                    ++w->dirty;
            }
            rep.tile_times[ci] = EventTiming{start, finish};
            side->tile_finish[ci] = finish;
            side->rank_at_tile[ci] = di;
            ++ci;
            progress = true;
        }

        if (!progress) {
            run_dead_ci_ = ci;
            run_dead_di_ = di;
            return false;
        }
    }
    return true;
}

void
EvalContext::FinalizeAggregates(const ParsedSchedule &parsed,
                                const HwFill &fill, const HardwareConfig &hw,
                                Ops total_ops, Side *side,
                                double known_latency, double known_avg)
{
    EvalReport &rep = side->report;
    const int T = parsed.NumTiles();

    double makespan;
    if (known_latency >= 0.0) {
        // The splice proved the timeline equals the base's bitwise.
        makespan = known_latency;
    } else {
        // Both resources are serial: each tile finishes no earlier than
        // its predecessor, each DRAM rank no earlier than the previous
        // rank, so the last of each holds its resource's maximum.
        makespan = 0.0;
        if (!side->tile_finish.empty())
            makespan = std::max(makespan, side->tile_finish.back());
        if (!side->order.empty())
            makespan = std::max(makespan,
                                side->tensor_finish[side->order.back()]);
    }
    rep.latency = makespan;

    rep.compute_busy = fill.sum_seconds;
    rep.dram_bytes = fill.sum_dram_bytes;
    rep.dram_busy = fill.dram_busy_seconds;
    rep.core_energy_j = fill.sum_energy_pj * 1e-12;
    rep.dram_energy_j = static_cast<double>(fill.sum_dram_bytes) *
                        hw.energy.dram_pj_per_byte * 1e-12;

    double peak_ops = hw.PeakOpsPerSecond();
    rep.compute_util = static_cast<double>(total_ops) /
                       (peak_ops * rep.latency);
    rep.dram_util = rep.dram_busy / rep.latency;
    double bound = std::max(rep.compute_busy, rep.dram_busy);
    rep.theory_max_util =
        bound > 0.0 ? static_cast<double>(total_ops) / (peak_ops * bound)
                    : 0.0;

    if (known_avg >= 0.0) {
        // The buffer profile is bitwise the base's; its average is too.
        rep.avg_buffer = known_avg;
    } else {
        // Compute-time-weighted average buffer usage (Fig. 6
        // definition).
        double weighted = 0.0;
        for (int s = 0; s < T; ++s)
            weighted += static_cast<double>(side->usage[s]) *
                        parsed.tile_seconds[s];
        rep.avg_buffer =
            rep.compute_busy > 0.0 ? weighted / rep.compute_busy : 0.0;
    }
}

const EvalReport &
EvalContext::Simulate(const HardwareConfig &hw, const ParsedSchedule &parsed,
                      const DlsaEncoding &dlsa, Bytes buffer_budget,
                      Ops total_ops, Window w, Side *side)
{
    arena_.Reset();
    const Side *base = w.base;
    if (base != nullptr) ++delta_stats_.delta_evals;
    cand_fresh_ = true;
    cand_parsed_ = &parsed;
    cand_budget_ = buffer_budget;
    cand_ops_ = total_ops;

    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();
    side->order = dlsa.order;
    side->free_point = dlsa.free_point;
    EvalReport &rep = side->report;
    ResetReportForEval(parsed, &rep);
    if (w.patched) {
        rep.peak_buffer = w.peak;
    } else {
        side->rank_of.resize(D);
        for (int r = 0; r < D; ++r) side->rank_of[side->order[r]] = r;
        // --- Buffer feasibility (slot-based, Fig. 4 BUFFER row) ---
        ComputeBufferBySlot(parsed, side->free_point,
                            arena_.AllocArray<Bytes>(T + 1), &side->usage);
        for (Bytes b : side->usage)
            rep.peak_buffer = std::max(rep.peak_buffer, b);
    }
    if (rep.peak_buffer > buffer_budget) {
        // Exits before the bucket rebuild: the base's buckets (and its
        // delta fast paths) survive a rejected over-budget candidate.
        rep.tile_times.clear();
        rep.tensor_times.clear();
        rep.why_invalid = "buffer overflow";
        return rep;
    }
    if (!w.patched) {
        RebuildStoreBuckets(parsed, *side);
        buckets_for_base_ = false;
    }
    const HwFill &fill = FillFor(parsed, hw);

    // --- Prefix copy: every event before the resume checkpoint is the
    // base's. Per-tensor arrays are indexed by tensor, not rank, so a
    // same-shape base is copied whole (one contiguous copy beats a
    // gather over the issued ranks) and the unissued ranks invalidated
    // after: tensor_finish doubles as the issued flag the gates read. ---
    const bool same_shape = base != nullptr && base->report.num_tiles == T &&
                            base->report.num_tensors == D;
    side->tile_finish.resize(T);
    side->rank_at_tile.resize(T);
    side->ci_at_rank.resize(D);
    rep.tile_times.resize(T);
    if (base != nullptr) {
        std::copy_n(base->tile_finish.begin(), w.ci0,
                    side->tile_finish.begin());
        std::copy_n(base->rank_at_tile.begin(), w.ci0,
                    side->rank_at_tile.begin());
        std::copy_n(base->report.tile_times.begin(), w.ci0,
                    rep.tile_times.begin());
        std::copy_n(base->ci_at_rank.begin(), w.di0,
                    side->ci_at_rank.begin());
    }
    if (same_shape) {
        side->tensor_finish = base->tensor_finish;
        rep.tensor_times = base->report.tensor_times;
        for (int r = w.di0; r < D; ++r)
            side->tensor_finish[side->order[r]] = -1.0;
    } else {
        side->tensor_finish.assign(D, -1.0);
        rep.tensor_times.resize(D);
        for (int r = 0; r < w.di0; ++r) {
            const int j = side->order[r];  // == base->order[r] here
            side->tensor_finish[j] = base->tensor_finish[j];
            rep.tensor_times[j] = base->report.tensor_times[j];
        }
    }

    // --- Two serial resources, two-pointer list scheduling. An empty
    // window leaves nothing to run: the copy is the timeline. Against a
    // same-shape base the run may splice; otherwise it runs to the end.
    const bool empty = same_shape && w.ci0 == T && w.di0 == D;
    bool ok = true;
    if (!empty) {
        const double dram_prev =
            w.di0 > 0 ? side->tensor_finish[side->order[w.di0 - 1]] : 0.0;
        if (same_shape) {
            SOMA_PROF_SCOPE("eval.timeline.delta");
            ok = RunTimelineImpl<true>(parsed, fill, side, w.ci0, w.di0,
                                       dram_prev, &w);
        } else {
            SOMA_PROF_SCOPE("eval.timeline");
            ok = RunTimelineImpl<false>(parsed, fill, side, w.ci0, w.di0,
                                        dram_prev, nullptr);
        }
    }
    if (base != nullptr) {
        if (same_shape && !empty) ++delta_stats_.windowed_runs;
        if (empty || w.spliced) ++delta_stats_.splices;
        delta_stats_.window_events += static_cast<std::uint64_t>(w.events);
        delta_stats_.last_window_events = w.events;
        delta_stats_.last_resume_ci = w.ci0;
        delta_stats_.last_resume_di = w.di0;
    }
    if (!ok) {
        // Deadlock. The run reproduced the full trajectory up to the
        // stalled heads; everything beyond them is leftover copy the
        // canonical report zero-fills.
        for (int ci = run_dead_ci_; ci < T; ++ci)
            rep.tile_times[ci] = EventTiming{};
        for (int r = run_dead_di_; r < D; ++r)
            rep.tensor_times[side->order[r]] = EventTiming{};
        rep.why_invalid = "schedule deadlock (DLSA order)";
        return rep;
    }

    FinalizeAggregates(parsed, fill, hw, total_ops, side,
                       empty || w.spliced ? base->report.latency : -1.0,
                       w.known_avg);
    rep.valid = true;
    if (base != nullptr && cross_check_) {
        CrossCheckAgainstFull(hw, parsed, dlsa, buffer_budget, total_ops);
        ++delta_stats_.cross_check_passes;
    }
    return rep;
}

const EvalReport &
EvalContext::Evaluate(const Graph &graph, const HardwareConfig &hw,
                      const ParsedSchedule &parsed, const DlsaEncoding &dlsa,
                      Bytes buffer_budget, Ops total_ops)
{
    SOMA_PROF_SCOPE("eval.full");
    (void)graph;
    // Keep the base's buckets coherent before the rebuild claims them
    // for this candidate: the committed base itself survives full
    // evaluations (EvaluateDelta restores the buckets lazily).
    RevertPendingStoreMove();

    // External parses have no invalidation hook (Parse only guards the
    // context-owned slots), so refill them on every full pass.
    if (&parsed != OwnCandParse() && &parsed != OwnBaseParse())
        fill_ext_.parse = nullptr;

    if (!parsed.valid ||
        !DlsaValid(parsed, dlsa, &why_scratch_, &check_scratch_)) {
        EvalReport &rep = sides_[cand_].report;
        ResetReportForEval(parsed, &rep);
        rep.tile_times.clear();
        rep.tensor_times.clear();
        rep.why_invalid =
            parsed.valid ? "dlsa: " + why_scratch_ : parsed.why_invalid;
        cand_fresh_ = false;
        return rep;
    }
    return Simulate(hw, parsed, dlsa, buffer_budget, total_ops, Window{},
                    &sides_[cand_]);
}

const EvalReport &
EvalContext::EvaluateDelta(const Graph &graph, const HardwareConfig &hw,
                           const ParsedSchedule &parsed,
                           const DlsaEncoding &cand, const DlsaDelta &delta,
                           Bytes buffer_budget, Ops total_ops)
{
    SOMA_PROF_SCOPE("eval.delta");
    RevertPendingStoreMove();
    if (!base_ok_ || base_parsed_ != &parsed ||
        base_budget_ != buffer_budget || base_ops_ != total_ops ||
        delta.kind == DlsaDelta::Kind::kNone) {
        ++delta_stats_.full_fallbacks;
        return Evaluate(graph, hw, parsed, cand, buffer_budget, total_ops);
    }

    const Side &base = sides_[base_];
    if (!buckets_for_base_) {
        // A full/LFA evaluation since the last Commit rebuilt the
        // buckets for its own candidate; restore the base's view.
        RebuildStoreBuckets(parsed, base);
        buckets_for_base_ = true;
    }
    Side &side = sides_[cand_];
    const int T = parsed.NumTiles();
    const int D = parsed.NumTensors();

    // Occupancy, rank_of and store buckets are patched from the base's.
    Window w;
    w.base = &base;
    w.patched = true;
    w.peak = base.report.peak_buffer;
    side.usage = base.usage;
    side.rank_of = base.rank_of;
    if (delta.kind == DlsaDelta::Kind::kFreePoint) {
        assert(delta.tensor >= 0 && delta.tensor < D);
        const DramTensor &t = parsed.tensors[delta.tensor];

        // Patch the occupancy array: a load lives in [Start, fixed_end),
        // a store in [first_use, End); only the slots between the old
        // and new endpoint change, by +/- the tensor's bytes.
        const TilePos lo =
            std::clamp<TilePos>(std::min(delta.old_point, delta.new_point),
                                0, T);
        const TilePos hi =
            std::clamp<TilePos>(std::max(delta.old_point, delta.new_point),
                                0, T);
        const bool grew = t.IsLoad() ? delta.new_point < delta.old_point
                                     : delta.new_point > delta.old_point;
        const Bytes signed_bytes = grew ? t.bytes : -t.bytes;
        for (TilePos s = lo; s < hi; ++s) side.usage[s] += signed_bytes;

        // Incremental peak: only [lo, hi) changed. Growth can only
        // raise the peak; shrinkage leaves it intact unless the base
        // peak could have sat inside the window (then rescan). Integer
        // max, so this is exact.
        if (lo >= hi) {
            w.known_avg = base.report.avg_buffer;
        } else {
            Bytes local = 0;
            for (TilePos s = lo; s < hi; ++s)
                local = std::max(local, side.usage[s]);
            if (grew) {
                w.peak = std::max(w.peak, local);
            } else if (w.peak <= local + t.bytes) {
                w.peak = 0;
                for (Bytes b : side.usage) w.peak = std::max(w.peak, b);
            }
        }

        if (t.IsLoad()) {
            // Only the load's own readiness changed: resume where the
            // base timeline issued it. Once the load is issued, no
            // remaining structure differs from the base.
            w.di0 = base.rank_of[delta.tensor];
            w.ci0 = base.ci_at_rank[w.di0];
            w.min_di = w.di0 + 1;
        } else {
            // The store now gates a different tile slot: resume at the
            // earlier of the two affected slots. End slots >= NumTiles
            // never gate a tile: the window is empty.
            ApplyStoreMove(delta.tensor, delta.old_point, delta.new_point);
            const TilePos tstar = std::min(delta.old_point, delta.new_point);
            if (tstar >= T) {
                w.ci0 = T;
                w.di0 = D;
            } else {
                w.ci0 = static_cast<int>(tstar);
                w.di0 = base.rank_at_tile[tstar];
                const TilePos tmax =
                    std::max(delta.old_point, delta.new_point);
                w.min_ci = static_cast<int>(tmax < T ? tmax : tstar) + 1;
            }
        }
    } else {  // kOrderMove
        assert(delta.from_rank >= 0 && delta.from_rank < D);
        assert(delta.to_rank >= 0 && delta.to_rank < D);
        const int rmin = std::min(delta.from_rank, delta.to_rank);
        const int rmax = std::max(delta.from_rank, delta.to_rank);
        for (int r = rmin; r <= rmax; ++r) side.rank_of[cand.order[r]] = r;
        w.di0 = rmin;
        w.ci0 = base.ci_at_rank[rmin];
        w.min_di = rmax + 1;
        // Free points (hence the whole buffer profile) are untouched.
        w.known_avg = base.report.avg_buffer;
    }
    return Simulate(hw, parsed, cand, buffer_budget, total_ops, w, &side);
}

const EvalReport &
EvalContext::EvaluateLfa(const Graph &graph, const HardwareConfig &hw,
                         const ParsedSchedule &parsed,
                         const DlsaEncoding &dlsa, Bytes buffer_budget,
                         Ops total_ops)
{
    RevertPendingStoreMove();
    if (!base_ok_ || &parsed != OwnCandParse() ||
        base_parsed_ != OwnBaseParse() || base_budget_ != buffer_budget ||
        base_ops_ != total_ops || !parsed.valid ||
        parsed.group_spans.empty() || base_parsed_->group_spans.empty()) {
        ++delta_stats_.full_fallbacks;
        return Evaluate(graph, hw, parsed, dlsa, buffer_budget, total_ops);
    }
    SOMA_PROF_SCOPE("eval.delta.lfa");

    const ParsedSchedule &bp = *base_parsed_;
    const Side &base = sides_[base_];
    const int T = parsed.NumTiles(), D = parsed.NumTensors();
    const int Tb = bp.NumTiles(), Db = bp.NumTensors();
    const int Dmin = std::min(D, Db);
    const bool same_shape = T == Tb && D == Db;

    // --- The structural window, from the stitch: groups with equal
    // spans (block state, offsets, cross-group decisions) hold equal
    // tiles and tensors. Candidate tiles [it0, it_end) and tensors
    // [j0, j_end) may differ; everything outside them is the base's. ---
    // Spans end with a closing span holding the totals.
    const std::vector<GroupSpan> &gc = parsed.group_spans;
    const std::vector<GroupSpan> &gb = bp.group_spans;
    const int Gc = static_cast<int>(gc.size()) - 1;
    const int Gb = static_cast<int>(gb.size()) - 1;
    auto same_group = [&](int c, int b) {
        return gc[c].stamp == gb[b].stamp &&
               gc[c].tile_begin == gb[b].tile_begin &&
               gc[c].tensor_begin == gb[b].tensor_begin &&
               std::equal(parsed.group_flags.begin() + gc[c].flags_begin,
                          parsed.group_flags.begin() + gc[c + 1].flags_begin,
                          bp.group_flags.begin() + gb[b].flags_begin,
                          bp.group_flags.begin() + gb[b + 1].flags_begin);
    };
    int g0 = 0;
    while (g0 < Gc && g0 < Gb && same_group(g0, g0)) ++g0;
    int gc_end = Gc, gb_end = Gb;
    if (same_shape) {
        while (gc_end > g0 && gb_end > g0 &&
               same_group(gc_end - 1, gb_end - 1)) {
            --gc_end;
            --gb_end;
        }
    }
    const int it0 = gc[g0].tile_begin;
    const int j0 = gc[g0].tensor_begin;
    const int it_end = gc[gc_end].tile_begin;
    const int j_end = gc[gc_end].tensor_begin;
    // Last tile slot that may differ (splice bound; -1: none).
    const int it_hi = same_shape && it_end > it0 ? it_end - 1 : -1;

    auto tensor_eq = [&](int j) {
        return j < Dmin && (j < j0 || (same_shape && j >= j_end)) &&
               dlsa.free_point[j] == base.free_point[j];
    };

    // Store gate slots whose membership can differ between the sides.
    int s_lo = std::numeric_limits<int>::max();
    int s_hi = -1;
    {
        const int Dmax = std::max(D, Db);
        for (int j = 0; j < Dmax; ++j) {
            if (tensor_eq(j)) continue;
            if (j < D && !parsed.tensors[j].IsLoad() &&
                dlsa.free_point[j] < T) {
                s_lo = std::min(s_lo, static_cast<int>(dlsa.free_point[j]));
                s_hi = std::max(s_hi, static_cast<int>(dlsa.free_point[j]));
            }
            if (j < Db && !bp.tensors[j].IsLoad() &&
                base.free_point[j] < Tb) {
                s_lo = std::min(s_lo, static_cast<int>(base.free_point[j]));
                s_hi = std::max(s_hi, static_cast<int>(base.free_point[j]));
            }
        }
    }

    // First/last rank where the issue structure differs.
    const int R = std::min(D, Db);
    int r_lo = R;
    for (int r = 0; r < R; ++r) {
        const int jc = dlsa.order[r];
        if (jc != base.order[r] || !tensor_eq(jc)) { r_lo = r; break; }
    }
    int last_bad = -1;
    if (same_shape && r_lo < D) {
        for (int r = D - 1; r >= r_lo; --r) {
            const int jc = dlsa.order[r];
            if (jc != base.order[r] || !tensor_eq(jc)) {
                last_bad = r;
                break;
            }
        }
    }

    // --- Resume point: the latest base checkpoint strictly before
    // anything the re-run could observe differently. An all-clean diff
    // (e.g. a DRAM-cut toggle that moves no tile or tensor) resumes
    // past the end: the window is empty. ---
    Window w;
    w.base = &base;
    if (same_shape && it0 == T && s_hi == -1 && r_lo == D) {
        w.ci0 = T;
        w.di0 = D;
    } else {
        // prev_ci(di) = compute position right after rank di-1 issued;
        // monotone in di, so the first hit from the top is the largest.
        // Strict '<': tile it_lim's gates are consulted by the compute
        // head's blocked checks while it sits at it_lim.
        const int it_lim = std::min(it0, s_lo);
        for (int di = r_lo; di >= 1; --di) {
            if (base.ci_at_rank[di - 1] < it_lim) {
                w.di0 = di;
                w.ci0 = base.ci_at_rank[di - 1];
                break;
            }
        }
        w.min_di = last_bad + 1;
        w.min_ci = std::max(it_hi, s_hi) + 1;
    }
    return Simulate(hw, parsed, dlsa, buffer_budget, total_ops, w,
                    &sides_[cand_]);
}

void
EvalContext::CrossCheckAgainstFull(const HardwareConfig &hw,
                                   const ParsedSchedule &parsed,
                                   const DlsaEncoding &dlsa,
                                   Bytes buffer_budget, Ops total_ops)
{
    // The reference is a full run into check_side_; it rebuilds the
    // store buckets for `dlsa`, which they already describe.
    const Side &got = sides_[cand_];
    const Side &ref = check_side_;
    Simulate(hw, parsed, dlsa, buffer_budget, total_ops, Window{},
             &check_side_);
    // The two-pointer bookkeeping (ci_at_rank / rank_at_tile) records
    // the traversal, which a resumed run may legally interleave
    // differently; every *value* must match bit-for-bit.
    if (!ReportsEqual(got.report, ref.report) ||
        got.tile_finish != ref.tile_finish ||
        got.tensor_finish != ref.tensor_finish || got.usage != ref.usage) {
        SOMA_ERROR << "delta evaluation diverged from full simulation: "
                   << "fast-path latency=" << got.report.latency
                   << " full latency=" << ref.report.latency
                   << " — windowed delta evaluator bug";
        std::abort();
    }
}

void
EvalContext::Commit()
{
    if (!cand_fresh_) return;
    std::swap(cand_, base_);
    cand_fresh_ = false;
    // The buckets describe the just-promoted base: a delta fast path
    // left them matching its candidate (any pending store move is now
    // permanent) and the full/LFA paths rebuilt them for it. An
    // over-budget candidate skips the rebuild, but it commits no usable
    // base: base_ok_ turns false below.
    pending_move_ = false;
    buckets_for_base_ = true;
    base_parsed_ = cand_parsed_;
    base_budget_ = cand_budget_;
    base_ops_ = cand_ops_;
    base_ok_ = sides_[base_].report.valid;
    // Candidate evaluated against the context-owned parse slot: flip
    // the double buffer so the next Parse leaves the base's parse (and
    // its hardware fill) intact.
    if (base_parsed_ == OwnCandParse()) std::swap(ps_cand_, ps_base_);
}

void
EvalContext::InvalidateBase()
{
    base_ok_ = false;
    cand_fresh_ = false;
    pending_move_ = false;
    buckets_for_base_ = false;
    base_parsed_ = nullptr;
    cand_parsed_ = nullptr;
}

}  // namespace soma

#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "baselines/cocco.h"
#include "common/rng.h"
#include "compiler/instruction_gen.h"
#include "compiler/ir.h"
#include "compiler/vm.h"
#include "corearray/core_array.h"
#include "hw/banked_dram.h"
#include "hw/memory_model.h"
#include "obs/prof.h"
#include "search/dlsa_heuristics.h"
#include "search/dlsa_stage.h"
#include "search/lfa_stage.h"
#include "search/soma.h"
#include "service/result_cache.h"
#include "sim/eval_context.h"
#include "sim/evaluator.h"
#include "sim/memory_validation.h"
#include "tiling/tiler.h"
#include "tiling/tiling_cache.h"
#include "workload/models.h"

namespace e2e {

using soma::Graph;
using soma::HardwareConfig;
using soma::Json;
using soma::ScheduleRequest;
using soma::obs::MonotonicNow;
using soma::obs::MonotonicTime;
using soma::obs::Tracer;

namespace {

/** Candidates per recorded chain (LFA chains cost a parse each). */
constexpr int kLfaChain = 48;
constexpr int kDlsaChain = 256;
/** Minimum calls behind each microsecond-scale API/service metric. */
constexpr int kMinApiCalls = 256;

double
Micros(MonotonicTime a, MonotonicTime b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Sum and count behind one metric. */
struct Acc {
    double sum = 0.0;
    double den = 0.0;
    long long samples = 0;
    void Add(double value, double weight = 1.0)
    {
        sum += value;
        den += weight;
        ++samples;
    }
    double Value() const { return den > 0.0 ? sum / den : 0.0; }
};

/** Time spent inside the program's hot-path prof sites, in
 *  microseconds, summed over the process. */
struct ProfTime {
    double parse = 0.0;     ///< parse.lfa, which contains the next two
    double tiling = 0.0;    ///< tiling.derive
    double tilecost = 0.0;  ///< tilecost.compute
    /** eval.full, eval.delta and eval.delta.lfa: every evaluator entry
     *  point. A DLSA delta that falls back to a full evaluation runs
     *  eval.full inside eval.delta and counts twice (those fallbacks
     *  are DeltaStats::full_fallbacks). */
    double eval = 0.0;
};

ProfTime
ProfNow()
{
    const std::vector<soma::obs::ProfEntry> snap = soma::obs::ProfSnapshot();
    auto us = [&](const char *site) {
        return static_cast<double>(soma::obs::ProfNanos(snap, site)) / 1e3;
    };
    return {us("parse.lfa"), us("tiling.derive"), us("tilecost.compute"),
            us("eval.full") + us("eval.delta") + us("eval.delta.lfa")};
}

class Replay {
  public:
    Replay(const ReplayInputs &in, Tracer *tracer) : in_(in), t_(tracer) {}

    bool Run(std::vector<Metric> *out, std::map<std::string, double> *shift,
             std::string *err);

  private:
    void ApiAndService(std::string *err);
    bool Point(const ScheduleRequest &request, std::string *err);
    void Put(const std::string &name, const Acc &acc, const char *unit,
             std::vector<Metric> *out) const
    {
        out->push_back({name, acc.Value(), unit, acc.samples});
    }

    /**
     * Times one call (or one loop of calls) as a span on the replay
     * tracer and returns its duration in microseconds: spans and metrics
     * come from the same two clock reads.
     */
    template <typename Fn>
    double Timed(const char *span, Fn &&fn)
    {
        const ProfTime before = ProfNow();
        const MonotonicTime start = MonotonicNow();
        fn();
        const MonotonicTime end = MonotonicNow();
        t_->AddComplete(span, start, end);
        Shift(LayerOf(span), before, ProfNow());
        return Micros(start, end);
    }

    void Shift(const std::string &layer, const ProfTime &before,
               const ProfTime &after);

    const ReplayInputs &in_;
    Tracer *const t_;
    std::map<std::string, Acc> acc_;
    std::map<std::string, double> shift_;  ///< self ms moved, by layer
};

/**
 * A span's self time includes the work of lower layers it called, which
 * the program records only in its prof sites. Move that work to its
 * layer: tiling.derive to tiling, tilecost.compute to corearray, the
 * rest of parse.lfa to notation and evaluation to sim. The replay runs
 * alone and its searches run inline (one driver thread), so the prof
 * totals a span encloses are exactly that span's.
 */
void
Replay::Shift(const std::string &layer, const ProfTime &before,
              const ProfTime &after)
{
    const double parse = after.parse - before.parse;
    const double tiling = after.tiling - before.tiling;
    const double tilecost = after.tilecost - before.tilecost;
    const std::pair<const char *, double> moves[] = {
        {"tiling", tiling},
        {"corearray", tilecost},
        {"notation", parse > 0.0 ? parse - tiling - tilecost : 0.0},
        {"sim", after.eval - before.eval},
    };
    for (const auto &[to, us] : moves) {
        if (layer == to || !(us > 0.0)) continue;
        shift_[layer] -= us / 1e3;
        shift_[to] += us / 1e3;
    }
}

void
Replay::ApiAndService(std::string *err)
{
    const MonotonicTime root = MonotonicNow();
    const Plan &plan = *in_.plan;
    const std::int64_t quality = plan.QualityPositions();
    std::vector<const PlannedRequest *> requests;
    for (std::int64_t i = 0; i < quality; ++i)
        requests.push_back(&plan.distinct[static_cast<std::size_t>(
            plan.At(i))]);
    const int reps =
        std::max(1, kMinApiCalls / static_cast<int>(requests.size()));

    // api: request decode and fingerprint.
    std::vector<ScheduleRequest> decoded(requests.size());
    double us = Timed("api.request_decode", [&] {
        for (int r = 0; r < reps; ++r) {
            for (std::size_t k = 0; k < requests.size(); ++k) {
                Json json;
                Json::Parse(requests[k]->json, &json, err);
                ScheduleRequest::FromJson(json, &decoded[k], err);
            }
        }
    });
    const double calls = static_cast<double>(reps * requests.size());
    acc_["api.request_decode_us"].Add(us, calls);
    std::uint64_t fold = 0;
    us = Timed("api.fingerprint", [&] {
        for (int r = 0; r < reps; ++r)
            for (const ScheduleRequest &q : decoded) fold ^= q.Fingerprint();
    });
    acc_["api.fingerprint_us"].Add(us, calls);

    // api: result decode (parse + FromJson, what a cache hit pays) and
    // encode (ToJson + Dump, what every fresh result pays).
    const std::vector<std::string> &texts = in_.result_texts;
    const int result_reps =
        std::max(1, kMinApiCalls / static_cast<int>(texts.size()));
    std::vector<soma::ScheduleResult> results(texts.size());
    us = Timed("api.result_decode", [&] {
        for (int r = 0; r < result_reps; ++r) {
            for (std::size_t k = 0; k < texts.size(); ++k) {
                Json json;
                Json::Parse(texts[k], &json, err);
                soma::ScheduleResult::FromJson(json, &results[k], err);
            }
        }
    });
    const double result_calls = static_cast<double>(result_reps * texts.size());
    acc_["api.result_decode_us"].Add(us, result_calls);
    std::size_t bytes = 0;
    us = Timed("api.result_encode", [&] {
        for (int r = 0; r < result_reps; ++r)
            for (const soma::ScheduleResult &res : results)
                bytes += res.ToJson().Dump(2).size();
    });
    acc_["api.result_encode_us"].Add(us, result_calls);

    // service: Schedule() on a result-cache hit (every quality request
    // already ran on this service).
    us = Timed("service.schedule_hit", [&] {
        for (int r = 0; r < reps; ++r)
            for (const PlannedRequest *p : requests)
                bytes += in_.service->Schedule(p->request).ok ? 1 : 0;
    });
    acc_["service.schedule_hit_us"].Add(us, calls);

    // service: ResultCache::Get served from the directory by a fresh
    // cache (the first lookup of each fingerprint after a restart).
    std::error_code ec;
    std::filesystem::remove_all(in_.probe_dir, ec);
    soma::ResultCache::Options copts;
    copts.persist_dir = in_.probe_dir;
    std::vector<std::uint64_t> fps;
    {
        soma::ResultCache writer(copts);
        for (std::size_t k = 0; k < texts.size(); ++k) {
            fps.push_back(decoded[k].Fingerprint());
            writer.Put(fps.back(), texts[k]);
        }
    }
    for (int r = 0; r < result_reps; ++r) {
        soma::ResultCache reader(copts);
        std::string text;
        us = Timed("service.result_cache.disk_get", [&] {
            for (std::uint64_t fp : fps) bytes += reader.Get(fp, &text);
        });
        acc_["service.result_cache.disk_hit_us"].Add(
            us, static_cast<double>(fps.size()));
    }
    t_->AddComplete("replay", root, MonotonicNow(),
                    {{"phase", Json::Str("api+service")},
                     {"checksum", Json::U64(fold ^ bytes)}});
}

bool
Replay::Point(const ScheduleRequest &request, std::string *err)
{
    const MonotonicTime root = MonotonicNow();
    HardwareConfig hw;
    if (!ResolveHardware(in_.service->scheduler(), request, &hw, err))
        return false;

    // workload
    Graph graph;
    double us = Timed("workload.build", [&] {
        graph = soma::BuildModelByName(request.model, request.batch);
    });
    acc_["workload.build_ms"].Add(us / 1e3);
    const soma::Ops ops = graph.TotalOps();

    // search: the full two-stage search, then its stages one by one.
    // Searches run inline (one driver thread; `threads` never changes
    // results), so their times are host CPU time and Shift sees only
    // their own prof totals.
    soma::SomaOptions soma_opts = soma::SomaOptionsForRequest(request);
    soma_opts.driver.threads = 1;
    const soma::SomaOptions opts = soma::PropagateSomaOptions(soma_opts);
    soma::SomaSearchResult soma_result;
    us = Timed("search.soma",
               [&] { soma_result = soma::RunSoma(graph, hw, opts); });
    acc_["search.soma_s"].Add(us / 1e6);
    acc_["search.alloc.outer_iterations"].Add(soma_result.outer_iterations);
    if (!soma_result.report.valid) {
        *err = request.model + ": RunSoma found no valid schedule";
        return false;
    }

    soma::CoreArrayEvaluator stage_eval(graph, hw);
    soma::Rng stage_rng(opts.seed);
    soma::LfaStageOptions lfa_opts = opts.lfa;
    lfa_opts.tiling_cache = std::make_shared<soma::TilingCache>();
    soma::LfaStageResult lfa;
    us = Timed("search.lfa", [&] {
        lfa = soma::RunLfaStage(graph, hw, stage_eval, hw.gbuf_bytes,
                                lfa_opts, stage_rng);
    });
    const soma::TilingCache::Stats tstats = lfa_opts.tiling_cache->stats();
    acc_["tiling.cache_hit_ratio"].Add(tstats.hits,
                                       tstats.hits + tstats.misses);
    acc_["search.lfa_s"].Add(us / 1e6);
    acc_["search.lfa.candidates_per_s"].Add(lfa.stats.evaluated, us / 1e6);
    acc_["search.lfa.evaluated_ratio"].Add(lfa.stats.evaluated,
                                           lfa.stats.iterations);
    if (!lfa.report.valid) {
        *err = request.model + ": RunLfaStage found no valid schedule";
        return false;
    }
    soma::DlsaStageResult dlsa;
    us = Timed("search.dlsa", [&] {
        dlsa = soma::RunDlsaStage(graph, hw, lfa.parsed, lfa.dlsa,
                                  hw.gbuf_bytes, opts.dlsa, stage_rng);
    });
    acc_["search.dlsa_s"].Add(us / 1e6);
    acc_["search.dlsa.candidates_per_s"].Add(dlsa.stats.evaluated, us / 1e6);

    // baselines
    soma::CoccoOptions cocco_opts = soma::CoccoOptionsForRequest(request);
    cocco_opts.driver.threads = 1;
    us = Timed("baselines.cocco",
               [&] { soma::RunCocco(graph, hw, cocco_opts); });
    acc_["baselines.cocco_s"].Add(us / 1e6);

    // Candidate chains, recorded before any of them is timed.
    std::vector<soma::LfaEncoding> lfa_chain;
    {
        soma::Rng rng(request.seed ^ 0x5eedULL);
        soma::LfaEncoding cur = lfa.lfa, next;
        for (int tries = 0; static_cast<int>(lfa_chain.size()) < kLfaChain &&
                            tries < 8 * kLfaChain;
             ++tries) {
            if (!soma::MutateLfaEncoding(graph, cur, &next,
                                         opts.lfa.tiling_cap, rng))
                continue;
            lfa_chain.push_back(next);
            cur = next;
        }
    }
    std::vector<std::pair<soma::DlsaEncoding, soma::DlsaDelta>> dlsa_chain;
    {
        soma::Rng rng(request.seed ^ 0xd15aULL);
        soma::DlsaMutator mutate(lfa.parsed);
        soma::DlsaEncoding cur = dlsa.dlsa, next;
        soma::DlsaDelta delta;
        for (int tries = 0;
             static_cast<int>(dlsa_chain.size()) < kDlsaChain &&
             tries < 8 * kDlsaChain;
             ++tries) {
            if (!mutate(cur, &next, rng, &delta)) continue;
            dlsa_chain.emplace_back(next, delta);
            cur = next;
        }
    }

    // notation + sim (LFA side): incremental parse and windowed LFA
    // evaluation along the chain, each candidate adopted as the base.
    soma::CoreArrayEvaluator chain_eval(graph, hw);
    soma::EvalContext lfa_ctx;
    lfa_ctx.set_tiling_cache(std::make_shared<soma::TilingCache>());
    soma::DlsaEncoding db;
    {
        const soma::ParsedSchedule &p =
            lfa_ctx.Parse(graph, lfa.lfa, chain_eval);
        soma::MakeDoubleBufferDlsaInto(p, &db);
        lfa_ctx.EvaluateLfa(graph, hw, p, db, hw.gbuf_bytes, ops);
        lfa_ctx.Commit();
    }
    for (const soma::LfaEncoding &cand : lfa_chain) {
        const soma::ParsedSchedule *p = nullptr;
        us = Timed("notation.parse", [&] {
            p = &lfa_ctx.Parse(graph, cand, chain_eval);
        });
        acc_["notation.parse_us"].Add(us);
        const soma::ParseScratch &scratch = lfa_ctx.parse_scratch();
        acc_["notation.dirty_group_share"].Add(
            scratch.last_dirty_groups,
            scratch.last_dirty_groups + scratch.last_clean_groups);
        if (!p->valid) continue;
        soma::MakeDoubleBufferDlsaInto(*p, &db);
        us = Timed("sim.eval_lfa", [&] {
            lfa_ctx.EvaluateLfa(graph, hw, *p, db, hw.gbuf_bytes, ops);
        });
        acc_["sim.eval_lfa_us"].Add(us);
        lfa_ctx.Commit();
    }
    for (const soma::LfaEncoding &cand : lfa_chain) {
        us = Timed("notation.parse_ref",
                   [&] { soma::ParseLfa(graph, cand, chain_eval); });
        acc_["notation.parse_ref_us"].Add(us);
    }

    // tiling: halo-propagated tiling of every fused group of the chain.
    int groups = 0;
    us = Timed("tiling.derive", [&] {
        for (const soma::LfaEncoding &cand : lfa_chain) {
            for (int g = 0; g < cand.NumFlgs(); ++g, ++groups)
                soma::ComputeFlgTiling(graph, cand.FlgLayers(g),
                                       cand.tiling[g]);
        }
    });
    acc_["tiling.derive_us"].Add(us, groups);

    // corearray: every tile of the stage result on a cold memo.
    {
        soma::CoreArrayEvaluator cold(graph, hw);
        const auto &tiles = lfa.parsed.tiles;
        us = Timed("corearray.tile_cost", [&] {
            for (const soma::TileInfo &tile : tiles)
                cold.Evaluate(tile.layer, tile.region);
        });
        acc_["corearray.tile_cost_us"].Add(us, tiles.size());
    }

    // sim (DLSA side): windowed delta evaluation along the DLSA chain,
    // and full evaluations of its first candidates.
    soma::EvalContext dlsa_ctx;
    dlsa_ctx.Evaluate(graph, hw, lfa.parsed, dlsa.dlsa, hw.gbuf_bytes, ops);
    dlsa_ctx.Commit();
    us = Timed("sim.eval_dlsa", [&] {
        for (const auto &[cand, delta] : dlsa_chain) {
            dlsa_ctx.EvaluateDelta(graph, hw, lfa.parsed, cand, delta,
                                   hw.gbuf_bytes, ops);
            dlsa_ctx.Commit();
        }
    });
    acc_["sim.eval_dlsa_us"].Add(us, dlsa_chain.size());
    const std::size_t full = std::min<std::size_t>(dlsa_chain.size(), 16);
    us = Timed("sim.eval_full", [&] {
        for (std::size_t k = 0; k < full; ++k)
            soma::EvaluateSchedule(graph, hw, lfa.parsed,
                                   dlsa_chain[k].first, hw.gbuf_bytes, ops);
    });
    acc_["sim.eval_full_us"].Add(us, full);
    for (const soma::EvalContext *ctx : {&lfa_ctx, &dlsa_ctx}) {
        const auto &ds = ctx->delta_stats();
        acc_["sim.windowed_share"].Add(ds.windowed_runs, ds.delta_evals);
        acc_["sim.splice_share"].Add(ds.splices, ds.delta_evals);
    }

    // hw: the memory-model seam over the final tensor list, and the
    // banked replay of the final schedule.
    std::vector<soma::Bytes> bytes;
    std::vector<unsigned char> is_load;
    for (const soma::DramTensor &t : soma_result.parsed.tensors) {
        bytes.push_back(t.bytes);
        is_load.push_back(t.IsLoad() ? 1 : 0);
    }
    soma::DramTransferList list;
    list.bytes = bytes.data();
    list.is_load = is_load.data();
    list.count = static_cast<int>(bytes.size());
    std::vector<double> seconds;
    constexpr int kFillReps = 32;
    us = Timed("hw.transfer_fill.analytical", [&] {
        for (int r = 0; r < kFillReps; ++r)
            soma::AnalyticalMemoryModel().FillTransferSeconds(hw, list,
                                                              &seconds);
    });
    acc_["hw.transfer_fill_us.analytical"].Add(us, kFillReps);
    us = Timed("hw.transfer_fill.banked", [&] {
        for (int r = 0; r < kFillReps; ++r)
            soma::BankedMemoryModel().FillTransferSeconds(hw, list,
                                                          &seconds);
    });
    acc_["hw.transfer_fill_us.banked"].Add(us, kFillReps);
    soma::MemoryValidationResult mv;
    us = Timed("hw.validate", [&] {
        mv = soma::ValidateMemoryTiming(graph, hw, soma_result.parsed,
                                        soma_result.dlsa);
    });
    acc_["hw.validate_ms"].Add(us / 1e3);
    acc_["hw.row_hit_ratio"].Add(
        static_cast<double>(mv.replay.row_hits),
        static_cast<double>(mv.replay.transactions));

    // compiler: IR, instruction stream, VM replay of the final schedule.
    soma::IrModule ir;
    us = Timed("compiler.ir", [&] {
        ir = soma::GenerateIr(graph, soma_result.parsed, soma_result.dlsa);
    });
    acc_["compiler.ir_ms"].Add(us / 1e3);
    us = Timed("compiler.instructions",
               [&] { soma::GenerateInstructions(ir); });
    acc_["compiler.instructions_ms"].Add(us / 1e3);
    us = Timed("compiler.vm", [&] { soma::ExecuteIr(ir, hw); });
    acc_["compiler.vm_ms"].Add(us / 1e3);

    t_->AddComplete("replay", root, MonotonicNow(),
                    {{"model", Json::Str(request.model)},
                     {"hardware", Json::Str(request.hardware)}});
    return true;
}

bool
Replay::Run(std::vector<Metric> *out, std::map<std::string, double> *shift,
            std::string *err)
{
    ApiAndService(err);
    // One replay per distinct (model, hardware) point, with the first
    // quality request's options for that point.
    const Plan &plan = *in_.plan;
    std::set<std::string> seen;
    for (std::int64_t i = 0; i < plan.QualityPositions(); ++i) {
        const ScheduleRequest &r =
            plan.distinct[static_cast<std::size_t>(plan.At(i))].request;
        if (!seen.insert(r.model + "/" + r.hardware).second) continue;
        if (!Point(r, err)) return false;
    }

    static const std::pair<const char *, const char *> kUnits[] = {
        {"service.schedule_hit_us", "us"},
        {"service.result_cache.disk_hit_us", "us"},
        {"api.request_decode_us", "us"},
        {"api.fingerprint_us", "us"},
        {"api.result_decode_us", "us"},
        {"api.result_encode_us", "us"},
        {"workload.build_ms", "ms"},
        {"search.soma_s", "s"},
        {"search.lfa_s", "s"},
        {"search.dlsa_s", "s"},
        {"search.lfa.candidates_per_s", "1/s"},
        {"search.dlsa.candidates_per_s", "1/s"},
        {"search.lfa.evaluated_ratio", "ratio"},
        {"search.alloc.outer_iterations", "count"},
        {"baselines.cocco_s", "s"},
        {"notation.parse_us", "us"},
        {"notation.parse_ref_us", "us"},
        {"notation.dirty_group_share", "ratio"},
        {"tiling.derive_us", "us"},
        {"tiling.cache_hit_ratio", "ratio"},
        {"corearray.tile_cost_us", "us"},
        {"sim.eval_lfa_us", "us"},
        {"sim.eval_dlsa_us", "us"},
        {"sim.eval_full_us", "us"},
        {"sim.windowed_share", "ratio"},
        {"sim.splice_share", "ratio"},
        {"hw.transfer_fill_us.analytical", "us"},
        {"hw.transfer_fill_us.banked", "us"},
        {"hw.validate_ms", "ms"},
        {"hw.row_hit_ratio", "ratio"},
        {"compiler.ir_ms", "ms"},
        {"compiler.instructions_ms", "ms"},
        {"compiler.vm_ms", "ms"},
    };
    for (const auto &[name, unit] : kUnits) Put(name, acc_[name], unit, out);
    *shift = shift_;
    return true;
}

}  // namespace

bool
ResolveHardware(soma::Scheduler &scheduler, const ScheduleRequest &request,
                HardwareConfig *hw, std::string *err)
{
    if (!scheduler.hardware().Make(request.hardware, hw, err)) return false;
    if (request.gbuf_bytes > 0) hw->gbuf_bytes = request.gbuf_bytes;
    if (request.dram_gbps > 0) hw->dram_gbps = request.dram_gbps;
    if (!request.memory_model.empty()) {
        const soma::MemoryModel *mm =
            scheduler.memory_models().Find(request.memory_model, err);
        if (!mm) return false;
        hw->memory_model = mm;
    }
    return true;
}

bool
ReplayLayers(const ReplayInputs &in, Tracer *tracer, std::vector<Metric> *out,
             std::map<std::string, double> *self_shift_ms, std::string *err)
{
    const soma::obs::ProfEnableScope prof;
    Replay replay(in, tracer);
    return replay.Run(out, self_shift_ms, err);
}

std::vector<SpanEvent>
EventsOf(const Tracer &tracer, MonotonicTime t0, std::int64_t request)
{
    const double offset = Micros(t0, tracer.t0());
    std::vector<SpanEvent> out;
    const Json json = tracer.ToJson();
    const Json *events = json.Find("traceEvents");
    if (!events) return out;
    for (const Json &e : events->array_items()) {
        SpanEvent s;
        s.name = e.Find("name")->AsString();
        s.tid = static_cast<int>(e.Find("tid")->AsInt());
        s.ts_us = e.Find("ts")->AsDouble() + offset;
        s.dur_us = e.Find("dur")->AsDouble();
        const Json *args = e.Find("args");
        s.aggregate = args && args->Find("calls") != nullptr;
        s.request = request;
        out.push_back(std::move(s));
    }
    return out;
}

std::string
LayerOf(const std::string &name)
{
    // Program-side span names (src/api, src/search, src/service) onto
    // the module that does the work.
    static const std::pair<const char *, const char *> kProgram[] = {
        {"request", "service"},
        {"pipeline.build", "workload"},
        {"pipeline.search", "search"},
        {"pipeline.artifacts", "compiler"},
        {"pipeline.validate_memory", "hw"},
        {"lfa.", "search"},
        {"dlsa.", "search"},
        {"alloc.", "search"},
        {"sa.", "search"},
        {"parse.", "notation"},
        {"tilecost.", "corearray"},
        {"eval.", "sim"},
    };
    for (const auto &[prefix, layer] : kProgram) {
        if (name.compare(0, std::char_traits<char>::length(prefix), prefix) ==
            0)
            return layer;
    }
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

std::map<std::string, double>
SelfTimeMs(const std::vector<SpanEvent> &events, const std::vector<int> &tids)
{
    // Per (request, thread): sort by start (longest first on ties) and
    // walk with a stack of open spans; a span's self time is its
    // duration minus its direct children's durations.
    std::map<std::pair<std::int64_t, int>, std::vector<const SpanEvent *>>
        lanes;
    for (const SpanEvent &e : events) {
        if (e.aggregate) continue;
        if (!tids.empty() &&
            std::find(tids.begin(), tids.end(), e.tid) == tids.end())
            continue;
        lanes[{e.request, e.tid}].push_back(&e);
    }
    std::map<std::string, double> self;
    for (auto &[lane, spans] : lanes) {
        std::sort(spans.begin(), spans.end(),
                  [](const SpanEvent *a, const SpanEvent *b) {
                      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                      return a->dur_us > b->dur_us;
                  });
        std::vector<std::pair<const SpanEvent *, double>> stack;
        auto close = [&] {
            self[LayerOf(stack.back().first->name)] +=
                (stack.back().first->dur_us - stack.back().second) / 1e3;
            stack.pop_back();
        };
        for (const SpanEvent *e : spans) {
            while (!stack.empty() &&
                   e->ts_us >= stack.back().first->ts_us +
                                   stack.back().first->dur_us)
                close();
            if (!stack.empty()) stack.back().second += e->dur_us;
            stack.emplace_back(e, 0.0);
        }
        while (!stack.empty()) close();
    }
    return self;
}

Json
ChromeTrace(const std::vector<SpanEvent> &events)
{
    Json list = Json::Array();
    for (const SpanEvent &e : events) {
        Json row = Json::Object();
        row.Set("name", Json::Str(e.name));
        row.Set("ph", Json::Str("X"));
        row.Set("ts", Json::Number(e.ts_us));
        row.Set("dur", Json::Number(e.dur_us));
        row.Set("pid", Json::Int(e.request >= 0 ? 1 : 2));
        row.Set("tid", Json::Int(e.tid));
        if (e.request >= 0) {
            Json args = Json::Object();
            args.Set("req", Json::Int(e.request));
            row.Set("args", std::move(args));
        }
        list.Append(std::move(row));
    }
    Json out = Json::Object();
    out.Set("traceEvents", std::move(list));
    return out;
}

}  // namespace e2e

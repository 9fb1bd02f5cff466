/**
 * @file
 * e2e_loadgen — drives one workload's generated request mix through
 * SchedulerService::Schedule, checks the results, and prints every
 * metric by name. e2ebench/run.py builds it and adds crash accounting;
 * the flags below are what run.py passes:
 *
 *   e2e_loadgen --workload NAME --seed N --seconds S --trace 0|1
 *               --state-dir DIR --scoreboard FILE
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * runs the quality rounds untraced and then traced (for the tracing
 * overhead and the traced/untraced byte check), replays every layer
 * through its public functions, and reports the per-layer metrics.
 * The last stdout line is the result JSON.
 */
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/request.h"
#include "common/hash.h"
#include "common/json.h"
#include "compiler/ir.h"
#include "compiler/vm.h"
#include "layers.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "service/service.h"
#include "sim/evaluator.h"
#include "util.h"
#include "workloads.h"

namespace e2e {
namespace {

using soma::Json;
using soma::ScheduleRequest;
using soma::ScheduleResult;
using soma::SchedulerService;
using soma::obs::MonotonicNow;
using soma::obs::MonotonicTime;
using soma::obs::SecondsSince;

/**
 * Set-ups per run: two windows, one before and one after the measured
 * pass, each of at least kSetupRepeats set-ups spread over at least
 * kSetupSeconds. setup_s is their trimmed mean, not their median: on a
 * shared host the set-up time switches between two levels (~0.7 and
 * ~1.0 ms on llm-prefill) in phases of a second or two, so a median
 * jumps between the levels with the phase a run happens to start in,
 * while a mean over two windows a measured pass apart follows the mix
 * of phases.
 */
constexpr int kSetupRepeats = 4;
constexpr double kSetupSeconds = 1.5;
/** cache-replay traced/untraced passes: fixed request count. */
constexpr std::int64_t kReplayTracePassRequests = 20000;

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

struct Options {
    WorkloadKind workload = WorkloadKind::kLlmPrefill;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string state_dir;
    std::string scoreboard;
};

bool
ParseArgs(int argc, char **argv, Options *o, std::string *err)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            *err = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!ParseWorkload(value, &o->workload)) {
                *err = "unknown workload '" + value +
                       "' (llm-prefill, cnn-sweep, cache-replay)";
                return false;
            }
            have_workload = true;
        } else if (flag == "--seed") {
            o->seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o->seconds = std::strtod(value.c_str(), &end);
            if (!(o->seconds > 0.0 && o->seconds <= 600.0)) {
                *err = "--seconds must be in (0, 600]";
                return false;
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                *err = "--trace must be 0 or 1";
                return false;
            }
            o->trace = value == "1";
        } else if (flag == "--state-dir") {
            o->state_dir = value;
        } else if (flag == "--scoreboard") {
            o->scoreboard = value;
        } else {
            *err = "unknown flag " + flag;
            return false;
        }
        if (end && *end != '\0') {
            *err = "malformed number for " + flag + ": " + value;
            return false;
        }
    }
    if (!have_workload) *err = "--workload is required";
    if (o->state_dir.empty()) *err = "--state-dir is required";
    if (o->scoreboard.empty()) *err = "--scoreboard is required";
    return err->empty();
}

/** Result bytes without the wall-clock `stats` section, hashed. */
std::string
StatelessDigest(const std::string &text)
{
    Json json;
    std::string err;
    if (!Json::Parse(text, &json, &err)) return "unparsable";
    json.Erase("stats");
    return soma::HexU64(soma::Fnv1a64(json.Dump()));
}

std::string
Exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ------------------------------------------------------------ set-up

struct Setup {
    Plan plan;
    std::unique_ptr<SchedulerService> service;
    /** cache-replay: the bytes the original uncached run of each
     *  distinct request produced. */
    std::vector<std::string> fill_text;
    double seconds = 0.0;
};

/**
 * The program's work before the first timed request, on @p s->plan as
 * generated: decoding every request from its wire form, service
 * construction and (cache-replay) filling the result cache's directory
 * from scratch with one real search per fingerprint. Generating the
 * wire forms is the benchmark's own work and is not timed.
 */
bool
DoSetup(const Options &o, Scoreboard &board, Setup *s, std::string *err)
{
    const MonotonicTime t0 = MonotonicNow();
    s->fill_text.clear();
    s->service.reset();
    if (!DecodePlan(&s->plan, err)) return false;
    soma::ServiceOptions so;
    if (o.workload == WorkloadKind::kCacheReplay) {
        so.cache_dir = o.state_dir + "/result-cache";
        std::error_code ec;
        std::filesystem::remove_all(so.cache_dir, ec);
        SchedulerService fill(so);
        const int slot = s->plan.clients;  // the set-up's own slot
        for (const PlannedRequest &p : s->plan.distinct) {
            std::string text;
            board.Started(slot);
            const ScheduleResult r = fill.Schedule(p.request, &text);
            board.Completed(slot, r.ok);
            if (!r.ok) {
                *err = "cache fill failed for " + p.json + ": " + r.error;
                return false;
            }
            s->fill_text.push_back(std::move(text));
        }
    }
    s->service = std::make_unique<SchedulerService>(so);
    s->seconds = SecondsSince(t0);
    return true;
}

// ------------------------------------------------------------ checks

struct Checks {
    std::vector<std::string> failures;
    long long report_checks = 0;
    long long vm_checks = 0;
    long long hit_checks = 0;

    void Fail(std::string why) { failures.push_back(std::move(why)); }
    void Merge(const Checks &o)
    {
        failures.insert(failures.end(), o.failures.begin(), o.failures.end());
        report_checks += o.report_checks;
        vm_checks += o.vm_checks;
        hit_checks += o.hit_checks;
    }
};

/**
 * Per-result checks, run by the client right after the request
 * returned (outside its timed latency). A fresh result's report equals
 * a from-scratch EvaluateSchedule of the returned parse and DLSA, bit
 * for bit, and an artifact request replays on the instruction VM within
 * 1e-6 of the reported latency. A cache-replay hit carries exactly the
 * bytes of the original uncached run.
 */
void
CheckResult(const Setup &setup, int distinct, std::int64_t position,
            const ScheduleResult &r, const std::string &text, Checks *checks)
{
    const std::string where = "position " + std::to_string(position);
    if (!setup.fill_text.empty()) {
        ++checks->hit_checks;
        if (text != setup.fill_text[static_cast<std::size_t>(distinct)])
            checks->Fail(where + ": cache hit differs from the original "
                                 "bytes");
    }
    if (!r.ok || !r.graph) return;  // failed, or served from a cache
    const ScheduleRequest &request =
        setup.plan.distinct[static_cast<std::size_t>(distinct)].request;
    soma::HardwareConfig hw;
    std::string err;
    if (!ResolveHardware(setup.service->scheduler(), request, &hw, &err)) {
        checks->Fail(where + ": " + err);
        return;
    }
    const soma::EvalReport ref =
        soma::EvaluateSchedule(*r.graph, hw, r.parsed, r.dlsa, hw.gbuf_bytes,
                               r.graph->TotalOps());
    bool same = soma::ReportToJson(ref).Dump() ==
                soma::ReportToJson(r.report).Dump();
    same = same && ref.tile_times.size() == r.report.tile_times.size() &&
           ref.tensor_times.size() == r.report.tensor_times.size();
    for (std::size_t k = 0; same && k < ref.tile_times.size(); ++k) {
        same = ref.tile_times[k].start == r.report.tile_times[k].start &&
               ref.tile_times[k].finish == r.report.tile_times[k].finish;
    }
    for (std::size_t k = 0; same && k < ref.tensor_times.size(); ++k) {
        same = ref.tensor_times[k].start == r.report.tensor_times[k].start &&
               ref.tensor_times[k].finish == r.report.tensor_times[k].finish;
    }
    ++checks->report_checks;
    if (!same) checks->Fail(where + ": report differs from EvaluateSchedule");

    if (request.artifacts.instructions) {
        ++checks->vm_checks;
        const soma::IrModule ir = soma::GenerateIr(*r.graph, r.parsed, r.dlsa);
        const soma::VmResult vm = soma::ExecuteIr(ir, hw);
        const double rel =
            std::abs(vm.makespan - r.report.latency) / r.report.latency;
        if (!vm.ok || !(rel <= 1e-6) || r.asm_text.empty() ||
            r.num_instructions != r.num_loads + r.num_stores + r.num_computes)
            checks->Fail(where + ": VM makespan off by " + Exact(rel) + " (" +
                         vm.error + ")");
    }
}

// ----------------------------------------------------------- a pass

/**
 * Latency samples kept per client: a fixed, pre-touched ring holding
 * the most recent successful requests, so the benchmark's own memory
 * does not grow with throughput (peak_rss_mb measures the program).
 * Only cache-replay ever wraps it.
 */
constexpr std::size_t kLatencyRing = std::size_t{1} << 16;

/** Request outcomes of one client or one pass. */
struct Tally {
    std::vector<float> latency_s;  ///< successful requests only
    std::size_t ok = 0;            ///< successful requests, all of them
    long long attempted = 0;
    long long failed = 0;
    long long fresh = 0;      ///< a search ran (not a cache hit)
    long long evaluated = 0;  ///< stats.evaluated over fresh searches

    Tally() : latency_s(kLatencyRing, 0.0f) {}

    void AddLatency(double seconds)
    {
        latency_s[ok++ % kLatencyRing] = static_cast<float>(seconds);
    }
    void Merge(const Tally &o)
    {
        latency_s.resize(std::min(ok, latency_s.size()));
        latency_s.insert(latency_s.end(), o.latency_s.begin(),
                         o.latency_s.begin() +
                             static_cast<std::ptrdiff_t>(
                                 std::min(o.ok, o.latency_s.size())));
        ok += o.ok;
        attempted += o.attempted;
        failed += o.failed;
        fresh += o.fresh;
        evaluated += o.evaluated;
    }
    std::vector<double> Latencies() const
    {
        return std::vector<double>(
            latency_s.begin(),
            latency_s.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(ok, latency_s.size())));
    }
};

/** What the quality metrics need from one result (the benchmark keeps
 *  no schedules, so its own memory stays out of peak_rss_mb). */
struct QualityRow {
    bool ok = false;
    double latency = 0.0;
    double energy = 0.0;
    std::string point;  ///< model/hardware/memory model/seed
    std::string scheduler;
};

QualityRow
RowOf(const ScheduleResult &r)
{
    QualityRow row;
    row.ok = r.ok;
    row.latency = r.report.latency;
    row.energy = r.report.EnergyJ();
    row.point = r.model + "/" + r.hardware + "/" + r.memory_model + "/" +
                std::to_string(r.seed);
    row.scheduler = r.scheduler;
    return row;
}

struct PassLimits {
    double seconds = 0.0;            ///< measure at least this long...
    std::int64_t min_positions = 0;  ///< ...and at least this many
    std::int64_t max_positions = 0;  ///< hard stop (0: none)
};

struct PassResult {
    double wall_s = 0.0;
    Tally tally;
    std::map<std::int64_t, QualityRow> quality;         ///< by position
    std::map<std::int64_t, std::string> quality_text;   ///< by position
    Checks checks;
    std::vector<SpanEvent> spans;  ///< traced passes only
    std::vector<int> client_tids;  ///< trace tids of the client threads
    soma::ServiceStats stats;
    /** Peak RSS when the quality rounds had completed: a fixed amount
     *  of work, unlike the whole run, whose length follows throughput
     *  (the caches grow with every search). */
    double quality_peak_rss_mb = 0.0;
};

struct ClientLog {
    Tally tally;
    std::vector<std::pair<std::int64_t, QualityRow>> quality;
    std::vector<std::pair<std::int64_t, std::string>> quality_text;
    Checks checks;
    /** Traced passes: each request's tracer, flattened after the pass
     *  so the flattening does not count as tracing overhead. */
    std::vector<std::pair<std::int64_t, std::unique_ptr<soma::obs::Tracer>>>
        tracers;
    int tid = -1;
};

/**
 * Closed loop: every client takes the next stream position, sends it,
 * waits for the result, and repeats. Clients stop at the first round
 * boundary after both limits are met, so a pass always covers whole
 * rounds of the mix.
 */
PassResult
RunPass(const Setup &setup, const PassLimits &limits, bool traced,
        Scoreboard &board)
{
    const Plan &plan = setup.plan;
    SchedulerService &service = *setup.service;
    const std::int64_t quality = plan.QualityPositions();
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> quality_done{0};
    std::atomic<double> quality_rss{0.0};
    std::vector<ClientLog> logs(static_cast<std::size_t>(plan.clients));
    const MonotonicTime t0 = MonotonicNow();

    auto stop_at = [&](std::int64_t i) {
        if (plan.At(i) < 0) return true;
        if (limits.max_positions > 0 && i >= limits.max_positions)
            return true;
        return i >= limits.min_positions && i % plan.round_size == 0 &&
               SecondsSince(t0) >= limits.seconds;
    };

    auto client = [&](int slot) {
        ClientLog &log = logs[static_cast<std::size_t>(slot)];
        log.tid = soma::obs::CurrentTraceTid();
        std::string text;
        for (;;) {
            std::int64_t i = next.load(std::memory_order_relaxed);
            do {
                if (stop_at(i)) return;
            } while (!next.compare_exchange_weak(i, i + 1));
            const int distinct = plan.At(i);
            const PlannedRequest &p =
                plan.distinct[static_cast<std::size_t>(distinct)];

            std::unique_ptr<soma::obs::Tracer> tracer;
            ScheduleRequest traced_request;
            const ScheduleRequest *request = &p.request;
            if (traced) {
                tracer = std::make_unique<soma::obs::Tracer>();
                traced_request = p.request;
                traced_request.trace = tracer.get();
                request = &traced_request;
            }
            board.Started(slot);
            const MonotonicTime start = MonotonicNow();
            ScheduleResult r;
            {
                soma::obs::SpanScope root(tracer.get(), "request");
                r = service.Schedule(*request, &text);
            }
            const double latency = SecondsSince(start);
            board.Completed(slot, r.ok);
            Tally &t = log.tally;
            ++t.attempted;
            if (r.ok && !r.deadline_expired) {
                t.AddLatency(latency);
            } else {
                ++t.failed;
            }
            if (r.graph) {
                ++t.fresh;
                t.evaluated += r.stats.evaluated;
            }
            CheckResult(setup, distinct, i, r, text, &log.checks);
            if (i < quality) {
                log.quality_text.emplace_back(i, text);
                log.quality.emplace_back(i, RowOf(r));
                if (quality_done.fetch_add(1) + 1 == quality)
                    quality_rss.store(PeakRssMb());
            }
            if (tracer) log.tracers.emplace_back(i, std::move(tracer));
        }
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < plan.clients; ++c) threads.emplace_back(client, c);
    for (std::thread &t : threads) t.join();

    PassResult out;
    out.wall_s = SecondsSince(t0);
    for (ClientLog &log : logs) {
        out.tally.Merge(log.tally);
        for (auto &q : log.quality) out.quality.emplace(q.first,
                                                        std::move(q.second));
        for (auto &q : log.quality_text)
            out.quality_text.emplace(q.first, std::move(q.second));
        out.checks.Merge(log.checks);
        for (const auto &[position, tracer] : log.tracers) {
            const std::vector<SpanEvent> ev = EventsOf(*tracer, t0, position);
            out.spans.insert(out.spans.end(), ev.begin(), ev.end());
        }
        out.client_tids.push_back(log.tid);
    }
    out.stats = service.stats();
    out.quality_peak_rss_mb = quality_rss.load();
    return out;
}

// ---------------------------------------------------------- quality

struct Quality {
    double sim_latency = 0.0;
    double sim_energy = 0.0;
    double speedup_vs_cocco = 0.0;  ///< 0: no matched points
    int results = 0;
    int matched = 0;
    std::vector<std::string> digests;  ///< by position
};

Quality
QualityOf(const PassResult &pass)
{
    Quality q;
    std::vector<double> lat, energy;
    // (model, hw, memory model, seed) -> {soma latency, cocco latency}
    std::map<std::string, std::pair<double, double>> matched;
    for (const auto &[position, r] : pass.quality) {
        q.digests.push_back(StatelessDigest(pass.quality_text.at(position)));
        if (!r.ok) continue;
        lat.push_back(r.latency);
        energy.push_back(r.energy);
        if (r.scheduler == "soma") matched[r.point].first = r.latency;
        if (r.scheduler == "cocco") matched[r.point].second = r.latency;
    }
    q.results = static_cast<int>(lat.size());
    q.sim_latency = Geomean(lat);
    q.sim_energy = Geomean(energy);
    std::vector<double> ratios;
    for (const auto &m : matched) {
        if (m.second.first > 0.0 && m.second.second > 0.0)
            ratios.push_back(m.second.second / m.second.first);
    }
    q.matched = static_cast<int>(ratios.size());
    q.speedup_vs_cocco = Geomean(ratios);
    return q;
}

/** The quality positions whose digests differ, each with its request
 *  ("position:scheduler/model/hardware/memory model"), or " sim
 *  metrics only". */
std::string
Changed(const Plan &plan, const std::vector<std::string> &was,
        const std::vector<std::string> &now)
{
    std::string out;
    for (std::size_t k = 0; k < now.size(); ++k) {
        if (k < was.size() && was[k] == now[k]) continue;
        const ScheduleRequest &r =
            plan.distinct[static_cast<std::size_t>(
                              plan.At(static_cast<std::int64_t>(k)))]
                .request;
        out += " " + std::to_string(k) + ":" + r.scheduler + "/" + r.model +
               "/" + r.hardware + "/" + r.memory_model;
    }
    return out.empty() ? " sim metrics only" : out;
}

/**
 * Repeatability across runs of one workload seed: the first run of a
 * build in a state directory records the quality digests and sim
 * metrics; every later run of that build, traced or not, must
 * reproduce them exactly. Records are keyed by a digest of this binary,
 * so runs of another build (which may change results on purpose) never
 * compare against them.
 */
void
CheckRecord(const Options &o, const Plan &plan, const Quality &q,
            Checks *checks)
{
    Json record = Json::Object();
    Json digests = Json::Array();
    for (const std::string &d : q.digests) digests.Append(Json::Str(d));
    record.Set("digests", std::move(digests));
    record.Set("sim_latency_geomean_s", Json::Str(Exact(q.sim_latency)));
    record.Set("sim_energy_geomean_j", Json::Str(Exact(q.sim_energy)));
    record.Set("speedup_vs_cocco", Json::Str(Exact(q.speedup_vs_cocco)));
    const std::string text = record.Dump(1);
    const std::string path = o.state_dir + "/record-" + BuildDigest() + "-" +
                             WorkloadName(o.workload) + "-" +
                             std::to_string(o.seed) + ".json";
    std::ifstream in(path);
    if (in) {
        std::stringstream prev;
        prev << in.rdbuf();
        if (prev.str() == text) return;
        std::vector<std::string> was;
        Json old;
        std::string err;
        if (Json::Parse(prev.str(), &old, &err) && old.Find("digests")) {
            for (const Json &d : old.Find("digests")->array_items())
                was.push_back(d.AsString());
        }
        checks->Fail("results differ from an earlier run of this seed (" +
                     path + ") at" + Changed(plan, was, q.digests));
        return;
    }
    std::ofstream(path) << text;
}

// ------------------------------------------------------------ output

void
PrintMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics) {
        std::printf("  %-36s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
}

/** What was run, where, built how. */
Json
RunRecord(const Options &o)
{
    utsname u{};
    uname(&u);
    Json machine = Json::Object();
    machine.Set("nproc", Json::Int(Nproc()));
    machine.Set("compiler", Json::Str(E2E_COMPILER));
    machine.Set("build_type", Json::Str(E2E_BUILD_TYPE));
    machine.Set("build_digest", Json::Str(BuildDigest()));
    machine.Set("kernel", Json::Str(std::string(u.sysname) + " " + u.release +
                                    " " + u.machine));
    Json record = Json::Object();
    record.Set("workload", Json::Str(WorkloadName(o.workload)));
    record.Set("seed", Json::U64(o.seed));
    record.Set("trace", Json::Int(o.trace ? 1 : 0));
    record.Set("seconds", Json::Number(o.seconds));
    record.Set("machine", std::move(machine));
    return record;
}

/** Keep the run record, with every metric and its sample count, in
 *  <state-dir>/runs/. */
void
SaveRunRecord(const Options &o, const std::vector<Metric> &metrics,
              const Checks &checks)
{
    Json record = RunRecord(o);
    Json list = Json::Array();
    for (const Metric &m : metrics) {
        Json row = Json::Object();
        row.Set("name", Json::Str(m.name));
        row.Set("value", Json::Number(m.value));
        row.Set("unit", Json::Str(m.unit));
        row.Set("samples", Json::Int(m.samples));
        list.Append(std::move(row));
    }
    record.Set("metrics", std::move(list));
    record.Set("check_failures",
               Json::Int(static_cast<std::int64_t>(checks.failures.size())));
    const std::string dir = o.state_dir + "/runs";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream(dir + "/" + WorkloadName(o.workload) + "-" +
                  std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0") +
                  ".json")
        << record.Dump(1) << "\n";
}

void
PrintResult(bool correct, long long attempted, long long failed,
            const std::vector<Metric> &metrics)
{
    Json m = Json::Object();
    for (const Metric &x : metrics) {
        Json v = Json::Object();
        v.Set("value", Json::Number(x.value));
        v.Set("unit", Json::Str(x.unit));
        m.Set(x.name, std::move(v));
    }
    Json out = Json::Object();
    out.Set("correct", Json::Bool(correct));
    out.Set("attempted", Json::Int(attempted));
    out.Set("failed", Json::Int(failed));
    out.Set("metrics", std::move(m));
    std::printf("%s\n", out.Dump().c_str());
    std::fflush(stdout);
}

void
PrintChecks(const Checks &checks)
{
    std::printf("checks: %lld reports == EvaluateSchedule, %lld VM replays, "
                "%lld cache-hit byte compares, %zu failures\n",
                checks.report_checks, checks.vm_checks, checks.hit_checks,
                checks.failures.size());
    for (const std::string &f : checks.failures)
        std::printf("  CHECK FAILED: %s\n", f.c_str());
}

// -------------------------------------------------------------- modes

std::vector<Metric>
EndToEndMetrics(const PassResult &pass,
                const std::vector<double> &setup_seconds, const Quality &q)
{
    const Tally &t = pass.tally;
    const std::vector<double> latency = t.Latencies();
    const long long n = static_cast<long long>(t.ok);
    std::vector<Metric> m;
    m.push_back({"setup_s", TrimmedMean(setup_seconds), "s",
                 static_cast<long long>(setup_seconds.size())});
    m.push_back({"latency_p50_s", Median(latency), "s",
                 static_cast<long long>(latency.size())});
    m.push_back({"requests_per_s", n / pass.wall_s, "1/s", n});
    m.push_back({"peak_rss_mb", pass.quality_peak_rss_mb, "MB", 1});
    m.push_back({"sim_latency_geomean_s", q.sim_latency, "sim_s", q.results});
    m.push_back({"sim_energy_geomean_j", q.sim_energy, "sim_J", q.results});
    return m;
}

/** The issue-level metrics a workload supports only sometimes; printed
 *  where they apply, never in the result line. */
std::vector<Metric>
ConditionalMetrics(const PassResult &pass, const Quality &q)
{
    const Tally &t = pass.tally;
    std::vector<Metric> m;
    const std::vector<double> latency = t.Latencies();
    const long long n = static_cast<long long>(latency.size());
    if (n >= 100)  // at least ten samples beyond the 90th percentile
        m.push_back({"latency_p90_s", Percentile(latency, 0.9), "s", n});
    if (t.fresh > 0)
        m.push_back({"candidates_per_s", t.evaluated / pass.wall_s, "1/s",
                     t.fresh});
    m.push_back({"failed_share",
                 t.attempted ? static_cast<double>(t.failed) / t.attempted
                             : 0.0,
                 "ratio", t.attempted});
    if (q.matched > 0)
        m.push_back({"speedup_vs_cocco", q.speedup_vs_cocco, "ratio",
                     q.matched});
    return m;
}

/** The service's cache hit ratios over a pass, each only where its
 *  cache was consulted; printed, never in the result line. */
std::vector<Metric>
ServiceRatios(const soma::ServiceStats &s)
{
    std::vector<Metric> m;
    auto ratio = [&](const char *name, std::uint64_t hits,
                     std::uint64_t misses) {
        if (hits + misses == 0) return;
        m.push_back({name, static_cast<double>(hits) / (hits + misses),
                     "ratio", static_cast<long long>(hits + misses)});
    };
    ratio("service.result_cache.hit_ratio", s.result_cache.hits,
          s.result_cache.misses);
    ratio("service.graph_cache.hit_ratio", s.graph_cache.hits,
          s.graph_cache.misses);
    ratio("service.warm_state.tiling_hit_ratio", s.warm_state.tiling_hits,
          s.warm_state.tiling_misses);
    return m;
}

int
RunUntraced(const Options &o, Scoreboard &board)
{
    std::vector<double> setup_seconds;
    // One window of set-ups on @p s; false if one failed.
    const auto setup_window = [&](Setup *s) {
        std::string err;
        const MonotonicTime start = MonotonicNow();
        for (int n = 0;
             n < kSetupRepeats || SecondsSince(start) < kSetupSeconds; ++n) {
            if (!DoSetup(o, board, s, &err)) {
                std::fprintf(stderr, "e2e_loadgen: set-up failed: %s\n",
                             err.c_str());
                return false;
            }
            setup_seconds.push_back(s->seconds);
        }
        return true;
    };
    Setup setup;
    MakePlan(o.workload, o.seed, Nproc(), o.seconds, &setup.plan);
    if (!setup_window(&setup)) return 2;
    PassLimits limits;
    limits.seconds = o.seconds;
    limits.min_positions = setup.plan.QualityPositions();
    const PassResult pass = RunPass(setup, limits, false, board);
    Setup after;
    after.plan = setup.plan;
    if (!setup_window(&after)) return 2;

    Checks checks = pass.checks;
    const Quality q = QualityOf(pass);
    CheckRecord(o, setup.plan, q, &checks);

    const std::vector<Metric> e2e = EndToEndMetrics(pass, setup_seconds, q);
    const std::vector<Metric> conditional = ConditionalMetrics(pass, q);
    PrintMetrics("end-to-end metrics:", e2e);
    PrintMetrics("conditional end-to-end metrics:", conditional);
    PrintChecks(checks);
    std::vector<Metric> all = e2e;
    all.insert(all.end(), conditional.begin(), conditional.end());
    SaveRunRecord(o, all, checks);
    PrintResult(checks.failures.empty(), pass.tally.attempted,
                pass.tally.failed, e2e);
    return 0;
}

int
RunTraced(const Options &o, Scoreboard &board)
{
    std::string err;
    Setup setup;
    MakePlan(o.workload, o.seed, Nproc(), o.seconds, &setup.plan);
    if (!DoSetup(o, board, &setup, &err)) {
        std::fprintf(stderr, "e2e_loadgen: set-up failed: %s\n", err.c_str());
        return 2;
    }
    // The same fixed work twice, on fresh services: untraced, then with
    // a span tracer on every request.
    PassLimits limits;
    limits.max_positions = o.workload == WorkloadKind::kCacheReplay
                               ? kReplayTracePassRequests
                               : setup.plan.QualityPositions();
    limits.min_positions = limits.max_positions;
    const PassResult plain = RunPass(setup, limits, false, board);
    Checks checks = plain.checks;
    const Quality q = QualityOf(plain);
    CheckRecord(o, setup.plan, q, &checks);

    ReplayInputs in;
    in.plan = &setup.plan;
    for (const auto &t : plain.quality_text) in.result_texts.push_back(t.second);

    Setup traced_setup;
    traced_setup.plan = setup.plan;
    if (!DoSetup(o, board, &traced_setup, &err)) {
        std::fprintf(stderr, "e2e_loadgen: set-up failed: %s\n", err.c_str());
        return 2;
    }
    const PassResult traced = RunPass(traced_setup, limits, true, board);
    checks.Merge(traced.checks);
    const std::vector<std::string> traced_digests = QualityOf(traced).digests;
    if (traced_digests != q.digests)
        checks.Fail("traced results differ from untraced results at" +
                    Changed(setup.plan, q.digests, traced_digests));

    // Layer replay, on the untraced pass's service (its results are all
    // cache hits now).
    in.service = setup.service.get();
    in.probe_dir = o.state_dir + "/disk-probe";
    soma::obs::Tracer replay_tracer;
    std::vector<Metric> layers;
    std::map<std::string, double> self_shift;
    const MonotonicTime replay_start = MonotonicNow();
    if (!ReplayLayers(in, &replay_tracer, &layers, &self_shift, &err)) {
        std::fprintf(stderr, "e2e_loadgen: layer replay failed: %s\n",
                     err.c_str());
        return 2;
    }
    const double replay_wall_ms = SecondsSince(replay_start) * 1e3;

    // Self time: the replay's spans (all on this thread), with the
    // lower layers' prof-site time moved out of the spans that called
    // them; then the traced requests' spans on the client threads.
    const std::vector<SpanEvent> replay_events =
        EventsOf(replay_tracer, replay_tracer.t0(), -1);
    std::map<std::string, double> replay_self = SelfTimeMs(replay_events, {});
    for (const auto &[layer, ms] : self_shift) replay_self[layer] += ms;
    double replay_self_sum = 0.0;
    for (const auto &[layer, ms] : replay_self) {
        replay_self_sum += ms;
        if (layer != "replay")
            layers.push_back({"self." + layer + "_ms", ms, "ms", 1});
    }
    const double plain_rps = plain.tally.attempted / plain.wall_s;
    const double traced_rps = traced.tally.attempted / traced.wall_s;
    layers.push_back({"trace.overhead_pct",
                      (plain_rps - traced_rps) / plain_rps * 100.0, "%",
                      plain.tally.attempted + traced.tally.attempted});

    PrintMetrics("per-layer metrics (timed public calls):", layers);
    PrintMetrics("conditional per-layer metrics (untraced pass):",
                 ServiceRatios(plain.stats));
    std::printf("layer self time in the replay (%.1f ms traced wall, "
                "%.1f ms in spans):\n",
                replay_wall_ms, replay_self_sum);
    for (const auto &[layer, ms] : replay_self)
        std::printf("  %-12s %10.2f ms  %5.1f%%\n", layer.c_str(), ms,
                    100.0 * ms / replay_self_sum);

    double request_wall_ms = 0.0;
    for (const SpanEvent &e : traced.spans)
        if (e.name == "request") request_wall_ms += e.dur_us / 1e3;
    const std::map<std::string, double> request_self =
        SelfTimeMs(traced.spans, traced.client_tids);
    std::printf("layer self time on the request path (%lld traced requests, "
                "%.1f ms of request spans):\n",
                traced.tally.attempted, request_wall_ms);
    for (const auto &[layer, ms] : request_self)
        std::printf("  %-12s %10.2f ms  %5.1f%%\n", layer.c_str(), ms,
                    100.0 * ms / std::max(request_wall_ms, 1e-9));
    std::map<std::string, std::pair<double, long long>> prof;
    for (const SpanEvent &e : traced.spans) {
        if (!e.aggregate) continue;
        prof[e.name].first += e.dur_us / 1e3;
        prof[e.name].second += 1;
    }
    std::printf("prof.* aggregates (inclusive, summed over chains; "
                "cross-check only):\n");
    for (const auto &[name, v] : prof)
        std::printf("  %-24s %10.2f ms over %lld requests\n", name.c_str(),
                    v.first, v.second);
    std::printf("tracing overhead: %.3f req/s untraced vs %.3f traced\n",
                plain_rps, traced_rps);

    // Traced requests under pid 1 (args.req = stream position), the
    // replay under pid 2, each on its own time base.
    std::vector<SpanEvent> all = traced.spans;
    all.insert(all.end(), replay_events.begin(), replay_events.end());
    const std::string trace_path = o.state_dir + "/trace-" +
                                   WorkloadName(o.workload) + "-" +
                                   std::to_string(o.seed) + ".json";
    std::ofstream(trace_path) << ChromeTrace(all).Dump();
    std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(),
                all.size());

    PrintChecks(checks);
    SaveRunRecord(o, layers, checks);
    PrintResult(checks.failures.empty(),
                plain.tally.attempted + traced.tally.attempted,
                plain.tally.failed + traced.tally.failed, layers);
    return 0;
}

}  // namespace
}  // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    Options o;
    std::string err;
    if (!ParseArgs(argc, argv, &o, &err)) {
        std::fprintf(stderr, "e2e_loadgen: %s\n", err.c_str());
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(o.state_dir, ec);
    Scoreboard board;
    if (!board.Open(o.scoreboard, Nproc() + 1)) {
        std::fprintf(stderr, "e2e_loadgen: cannot map scoreboard %s\n",
                     o.scoreboard.c_str());
        return 2;
    }
    std::printf("run record: %s\n", RunRecord(o).Dump().c_str());
    std::fflush(stdout);
    return o.trace ? RunTraced(o, board) : RunUntraced(o, board);
}

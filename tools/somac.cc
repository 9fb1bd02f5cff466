/**
 * @file
 * somac — the SoMa scheduler as a command-line service. Wraps the
 * soma::Scheduler facade: a request JSON (or flags) in, a result JSON
 * (plus optional artifact files) out, with the same bit-for-bit
 * results as the in-process API for the same (seed, chains).
 *
 *   somac run <request.json> [overrides] [-o result.json] [--outdir D]
 *   somac run --model resnet50 --profile quick --seed 7 [-o out.json]
 *   somac sweep <spec.json> [--csv F] [--stats F] [--cache-dir D]
 *   somac fingerprint <request.json> [--canonical]
 *   somac list models|hardware|schedulers
 *   somac validate <result.json>
 *   somac help
 *
 * `sweep` expands a grid spec (models x hardware overrides x profiles
 * x seeds) into requests and runs them through the SchedulerService —
 * shared result/graph caches, in-flight coalescing — emitting a
 * deterministic CSV results table: re-running a sweep against a warm
 * `--cache-dir` produces the identical table with zero searches.
 *
 * `validate` is the tiny schema validator CI uses on the smoke run's
 * output; it checks presence and types of the stable result fields.
 */
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/scheduler.h"
#include "common/hash.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "service/service.h"
#include "service/sweep.h"

namespace {

using namespace soma;

int
Usage(std::ostream &os, int code)
{
    os << "somac — SoMa DRAM-communication scheduler CLI\n"
          "\n"
          "usage:\n"
          "  somac run [request.json] [overrides] [-o result.json]\n"
          "            [--outdir DIR] [--trace FILE] [--stats FILE]\n"
          "            [--quiet]\n"
          "  somac sweep spec.json [--csv FILE] [--json FILE]\n"
          "            [--stats FILE] [--trace FILE] [--cache-dir DIR]\n"
          "            [--cache-capacity N] [--jobs N] [--shard I/N]\n"
          "            [--repeat N] [--memory-model M] [--quiet]\n"
          "  somac fingerprint request.json [--canonical]\n"
          "            [--stats FILE]\n"
          "  somac list models|hardware|schedulers|memory-models\n"
          "  somac validate result.json\n"
          "  somac help\n"
          "\n"
          "run flags: each sets the request-JSON field it names,\n"
          "over request.json (or {} without one); the result is decoded\n"
          "and range-checked once, like any request JSON, so a bad\n"
          "value fails before any search, naming the field:\n"
          "  --model NAME        model (see `somac list models`)\n"
          "  --batch N           batch, 1..1000000 (default 1)\n"
          "  --hw NAME           hardware (edge|cloud|custom)\n"
          "  --gbuf-mb MB        gbuf_bytes = MB x 2^20 (0 = preset)\n"
          "  --dram-gbps GBPS    dram_gbps (0 = preset)\n"
          "  --memory-model M    memory_model, the DRAM timing backend\n"
          "                      (analytical|banked; see `somac list\n"
          "                      memory-models`)\n"
          "  --scheduler NAME    scheduler (soma|cocco|lfa-only)\n"
          "  --profile P         profile (quick|default|full)\n"
          "  --seed N            seed (default 1)\n"
          "  --cost-n X --cost-m Y   cost_n, cost_m: objective\n"
          "                      Energy^n x Delay^m\n"
          "  --chains K          chains (SA chains; deterministic knob)\n"
          "  --threads T         threads (driver threads; wall-clock)\n"
          "  --deadline-ms N     deadline_ms (0 = none)\n"
          "  --ir --asm --traces --exec-graph   artifacts.ir,\n"
          "                      .instructions, .traces, .execution_graph\n"
          "  --exec-graph-rows N  artifacts.execution_graph_rows (40)\n"
          "\n"
          "run flags that are not request fields (and -o, --outdir,\n"
          "--trace, --stats, --quiet below):\n"
          "  --validate-memory   re-time the result under the banked\n"
          "                      replay and report the analytical-vs-\n"
          "                      banked latency gap (implied by\n"
          "                      --memory-model banked; metrics\n"
          "                      memory.validation_gap_pct + eval.dram.*\n"
          "                      land in --stats)\n"
          "\n"
          "-o/--out writes the result JSON (default: stdout);\n"
          "--outdir additionally writes artifacts as files\n"
          "(<model>.ir, <model>.asm, <model>_{compute,dram,buffer}.csv,\n"
          "<model>_execgraph.txt).\n"
          "\n"
          "--trace FILE writes a Chrome trace-event JSON of the run\n"
          "(load in Perfetto / chrome://tracing): spans for every\n"
          "pipeline phase, search stage, SA window and the synthesized\n"
          "hot-path aggregates. Observational only — result bytes are\n"
          "identical with and without --trace.\n"
          "--stats FILE writes the canonical metrics-registry dump\n"
          "(flat dotted keys; one schema across run/sweep/fingerprint).\n"
          "\n"
          "sweep spec.json: {\"base\": {request fields...},\n"
          "  \"models\": [...], \"batches\": [...], \"hardware\": [...],\n"
          "  \"gbuf_mb\": [...], \"dram_gbps\": [...],\n"
          "  \"schedulers\": [...], \"profiles\": [...], \"seeds\": [...]}\n"
          "Each axis sets one request field over the base (gbuf_mb as\n"
          "gbuf_bytes = MB x 2^20); every grid point is decoded and\n"
          "range-checked like a request JSON, and missing axes inherit\n"
          "the base request's value. --memory-model M sets\n"
          "memory_model on the base. The CSV table\n"
          "is deterministic: same spec + warm cache => identical bytes.\n"
          "--shard I/N keeps every N-th grid point starting at I\n"
          "(0 <= I < N) so N processes/machines can split one sweep;\n"
          "point every shard's --cache-dir at one shared directory and\n"
          "the shards' row sets partition the unsharded sweep's table\n"
          "(equal rows, interleaved order).\n"
          "--repeat N runs the grid N times against one service — a\n"
          "warm-traffic self-check: somac exits non-zero unless every\n"
          "pass reproduces the first pass's table byte-for-byte, and\n"
          "--stats then shows the cumulative cache/warm-state counters\n"
          "(warm-state hits come from result-cache-cold requests that\n"
          "share a workload, e.g. the seeds axis).\n"
          "\n"
          "fingerprint prints the request's canonical 64-bit identity\n"
          "(the service-layer cache key) as 16 hex digits;\n"
          "--canonical additionally prints the canonical request JSON.\n";
    return code;
}

bool
ParseIntArg(const std::string &flag, const std::string &text, int *out)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0' || end == text.c_str() ||
        v < INT_MIN || v > INT_MAX) {
        std::cerr << flag << ": \"" << text << "\" is not an integer\n";
        return false;
    }
    *out = static_cast<int>(v);
    return true;
}

bool
ReadFile(const std::string &path, std::string *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
WriteFile(const std::string &path, const std::string &content,
          std::string *err)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        *err = "cannot write " + path;
        return false;
    }
    out << content;
    return static_cast<bool>(out);
}

/** Read and parse the JSON file at @p path; reports errors itself. */
bool
LoadJson(const std::string &path, Json *json)
{
    std::string text, err;
    if (!ReadFile(path, &text, &err)) {
        std::cerr << err << "\n";
        return false;
    }
    if (!Json::Parse(text, json, &err)) {
        std::cerr << path << ": " << err << "\n";
        return false;
    }
    return true;
}

int
CmdList(const std::vector<std::string> &args)
{
    Scheduler scheduler;
    std::string what = args.empty() ? "all" : args[0];
    auto print = [](const char *title,
                    const std::vector<std::string> &names) {
        std::cout << title << ":\n";
        for (const std::string &n : names) std::cout << "  " << n << "\n";
    };
    if (what == "models" || what == "all")
        print("models", scheduler.models().Names());
    if (what == "hardware" || what == "all")
        print("hardware", scheduler.hardware().Names());
    if (what == "schedulers" || what == "all")
        print("schedulers", scheduler.schedulers().Names());
    if (what == "memory-models" || what == "all") {
        std::cout << "memory-models:\n";
        const MemoryModelRegistry &registry = scheduler.memory_models();
        for (const std::string &name : registry.Names())
            std::cout << "  " << name << " - "
                      << registry.Find(name, nullptr)->description()
                      << "\n";
    }
    if (what != "models" && what != "hardware" && what != "schedulers" &&
        what != "memory-models" && what != "all") {
        std::cerr << "unknown list target \"" << what
                  << "\" (models|hardware|schedulers|memory-models)\n";
        return 2;
    }
    return 0;
}

/** How a `somac run` request flag's value text becomes JSON. */
enum class FlagKind {
    kString,
    kNumber,     ///< parsed as a JSON number
    kBool,       ///< takes no value; sets true
    kMegabytes,  ///< a number in MB, set as bytes (GbufMbToBytes)
};

/** A `somac run` flag and the request-JSON field (dotted path) it
 *  sets. */
struct RequestFlag {
    const char *flag;
    const char *path;
    FlagKind kind;
};

constexpr RequestFlag kRequestFlags[] = {
    {"--model", "model", FlagKind::kString},
    {"--batch", "batch", FlagKind::kNumber},
    {"--hw", "hardware", FlagKind::kString},
    {"--hardware", "hardware", FlagKind::kString},
    {"--gbuf-mb", "gbuf_bytes", FlagKind::kMegabytes},
    {"--dram-gbps", "dram_gbps", FlagKind::kNumber},
    {"--memory-model", "memory_model", FlagKind::kString},
    {"--scheduler", "scheduler", FlagKind::kString},
    {"--profile", "profile", FlagKind::kString},
    {"--seed", "seed", FlagKind::kNumber},
    {"--cost-n", "cost_n", FlagKind::kNumber},
    {"--cost-m", "cost_m", FlagKind::kNumber},
    {"--chains", "chains", FlagKind::kNumber},
    {"--threads", "threads", FlagKind::kNumber},
    {"--deadline-ms", "deadline_ms", FlagKind::kNumber},
    {"--ir", "artifacts.ir", FlagKind::kBool},
    {"--asm", "artifacts.instructions", FlagKind::kBool},
    {"--traces", "artifacts.traces", FlagKind::kBool},
    {"--exec-graph", "artifacts.execution_graph", FlagKind::kBool},
    {"--exec-graph-rows", "artifacts.execution_graph_rows",
     FlagKind::kNumber},
};

/** Set @p value at a dotted request-JSON @p path, creating the
 *  intermediate object. */
void
SetPath(Json *json, const std::string &path, Json value)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        json->Set(path, std::move(value));
        return;
    }
    const std::string head = path.substr(0, dot);
    Json child = json->Find(head) ? *json->Find(head) : Json::Object();
    SetPath(&child, path.substr(dot + 1), std::move(value));
    json->Set(head, std::move(child));
}

/** The JSON value of @p flag given @p text (non-bool kinds). */
bool
FlagValue(const RequestFlag &flag, const std::string &text, Json *out)
{
    if (flag.kind == FlagKind::kString) {
        *out = Json::Str(text);
        return true;
    }
    std::string err;
    if (!Json::Parse(text, out, &err) || !out->IsNumber()) {
        const std::string path = flag.path;
        std::cerr << flag.flag << " \"" << text << "\": field \""
                  << path.substr(path.rfind('.') + 1)
                  << "\" must be a number\n";
        return false;
    }
    if (flag.kind == FlagKind::kMegabytes) *out = GbufMbToBytes(*out);
    return true;
}

int
CmdRun(const std::vector<std::string> &args)
{
    std::string request_path, out_path, outdir, trace_path, stats_path;
    bool quiet = false, validate_memory = false;
    // Flag-set request fields, applied over the request JSON.
    std::vector<std::pair<std::string, Json>> fields;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.empty() || arg[0] != '-') {
            if (!request_path.empty()) {
                std::cerr << "more than one request JSON given (\"" << arg
                          << "\")\n";
                return 2;
            }
            request_path = arg;
            continue;
        }
        if (arg == "--quiet") {
            quiet = true;
            continue;
        }
        if (arg == "--validate-memory") {
            validate_memory = true;
            continue;
        }
        // CLI-side flags: not request fields.
        std::string *cli = arg == "-o" || arg == "--out" ? &out_path
                           : arg == "--outdir"           ? &outdir
                           : arg == "--trace"            ? &trace_path
                           : arg == "--stats"            ? &stats_path
                                                         : nullptr;
        const RequestFlag *flag = nullptr;
        for (const RequestFlag &f : kRequestFlags)
            if (arg == f.flag) flag = &f;
        if (!cli && !flag) {
            std::cerr << "unknown flag " << arg << "\n";
            return 2;
        }
        if (flag && flag->kind == FlagKind::kBool) {
            fields.emplace_back(flag->path, Json::Bool(true));
            continue;
        }
        if (i + 1 >= args.size()) {
            std::cerr << arg << " needs a value\n";
            return 2;
        }
        const std::string &text = args[++i];
        if (cli) {
            *cli = text;
            continue;
        }
        Json value;
        if (!FlagValue(*flag, text, &value)) return 2;
        fields.emplace_back(flag->path, std::move(value));
    }

    // One decode: the request JSON (or {}) with the flag fields set.
    Json json = Json::Object();
    if (!request_path.empty() && !LoadJson(request_path, &json)) return 2;
    for (auto &[path, value] : fields) SetPath(&json, path, std::move(value));
    ScheduleRequest request;
    std::string err;
    if (!ScheduleRequest::FromJson(json, &request, &err)) {
        std::cerr << (request_path.empty() ? "somac run" : request_path)
                  << ": " << err << "\n";
        return 2;
    }
    if (request_path.empty() && request.model.empty()) {
        std::cerr << "nothing to schedule: pass a request JSON or "
                     "--model (see somac help)\n";
        return 2;
    }
    // Searching under the banked backend without measuring the gap it
    // was built to expose would be pointless — imply validation.
    request.validate_memory =
        validate_memory || request.memory_model == "banked";

    Scheduler scheduler;
    if (!quiet) {
        request.on_progress = [](const ProgressEvent &event) {
            std::cerr << "[somac] " << event.phase << " +"
                      << event.elapsed_seconds << "s\n";
        };
    }
    // Observability wiring: a --trace run records spans onto a
    // request-scoped tracer; a --stats run holds hot-path profiling
    // enabled so the registry dump carries the per-phase aggregates.
    // Neither changes result bytes (pinned by test and CI).
    obs::Tracer tracer;
    if (!trace_path.empty()) request.trace = &tracer;
    std::optional<obs::ProfEnableScope> prof_hold;
    if (!stats_path.empty()) prof_hold.emplace();
    ScheduleResult result = scheduler.Schedule(request);

    if (request.validate_memory && result.ok && !quiet) {
        // The pipeline published the gap to the metrics registry (the
        // same numbers --stats dumps); surface it next to the progress
        // lines.
        auto &reg = obs::MetricsRegistry::Global();
        std::cerr << "[somac] memory validation: analytical "
                  << reg.GetGauge("memory.analytical_latency").value()
                  << "s vs banked "
                  << reg.GetGauge("memory.banked_latency").value()
                  << "s, gap "
                  << reg.GetGauge("memory.validation_gap_pct").value()
                  << "%\n";
    }

    const std::string result_text = result.ToJson().Dump(2) + "\n";
    if (out_path.empty()) {
        std::cout << result_text;
    } else if (!WriteFile(out_path, result_text, &err)) {
        std::cerr << err << "\n";
        return 2;
    }
    if (!trace_path.empty()) {
        if (!WriteFile(trace_path, tracer.ToJson().Dump(2) + "\n", &err)) {
            std::cerr << err << "\n";
            return 2;
        }
        if (!quiet)
            std::cerr << "[somac] wrote " << tracer.NumEvents()
                      << " trace events to " << trace_path << "\n";
    }
    if (!stats_path.empty()) {
        const std::string dump =
            obs::MetricsRegistry::Global().ToJson().CanonicalDump() + "\n";
        if (!WriteFile(stats_path, dump, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }

    if (!outdir.empty() && result.ok) {
        const std::string base = outdir + "/" + result.model;
        struct File {
            const std::string &content;
            std::string path;
        };
        const File files[] = {
            {result.ir_text, base + ".ir"},
            {result.asm_text, base + ".asm"},
            {result.compute_csv, base + "_compute.csv"},
            {result.dram_csv, base + "_dram.csv"},
            {result.buffer_csv, base + "_buffer.csv"},
            {result.execution_graph, base + "_execgraph.txt"},
        };
        for (const File &f : files) {
            if (f.content.empty()) continue;
            if (!WriteFile(f.path, f.content, &err)) {
                std::cerr << err << "\n";
                return 2;
            }
            if (!quiet) std::cerr << "[somac] wrote " << f.path << "\n";
        }
    }

    if (!result.ok) {
        std::cerr << "schedule failed: " << result.error << "\n";
        return 1;
    }
    return 0;
}

int
CmdFingerprint(const std::vector<std::string> &args)
{
    std::string path, stats_path;
    bool canonical = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--canonical") {
            canonical = true;
        } else if (arg == "--stats") {
            if (i + 1 >= args.size()) {
                std::cerr << "--stats needs a value\n";
                return 2;
            }
            stats_path = args[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown flag " << arg << "\n";
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "more than one request JSON given\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "usage: somac fingerprint request.json "
                     "[--canonical] [--stats FILE]\n";
        return 2;
    }
    Json json;
    ScheduleRequest request;
    std::string err;
    if (!LoadJson(path, &json)) return 2;
    if (!ScheduleRequest::FromJson(json, &request, &err)) {
        std::cerr << path << ": " << err << "\n";
        return 2;
    }
    std::cout << HexU64(request.Fingerprint()) << "\n";
    if (canonical)
        std::cout << request.CanonicalJson().CanonicalDump() << "\n";
    if (!stats_path.empty()) {
        // The one canonical --stats schema across subcommands: the
        // registry dump (here just the fingerprint counter — no
        // pipeline runs under this subcommand).
        obs::MetricsRegistry::Global()
            .GetCounter("fingerprint.requests")
            .Add();
        const std::string dump =
            obs::MetricsRegistry::Global().ToJson().CanonicalDump() + "\n";
        if (!WriteFile(stats_path, dump, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }
    return 0;
}

// ------------------------------------------------------------------ sweep

/** Parse "I/N" (0 <= I < N) for --shard. */
bool
ParseShardArg(const std::string &text, int *index, int *count)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        std::cerr << "--shard: \"" << text << "\" is not of the form I/N\n";
        return false;
    }
    if (!ParseIntArg("--shard", text.substr(0, slash), index) ||
        !ParseIntArg("--shard", text.substr(slash + 1), count)) {
        return false;
    }
    if (*count < 1 || *index < 0 || *index >= *count) {
        std::cerr << "--shard: need 0 <= I < N, got " << text << "\n";
        return false;
    }
    return true;
}

int
CmdSweep(const std::vector<std::string> &args)
{
    std::string spec_path, csv_path, json_path, stats_path, cache_dir;
    std::string trace_path, memory_model;
    int cache_capacity = 0, jobs = 2, repeat = 1;
    int shard_index = 0, shard_count = 1;
    bool quiet = false;

    auto need_value = [&args](std::size_t i, const std::string &flag)
        -> const std::string * {
        if (i + 1 >= args.size()) {
            std::cerr << flag << " needs a value\n";
            return nullptr;
        }
        return &args[i + 1];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const std::string *v = nullptr;
        if (arg.empty() || arg[0] != '-') {
            if (!spec_path.empty()) {
                std::cerr << "more than one sweep spec given (\"" << arg
                          << "\")\n";
                return 2;
            }
            spec_path = arg;
        } else if (arg == "--csv") {
            if (!(v = need_value(i, arg))) return 2;
            csv_path = *v, ++i;
        } else if (arg == "--json") {
            if (!(v = need_value(i, arg))) return 2;
            json_path = *v, ++i;
        } else if (arg == "--stats") {
            if (!(v = need_value(i, arg))) return 2;
            stats_path = *v, ++i;
        } else if (arg == "--trace") {
            if (!(v = need_value(i, arg))) return 2;
            trace_path = *v, ++i;
        } else if (arg == "--memory-model") {
            if (!(v = need_value(i, arg))) return 2;
            memory_model = *v, ++i;
        } else if (arg == "--cache-dir") {
            if (!(v = need_value(i, arg))) return 2;
            cache_dir = *v, ++i;
        } else if (arg == "--cache-capacity") {
            if (!(v = need_value(i, arg))) return 2;
            if (!ParseIntArg(arg, *v, &cache_capacity)) return 2;
            ++i;
        } else if (arg == "--jobs") {
            if (!(v = need_value(i, arg))) return 2;
            if (!ParseIntArg(arg, *v, &jobs)) return 2;
            ++i;
        } else if (arg == "--shard") {
            if (!(v = need_value(i, arg))) return 2;
            if (!ParseShardArg(*v, &shard_index, &shard_count)) return 2;
            ++i;
        } else if (arg == "--repeat") {
            if (!(v = need_value(i, arg))) return 2;
            if (!ParseIntArg(arg, *v, &repeat)) return 2;
            if (repeat < 1) {
                std::cerr << "--repeat: need N >= 1, got " << repeat
                          << "\n";
                return 2;
            }
            ++i;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "unknown flag " << arg << "\n";
            return 2;
        }
    }
    if (spec_path.empty()) {
        std::cerr << "usage: somac sweep spec.json [--csv FILE] "
                     "[--stats FILE] [--cache-dir DIR] [--shard I/N]\n";
        return 2;
    }

    Json spec_json;
    if (!LoadJson(spec_path, &spec_json)) return 2;
    // A memory model is a timing-backend choice, not a grid axis:
    // --memory-model sets it on the base request for the whole sweep.
    if (!memory_model.empty() && spec_json.IsObject()) {
        Json base = spec_json.Find("base") ? *spec_json.Find("base")
                                           : Json::Object();
        base.Set("memory_model", Json::Str(memory_model));
        spec_json.Set("base", std::move(base));
    }
    std::vector<ScheduleRequest> requests;
    std::string err;
    if (!ExpandSweepSpec(spec_json, &requests, &err)) {
        std::cerr << spec_path << ": " << err << "\n";
        return 2;
    }
    const std::size_t grid_size = requests.size();
    if (shard_count > 1) {
        // Deterministic work partition: shard I keeps grid points
        // I, I+N, I+2N, ... of the expansion order. Striding (rather
        // than contiguous chunks) balances heavy axes — e.g. a sweep
        // whose slowest model expands first — across the shards.
        std::vector<ScheduleRequest> mine;
        mine.reserve((requests.size() + shard_count - 1) / shard_count);
        for (std::size_t i = shard_index; i < requests.size();
             i += static_cast<std::size_t>(shard_count)) {
            mine.push_back(std::move(requests[i]));
        }
        requests = std::move(mine);
        // An empty shard (more shards than grid points) is a valid
        // partition: the normal path below emits a header-only table,
        // an empty JSON array and zero stats, and exits 0, so fixed
        // N-way split scripts work on any grid size.
        if (requests.empty() && !quiet)
            std::cerr << "[somac] sweep: shard " << shard_index << "/"
                      << shard_count << " is empty (grid has "
                      << grid_size << " points); nothing to do\n";
    }

    ServiceOptions options;
    options.cache_dir = cache_dir;
    if (cache_capacity > 0)
        options.result_cache_capacity =
            static_cast<std::size_t>(cache_capacity);
    SchedulerService service(options);

    if (!quiet) {
        std::cerr << "[somac] sweep: " << requests.size() << " requests";
        if (shard_count > 1)
            std::cerr << " (shard " << shard_index << "/" << shard_count
                      << " of " << grid_size << ")";
        std::cerr << ", jobs=" << jobs
                  << (cache_dir.empty() ? ""
                                        : ", cache-dir=" + cache_dir)
                  << "\n";
    }

    // One sweep-scoped tracer shared by every worker (the Tracer is
    // internally synchronized; spans carry dense per-process tids).
    // Observational only: the table bytes are identical with and
    // without --trace.
    obs::Tracer tracer;
    std::optional<obs::ProfEnableScope> prof_hold;
    if (!trace_path.empty() || !stats_path.empty()) prof_hold.emplace();

    if (!trace_path.empty())
        for (ScheduleRequest &request : requests) request.trace = &tracer;

    const auto t0 = obs::MonotonicNow();
    std::vector<SweepRow> rows;
    std::string first_table;
    for (int pass = 0; pass < repeat; ++pass) {
        rows = RunSweep(service, requests, jobs);

        // The determinism self-check behind --repeat: every pass over
        // one grid — cold, result-cache-warm, warm-state-warm — must
        // produce the identical table.
        std::ostringstream table;
        table << kSweepCsvHeader << "\n";
        for (const SweepRow &row : rows) table << CsvRow(row) << "\n";
        if (pass == 0) {
            first_table = table.str();
        } else if (table.str() != first_table) {
            std::cerr << "[somac] sweep: pass " << pass
                      << " diverged from pass 0 — the warm table is "
                         "not byte-identical to the cold one\n";
            return 1;
        }
    }
    const double seconds = obs::SecondsSince(t0);

    // ---- emit the results table (and optional JSON/stats mirrors).
    if (csv_path.empty()) {
        std::cout << first_table;
    } else if (!WriteFile(csv_path, first_table, &err)) {
        std::cerr << err << "\n";
        return 2;
    }
    if (!json_path.empty()) {
        Json array = Json::Array();
        for (const SweepRow &row : rows) array.Append(JsonRow(row));
        if (!WriteFile(json_path, array.Dump(2) + "\n", &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }
    const ServiceStats stats = service.stats();
    if (!stats_path.empty()) {
        // The canonical --stats schema: the service counters exported
        // as flat dotted keys into the process-wide registry (which
        // already carries the pipeline.* / prof.* metrics the executed
        // searches recorded), dumped with sorted keys.
        auto &registry = obs::MetricsRegistry::Global();
        stats.ExportTo(registry);
        registry.GetGauge("sweep.seconds").Set(seconds);
        const std::string dump = registry.ToJson().CanonicalDump() + "\n";
        if (!WriteFile(stats_path, dump, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }
    if (!trace_path.empty()) {
        if (!WriteFile(trace_path, tracer.ToJson().Dump(2) + "\n", &err)) {
            std::cerr << err << "\n";
            return 2;
        }
        if (!quiet)
            std::cerr << "[somac] wrote " << tracer.NumEvents()
                      << " trace events to " << trace_path << "\n";
    }

    std::size_t failed = 0;
    for (const SweepRow &row : rows)
        if (!row.result.ok) ++failed;
    if (!quiet) {
        std::cerr << "[somac] sweep done: " << rows.size() << " requests";
        if (repeat > 1) std::cerr << " x " << repeat << " passes";
        std::cerr << " (" << failed << " failed) in " << seconds << "s — "
                  << stats.searches << " searches, "
                  << stats.result_cache.hits << " cache hits ("
                  << stats.result_cache.disk_hits << " from disk), "
                  << stats.coalesced << " coalesced, warm-state "
                  << stats.warm_state.tiling_hits << " tiling hits / "
                  << stats.warm_state.approx_bytes << " bytes\n";
    }
    return failed == 0 ? 0 : 1;
}

/** Schema check for result JSONs: required keys with the right types. */
int
CmdValidate(const std::vector<std::string> &args)
{
    if (args.size() != 1) {
        std::cerr << "usage: somac validate result.json\n";
        return 2;
    }
    std::string text, err;
    if (!ReadFile(args[0], &text, &err)) {
        std::cerr << err << "\n";
        return 2;
    }
    Json json;
    if (!Json::Parse(text, &json, &err)) {
        std::cerr << args[0] << ": " << err << "\n";
        return 1;
    }

    std::vector<std::string> problems;
    auto require = [&](const char *key, Json::Type type) -> const Json * {
        const Json *v = json.Find(key);
        if (!v) {
            problems.push_back(std::string("missing field \"") + key +
                               "\"");
            return nullptr;
        }
        if (v->type() != type) {
            problems.push_back(std::string("field \"") + key +
                               "\" has the wrong type");
            return nullptr;
        }
        return v;
    };

    const Json *ok = require("ok", Json::Type::kBool);
    require("model", Json::Type::kString);
    require("hardware", Json::Type::kString);
    require("scheduler", Json::Type::kString);
    require("profile", Json::Type::kString);
    require("seed", Json::Type::kNumber);
    require("stats", Json::Type::kObject);
    const Json *report = require("report", Json::Type::kObject);
    if (report) {
        static const char *kNums[] = {
            "core_energy_j", "dram_energy_j", "compute_util",
            "theory_max_util", "peak_buffer", "dram_bytes",
            "num_tiles", "num_tensors", "num_flgs", "num_lgs"};
        for (const char *key : kNums) {
            const Json *v = report->Find(key);
            if (!v || !v->IsNumber())
                problems.push_back(std::string("report.") + key +
                                   " missing or not a number");
        }
        const Json *valid = report->Find("valid");
        if (!valid || !valid->IsBool())
            problems.push_back("report.valid missing or not a boolean");
        if (ok && ok->AsBool()) {
            if (valid && !valid->AsBool())
                problems.push_back("ok is true but report.valid is false");
            const Json *latency = report->Find("latency");
            if (!latency || !latency->IsNumber() ||
                !(latency->AsDouble() > 0))
                problems.push_back(
                    "ok result needs a positive numeric report.latency");
        }
    }
    if (ok && ok->AsBool()) {
        const Json *scheme = json.Find("scheme");
        if (!scheme || !scheme->IsString() || scheme->AsString().empty())
            problems.push_back("ok result needs a non-empty scheme");
    }

    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::cerr << args[0] << ": " << p << "\n";
        return 1;
    }
    std::cout << args[0] << ": valid result JSON\n";
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return Usage(std::cerr, 2);
    const std::string cmd = args[0];
    args.erase(args.begin());
    if (cmd == "run") return CmdRun(args);
    if (cmd == "sweep") return CmdSweep(args);
    if (cmd == "fingerprint") return CmdFingerprint(args);
    if (cmd == "list") return CmdList(args);
    if (cmd == "validate") return CmdValidate(args);
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return Usage(std::cout, 0);
    std::cerr << "unknown command \"" << cmd << "\"\n\n";
    return Usage(std::cerr, 2);
}

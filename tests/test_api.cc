/**
 * @file
 * Unified scheduler API tests: the JSON library, request/result
 * (de)serialization fidelity (bit-for-bit doubles, exact u64 seeds),
 * registry lookup/unknown-name behaviour, facade-vs-legacy equivalence,
 * determinism of Submit() under concurrent in-flight siblings, and
 * cooperative cancellation.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "api/scheduler.h"
#include "search/soma.h"
#include "service/service.h"
#include "workload/graph_builder.h"

namespace soma {
namespace {

/** Small 5-layer CNN: big enough to schedule, cheap enough to anneal
 *  many times per test. */
std::shared_ptr<const Graph>
TinyNet()
{
    GraphBuilder b("tinynet", 1);
    ExtShape image{3, 32, 32};
    LayerId c1 = b.InputConv("c1", image, 16, 3, 1, 1);
    LayerId c2 = b.Conv("c2", c1, 16, 3, 1, 1);
    LayerId add = b.Eltwise("add", {c1, c2});
    LayerId c3 = b.Conv("c3", add, 32, 3, 2, 1);
    LayerId gap = b.GlobalPool("gap", c3);
    b.MarkOutput(gap);
    return std::make_shared<const Graph>(b.Take());
}

ScheduleRequest
TinyRequest(std::uint64_t seed)
{
    ScheduleRequest request;
    request.graph = TinyNet();
    request.profile = SearchProfile::kQuick;
    request.seed = seed;
    return request;
}

// ----------------------------------------------------------------- JSON

TEST(Json, ParseAndDumpRoundTrip)
{
    const std::string text =
        "{\"a\": 1, \"b\": [true, false, null, -2.5], "
        "\"c\": {\"nested\": \"va\\\"lue\\n\"}}";
    Json json;
    std::string err;
    ASSERT_TRUE(Json::Parse(text, &json, &err)) << err;
    EXPECT_EQ(json.Find("a")->AsInt(), 1);
    EXPECT_EQ(json.Find("b")->size(), 4u);
    EXPECT_TRUE(json.Find("b")->at(0).AsBool());
    EXPECT_TRUE(json.Find("b")->at(2).IsNull());
    EXPECT_DOUBLE_EQ(json.Find("b")->at(3).AsDouble(), -2.5);
    EXPECT_EQ(json.Find("c")->Find("nested")->AsString(), "va\"lue\n");

    // Dump -> Parse -> Dump is a fixpoint.
    const std::string dumped = json.Dump();
    Json again;
    ASSERT_TRUE(Json::Parse(dumped, &again, &err)) << err;
    EXPECT_EQ(again.Dump(), dumped);
}

TEST(Json, DoublesSurviveBitExactly)
{
    const double values[] = {0.0016451465000000001, 1.0 / 3.0, 1e-300,
                             3.1925248931868694e-06};
    for (double v : values) {
        Json json = Json::Object();
        json.Set("x", Json::Number(v));
        Json back;
        std::string err;
        ASSERT_TRUE(Json::Parse(json.Dump(), &back, &err)) << err;
        EXPECT_EQ(back.Find("x")->AsDouble(), v);  // bit-for-bit
    }
}

TEST(Json, U64SeedsSurviveExactly)
{
    const std::uint64_t seed = 0xDEADBEEFCAFEF00DULL;  // > 2^53
    Json json = Json::Object();
    json.Set("seed", Json::U64(seed));
    Json back;
    std::string err;
    ASSERT_TRUE(Json::Parse(json.Dump(), &back, &err)) << err;
    EXPECT_EQ(back.Find("seed")->AsU64(), seed);
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    Json json = Json::Object();
    json.Set("latency", Json::Number(
                            std::numeric_limits<double>::infinity()));
    EXPECT_EQ(json.Dump(), "{\"latency\":null}");
}

TEST(Json, ParseErrorsCarryOffsets)
{
    Json json;
    std::string err;
    EXPECT_FALSE(Json::Parse("{\"a\": }", &json, &err));
    EXPECT_NE(err.find("byte"), std::string::npos);
    EXPECT_FALSE(Json::Parse("[1, 2] trailing", &json, &err));
    EXPECT_FALSE(Json::Parse("", &json, &err));
}

// ------------------------------------------------- request/result JSON

TEST(RequestJson, RoundTripPreservesEveryField)
{
    ScheduleRequest request;
    request.model = "resnet50";
    request.batch = 4;
    request.hardware = "cloud";
    request.gbuf_bytes = 12LL << 20;
    request.dram_gbps = 48.0;
    request.scheduler = "cocco";
    request.profile = SearchProfile::kFull;
    request.seed = 0xFEEDFACEFEEDFACEULL;
    request.cost_n = 2.0;
    request.cost_m = 0.5;
    request.chains = 8;
    request.threads = 3;
    request.deadline_ms = 2500;
    request.artifacts.ir = true;
    request.artifacts.traces = true;
    request.artifacts.execution_graph_rows = 77;

    ScheduleRequest back;
    std::string err;
    ASSERT_TRUE(ScheduleRequest::FromJson(request.ToJson(), &back, &err))
        << err;
    EXPECT_EQ(back.model, request.model);
    EXPECT_EQ(back.batch, request.batch);
    EXPECT_EQ(back.hardware, request.hardware);
    EXPECT_EQ(back.gbuf_bytes, request.gbuf_bytes);
    EXPECT_EQ(back.dram_gbps, request.dram_gbps);
    EXPECT_EQ(back.scheduler, request.scheduler);
    EXPECT_EQ(back.profile, request.profile);
    EXPECT_EQ(back.seed, request.seed);
    EXPECT_EQ(back.cost_n, request.cost_n);
    EXPECT_EQ(back.cost_m, request.cost_m);
    EXPECT_EQ(back.chains, request.chains);
    EXPECT_EQ(back.threads, request.threads);
    EXPECT_EQ(back.deadline_ms, request.deadline_ms);
    EXPECT_EQ(back.artifacts.ir, request.artifacts.ir);
    EXPECT_EQ(back.artifacts.instructions,
              request.artifacts.instructions);
    EXPECT_EQ(back.artifacts.traces, request.artifacts.traces);
    EXPECT_EQ(back.artifacts.execution_graph_rows,
              request.artifacts.execution_graph_rows);
}

TEST(RequestJson, UnknownFieldsAndInlineGraphsAreRejected)
{
    Json json = Json::Object();
    json.Set("model", Json::Str("resnet50"));
    json.Set("sede", Json::U64(3));  // typo
    ScheduleRequest request;
    std::string err;
    EXPECT_FALSE(ScheduleRequest::FromJson(json, &request, &err));
    EXPECT_NE(err.find("sede"), std::string::npos);

    // Inline-graph requests have no JSON form; the marker is rejected
    // with an explanation.
    ScheduleRequest inline_request;
    inline_request.graph = TinyNet();
    EXPECT_FALSE(ScheduleRequest::FromJson(inline_request.ToJson(),
                                           &request, &err));
    EXPECT_NE(err.find("inline"), std::string::npos);
}

TEST(RequestJson, GarbageNumericsAreRejectedNotTruncated)
{
    // One table, every entry point: the request JSON decoder, the
    // facade's Schedule and Submit/Wait, and the service. Each rejects
    // the value before any search with one message naming the field.
    struct Bad {
        const char *field;
        Json value;  ///< set on the request JSON at `field`
        /** The same value in-process; null where the C++ field type
         *  cannot hold it (fractions, negative seeds, saturation). */
        std::function<void(ScheduleRequest *)> set;
    };
    const Bad table[] = {
        {"batch", Json::Int(-3), [](ScheduleRequest *r) { r->batch = -3; }},
        {"batch", Json::Number(2.5), nullptr},
        {"batch", Json::Number(1e300), nullptr},
        {"batch", Json::Int(0), [](ScheduleRequest *r) { r->batch = 0; }},
        {"gbuf_bytes", Json::Int(-1),
         [](ScheduleRequest *r) { r->gbuf_bytes = -1; }},
        {"gbuf_bytes", Json::Number(1.5), nullptr},
        {"dram_gbps", Json::Number(-5),
         [](ScheduleRequest *r) { r->dram_gbps = -5; }},
        {"dram_gbps", Json::Number(-16), nullptr},
        {"cost_n", Json::Number(std::nan("")),
         [](ScheduleRequest *r) { r->cost_n = std::nan(""); }},
        {"cost_m", Json::Number(INFINITY),
         [](ScheduleRequest *r) { r->cost_m = INFINITY; }},
        {"deadline_ms", Json::Int(-1),
         [](ScheduleRequest *r) { r->deadline_ms = -1; }},
        {"execution_graph_rows", Json::Int(-2),
         [](ScheduleRequest *r) { r->artifacts.execution_graph_rows = -2; }},
        {"seed", Json::Int(-3), nullptr},
        {"seed", Json::Number(2.5), nullptr},
        {"chains", Json::Int(2000000),
         [](ScheduleRequest *r) { r->chains = 2000000; }},
        {"threads", Json::Int(-1),
         [](ScheduleRequest *r) { r->threads = -1; }},
    };

    SchedulerService service;
    service.scheduler().models().Register(
        "tinynet", [](int) { return *TinyNet(); });
    Scheduler scheduler;
    scheduler.models().Register("tinynet",
                                [](int) { return *TinyNet(); });

    for (const Bad &bad : table) {
        SCOPED_TRACE(std::string(bad.field) + " = " + bad.value.Dump());
        Json json = Json::Object();
        json.Set("model", Json::Str("tinynet"));
        if (std::string(bad.field) == "execution_graph_rows") {
            Json arts = Json::Object();
            arts.Set(bad.field, bad.value);
            json.Set("artifacts", std::move(arts));
        } else {
            json.Set(bad.field, bad.value);
        }
        ScheduleRequest decoded;
        std::string err;
        EXPECT_FALSE(ScheduleRequest::FromJson(json, &decoded, &err));
        EXPECT_NE(err.find("\"" + std::string(bad.field) + "\""),
                  std::string::npos)
            << err;
        if (!bad.set) continue;

        ScheduleRequest request;
        request.model = "tinynet";
        bad.set(&request);
        std::string why;
        EXPECT_FALSE(request.Validate(&why));
        EXPECT_EQ(why, err);

        const ScheduleResult sync = scheduler.Schedule(request);
        EXPECT_FALSE(sync.ok);
        EXPECT_EQ(sync.error, err);
        EXPECT_EQ(sync.stats.iterations, 0);
        const ScheduleResult async = scheduler.Wait(scheduler.Submit(request));
        EXPECT_FALSE(async.ok);
        EXPECT_EQ(async.error, err);

        const ServiceStats before = service.stats();
        const std::size_t cached = service.result_cache().size();
        const ScheduleResult served = service.Schedule(request);
        EXPECT_FALSE(served.ok);
        EXPECT_EQ(served.error, err);
        EXPECT_EQ(service.stats().searches, before.searches);
        EXPECT_EQ(service.result_cache().size(), cached);
    }
    // Nor an error-memo entry: the threads and deadline_ms rows share
    // this valid request's fingerprint (neither field is part of it),
    // and it still runs a real search.
    ScheduleRequest valid;
    valid.model = "tinynet";
    EXPECT_TRUE(service.Schedule(valid).ok);
    EXPECT_EQ(service.stats().searches, 1u);
    EXPECT_EQ(service.stats().negative_hits, 0u);

    // AsInt / AsU64 saturate instead of invoking UB on out-of-range
    // values.
    EXPECT_EQ(Json::Number(1e300).AsInt(), INT64_MAX);
    EXPECT_EQ(Json::Number(-1e300).AsInt(), INT64_MIN);
    EXPECT_EQ(Json::U64(~0ULL).AsInt(), INT64_MAX);
    EXPECT_EQ(Json::Number(1e300).AsU64(), UINT64_MAX);
}

TEST(ResultJson, RoundTripIsBitExactOnLatencyAndEnergy)
{
    Scheduler scheduler;
    ScheduleRequest request = TinyRequest(21);
    request.artifacts.instructions = true;
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;

    // Through text, as somac does it.
    const std::string text = result.ToJson().Dump(2);
    Json json;
    ScheduleResult back;
    std::string err;
    ASSERT_TRUE(Json::Parse(text, &json, &err)) << err;
    ASSERT_TRUE(ScheduleResult::FromJson(json, &back, &err)) << err;

    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.model, result.model);
    EXPECT_EQ(back.scheduler, result.scheduler);
    EXPECT_EQ(back.seed, result.seed);
    EXPECT_EQ(back.scheme, result.scheme);
    EXPECT_EQ(back.cost, result.cost);  // bit-for-bit
    EXPECT_EQ(back.report.latency, result.report.latency);
    EXPECT_EQ(back.report.core_energy_j, result.report.core_energy_j);
    EXPECT_EQ(back.report.dram_energy_j, result.report.dram_energy_j);
    EXPECT_EQ(back.report.num_tiles, result.report.num_tiles);
    EXPECT_EQ(back.stage1_report.valid, result.stage1_report.valid);
    EXPECT_EQ(back.stage1_report.latency, result.stage1_report.latency);
    EXPECT_EQ(back.asm_text, result.asm_text);
    EXPECT_EQ(back.num_instructions, result.num_instructions);
    EXPECT_EQ(back.stats.iterations, result.stats.iterations);
}

// ------------------------------------------------------------ registries

TEST(Registries, BuiltinsArePresent)
{
    Scheduler scheduler;
    EXPECT_TRUE(scheduler.models().Has("resnet50"));
    EXPECT_TRUE(scheduler.models().Has("gpt2xl-decode"));
    EXPECT_TRUE(scheduler.hardware().Has("edge"));
    EXPECT_TRUE(scheduler.hardware().Has("cloud"));
    EXPECT_TRUE(scheduler.schedulers().Has("soma"));
    EXPECT_TRUE(scheduler.schedulers().Has("cocco"));
    EXPECT_TRUE(scheduler.schedulers().Has("lfa-only"));
}

TEST(Registries, UnknownNamesErrorWithCandidates)
{
    // All four registries share one lookup error format, and Schedule
    // reports it verbatim.
    struct Case {
        const char *kind;
        std::function<void(ScheduleRequest *)> set;
        std::string expected;
    };
    const std::vector<Case> cases = {
        {"model",
         [](ScheduleRequest *r) {
             r->graph = nullptr;
             r->model = "resnet999";
         },
         "unknown model \"resnet999\" (registered: resnet50, resnet101, "
         "ires, randwire, transformer-large, gpt2s-prefill, gpt2s-decode, "
         "gpt2xl-prefill, gpt2xl-decode)"},
        {"hardware", [](ScheduleRequest *r) { r->hardware = "tpu"; },
         "unknown hardware \"tpu\" (registered: edge, cloud)"},
        {"scheduler", [](ScheduleRequest *r) { r->scheduler = "magic"; },
         "unknown scheduler \"magic\" (registered: soma, cocco, lfa-only)"},
        {"memory model",
         [](ScheduleRequest *r) { r->memory_model = "hbm3"; },
         "unknown memory model \"hbm3\" (registered: analytical, banked)"},
    };
    Scheduler scheduler;
    for (const Case &c : cases) {
        ScheduleRequest request = TinyRequest(1);
        c.set(&request);
        ScheduleResult result = scheduler.Schedule(request);
        EXPECT_FALSE(result.ok) << c.kind;
        EXPECT_EQ(result.error, c.expected) << c.kind;
    }
}

/** A backend registered under the builtin "analytical" name. */
class ShadowAnalytical : public MemoryModel {
  public:
    const char *name() const override { return "analytical"; }
    const char *description() const override { return "shadow"; }
    void FillTransferSeconds(const HardwareConfig &, const DramTransferList &,
                             std::vector<double> *) const override
    {
    }
    double ChannelBusySeconds(const HardwareConfig &, Bytes,
                              const std::vector<double> &) const override
    {
        return 0.0;
    }
};

TEST(Registries, ReRegisterReplacesInPlace)
{
    // Re-registering a known name swaps its value and keeps its slot in
    // Names(), in every registry.
    Scheduler scheduler;

    ModelRegistry &models = scheduler.models();
    const std::vector<std::string> model_names = models.Names();
    models.Register("resnet50", [](int batch) {
        GraphBuilder b("replaced", batch);
        b.MarkOutput(b.InputConv("c", ExtShape{3, 8, 8}, 4, 3, 1, 1));
        return b.Take();
    });
    EXPECT_EQ(models.Names(), model_names);
    EXPECT_EQ((*models.Find("resnet50", nullptr))(1).name(), "replaced");

    HardwareRegistry &hardware = scheduler.hardware();
    const std::vector<std::string> hw_names = hardware.Names();
    hardware.Register("edge", [] {
        HardwareConfig hw = EdgeAccelerator();
        hw.cores = 3;
        return hw;
    });
    EXPECT_EQ(hardware.Names(), hw_names);
    HardwareConfig hw;
    ASSERT_TRUE(hardware.Make("edge", &hw, nullptr));
    EXPECT_EQ(hw.cores, 3);

    SchedulerRegistry &schedulers = scheduler.schedulers();
    const std::vector<std::string> fn_names = schedulers.Names();
    schedulers.Register("soma", [](const Graph &, const HardwareConfig &,
                                   const ScheduleRequest &,
                                   const SomaOptions &) {
        SchedulerRunResult out;
        out.outer_iterations = 7;
        return out;
    });
    EXPECT_EQ(schedulers.Names(), fn_names);
    const SchedulerFn *fn = schedulers.Find("soma", nullptr);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ((*fn)(*TinyNet(), hw, ScheduleRequest{}, SomaOptions{})
                  .outer_iterations,
              7);

    MemoryModelRegistry &memory = scheduler.memory_models();
    const std::vector<std::string> mm_names = memory.Names();
    static const ShadowAnalytical shadow;
    memory.Register(&shadow);
    EXPECT_EQ(memory.Names(), mm_names);
    EXPECT_EQ(memory.Find("analytical", nullptr), &shadow);
}

TEST(Registries, CustomEntriesServeRequests)
{
    Scheduler scheduler;
    scheduler.models().Register("tiny", [](int) {
        GraphBuilder b("tiny", 1);
        LayerId c = b.InputConv("c", ExtShape{3, 16, 16}, 8, 3, 1, 1);
        b.MarkOutput(c);
        return b.Take();
    });
    scheduler.hardware().Register("nano", [] {
        HardwareConfig hw = EdgeAccelerator();
        hw.name = "nano";
        hw.cores = 2;
        return hw;
    });
    ScheduleRequest request;
    request.model = "tiny";
    request.hardware = "nano";
    request.profile = SearchProfile::kQuick;
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.model, "tiny");
    EXPECT_EQ(result.hardware, "nano");
}

TEST(Registries, LfaOnlySchedulerRuns)
{
    Scheduler scheduler;
    ScheduleRequest request = TinyRequest(9);
    request.scheduler = "lfa-only";
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;
    // No DLSA exploration: stage-1 view is the final view.
    EXPECT_FALSE(result.stage1_report.valid);
    EXPECT_GT(result.report.latency, 0.0);
}

// ---------------------------------------------------------------- facade

TEST(SchedulerFacade, MatchesLegacyRunSomaBitForBit)
{
    std::shared_ptr<const Graph> graph = TinyNet();
    HardwareConfig hw = EdgeAccelerator();
    SomaSearchResult legacy = RunSoma(*graph, hw, QuickSomaOptions(13));

    Scheduler scheduler;
    ScheduleRequest request;
    request.graph = graph;
    request.profile = SearchProfile::kQuick;
    request.seed = 13;
    ScheduleResult result = scheduler.Schedule(request);

    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_TRUE(legacy.report.valid);
    EXPECT_EQ(result.report.latency, legacy.report.latency);
    EXPECT_EQ(result.report.EnergyJ(), legacy.report.EnergyJ());
    EXPECT_EQ(result.cost, legacy.cost);
    EXPECT_EQ(result.scheme, legacy.lfa.ToString(*graph));
}

TEST(SchedulerFacade, ProgressEventsCoverTheLifecycle)
{
    Scheduler scheduler;
    ScheduleRequest request = TinyRequest(5);
    std::vector<std::string> phases;
    request.on_progress = [&phases](const ProgressEvent &event) {
        phases.push_back(event.phase);
    };
    ScheduleResult result = scheduler.Schedule(request);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0], "build");
    EXPECT_EQ(phases[1], "search");
    EXPECT_EQ(phases[2], "artifacts");
    EXPECT_EQ(phases[3], "done");
    EXPECT_GT(result.stats.search_seconds, 0.0);
    EXPECT_GE(result.stats.total_seconds, result.stats.search_seconds);
    EXPECT_GT(result.stats.iterations, 0);
}

// ----------------------------------------------------------------- async

TEST(SchedulerAsync, SubmitIsDeterministicUnderConcurrentSiblings)
{
    Scheduler::Options options;
    options.workers = 3;
    Scheduler scheduler(options);

    ScheduleRequest request = TinyRequest(42);
    ScheduleResult reference = scheduler.Schedule(request);
    ASSERT_TRUE(reference.ok) << reference.error;

    // Same-seed copies race with different-seed noise jobs; every
    // same-seed result must be bit-identical to the sync reference.
    std::vector<Scheduler::JobId> same, noise;
    for (int i = 0; i < 3; ++i) {
        same.push_back(scheduler.Submit(request));
        noise.push_back(scheduler.Submit(TinyRequest(100 + i)));
    }
    for (Scheduler::JobId id : same) {
        ScheduleResult r = scheduler.Wait(id);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.report.latency, reference.report.latency);
        EXPECT_EQ(r.report.EnergyJ(), reference.report.EnergyJ());
        EXPECT_EQ(r.cost, reference.cost);
        EXPECT_EQ(r.scheme, reference.scheme);
    }
    for (Scheduler::JobId id : noise) EXPECT_TRUE(scheduler.Wait(id).ok);
}

TEST(SchedulerAsync, WaitIsSingleCollectionAndUnknownIdsFail)
{
    Scheduler scheduler;
    Scheduler::JobId id = scheduler.Submit(TinyRequest(1));
    ScheduleResult first = scheduler.Wait(id);
    EXPECT_TRUE(first.ok) << first.error;
    ScheduleResult second = scheduler.Wait(id);  // already collected
    EXPECT_FALSE(second.ok);
    EXPECT_NE(second.error.find("unknown job"), std::string::npos);
}

TEST(SchedulerAsync, DiscardReleasesUncollectedJobs)
{
    Scheduler scheduler;
    // Discarding a finished job frees its slot: Wait no longer knows it.
    Scheduler::JobId done_id = scheduler.Submit(TinyRequest(1));
    while (!scheduler.Done(done_id)) std::this_thread::yield();
    scheduler.Discard(done_id);
    EXPECT_FALSE(scheduler.Done(done_id));
    EXPECT_FALSE(scheduler.Wait(done_id).ok);

    // Discarding a pending job cancels it and self-cleans on completion
    // (fire-and-forget); the scheduler keeps serving afterwards.
    Scheduler::JobId pending_id = scheduler.Submit(TinyRequest(2));
    scheduler.Discard(pending_id);
    ScheduleResult after = scheduler.Schedule(TinyRequest(3));
    EXPECT_TRUE(after.ok) << after.error;
    EXPECT_FALSE(scheduler.Done(pending_id));
}

TEST(SchedulerAsync, CancelledQueuedJobNeverRuns)
{
    // One worker; the first job blocks in its progress callback until
    // released, so the second job is still queued when cancelled.
    Scheduler::Options options;
    options.workers = 1;
    Scheduler scheduler(options);

    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;

    ScheduleRequest blocker = TinyRequest(2);
    blocker.on_progress = [&](const ProgressEvent &event) {
        if (event.phase != "search") return;
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
    };
    Scheduler::JobId blocker_id = scheduler.Submit(blocker);
    Scheduler::JobId victim_id = scheduler.Submit(TinyRequest(3));

    EXPECT_TRUE(scheduler.Cancel(victim_id));
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();

    ScheduleResult blocked = scheduler.Wait(blocker_id);
    EXPECT_TRUE(blocked.ok) << blocked.error;
    ScheduleResult victim = scheduler.Wait(victim_id);
    EXPECT_FALSE(victim.ok);
    EXPECT_EQ(victim.error, "cancelled");
    // Cancelling a finished job reports false.
    EXPECT_FALSE(scheduler.Cancel(blocker_id));
}

}  // namespace
}  // namespace soma

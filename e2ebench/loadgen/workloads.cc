/*
 * Workload definitions. All three are closed loops: each client sends
 * its next request only when the previous one returned. Requests are
 * grouped into rounds; every round covers the workload's full point
 * set once, so each run measures the same mix whatever its length.
 *
 * KNOWN DEFECT (not worked around here): Graph::Consumers() const
 * builds its consumer lists lazily without synchronisation
 * (src/workload/graph.cc), and the service's GraphCache shares one
 * Graph between concurrent requests. Two requests that first touch a
 * freshly built graph at the same time can corrupt the heap:
 * `somac sweep` over gpt2s-prefill seeds 1-5 with its default --jobs 2
 * aborted in 7 of 30 processes (0 of 30 with --jobs 1). cnn-sweep keeps
 * its two clients sharing cached graphs in generated order, with no
 * pre-warming, so the race stays observable: a run it kills is reported
 * with every unfinished request counted as failed.
 *
 * KNOWN DEFECT (not worked around here): cocco results depend on the
 * service's warm state (mainly the shared TileCostMemo). A cocco request
 * run after other requests on its (model, hardware) can return other
 * bytes than the same request run cold, so with two clients a cnn-sweep
 * cocco result can change between runs of one seed. The checks report
 * it. See e2ebench/README.md, "Known defects".
 */
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/json.h"
#include "common/rng.h"

namespace e2e {

using soma::ScheduleRequest;

namespace {

/*
 * Upper bounds on the request rate a run can reach, which size the
 * generated mix: about three times what a 4-vCPU host sustains
 * (~1.8 requests/s on llm-prefill, ~55 on cnn-sweep).
 */
constexpr double kLlmMaxRate = 6.0;
constexpr double kCnnMaxRate = 160.0;
constexpr int kReplayOrders = 64;

struct Point {
    const char *model;
    const char *hardware;
};

/** Distinct search seeds from one generator stream. */
class SeedSource {
  public:
    explicit SeedSource(soma::Rng *rng) : rng_(rng) {}
    std::uint64_t Next()
    {
        for (;;) {
            const auto s = static_cast<std::uint64_t>(
                rng_->UniformInt64(1, (std::int64_t{1} << 31) - 1));
            if (used_.insert(s).second) return s;
        }
    }

  private:
    soma::Rng *rng_;
    std::set<std::uint64_t> used_;
};

std::vector<int>
Shuffled(int n, soma::Rng &rng)
{
    std::vector<int> v(n);
    for (int i = 0; i < n; ++i) v[i] = i;
    for (int i = n - 1; i > 0; --i) std::swap(v[i], v[rng.UniformInt(0, i)]);
    return v;
}

ScheduleRequest
QuickRequest(const char *model, const char *hardware, const char *scheduler,
             const char *memory_model, std::uint64_t seed, int threads)
{
    ScheduleRequest r;
    r.model = model;
    r.hardware = hardware;
    r.scheduler = scheduler;
    r.memory_model = memory_model;
    r.profile = soma::SearchProfile::kQuick;
    r.seed = seed;
    r.threads = threads;
    return r;
}

/** Rounds of @p round_size requests a run of @p seconds can use at
 *  @p max_rate, on top of the quality rounds. */
int
RoundsFor(double seconds, double max_rate, int round_size, int quality)
{
    return quality +
           static_cast<int>(std::ceil(seconds * max_rate / round_size));
}

void
Add(const ScheduleRequest &generated, bool validate_memory, Plan *plan)
{
    PlannedRequest p;
    p.json = generated.ToJson().Dump();
    p.validate_memory = validate_memory;
    plan->distinct.push_back(std::move(p));
}

/*
 * llm-prefill: one client, nproc driver threads, soma at the quick
 * profile over three transformer points (0.3-1.3 s each). The LFA parse
 * path dominates search CPU; the result cache never hits.
 */
void
MakeLlmPrefill(soma::Rng &rng, int nproc, double seconds, Plan *plan)
{
    static const Point kPoints[] = {{"gpt2s-prefill", "edge"},
                                    {"transformer-large", "edge"},
                                    {"gpt2xl-decode", "cloud"}};
    constexpr int kN = 3;
    plan->clients = 1;
    plan->threads = nproc;
    plan->round_size = kN;
    plan->quality_rounds = 2;
    SeedSource seeds(&rng);
    const int rounds =
        RoundsFor(seconds, kLlmMaxRate, kN, plan->quality_rounds);
    for (int round = 0; round < rounds; ++round) {
        for (int k : Shuffled(kN, rng)) {
            Add(QuickRequest(kPoints[k].model, kPoints[k].hardware, "soma",
                             "", seeds.Next(), plan->threads),
                false, plan);
        }
    }
}

/*
 * cnn-sweep: two clients (somac sweep's default --jobs 2), nproc/2
 * driver threads each. One round is the full grid {resnet50,
 * resnet101, ires, randwire} x {edge, cloud} x {analytical, banked} x
 * {soma, cocco, lfa-only} = 48 short searches; the three schedulers of
 * one (model, hw, memory model) share a seed, giving the matched points
 * behind speedup_vs_cocco. Six requests per round (one in eight) also
 * ask for the instructions artifact and validate_memory. Every request
 * has a new fingerprint, so the result cache only takes inserts.
 */
void
MakeCnnSweep(soma::Rng &rng, int nproc, double seconds, Plan *plan)
{
    static const char *const kModels[] = {"resnet50", "resnet101", "ires",
                                          "randwire"};
    static const char *const kHardware[] = {"edge", "cloud"};
    static const char *const kMemory[] = {"analytical", "banked"};
    static const char *const kSchedulers[] = {"soma", "cocco", "lfa-only"};
    constexpr int kGrid = 4 * 2 * 2 * 3;
    constexpr int kArtifactsPerRound = kGrid / 8;
    plan->clients = 2;
    plan->threads = std::max(1, nproc / 2);
    plan->round_size = kGrid;
    plan->quality_rounds = 1;
    SeedSource seeds(&rng);
    const int rounds =
        RoundsFor(seconds, kCnnMaxRate, kGrid, plan->quality_rounds);
    for (int round = 0; round < rounds; ++round) {
        std::vector<std::uint64_t> point_seed(kGrid / 3);
        for (auto &s : point_seed) s = seeds.Next();
        const std::vector<int> artifact_pick = Shuffled(kGrid, rng);
        std::vector<bool> with_artifacts(kGrid, false);
        for (int i = 0; i < kArtifactsPerRound; ++i)
            with_artifacts[artifact_pick[i]] = true;
        for (int g : Shuffled(kGrid, rng)) {
            const int point = g / 3;  // (model, hw, memory model)
            ScheduleRequest r = QuickRequest(
                kModels[point / 4], kHardware[(point / 2) % 2],
                kSchedulers[g % 3], kMemory[point % 2], point_seed[point],
                plan->threads);
            r.artifacts.instructions = with_artifacts[g];
            Add(r, with_artifacts[g], plan);
        }
    }
}

/*
 * cache-replay: nproc clients replay eight fixed fingerprints that the
 * set-up computed into an on-disk cache directory. A fresh service
 * serves each fingerprint's first request from disk and the rest from
 * memory, so no search runs: fingerprinting, the LRU lock under
 * contention and result-JSON decoding are all of the work.
 *
 * The fill runs each search on one driver thread. With more, a cocco
 * search on the fill's warm service can return timing-dependent bytes
 * (the cocco warm-state defect above): with nproc = 4, cocco on
 * randwire/edge did so in 2 of 13 seeds tried, in about a quarter of
 * its fills. Every hit is checked against the fill's bytes and a traced
 * run fills twice, so such a seed would fail its checks at random; the
 * one-thread fill is repeatable. cnn-sweep still runs cocco with
 * several driver threads on a warm service.
 */
void
MakeCacheReplay(soma::Rng &rng, int nproc, Plan *plan)
{
    static const char *const kModels[] = {"resnet50", "randwire"};
    static const char *const kHardware[] = {"edge", "cloud"};
    static const char *const kSchedulers[] = {"soma", "cocco"};
    constexpr int kN = 8;
    plan->clients = nproc;
    plan->threads = 1;
    plan->round_size = kN;
    plan->quality_rounds = 1;
    SeedSource seeds(&rng);
    for (int k = 0; k < kN; ++k) {
        Add(QuickRequest(kModels[k / 4], kHardware[(k / 2) % 2],
                         kSchedulers[k % 2], "", seeds.Next(), plan->threads),
            false, plan);
    }
    for (int i = 0; i < kReplayOrders; ++i)
        plan->replay_orders.push_back(Shuffled(kN, rng));
}

}  // namespace

bool
ParseWorkload(const std::string &name, WorkloadKind *out)
{
    for (WorkloadKind k : {WorkloadKind::kLlmPrefill, WorkloadKind::kCnnSweep,
                           WorkloadKind::kCacheReplay}) {
        if (name == WorkloadName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

const char *
WorkloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::kLlmPrefill:
        return "llm-prefill";
    case WorkloadKind::kCnnSweep:
        return "cnn-sweep";
    case WorkloadKind::kCacheReplay:
        return "cache-replay";
    }
    return "?";
}

int
Plan::At(std::int64_t position) const
{
    if (position < 0) return -1;
    if (replay_orders.empty()) {
        return position < static_cast<std::int64_t>(distinct.size())
                   ? static_cast<int>(position)
                   : -1;
    }
    const std::int64_t round = position / round_size;
    const auto &order =
        replay_orders[static_cast<std::size_t>(round) % replay_orders.size()];
    return order[static_cast<std::size_t>(position % round_size)];
}

void
MakePlan(WorkloadKind kind, std::uint64_t seed, int nproc, double seconds,
         Plan *out)
{
    *out = Plan{};
    // One generator stream per (workload, seed).
    soma::Rng rng(seed * 0x9E3779B97F4A7C15ULL +
                  static_cast<std::uint64_t>(kind) + 1);
    switch (kind) {
    case WorkloadKind::kLlmPrefill:
        MakeLlmPrefill(rng, nproc, seconds, out);
        break;
    case WorkloadKind::kCnnSweep:
        MakeCnnSweep(rng, nproc, seconds, out);
        break;
    case WorkloadKind::kCacheReplay:
        MakeCacheReplay(rng, nproc, out);
        break;
    }
}

bool
DecodePlan(Plan *plan, std::string *err)
{
    for (PlannedRequest &p : plan->distinct) {
        soma::Json parsed;
        if (!soma::Json::Parse(p.json, &parsed, err) ||
            !ScheduleRequest::FromJson(parsed, &p.request, err))
            return false;
        p.request.validate_memory = p.validate_memory;
    }
    return true;
}

}  // namespace e2e

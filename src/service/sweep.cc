#include "service/sweep.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>

#include "common/hash.h"
#include "search/driver.h"
#include "service/service.h"

namespace soma {

namespace {

/** One grid axis: the spec key and the request field it sets. */
struct SweepAxis {
    const char *name;
    const char *field;
    bool megabytes = false;  ///< values go through GbufMbToBytes
};

/** Nesting order, outermost first. */
constexpr SweepAxis kSweepAxes[] = {
    {"models", "model"},
    {"batches", "batch"},
    {"hardware", "hardware"},
    {"gbuf_mb", "gbuf_bytes", true},
    {"dram_gbps", "dram_gbps"},
    {"schedulers", "scheduler"},
    {"profiles", "profile"},
    {"seeds", "seed"},
};
constexpr std::size_t kNumAxes = std::size(kSweepAxes);

/** Round-trippable text of a double (17 significant digits). */
std::string
ExactDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

Json
GbufMbToBytes(const Json &mb)
{
    if (!mb.IsNumber()) return mb;
    return Json::Number(std::trunc(mb.AsDouble() * 1024 * 1024));
}

bool
ExpandSweepSpec(const Json &spec, std::vector<ScheduleRequest> *requests,
                std::string *err)
{
    if (!spec.IsObject()) {
        *err = "sweep spec must be a JSON object";
        return false;
    }
    Json base = Json::Object();
    const Json *values[kNumAxes] = {};
    for (const auto &[key, value] : spec.items()) {
        if (key == "base") {
            base = value;
            continue;
        }
        std::size_t a = 0;
        while (a < kNumAxes && key != kSweepAxes[a].name) ++a;
        if (a == kNumAxes) {
            *err = "unknown sweep field \"" + key + "\"";
            return false;
        }
        if (!value.IsArray()) {
            *err = "sweep field \"" + key + "\" must be an array";
            return false;
        }
        if (value.size() > 0) values[a] = &value;
    }
    ScheduleRequest request;
    if (!ScheduleRequest::FromJson(base, &request, err)) {
        *err = "sweep base: " + *err;
        return false;
    }

    // An odometer over the axes; the innermost (last) turns fastest.
    std::size_t digit[kNumAxes] = {};
    for (;;) {
        Json point = base;
        for (std::size_t a = 0; a < kNumAxes; ++a) {
            if (!values[a]) continue;
            const Json &v = values[a]->at(digit[a]);
            point.Set(kSweepAxes[a].field,
                      kSweepAxes[a].megabytes ? GbufMbToBytes(v) : v);
        }
        if (!ScheduleRequest::FromJson(point, &request, err)) {
            *err = "sweep point " + std::to_string(requests->size()) +
                   ": " + *err;
            return false;
        }
        requests->push_back(std::move(request));
        std::size_t a = kNumAxes;
        while (a > 0 && (!values[a - 1] ||
                         ++digit[a - 1] == values[a - 1]->size())) {
            digit[--a] = 0;
        }
        if (a == 0) return true;
    }
}

std::vector<SweepRow>
RunSweep(SchedulerService &service,
         const std::vector<ScheduleRequest> &requests, int jobs)
{
    std::vector<SweepRow> rows(requests.size());
    RunOnWorkers(jobs, static_cast<int>(rows.size()), [&](int i) {
        rows[i].request = requests[i];
        rows[i].result = service.Schedule(rows[i].request);
    });
    return rows;
}

const char *
RowStatus(const ScheduleResult &result)
{
    if (result.deadline_expired) return "deadline";
    return result.ok ? "ok" : "error";
}

const char kSweepCsvHeader[] =
    "fingerprint,model,batch,hardware,gbuf_bytes,dram_gbps,scheduler,"
    "profile,seed,status,cost,latency,energy_j,dram_bytes,iterations";

std::string
CsvRow(const SweepRow &row)
{
    const ScheduleRequest &rq = row.request;
    const ScheduleResult &rs = row.result;
    std::ostringstream os;
    os << HexU64(rq.Fingerprint()) << ',' << rq.model << ',' << rq.batch
       << ',' << rq.hardware << ',' << rq.gbuf_bytes << ','
       << ExactDouble(rq.dram_gbps) << ',' << rq.scheduler << ','
       << ToString(rq.profile) << ',' << rq.seed << ','
       << RowStatus(rs);
    if (rs.ok) {
        os << ',' << ExactDouble(rs.cost) << ','
           << ExactDouble(rs.report.latency) << ','
           << ExactDouble(rs.report.EnergyJ()) << ','
           << rs.report.dram_bytes << ',' << rs.stats.iterations;
    } else {
        os << ",,,,,";
    }
    return os.str();
}

Json
JsonRow(const SweepRow &row)
{
    const ScheduleRequest &rq = row.request;
    const ScheduleResult &rs = row.result;
    Json json = Json::Object();
    json.Set("fingerprint", Json::Str(HexU64(rq.Fingerprint())));
    json.Set("model", Json::Str(rq.model));
    json.Set("batch", Json::Int(rq.batch));
    json.Set("hardware", Json::Str(rq.hardware));
    json.Set("gbuf_bytes", Json::Int(rq.gbuf_bytes));
    json.Set("dram_gbps", Json::Number(rq.dram_gbps));
    json.Set("scheduler", Json::Str(rq.scheduler));
    json.Set("profile", Json::Str(ToString(rq.profile)));
    json.Set("seed", Json::U64(rq.seed));
    json.Set("status", Json::Str(RowStatus(rs)));
    if (rs.ok) {
        json.Set("cost", Json::Number(rs.cost));
        json.Set("latency", Json::Number(rs.report.latency));
        json.Set("energy_j", Json::Number(rs.report.EnergyJ()));
        json.Set("dram_bytes", Json::Int(rs.report.dram_bytes));
        json.Set("iterations", Json::Int(rs.stats.iterations));
    } else {
        json.Set("error", Json::Str(rs.error));
    }
    return json;
}

}  // namespace soma

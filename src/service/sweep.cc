#include "service/sweep.h"

#include <cmath>
#include <iterator>

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

}  // namespace soma

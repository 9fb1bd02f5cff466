/**
 * @file
 * The traced half of the benchmark: per-layer metrics from timed
 * public calls into each module, and self-time accounting over span
 * trees.
 */
#ifndef E2E_LAYERS_H
#define E2E_LAYERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/request.h"
#include "hw/hardware.h"
#include "obs/trace.h"
#include "service/service.h"
#include "workloads.h"

namespace e2e {

/** One reported number with its unit and the samples behind it. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    long long samples = 0;
};

/** The hardware point the facade would resolve for @p request. */
bool ResolveHardware(soma::Scheduler &scheduler,
                     const soma::ScheduleRequest &request,
                     soma::HardwareConfig *hw, std::string *err);

/** What the layer replay works from: the workload and the state a
 *  finished untraced pass left behind. */
struct ReplayInputs {
    const Plan *plan = nullptr;
    /** The pass's service; every quality request is a result-cache hit
     *  on it now. */
    soma::SchedulerService *service = nullptr;
    std::vector<std::string> result_texts;  ///< quality results' bytes
    std::string probe_dir;  ///< scratch directory for the disk probe
};

/**
 * Time the public functions of every layer for each distinct (model,
 * hardware) point of the workload, recording one span per timed call
 * or loop on @p tracer (the calling thread only). Chains of LFA and
 * DLSA candidates are generated before any timing starts. Appends one
 * Metric per per-layer metric name to @p out. @p self_shift_ms gets the
 * self time (ms, by layer, summing to zero) that the program's prof
 * sites place in lower layers than the spans enclosing them; add it to
 * SelfTimeMs of the replay's spans.
 */
bool ReplayLayers(const ReplayInputs &in, soma::obs::Tracer *tracer,
                  std::vector<Metric> *out,
                  std::map<std::string, double> *self_shift_ms,
                  std::string *err);

/** One complete span, flattened out of a Tracer. */
struct SpanEvent {
    std::string name;
    int tid = 0;
    double ts_us = 0.0;   ///< on the benchmark's common time base
    double dur_us = 0.0;
    /** Synthesized SOMA_PROF_SCOPE aggregate (summed over chains, not a
     *  real interval): kept out of the self-time tree. */
    bool aggregate = false;
    std::int64_t request = -1;  ///< request id (stream position)
};

/** @p tracer's events shifted onto the time base starting at @p t0 and
 *  tagged with @p request. */
std::vector<SpanEvent> EventsOf(const soma::obs::Tracer &tracer,
                                soma::obs::MonotonicTime t0,
                                std::int64_t request);

/** The module (layer) a span belongs to, from its name. */
std::string LayerOf(const std::string &span_name);

/**
 * Self time per layer: each non-aggregate span's duration minus the
 * time its direct children (nested spans on the same thread) cover,
 * summed by LayerOf(name), in milliseconds. Only threads listed in
 * @p tids count (empty: every thread).
 */
std::map<std::string, double> SelfTimeMs(const std::vector<SpanEvent> &events,
                                         const std::vector<int> &tids);

/** Chrome trace-event JSON of @p events ({"traceEvents": [...]}); the
 *  request id travels in args.req. */
soma::Json ChromeTrace(const std::vector<SpanEvent> &events);

}  // namespace e2e

#endif  // E2E_LAYERS_H

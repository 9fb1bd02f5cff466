/**
 * @file
 * The sweep grid spec and executor behind `somac sweep` and the paper
 * benches: a base request plus axes, expanded into one ScheduleRequest
 * per grid point, scheduled through a SchedulerService into a
 * deterministic results table.
 *
 *   {"base": {request fields...},
 *    "models": [...], "batches": [...], "hardware": [...],
 *    "gbuf_mb": [...], "dram_gbps": [...], "schedulers": [...],
 *    "profiles": [...], "seeds": [...]}
 *
 * Each axis names one request field; a grid point is the base request
 * JSON with the axis values set, decoded and validated by
 * ScheduleRequest::FromJson — the same decoder and validator as any
 * request JSON, so an axis value is legal exactly when the field is.
 */
#ifndef SOMA_SERVICE_SWEEP_H
#define SOMA_SERVICE_SWEEP_H

#include <string>
#include <vector>

#include "api/request.h"
#include "common/json.h"

namespace soma {

class SchedulerService;

/** The request-JSON `gbuf_bytes` value for a size in MB (a `gbuf_mb`
 *  axis value or `somac run --gbuf-mb`): MB x 2^20, truncated to whole
 *  bytes. A non-number passes through so the decoder names the field. */
Json GbufMbToBytes(const Json &mb);

/**
 * Expand @p spec into its grid points, appended to @p requests in
 * nested-loop order (models, batches, hardware, gbuf_mb, dram_gbps,
 * schedulers, profiles, seeds — innermost last). Missing or empty axes
 * inherit the base request's value. False with @p err naming the
 * field on the first malformed axis or invalid point.
 */
bool ExpandSweepSpec(const Json &spec, std::vector<ScheduleRequest> *requests,
                     std::string *err);

/** One grid point and its result: one row of the sweep table. */
struct SweepRow {
    ScheduleRequest request;
    ScheduleResult result;
};

/**
 * Schedule @p requests through @p service on up to @p jobs workers
 * (work-stealing). Row i holds requests[i] and its result, so the
 * table order never depends on jobs or completion order. A failed
 * point is an error row; it does not stop the sweep.
 */
std::vector<SweepRow> RunSweep(SchedulerService &service,
                               const std::vector<ScheduleRequest> &requests,
                               int jobs);

/** A row's status column: "ok", "error", or "deadline" (the search was
 *  truncated; with numbers the scheme is truncated-but-valid, without
 *  them the deadline passed before anything was found). */
const char *RowStatus(const ScheduleResult &result);

/** The header line of the CSV results table (no trailing newline). */
extern const char kSweepCsvHeader[];

/** One CSV table row (no trailing newline). Only deterministic fields
 *  appear — no timings, no cache provenance — so a warm re-run emits
 *  identical bytes. */
std::string CsvRow(const SweepRow &row);

/** The same row as a JSON object (error rows carry "error"). */
Json JsonRow(const SweepRow &row);

}  // namespace soma

#endif  // SOMA_SERVICE_SWEEP_H

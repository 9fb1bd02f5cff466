/**
 * @file
 * The sweep grid spec behind `somac sweep`: a base request plus axes,
 * expanded into one ScheduleRequest per grid point.
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

}  // namespace soma

#endif  // SOMA_SERVICE_SWEEP_H

/**
 * @file
 * The benchmark's workloads: seeded, generated ScheduleRequest mixes.
 * Why each workload exists and what it should (not) move is documented
 * in e2ebench/README.md; the generation rules are in workloads.cc.
 */
#ifndef E2E_WORKLOADS_H
#define E2E_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/request.h"

namespace e2e {

enum class WorkloadKind { kLlmPrefill, kCnnSweep, kCacheReplay };

bool ParseWorkload(const std::string &name, WorkloadKind *out);
const char *WorkloadName(WorkloadKind kind);

/** One generated request. The load generator only ever schedules the
 *  request decoded from its wire form. */
struct PlannedRequest {
    std::string json;              ///< wire form, as generated
    bool validate_memory = false;  ///< has no wire form
    /** Decoded from `json` by DecodePlan, `validate_memory` applied. */
    soma::ScheduleRequest request;
};

/** A workload instance: who sends what, in which order. */
struct Plan {
    int clients = 1;            ///< closed-loop clients
    int threads = 1;            ///< SearchDriver threads per request
    int round_size = 1;         ///< a run ends only on a round boundary
    int quality_rounds = 1;     ///< rounds behind sim metrics and digests
    /** Every distinct request. For cache-replay these are the
     *  fingerprints the set-up fills the result cache with. */
    std::vector<PlannedRequest> distinct;
    /** cache-replay: one seeded permutation of `distinct` per round. */
    std::vector<std::vector<int>> replay_orders;

    /** Stream position -> index into `distinct`; -1 past the end. */
    int At(std::int64_t position) const;
    /** Positions whose results feed the sim metrics and digests. */
    std::int64_t QualityPositions() const
    {
        return static_cast<std::int64_t>(round_size) * quality_rounds;
    }
};

/**
 * Generate @p kind's request mix from @p seed in its JSON wire form: the
 * points, their order and every search seed. The mix holds as many
 * rounds as a run of @p seconds can use (see the rate bounds in
 * workloads.cc); a run that outpaces them ends when the mix does.
 */
void MakePlan(WorkloadKind kind, std::uint64_t seed, int nproc,
              double seconds, Plan *out);

/** Decode every request of @p plan from its wire form (the program's
 *  own ScheduleRequest::FromJson). False on the first decode error. */
bool DecodePlan(Plan *plan, std::string *err);

}  // namespace e2e

#endif  // E2E_WORKLOADS_H

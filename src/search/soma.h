/**
 * @file
 * SoMa end-to-end driver (Fig. 5): model + hardware + framework configs
 * in; best scheduling scheme, energy/latency report (and, through
 * src/compiler, IR + instructions) out.
 */
#ifndef SOMA_SEARCH_SOMA_H
#define SOMA_SEARCH_SOMA_H

#include <cstdint>

#include "search/buffer_allocator.h"
#include "search/warm_state.h"

namespace soma {

/**
 * Framework configuration: optimization goal Energy^n x Delay^m, search
 * hyperparameters, seed. The default iteration budgets are scaled down
 * from the paper's (beta_1=100, beta_2=1000 on a 192-core server) to
 * laptop-friendly values; raise them for higher-fidelity runs.
 */
struct SomaOptions {
    double cost_n = 1.0;
    double cost_m = 1.0;
    std::uint64_t seed = 1;

    /** Parallel multi-seed search configuration, applied to both
     *  stages. Results are deterministic in (seed, driver.chains) and
     *  independent of driver.threads. */
    SearchDriverOptions driver;

    /** Optional cross-request warm caches (service-injected; see
     *  warm_state.h). Propagated into the LFA stage's tiling cache and
     *  tile-cost memo unless those are set explicitly. Pure-value
     *  caches: presence never changes a result byte. */
    SearchWarmState warm;

    LfaStageOptions lfa;
    DlsaStageOptions dlsa;
    BufferAllocatorOptions alloc;
};

/** Search effort presets mapping onto the DESIGN.md budget table —
 *  the one profile enum of requests, the CLI and the benches. */
enum class SearchProfile { kQuick, kDefault, kFull };

/**
 * Copy of @p opts with the top-level cost exponents and driver config
 * propagated into both stage options. RunSoma applies this internally —
 * callers never need to; it is exposed only for code that invokes
 * RunLfaStage / RunDlsaStage directly from a SomaOptions (e.g. the
 * "lfa-only" scheduler in src/api/registry.cc).
 */
SomaOptions PropagateSomaOptions(SomaOptions opts);

/** The quick profile: small SA budgets. */
SomaOptions QuickSomaOptions(std::uint64_t seed = 1);

/** The default profile. */
SomaOptions DefaultSomaOptions(std::uint64_t seed = 1);

/** Paper-fidelity budgets (beta_1 = 100, beta_2 = 1000, 5 outer
 *  iterations): the full profile. */
SomaOptions FullSomaOptions(std::uint64_t seed = 1);

/** Run the full two-stage, buffer-allocated exploration. Cost exponents
 *  and driver config are propagated into the stages internally. */
SomaSearchResult RunSoma(const Graph &graph, const HardwareConfig &hw,
                         SomaOptions opts);

}  // namespace soma

#endif  // SOMA_SEARCH_SOMA_H

/**
 * @file
 * The pluggable registries behind the Scheduler facade. Each maps a name
 * onto a factory so new scenarios bolt on without touching call sites.
 * There are four, all thin NamedRegistry<T> subclasses
 * (common/named_registry.h: registration order, replace-in-place,
 * lookups that list the registered names instead of dying):
 *
 *  - ModelRegistry:     workload name -> Graph builder. Built-ins wrap
 *    the models.h zoo; consumers register custom builders (see
 *    examples/gpt2_llm.cpp, which registers token-length variants).
 *  - HardwareRegistry:  hardware name -> HardwareConfig. Built-ins are
 *    the paper's "edge" and "cloud" presets.
 *  - SchedulerRegistry: scheduler name -> exploration strategy.
 *    Built-ins: "soma" (two-stage + buffer allocator), "cocco"
 *    (ASPLOS'24 baseline), "lfa-only" (stage 1 with the classical
 *    double-buffer DLSA, no DLSA exploration).
 *  - MemoryModelRegistry (hw/memory_model.h): DRAM-timing backend name
 *    -> MemoryModel. Built-ins: "analytical" and "banked".
 *
 * Registration is not synchronized — configure registries before
 * scheduling from multiple threads.
 */
#ifndef SOMA_API_REGISTRY_H
#define SOMA_API_REGISTRY_H

#include <functional>
#include <string>

#include "api/request.h"
#include "common/named_registry.h"
#include "hw/hardware.h"
#include "search/buffer_allocator.h"
#include "workload/graph.h"

namespace soma {

class ModelRegistry
    : public NamedRegistry<std::function<Graph(int batch)>> {
  public:
    using Builder = std::function<Graph(int batch)>;

    /** Empty registry (for tests / fully custom zoos). */
    ModelRegistry() : NamedRegistry("model") {}

    /** Registry pre-populated with the models.h zoo. */
    static ModelRegistry WithBuiltins();
};

class HardwareRegistry
    : public NamedRegistry<std::function<HardwareConfig()>> {
  public:
    using Factory = std::function<HardwareConfig()>;

    HardwareRegistry() : NamedRegistry("hardware") {}

    /** Registry pre-populated with "edge" and "cloud". */
    static HardwareRegistry WithBuiltins();

    /** Builds @p name into @p out. On unknown names returns false and
     *  sets @p err to a message listing the registered names. */
    bool Make(const std::string &name, HardwareConfig *out,
              std::string *err) const
    {
        const Factory *factory = Find(name, err);
        if (!factory) return false;
        *out = (*factory)();
        return true;
    }
};

/**
 * What one scheduler run produces, independent of the strategy: the
 * winning scheme in all representations plus its evaluation. Schedulers
 * without a distinct stage-1 view (cocco, lfa-only) leave stage1_report
 * invalid and mirror `dlsa` into `stage1_dlsa`.
 */
struct SchedulerRunResult {
    LfaEncoding lfa;
    ParsedSchedule parsed;
    DlsaEncoding dlsa;
    DlsaEncoding stage1_dlsa;
    EvalReport report;
    EvalReport stage1_report;
    double cost = 0.0;
    SaStats stats;
    int outer_iterations = 0;
};

/**
 * An exploration strategy. @p opts is the request's resolved
 * SomaOptions (profile budgets + objective + driver overrides); the raw
 * request is also passed for strategies with their own knobs.
 */
using SchedulerFn = std::function<SchedulerRunResult(
    const Graph &graph, const HardwareConfig &hw,
    const ScheduleRequest &request, const SomaOptions &opts)>;

class SchedulerRegistry : public NamedRegistry<SchedulerFn> {
  public:
    SchedulerRegistry() : NamedRegistry("scheduler") {}

    /** Registry pre-populated with "soma", "cocco" and "lfa-only". */
    static SchedulerRegistry WithBuiltins();
};

}  // namespace soma

#endif  // SOMA_API_REGISTRY_H

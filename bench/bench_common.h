/**
 * @file
 * Shared infrastructure for the paper-reproduction benches: the run
 * profile (SOMA_BENCH_PROFILE=quick|default|full — the request
 * profiles, so one name means one budget everywhere), a sweep runner
 * that schedules request grids through the service's sweep executor
 * under google-benchmark, and a --json <path> sink that writes
 * {bench, metric, value} rows so the perf trajectory can be tracked
 * across PRs (BENCH_*.json).
 */
#ifndef SOMA_BENCH_BENCH_COMMON_H
#define SOMA_BENCH_BENCH_COMMON_H

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "api/request.h"
#include "common/json.h"
#include "common/thread_annotations.h"
#include "search/driver.h"
#include "service/service.h"
#include "service/sweep.h"

namespace soma {
namespace bench {

/** The profile named by SOMA_BENCH_PROFILE (unset: default). Any other
 *  value exits 2 with a message naming the three profiles. */
inline SearchProfile
ProfileFromEnv()
{
    const char *env = std::getenv("SOMA_BENCH_PROFILE");
    SearchProfile profile = SearchProfile::kDefault;
    if (env && !ParseSearchProfile(env, &profile)) {
        std::cerr << "SOMA_BENCH_PROFILE=\"" << env
                  << "\": expected quick, default or full\n";
        std::exit(2);
    }
    return profile;
}

/** Batch sizes swept per profile (the paper uses 1..64). */
inline std::vector<int>
BatchesFor(SearchProfile p)
{
    switch (p) {
      case SearchProfile::kQuick: return {1};
      case SearchProfile::kDefault: return {1, 4};
      case SearchProfile::kFull: return {1, 4, 16, 64};
    }
    return {1};
}

/** A JSON array of numbers or strings, for building sweep specs. */
template <typename T>
Json
JsonArray(const std::vector<T> &values)
{
    Json array = Json::Array();
    for (const T &v : values) {
        if constexpr (std::is_arithmetic_v<T>)
            array.Append(Json::Number(static_cast<double>(v)));
        else
            array.Append(Json::Str(v));
    }
    return array;
}

/** The service every grid of one bench process runs through. */
inline SchedulerService &
BenchService()
{
    static SchedulerService service;
    return service;
}

/**
 * Register google-benchmark @p name running the grid of @p spec (a
 * `somac sweep` spec) through RunSweep on BenchService(), one job per
 * hardware thread; its rows are appended to @p rows in expansion
 * order. A spec that does not expand is a bug in the bench: exits 2.
 */
inline void
RegisterSweep(const std::string &name, const Json &spec,
              std::vector<SweepRow> *rows)
{
    std::vector<ScheduleRequest> requests;
    std::string err;
    if (!ExpandSweepSpec(spec, &requests, &err)) {
        std::cerr << name << ": " << err << "\n";
        std::exit(2);
    }
    benchmark::RegisterBenchmark(
        name.c_str(),
        [requests, rows](benchmark::State &state) {
            for (auto _ : state) {
                std::vector<SweepRow> grid =
                    RunSweep(BenchService(), requests,
                             ResolveDriverThreads(SearchDriverOptions{}));
                rows->insert(rows->end(), grid.begin(), grid.end());
            }
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
}

/**
 * Machine-readable metric sink behind the benches' --json <path> flag.
 * Collects {bench, metric, value} rows during the run and writes them
 * as a JSON array on Flush (e.g. BENCH_fig6.json), so per-PR perf
 * trajectories can be diffed/plotted without scraping tables.
 */
class JsonSink {
  public:
    static JsonSink &Instance()
    {
        static JsonSink sink;
        return sink;
    }

    void Enable(std::string path)
    {
        MutexLock lock(mutex_);
        path_ = std::move(path);
    }

    bool enabled() const
    {
        MutexLock lock(mutex_);
        return !path_.empty();
    }

    void Add(const std::string &bench, const std::string &metric,
             double value)
    {
        MutexLock lock(mutex_);
        if (path_.empty()) return;
        Json row = Json::Object();
        row.Set("bench", Json::Str(bench));
        row.Set("metric", Json::Str(metric));
        row.Set("value", Json::Number(value));
        rows_.Append(std::move(row));
    }

    /** Writes the collected rows; true on success or when disabled. */
    bool Flush()
    {
        MutexLock lock(mutex_);
        if (path_.empty()) return true;
        std::ofstream out(path_);
        if (!out) {
            std::cerr << "cannot write --json file " << path_ << "\n";
            return false;
        }
        out << rows_.Dump(2) << "\n";
        std::cout << "wrote " << rows_.size() << " metric rows to "
                  << path_ << "\n";
        return static_cast<bool>(out);
    }

  private:
    JsonSink() : rows_(Json::Array()) {}

    mutable Mutex mutex_;  ///< lock order: leaf
    std::string path_ SOMA_GUARDED_BY(mutex_);
    Json rows_ SOMA_GUARDED_BY(mutex_);
};

/**
 * Strips "--json <path>" / "--json=<path>" from argv (google-benchmark
 * rejects flags it does not know) and enables the JsonSink. Call at the
 * top of main, before benchmark::Initialize.
 */
inline void
InitBenchJson(int *argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < *argc) {
            JsonSink::Instance().Enable(argv[++i]);
        } else if (arg.rfind("--json=", 0) == 0) {
            JsonSink::Instance().Enable(arg.substr(7));
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
}

}  // namespace bench
}  // namespace soma

#endif  // SOMA_BENCH_BENCH_COMMON_H

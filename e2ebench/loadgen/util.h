/**
 * @file
 * Small helpers shared by the load generator: order statistics, the
 * crash-proof scoreboard and host descriptors.
 */
#ifndef E2E_UTIL_H
#define E2E_UTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** Median of @p v (0 for an empty vector). */
double Median(std::vector<double> v);

/** Mean of @p v without its lowest and highest tenth (0 when empty). */
double TrimmedMean(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 1] of @p v (0 when empty). */
double Percentile(std::vector<double> v, double p);

/** Geometric mean of the positive values in @p v (0 when empty). */
double Geomean(const std::vector<double> &v);

/** Host peak resident set size in MB (getrusage). */
double PeakRssMb();

/** std::thread::hardware_concurrency(), at least 1. */
int Nproc();

/** Hex FNV-1a digest of the running executable's bytes: names one
 *  build. */
const std::string &BuildDigest();

/**
 * Per-client request counters kept in a file-backed shared mapping, so
 * the runner can still read them after the load generator died from a
 * signal: every request a client started but did not complete then
 * counts as failed. Layout (all little-endian u64): magic, slots, then
 * one 64-byte slot per client holding {started, completed_ok,
 * completed_failed}.
 */
class Scoreboard {
  public:
    Scoreboard() = default;
    ~Scoreboard();
    Scoreboard(const Scoreboard &) = delete;
    Scoreboard &operator=(const Scoreboard &) = delete;

    /** Map @p path with @p slots client slots. False on I/O errors. */
    bool Open(const std::string &path, int slots);

    void Started(int slot) { Add(slot, 0); }
    void Completed(int slot, bool ok) { Add(slot, ok ? 1 : 2); }

  private:
    void Add(int slot, int field);

    static constexpr int kSlotWords = 8;  ///< one cache line per client
    std::uint64_t *words_ = nullptr;  ///< updated with __atomic builtins
    std::size_t bytes_ = 0;
    int slots_ = 0;
};

}  // namespace e2e

#endif  // E2E_UTIL_H

#include "util.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.h"

namespace e2e {

namespace {
constexpr std::uint64_t kScoreboardMagic = 0x65326573636f7265ULL;
constexpr int kHeaderWords = 8;
}  // namespace

double
Median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
TrimmedMean(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 10;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

double
Percentile(std::vector<double> v, double p)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
Geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    int n = 0;
    for (double x : v) {
        if (x > 0.0) {
            log_sum += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

int
Nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

const std::string &
BuildDigest()
{
    static const std::string digest = []() -> std::string {
        std::ifstream in("/proc/self/exe", std::ios::binary);
        if (!in.is_open()) return "unknown";
        std::stringstream bytes;
        bytes << in.rdbuf();
        return soma::HexU64(soma::Fnv1a64(bytes.str()));
    }();
    return digest;
}

Scoreboard::~Scoreboard()
{
    if (words_) munmap(words_, bytes_);
}

bool
Scoreboard::Open(const std::string &path, int slots)
{
    slots_ = slots;
    bytes_ = sizeof(std::uint64_t) *
             static_cast<std::size_t>(kHeaderWords + kSlotWords * slots);
    const int fd = open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    void *mem = MAP_FAILED;
    if (ftruncate(fd, static_cast<off_t>(bytes_)) == 0)
        mem = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    close(fd);
    if (mem == MAP_FAILED) return false;
    words_ = static_cast<std::uint64_t *>(mem);
    std::fill(words_, words_ + bytes_ / sizeof(std::uint64_t), 0);
    words_[1] = static_cast<std::uint64_t>(slots);
    __atomic_store_n(&words_[0], kScoreboardMagic, __ATOMIC_RELEASE);
    return true;
}

void
Scoreboard::Add(int slot, int field)
{
    if (!words_ || slot < 0 || slot >= slots_) return;
    __atomic_fetch_add(&words_[kHeaderWords + kSlotWords * slot + field], 1,
                       __ATOMIC_RELAXED);
}

}  // namespace e2e

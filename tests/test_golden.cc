/**
 * @file
 * Golden-results corpus: a fixed set of quick-profile requests run
 * through the Scheduler facade, each result compared against a
 * checked-in table (tests/golden/results.tsv). A row holds the FNV-1a
 * hash of the result JSON without its wall-clock `stats` block, plus
 * the result's cost and latency in round-trip precision, so a change
 * that moves any result byte names the request it moved.
 *
 * The table is only rewritten on request:
 *
 *   ./build/test_golden --regenerate
 *
 * runs the same set and overwrites the table instead of comparing.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/scheduler.h"
#include "common/hash.h"

namespace soma {
namespace {

bool g_regenerate = false;

struct GoldenCase {
    std::string model;
    std::string hardware;
    std::string scheduler;
    std::string memory_model;  ///< "" = analytical default

    std::string Name() const
    {
        std::string name = model + "/" + hardware + "/" + scheduler;
        if (!memory_model.empty()) name += "/" + memory_model;
        return name;
    }
};

std::vector<GoldenCase>
GoldenCases()
{
    std::vector<GoldenCase> cases;
    const char *const kSchedulers[] = {"soma", "cocco", "lfa-only"};
    const std::pair<const char *, const char *> kPoints[] = {
        {"resnet50", "edge"},          {"randwire", "edge"},
        {"ires", "edge"},              {"gpt2s-decode", "edge"},
        {"transformer-large", "edge"}, {"gpt2s-prefill", "edge"},
        {"gpt2xl-decode", "cloud"},
    };
    for (const auto &[model, hw] : kPoints) {
        for (const char *sched : kSchedulers)
            cases.push_back({model, hw, sched, ""});
    }
    // The banked memory model steers the search with its closed form.
    for (const char *model :
         {"resnet50", "gpt2s-decode", "transformer-large"}) {
        for (const char *sched : kSchedulers)
            cases.push_back({model, "edge", sched, "banked"});
    }
    return cases;
}

struct GoldenRow {
    std::string name;
    std::string hash;  ///< HexU64(Fnv1a64(result JSON without stats))
    std::string cost;
    std::string latency;

    std::string Line() const
    {
        return name + "\t" + hash + "\t" + cost + "\t" + latency;
    }
};

std::string
Exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

GoldenRow
RunCase(Scheduler &scheduler, const GoldenCase &c)
{
    ScheduleRequest req;
    req.model = c.model;
    req.hardware = c.hardware;
    req.scheduler = c.scheduler;
    req.memory_model = c.memory_model;
    req.profile = SearchProfile::kQuick;
    req.seed = 1;
    // Results do not depend on the driver thread count; one thread
    // keeps the corpus cheap to run next to the rest of the suite.
    req.threads = 1;
    const ScheduleResult result = scheduler.Schedule(req);
    Json json = result.ToJson();
    json.Erase("stats");
    GoldenRow row;
    row.name = c.Name();
    row.hash = HexU64(Fnv1a64(json.Dump()));
    row.cost = Exact(result.cost);
    row.latency = Exact(result.report.latency);
    return row;
}

std::vector<GoldenRow>
ReadTable(const std::string &path)
{
    std::vector<GoldenRow> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        GoldenRow row;
        std::getline(fields, row.name, '\t');
        std::getline(fields, row.hash, '\t');
        std::getline(fields, row.cost, '\t');
        std::getline(fields, row.latency, '\t');
        rows.push_back(row);
    }
    return rows;
}

TEST(Golden, ResultsMatchTheCheckedInTable)
{
    const std::string path = SOMA_GOLDEN_TABLE;
    Scheduler scheduler;
    std::vector<GoldenRow> got;
    for (const GoldenCase &c : GoldenCases())
        got.push_back(RunCase(scheduler, c));

    if (g_regenerate) {
        std::ofstream out(path);
        out << "# name\tfnv1a64(result json without stats)\tcost\t"
               "latency_s\n";
        for (const GoldenRow &row : got) out << row.Line() << "\n";
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        std::printf("rewrote %s (%zu rows)\n", path.c_str(), got.size());
        return;
    }

    const std::vector<GoldenRow> want = ReadTable(path);
    ASSERT_EQ(want.size(), got.size())
        << path << " is stale; rerun with --regenerate";
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(want[i].Line(), got[i].Line());
}

}  // namespace
}  // namespace soma

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--regenerate")
            soma::g_regenerate = true;
    }
    return RUN_ALL_TESTS();
}

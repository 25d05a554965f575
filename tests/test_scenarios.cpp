/**
 * @file
 * Scenario-engine soak tests: every gallery campaign under
 * scenarios/ must pass its own [expect] invariants, be byte-identical
 * across two same-seed runs (obs trace + metrics dump), match the
 * digests recorded in tests/golden/artifacts.sha256, and change its
 * metrics when run at the next seed. An inline
 * campaign proves that a brand-new chaos composition needs only a
 * text file — no C++. Parser error paths round out the strict-INI
 * contract (typos fail loudly).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "salus/scenario.hpp"

using namespace salus;
using namespace salus::core;

#ifndef SALUS_SCENARIO_DIR
#define SALUS_SCENARIO_DIR "scenarios"
#endif

namespace {

/** Runs a campaign twice, enforces pass + byte determinism, and
 *  returns the first run. */
ScenarioOutcome
runTwiceAndCheck(const Scenario &sc)
{
    ScenarioOutcome first = runScenarioOnEngine(sc);
    EXPECT_TRUE(first.deployOk) << sc.name << ": deployment failed";
    for (const std::string &v : first.violations)
        ADD_FAILURE() << sc.name << ": " << v;
    EXPECT_TRUE(first.passed());

    ScenarioOutcome second = runScenarioOnEngine(sc);
    // Same seed, same file: the full observability record must match
    // byte for byte — this is the determinism contract campaigns are
    // debugged and triaged against.
    EXPECT_EQ(first.traceJson, second.traceJson)
        << sc.name << ": trace diverged between same-seed runs";
    EXPECT_EQ(first.metricsText, second.metricsText)
        << sc.name << ": metrics diverged between same-seed runs";
    EXPECT_EQ(first.completed, second.completed);
    EXPECT_EQ(first.clockEnd, second.clockEnd);
    return first;
}

std::string
galleryPath(const std::string &name)
{
    return std::string(SALUS_SCENARIO_DIR) + "/" + name + ".scn";
}

/** Every campaign file in the gallery directory, by stem, sorted. */
std::vector<std::string>
galleryNames()
{
    std::vector<std::string> names;
    for (const auto &entry :
         std::filesystem::directory_iterator(SALUS_SCENARIO_DIR))
        if (entry.path().extension() == ".scn")
            names.push_back(entry.path().stem().string());
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

// ------------------------------------------------------- gallery runs

class ScenarioFile : public ::testing::TestWithParam<std::string>
{};

TEST_P(ScenarioFile, PassesIsDeterministicAndMatchesGolden)
{
    const std::string &name = GetParam();
    Scenario sc = parseScenarioFile(galleryPath(name));
    ScenarioOutcome out = runTwiceAndCheck(sc);
    test::expectGoldenDigest(name + ".trace.json", out.traceJson);
    test::expectGoldenDigest(name + ".metrics.txt", out.metricsText);
    // A pinned artifact must not be blind to the seed it was run at.
    ++sc.seed;
    EXPECT_NE(runScenarioOnEngine(sc).metricsText, out.metricsText)
        << name << ": metrics did not move with the seed";
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, ScenarioFile, ::testing::ValuesIn(galleryNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(ScenarioGallery, BrokerOverloadShedsAndRecovers)
{
    ScenarioOutcome out =
        runScenarioOnEngine(parseScenarioFile(galleryPath("broker_overload")));
    EXPECT_TRUE(out.passed());
    for (const std::string &v : out.violations)
        ADD_FAILURE() << v;
    // The overload campaign's defining arc, beyond its own [expect]
    // block: someone was shed, nobody stayed shed.
    EXPECT_GT(out.shedRejected, 0u);
    EXPECT_EQ(out.shedLevelEnd, 0u);
}

TEST(ScenarioGallery, FleetFailoverFailsOverExactlyOnce)
{
    Scenario sc = parseScenarioFile(galleryPath("fleet_failover"));
    ScenarioOutcome out = runScenarioOnEngine(sc);
    EXPECT_TRUE(out.passed());
    for (const std::string &v : out.violations)
        ADD_FAILURE() << v;
    // The campaign's defining arc: the active device dies and the
    // watchdog moves the session to one of the spares, once.
    EXPECT_GE(sc.devices, 3u);
    EXPECT_EQ(out.failovers, 1u);
    // The seed drives the fault RNG, so it moves the trace itself,
    // not only the seed line in the metrics.
    ++sc.seed;
    ScenarioOutcome next = runScenarioOnEngine(sc);
    EXPECT_EQ(next.failovers, 1u);
    EXPECT_NE(next.traceJson, out.traceJson);
}

// -------------------------------------- campaigns are data, not C++

TEST(ScenarioEngine, InlineTextCampaignRunsWithoutAnyNewCode)
{
    // A composition no gallery file exercises (packet loss + delay on
    // a bursty two-tenant mix), built purely from text: the proof
    // that new chaos campaigns are data.
    const std::string text = R"(
[scenario]
name = inline-smoke
seed = 2024
devices = 1
sweeps = 12
poll_every = 3

[tenant fast]
weight = 2
max_queued_ops = 64
pattern = flood
ops_per_sweep = 16

[tenant slow]
weight = 1
max_queued_ops = 64
pattern = burst
ops_per_sweep = 8
burst_on = 2
burst_off = 2

[fault]
kind = delay_rpc
probability = 0.2
delay_us = 150

[expect]
completed_min = 100
no_starvation = 1
)";
    Scenario sc = parseScenario(text);
    EXPECT_EQ(sc.name, "inline-smoke");
    EXPECT_EQ(sc.tenants.size(), 2u);
    ASSERT_EQ(sc.faults.size(), 1u);
    EXPECT_EQ(sc.faults[0].kind, "delay_rpc");
    runTwiceAndCheck(sc);
}

TEST(ScenarioEngine, ExpectViolationsAreReportedNotThrown)
{
    const std::string text = R"(
[scenario]
name = unreachable-bar
seed = 5
sweeps = 4

[tenant t]
pattern = trickle
ops_per_sweep = 2

[expect]
completed_min = 1000000
)";
    ScenarioOutcome out = runScenarioOnEngine(parseScenario(text));
    EXPECT_TRUE(out.deployOk);
    EXPECT_FALSE(out.passed());
    ASSERT_EQ(out.violations.size(), 1u);
    EXPECT_NE(out.violations[0].find("completed"), std::string::npos);
}

TEST(ScenarioEngine, FailoverCompletedByAPollCountsAgainstFailoversMax)
{
    // The only tenant goes quiet before device 0 dies, so no pump or
    // drain ever sees a FailoverError: a watchdog poll quarantines the
    // device and completes the failover on its own. It still counts.
    const std::string text = R"(
[scenario]
name = quiet-failover
seed = 3
devices = 3
sweeps = 40
poll_every = 2

[tenant early]
pattern = trickle
ops_per_sweep = 4
stop_sweep = 4

[fault]
kind = device_dead
device = 0
at_ms = 4400

[expect]
failovers_max = 0
)";
    ScenarioOutcome out = runScenarioOnEngine(parseScenario(text));
    EXPECT_TRUE(out.deployOk);
    EXPECT_EQ(out.failovers, 1u);
    EXPECT_FALSE(out.passed());
    ASSERT_EQ(out.violations.size(), 1u);
    EXPECT_NE(out.violations[0].find("failovers: got 1"),
              std::string::npos);
}

// ------------------------------------------------ strict-INI parsing

TEST(ScenarioParser, UnknownKeysAndSectionsAreErrors)
{
    EXPECT_THROW(parseScenario("[scenario]\nname = x\nbogus_key = 1\n"),
                 ScenarioError);
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[warp_drive]\n"),
                 ScenarioError);
    EXPECT_THROW(
        parseScenario("[scenario]\nname = x\n[tenant a]\nvelocity = 9\n"),
        ScenarioError);
}

TEST(ScenarioParser, MalformedValuesAreErrorsWithLineNumbers)
{
    try {
        parseScenario("[scenario]\nname = x\nsweeps = banana\n");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
    // Out-of-bounds values are rejected even when numerically valid.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\ndevices = 99\n"),
                 ScenarioError);
    EXPECT_THROW(parseScenario("[scenario]\nname = x\nsweeps = 0\n"),
                 ScenarioError);
    // Probabilities live in [0, 1].
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[fault]\n"
                               "kind = drop_rpc\nprobability = 1.5\n"),
                 ScenarioError);
}

TEST(ScenarioParser, StructuralMistakesAreErrors)
{
    // Missing [scenario] section entirely.
    EXPECT_THROW(parseScenario("[tenant a]\npattern = idle\n"),
                 ScenarioError);
    // Key before any section header.
    EXPECT_THROW(parseScenario("name = x\n[scenario]\n"), ScenarioError);
    // Duplicate tenant names would make stats ambiguous.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n"
                               "[tenant a]\n[tenant a]\n"),
                 ScenarioError);
    // Unknown fault kind / traffic pattern.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[fault]\n"
                               "kind = gamma_rays\n"),
                 ScenarioError);
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[tenant a]\n"
                               "pattern = sideways\n"),
                 ScenarioError);
    // replay action requires the malicious shell to be enabled.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[action]\n"
                               "kind = replay\nat_sweep = 1\n"),
                 ScenarioError);
}

TEST(ScenarioParser, GalleryFilesParseCleanlyFromDisk)
{
    for (const std::string &name : galleryNames()) {
        Scenario fromDisk = parseScenarioFile(galleryPath(name));
        EXPECT_FALSE(fromDisk.name.empty()) << name;
        EXPECT_FALSE(fromDisk.tenants.empty()) << name;
    }
    EXPECT_THROW(parseScenarioFile(galleryPath("missing")), ScenarioError);
}

TEST(ScenarioOutcomeTest, MoveAssignmentFreesTheOldBuffers)
{
    ScenarioOutcome filled;
    filled.deployOk = true;
    filled.completed = 1;
    filled.admitted = 2;
    filled.quotaRejected = 3;
    filled.rateRejected = 4;
    filled.shedRejected = 5;
    filled.failovers = 6;
    filled.seusInjected = 7;
    filled.maxSweepsWaited = 8;
    filled.dmaJobs = 9;
    filled.dmaBytes = 10;
    filled.shedLevelEnd = 11;
    filled.clockEnd = 12;
    filled.tenants.push_back({"t0", TenantStats{13, 14, 15, 16, 17, 18}});
    filled.traceJson.assign(size_t(1) << 20, 't');
    filled.metricsText.assign(4096, 'm');
    filled.violations.push_back("v");

    auto scalars = [](const ScenarioOutcome &o) {
        return std::tuple(o.deployOk, o.completed, o.admitted,
                          o.quotaRejected, o.rateRejected, o.shedRejected,
                          o.failovers, o.seusInjected, o.maxSweepsWaited,
                          o.dmaJobs, o.dmaBytes, o.shedLevelEnd, o.clockEnd);
    };
    const ScenarioOutcome copy = filled;
    ScenarioOutcome o;
    o = std::move(filled);
    EXPECT_EQ(scalars(o), scalars(copy));
    ASSERT_EQ(o.tenants.size(), 1u);
    EXPECT_EQ(o.tenants[0].first, "t0");
    EXPECT_EQ(o.tenants[0].second.sessionsOpened, 18u);
    EXPECT_EQ(o.traceJson, copy.traceJson);
    EXPECT_EQ(o.metricsText, copy.metricsText);
    EXPECT_EQ(o.violations, copy.violations);

    // Resetting to an empty outcome releases the trace's buffer too:
    // a plain member-wise move would keep its megabyte of capacity.
    o = ScenarioOutcome{};
    const ScenarioOutcome empty;
    EXPECT_EQ(scalars(o), scalars(empty));
    EXPECT_TRUE(o.tenants.empty());
    EXPECT_TRUE(o.violations.empty());
    EXPECT_TRUE(o.traceJson.empty());
    EXPECT_EQ(o.traceJson.capacity(), std::string().capacity());
    EXPECT_EQ(o.metricsText.capacity(), std::string().capacity());
}

/**
 * @file
 * The paper's tables and figures as `salus_cli paper` renders them:
 * each table's text is pinned by its SHA-256 in
 * tests/golden/artifacts.sha256 and must be quoted verbatim in
 * EXPERIMENTS.md; Fig. 10's speedups and Table 6's slowdowns are also
 * pinned in tests/golden/virtual_values.txt, and their shape is
 * asserted. (The fault-recovery sweep is a soak test in
 * test_fault_recovery.cpp.)
 */

#include <gtest/gtest.h>

#include <string>

#include "golden.hpp"
#include "paper/paper.hpp"

using namespace salus;

namespace {

/** Checks one rendered table: self-checks held, digest, quote. */
void
expectPinnedAndQuoted(const std::string &name, const paper::Rendered &r)
{
    EXPECT_TRUE(r.ok) << r.text;
    test::expectGoldenDigest("paper." + name + ".txt", r.text);
    test::expectQuotedInExperiments(name, r.text);
}

} // namespace

class PaperTable : public ::testing::TestWithParam<std::string>
{};

TEST_P(PaperTable, IsPinnedAndQuotedInExperiments)
{
    for (const paper::Artifact &a : paper::artifacts()) {
        if (a.name == GetParam())
            return expectPinnedAndQuoted(a.name, a.render());
    }
    FAIL() << "no table named " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperTable,
    ::testing::Values("table1", "table2", "table3", "table4", "table5",
                      "fig8", "ablations"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(PaperFigures, Figure10IsExactAndEveryWorkloadFavoursSalus)
{
    std::vector<paper::WorkloadRun> runs = paper::fig10Runs();
    expectPinnedAndQuoted("fig10", paper::fig10(runs));
    ASSERT_EQ(runs.size(), 5u);
    for (const paper::WorkloadRun &run : runs) {
        std::string name = run.spec->name;
        EXPECT_GT(run.speedup(), 1.0) << name;
        EXPECT_LE(run.fpgaSlowdown(), 1.05) << name;
        test::expectGoldenRatio("fig10." + name + "_speedup_x",
                                double(run.cpuTee.totalTime),
                                double(run.fpgaTee.totalTime));
    }
}

TEST(PaperFigures, Table6IsExactAndOnlyTheCpuTeeSlowsLightKernels)
{
    std::vector<paper::WorkloadRun> runs = paper::table6Runs();
    expectPinnedAndQuoted("table6", paper::table6(runs));
    ASSERT_EQ(runs.size(), 3u);
    for (const paper::WorkloadRun &run : runs) {
        std::string name = run.spec->name;
        EXPECT_LE(run.fpgaSlowdown(), 1.05) << name;
        test::expectGoldenRatio("table6." + name + "_cpu_slowdown_x",
                                double(run.cpuTee.totalTime),
                                double(run.cpu.totalTime));
        test::expectGoldenRatio("table6." + name + "_fpga_slowdown_x",
                                double(run.fpgaTee.totalTime),
                                double(run.fpga.totalTime));
    }
    // Conv, Rendering, FaceDetect: the framebuffer and integral-image
    // kernels pay more for enclave memory than the compute-bound one.
    EXPECT_GT(runs[1].cpuSlowdown(), runs[0].cpuSlowdown());
    EXPECT_GT(runs[2].cpuSlowdown(), runs[0].cpuSlowdown());
}

/**
 * @file
 * Every sim::CostModel field moves a measurement, and only the ones it
 * should. Each field is perturbed in turn, in process, through the
 * same cost arguments the flows take (TestbedConfig::cost, the ShEF
 * baseline's and the accel runner's), and a fixed set of small probes
 * reruns. The probes a field moves must be exactly its rule row below;
 * a field that moves none is a constant nothing charges, and the fix
 * is a new pin or deleting the field.
 *
 * Also here: the one boot that reaches the SM's scrub recovery, whose
 * virtual time pins CostModel::seuScrubPass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <vector>

#include "accel/accel_ip.hpp"
#include "accel/runner.hpp"
#include "baseline/shef.hpp"
#include "common/errors.hpp"
#include "crypto/sha256.hpp"
#include "fpga/ip.hpp"
#include "golden.hpp"
#include "salus/boot_report.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::core;

namespace {

netlist::Cell
loopbackAccel()
{
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {100, 100, 0, 0};
    return accel;
}

TestbedConfig
configWith(const sim::CostModel &cost, uint32_t devices = 1)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    accel::AccelIp::registerAll();
    TestbedConfig cfg;
    cfg.cost = cost;
    cfg.deviceCount = devices;
    cfg.health.windowSize = 4;
    cfg.health.minSamples = 1;
    cfg.health.quarantineThreshold = 0.5;
    return cfg;
}

/** Redeploys a booted testbed from a restarted SM holding its sealed
 *  device key. A single-bit upset lands in the freshly loaded
 *  partition and one register read is lost, so the first CL
 *  attestation fails and the SM probes with a scrub pass, which
 *  corrects the upset before the re-attestation. @return the
 *  redeploy's virtual time. */
sim::Nanos
scrubbedRedeploy(Testbed &tb)
{
    EXPECT_TRUE(tb.restartSmApp(tb.smApp().exportSealedDeviceKey()));
    tb.faultInjector().arm(
        sim::FaultRule::seu(0, 64 * 8 * 5 + 3, tb.clock().now()));
    tb.faultInjector().arm(
        sim::FaultRule::regFault(1.0).match("read").times(1));
    sim::Nanos start = tb.clock().now();
    EXPECT_TRUE(tb.runDeployment().ok);
    return tb.clock().now() - start;
}

} // namespace

// ------------------------------------------------- scrub recovery

TEST(SeuScrub, FailedAttestationScrubsTheUpsetAndReattestsInPlace)
{
    // In this model an upset cannot fail the attestation by itself:
    // the fabric's logic is built when the partition loads. A lost
    // register read stands in for what the upset would break. The
    // recovery then costs exactly one scrub pass and one more CL
    // attestation than a clean redeploy, with no second load.
    sim::CostModel cost;
    Testbed clean(configWith(cost));
    clean.installCl(loopbackAccel());
    ASSERT_TRUE(clean.runDeployment().ok);
    ASSERT_TRUE(
        clean.restartSmApp(clean.smApp().exportSealedDeviceKey()));
    sim::Nanos cleanStart = clean.clock().now();
    ASSERT_TRUE(clean.runDeployment().ok);
    sim::Nanos cleanRedeploy = clean.clock().now() - cleanStart;
    sim::Nanos attestation = clean.clock().totalFor(phases::kClAuth) / 2;

    Testbed tb(configWith(cost));
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    sim::Nanos loadsBefore = tb.clock().totalFor(phases::kClDeployment);
    sim::Nanos redeploy = scrubbedRedeploy(tb);
    EXPECT_EQ(tb.faultInjector().stats().seusInjected, 1u);
    EXPECT_EQ(tb.faultInjector().stats().regFaults, 1u);
    EXPECT_TRUE(tb.smApp().bootStatus().ok());
    EXPECT_EQ(tb.clock().totalFor(phases::kClDeployment),
              2 * loadsBefore);
    EXPECT_EQ(tb.device().scrub(0).corrected, 0u)
        << "the SM's scrub pass left the upset in place";
    EXPECT_EQ(redeploy, cleanRedeploy + cost.seuScrubPass + attestation);
    test::expectGoldenValue("scrub.scrubbed_redeploy_ns", redeploy);
}

// ------------------------------------------------- the rule table

namespace {

/*
 * probes (one column each, in this order):
 *   B  test-scale Fig. 9 boot: each boot-report row and the total
 *   S  one ShEF attest and verify of a 64 KiB bitstream, per phase
 *   R  one 16-op secure register burst
 *   D  one 64 KiB secure DMA write, window 8
 *   F  failover: device killed to first write on the spare
 *   M  migration: quiesce to eight parked writes done on the target
 *   P  runFpgaTee on a small Conv job
 *   C  runCpuTee on the same job
 *   X  the scrubbed redeploy of SeuScrub above
 *
 * rule format: one character per probe; its letter = the field must
 * move that probe, '.' = it must not. The perturbation is one
 * nanosecond more, one round trip more, or half the rate.
 */
enum Probe : size_t {
    kBoot, kShef, kRegBurst, kDmaWrite, kFailover, kMigration,
    kFpgaTee, kCpuTee, kScrub, kProbeCount
};
constexpr char kProbes[kProbeCount + 1] = "BSRDFMPCX";

using ProbeValues = std::array<std::vector<sim::Nanos>, kProbeCount>;

struct Rule
{
    const char *field;
    size_t offset, size;
    std::function<void(sim::CostModel &)> perturb;
    const char *moves;
};

void bump(sim::Nanos &v) { v += 1; }
void bump(int &count) { count += 1; }
void bump(double &rate) { rate /= 2; }

template <typename T>
Rule
rule(const char *field, T sim::CostModel::*member, const char *moves)
{
    sim::CostModel c;
    size_t offset = size_t(reinterpret_cast<const char *>(&(c.*member)) -
                           reinterpret_cast<const char *>(&c));
    return {field, offset, sizeof(T),
            [member](sim::CostModel &m) { bump(m.*member); }, moves};
}

#define RULE(field, moves) rule(#field, &sim::CostModel::field, moves)

// clang-format off
const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> table = {
    //   field                       BSRDFMPCX
        RULE(wanRtt,                  "BS..FM..X"),
        RULE(cloudRtt,                "B...FM..."),
        RULE(loopbackRtt,             "B...FM..X"),
        RULE(pcieRtt,                 "B.RDFMP.X"),
        RULE(mmioLatency,             "......P.."),
        RULE(wanBandwidth,            "BS..FM..X"),
        RULE(cloudBandwidth,          "B...FM..."),
        RULE(pcieBandwidth,           "B.RDFMP.X"),
        RULE(enclaveTransition,       "B...FM.CX"),
        RULE(quoteGeneration,         "B...FM..X"),
        RULE(quoteVerification,       "B...FM..X"),
        RULE(keyEscrowProcessing,     "B...FM..."),
        RULE(dcapCollateralRoundTrips,"B...FM..X"),
        RULE(shefCaRoundTrips,        ".S......."),
        RULE(localAttestCompute,      "B...FM..X"),
        RULE(manipulationBytesPerSec, "B...FM..X"),
        RULE(verifyEncryptBytesPerSec,"B...FM..X"),
        RULE(fpgaConfigBytesPerSec,   "B...FM..X"),
        RULE(fpgaDnaReadout,          "B...FM..X"),
        RULE(smLogicMac,              "B...FM..X"),
        RULE(efuseKeyLatch,           "B...FM..X"),
        RULE(seuScrubPass,            "........X"),
        RULE(aesCtrBlock,             "..R..M..."),
        RULE(channelMacBase,          "..R..M..."),
        RULE(channelMacPerBlock,      "..R..M..."),
        RULE(dmaCryptoBytesPerSec,    "...D...C."),
        RULE(dmaDescriptorSeal,       "...D....."),
        RULE(epcBytesPerSec,          ".......C."),
        RULE(accelLaunch,             "......P.."),
        RULE(inlineAesBytesPerSec,    "......P.."),
        RULE(shefMeasureBytesPerSec,  ".S......."),
        RULE(shefSignatureOp,         ".S......."),
    };
    return table;
}
// clang-format on

/** Boot, burst, DMA write and scrubbed redeploy on one testbed. */
void
probeSingleDevice(const sim::CostModel &cost, ProbeValues &v)
{
    Testbed tb(configWith(cost));
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    BootReport report = buildBootReport(tb.clock());
    for (const BootPhaseRow &row : report.rows)
        v[kBoot].push_back(row.modelTime);
    v[kBoot].push_back(report.modelTotal);

    std::vector<regchan::RegOp> ops;
    for (uint64_t i = 0; i < 16; ++i)
        ops.push_back({i % 2 == 0, 0x08, i});
    sim::Nanos start = tb.clock().now();
    for (const regchan::BatchResult &r : tb.smApp().secureRegBatch(0, ops))
        ASSERT_EQ(r.status, 0);
    v[kRegBurst].push_back(tb.clock().now() - start);

    start = tb.clock().now();
    ASSERT_EQ(tb.smApp().dmaWrite(0, 0x8000, Bytes(64 << 10, 0x5a)).status,
              0);
    v[kDmaWrite].push_back(tb.clock().now() - start);

    v[kScrub].push_back(scrubbedRedeploy(tb));
}

void
probeShef(const sim::CostModel &cost, ProbeValues &v)
{
    crypto::CtrDrbg rng(uint64_t(3));
    baseline::ShefDevice device("shef-probe", bytesFromString("root"),
                                rng);
    Bytes bitstream = rng.bytes(64 << 10);
    Bytes nonce = rng.bytes(16);
    sim::VirtualClock clock;
    auto att = device.loadAndAttest(bitstream, nonce, clock, cost);
    baseline::ShefVerifier verifier(
        baseline::shefManufacturerRoot(bytesFromString("root")).publicKey,
        crypto::Sha256::digest(bitstream));
    ASSERT_TRUE(verifier.verify(att, nonce, clock, cost));
    for (const char *phase :
         {baseline::kShefMeasurePhase, baseline::kShefSignPhase,
          baseline::kShefCaPhase, baseline::kShefVerifyPhase})
        v[kShef].push_back(clock.totalFor(phase));
}

void
probeFailover(const sim::CostModel &cost, ProbeValues &v)
{
    Testbed tb(configWith(cost, 2));
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().secureWrite(0x08, 1));
    tb.faultInjector().arm(sim::FaultRule::deviceDead(0));
    sim::Nanos start = tb.clock().now();
    try {
        tb.supervisor().guardedOp(
            [&] { return tb.userApp().secureWrite(0x08, 2); },
            "secureWrite");
    } catch (const FailoverError &) {
    }
    ASSERT_EQ(tb.smApp().activeDevice(), 1u);
    ASSERT_TRUE(tb.userApp().secureWrite(0x08, 2));
    v[kFailover].push_back(tb.clock().now() - start);
}

void
probeMigration(const sim::CostModel &cost, ProbeValues &v)
{
    Testbed tb(configWith(cost, 2));
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().secureWrite(0x00, 1));
    BatchScheduler &sched = tb.scheduler();
    for (uint64_t i = 0; i < 8; ++i)
        ASSERT_EQ(sched.submit(0, {true, 0x08, i}, nullptr),
                  BatchScheduler::Submit::Accepted);
    sim::Nanos start = tb.clock().now();
    ASSERT_EQ(tb.supervisor().migrateActiveTo(1, "probe").attested, 1);
    ASSERT_EQ(sched.drain(), 8u);
    v[kMigration].push_back(tb.clock().now() - start);
}

void
probeWorkload(const sim::CostModel &cost, ProbeValues &v)
{
    const accel::WorkloadSpec &spec = accel::workload(accel::KernelId::Conv);
    accel::WorkloadRunner runner(spec.id, 5, 0.05);
    Testbed tb(configWith(cost));
    tb.installCl(accel::accelCellFor(spec));
    ASSERT_TRUE(tb.runDeployment().ok);
    accel::RunResult fpga = runner.runFpgaTee(tb);
    ASSERT_TRUE(fpga.outputCorrect);
    v[kFpgaTee] = {fpga.totalTime, fpga.overheadTime};
    accel::RunResult cpu = runner.runCpuTee(cost);
    ASSERT_TRUE(cpu.outputCorrect);
    v[kCpuTee] = {cpu.totalTime, cpu.overheadTime};
}

ProbeValues
runProbes(const sim::CostModel &cost)
{
    ProbeValues v;
    probeSingleDevice(cost, v);
    probeShef(cost, v);
    probeFailover(cost, v);
    probeMigration(cost, v);
    probeWorkload(cost, v);
    return v;
}

} // namespace

TEST(CostRules, EveryFieldHasARuleRow)
{
    // In member order, each row's field must start exactly where the
    // previous one ended and the last must end the struct. CostModel
    // has no padding, so a field without a row shows as a gap or as a
    // larger sizeof(CostModel); a field placed where it would add
    // padding fails too.
    std::vector<const Rule *> rows;
    for (const Rule &r : rules())
        rows.push_back(&r);
    std::sort(rows.begin(), rows.end(), [](const Rule *a, const Rule *b) {
        return a->offset < b->offset;
    });
    size_t end = 0;
    for (const Rule *r : rows) {
        EXPECT_EQ(r->offset, end)
            << "a CostModel field (or padding) before " << r->field
            << " has no rule row, or a row is listed twice";
        end = r->offset + r->size;
    }
    EXPECT_EQ(end, sizeof(sim::CostModel))
        << "a CostModel field (or padding) after " << rows.back()->field
        << " has no rule row";
}

TEST(CostRules, EveryFieldMovesExactlyTheProbesOfItsRow)
{
    const ProbeValues base = runProbes(sim::CostModel());
    ASSERT_FALSE(HasFailure()) << "a probe failed on the calibrated model";
    for (size_t p = 0; p < kProbeCount; ++p)
        ASSERT_FALSE(base[p].empty()) << "probe " << kProbes[p];

    for (const Rule &r : rules()) {
        SCOPED_TRACE(r.field);
        sim::CostModel cost;
        r.perturb(cost);
        ProbeValues moved = runProbes(cost);
        if (HasFatalFailure())
            return;
        std::string got(kProbeCount, '.');
        for (size_t p = 0; p < kProbeCount; ++p) {
            if (moved[p] != base[p])
                got[p] = kProbes[p];
        }
        EXPECT_NE(got, std::string(kProbeCount, '.'))
            << r.field << " moves no probe: pin what charges it, or "
            << "delete the field";
        EXPECT_EQ(got, r.moves)
            << r.field << " moves other probes than its rule row says; "
            << "if that is intended, the row is:\n"
            << "        RULE(" << r.field << ", \"" << got << "\"),";
    }
}

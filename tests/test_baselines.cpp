/**
 * @file
 * Baseline-scheme tests: ShEF-style PKE remote attestation and
 * SGX-FPGA-style PUF/CRP multi-stage attestation, including the
 * properties Table 1 and §4.4.1 contrast against Salus.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "baseline/sgx_fpga.hpp"
#include "baseline/shef.hpp"
#include "crypto/sha256.hpp"
#include "fpga/ip.hpp"
#include "golden.hpp"
#include "obs/trace.hpp"
#include "salus/boot_report.hpp"
#include "salus/sim_hooks.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"

using namespace salus;
using namespace salus::baseline;

// ----------------------------------------------------------- ShEF

namespace {

Bytes
rootSeed()
{
    return bytesFromString("shef-manufacturer-root-seed");
}

} // namespace

TEST(Shef, AttestAndVerifyHappyPath)
{
    crypto::CtrDrbg rng(uint64_t(1));
    ShefDevice device("shef-dev-1", rootSeed(), rng);

    Bytes bitstream = rng.bytes(4096);
    Bytes nonce = rng.bytes(16);
    sim::VirtualClock clock;
    sim::CostModel cost;

    ShefAttestation att =
        device.loadAndAttest(bitstream, nonce, clock, cost);

    ShefVerifier verifier(shefManufacturerRoot(rootSeed()).publicKey,
                          crypto::Sha256::digest(bitstream));
    EXPECT_TRUE(verifier.verify(att, nonce, clock, cost));
    EXPECT_GT(clock.now(), 0u);
}

TEST(Shef, RejectsWrongMeasurementForgeryAndStaleNonce)
{
    crypto::CtrDrbg rng(uint64_t(2));
    ShefDevice device("shef-dev-1", rootSeed(), rng);
    sim::VirtualClock clock;
    sim::CostModel cost;

    Bytes bitstream = rng.bytes(4096);
    Bytes nonce = rng.bytes(16);
    ShefAttestation att =
        device.loadAndAttest(bitstream, nonce, clock, cost);

    Bytes rootPub = shefManufacturerRoot(rootSeed()).publicKey;

    // Wrong expected measurement (trojan CL).
    ShefVerifier wrongMeas(rootPub, crypto::Sha256::digest(
                                        bytesFromString("other")));
    EXPECT_FALSE(wrongMeas.verify(att, nonce, clock, cost));

    ShefVerifier verifier(rootPub, crypto::Sha256::digest(bitstream));

    // Replayed attestation under a fresh nonce.
    Bytes otherNonce = rng.bytes(16);
    EXPECT_FALSE(verifier.verify(att, otherNonce, clock, cost));

    // Forged signature.
    ShefAttestation forged = att;
    forged.signature[0] ^= 1;
    EXPECT_FALSE(verifier.verify(forged, nonce, clock, cost));

    // Device cert not from the manufacturer.
    crypto::CtrDrbg evilRng(uint64_t(3));
    ShefDevice evil("shef-dev-1", bytesFromString("evil-root"), evilRng);
    ShefAttestation evilAtt =
        evil.loadAndAttest(bitstream, nonce, clock, cost);
    EXPECT_FALSE(verifier.verify(evilAtt, nonce, clock, cost));
}

TEST(Shef, BootCheaperThanSalusButNeedsExtraHardware)
{
    // §6.3: ShEF boots in ~5.1 s vs Salus ~18.8 s (no manipulation,
    // no enclave-hosted tooling) -- but only because of the BootROM
    // keypair hardware Salus does without. Reproduce the ordering.
    crypto::CtrDrbg rng(uint64_t(4));
    ShefDevice device("d", rootSeed(), rng);
    sim::CostModel cost;

    Bytes bitstream = rng.bytes(32u << 20); // paper-scale 32 MiB
    Bytes nonce = rng.bytes(16);
    sim::VirtualClock clock;
    ShefAttestation att =
        device.loadAndAttest(bitstream, nonce, clock, cost);
    ShefVerifier verifier(shefManufacturerRoot(rootSeed()).publicKey,
                          crypto::Sha256::digest(bitstream));
    ASSERT_TRUE(verifier.verify(att, nonce, clock, cost));

    sim::Nanos shefBoot = clock.now();
    // ShEF's modelled boot sits in the right ballpark (~5 s square).
    EXPECT_GT(shefBoot, 2 * sim::kSec);
    EXPECT_LT(shefBoot, 10 * sim::kSec);
    // And is cheaper than Salus's modelled manipulation alone.
    EXPECT_LT(shefBoot, cost.bitstreamManipulation(32u << 20));
}

// -------------------------------------------------------- SGX-FPGA

TEST(SgxFpga, PufIsDeviceUniqueAndDeterministic)
{
    PufDevice a(111), b(222);
    EXPECT_EQ(a.respond(5), a.respond(5));
    EXPECT_NE(a.respond(5), a.respond(6));
    EXPECT_NE(a.respond(5), b.respond(5));
}

TEST(SgxFpga, CrpAuthenticatesOnlyEnrolledDevice)
{
    crypto::CtrDrbg rng(uint64_t(5));
    PufDevice real(111), clone(112);

    CrpDatabase db;
    db.enroll(real, 8, rng);
    EXPECT_EQ(db.remaining(), 8u);

    EXPECT_TRUE(db.authenticate(real));
    EXPECT_EQ(db.remaining(), 7u); // single-use pairs
    EXPECT_FALSE(db.authenticate(clone));

    // Database exhaustion: the finite CRP budget is a real
    // operational limit of the scheme.
    for (int i = 0; i < 6; ++i)
        db.authenticate(real);
    EXPECT_EQ(db.remaining(), 0u);
    EXPECT_FALSE(db.authenticate(real));
}

TEST(SgxFpga, EnrollmentIsDeviceCoupled)
{
    // The database enrolled on device A is useless for device B --
    // the dev/deploy coupling of Table 1: the developer must touch
    // the exact rented die.
    crypto::CtrDrbg rng(uint64_t(6));
    PufDevice deviceA(1), deviceB(2);
    CrpDatabase db;
    db.enroll(deviceA, 4, rng);
    EXPECT_FALSE(db.authenticate(deviceB));
}

TEST(SgxFpga, MultiStageAttestationLeavesAGap)
{
    // §4.4.1: the client's report arrives BEFORE the CL attestation
    // completes; the trust gap is nonzero.
    crypto::CtrDrbg rng(uint64_t(7));
    PufDevice device(9);
    CrpDatabase db;
    db.enroll(device, 4, rng);

    sim::VirtualClock clock;
    sim::CostModel cost;
    SgxFpgaTimeline t = runSgxFpgaFlow(db, device, clock, cost);

    EXPECT_TRUE(t.clAuthentic);
    EXPECT_GT(t.clAttestedAt, t.reportIssuedAt);
    EXPECT_GT(t.gap(), 0u);
}

TEST(SgxFpga, SalusCascadedAttestationClosesTheGap)
{
    // In Salus the user-enclave quote is generated only after the CL
    // attestation: the final "User RA" work follows the last "CL
    // Authentication" slice in the timeline.
    fpga::ensureBuiltinIps();
    core::Testbed tb;
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    obs::TraceRecorder slices(tb.clock());
    {
        obs::ObsScope scope(&slices, nullptr);
        tb.installCl(accel);
        ASSERT_TRUE(tb.runDeployment().ok);
    }

    std::span<const obs::SpanEvent> trace = slices.events();
    ptrdiff_t lastClAuth = -1, lastUserRa = -1;
    for (ptrdiff_t i = 0; i < ptrdiff_t(trace.size()); ++i) {
        if (trace[i].cat != obs::Category::Clock)
            continue;
        if (slices.nameOf(trace[i]) == core::phases::kClAuth)
            lastClAuth = i;
        if (slices.nameOf(trace[i]) == core::phases::kUserRa)
            lastUserRa = i;
    }
    ASSERT_GE(lastClAuth, 0);
    ASSERT_GE(lastUserRa, 0);
    EXPECT_GT(lastUserRa, lastClAuth)
        << "report generation must follow CL attestation";
}

// ------------------------------------------- paper figures, exact

namespace {

/** ShEF's modelled attest + verify of `bitstream`, as Fig. 9 and
 *  Table 1 run it (device and root seed as in bench_fig9 and
 *  paper::table1). */
sim::Nanos
shefBoot(const char *deviceId, ByteView bitstream, uint64_t seed)
{
    crypto::CtrDrbg rng(seed);
    ShefDevice device(deviceId, bytesFromString("shef-root"), rng);
    Bytes nonce = rng.bytes(16);
    sim::VirtualClock clock;
    sim::CostModel cost;
    ShefAttestation att = device.loadAndAttest(bitstream, nonce, clock,
                                               cost);
    ShefVerifier verifier(
        shefManufacturerRoot(bytesFromString("shef-root")).publicKey,
        crypto::Sha256::digest(bitstream));
    EXPECT_TRUE(verifier.verify(att, nonce, clock, cost));
    return clock.now();
}

} // namespace

TEST(PaperFigures, Figure9ShefBootAndTable1AreExact)
{
    // bench_fig9_boot_breakdown's configuration: a 32 MiB partial
    // bitstream with a Conv-like footprint. Every value is pinned to
    // the nanosecond in tests/golden/virtual_values.txt, so any
    // cost-model or attribution change that moves a reported figure
    // fails here, not only in a bench printout.
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();
    core::TestbedConfig cfg;
    cfg.deviceModel = fpga::u200ScaledModel();
    core::Testbed tb(cfg);
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {19735, 20169, 326, 512};
    tb.installCl(accel);
    ASSERT_TRUE(tb.runDeployment().ok);

    core::BootReport report = core::buildBootReport(tb.clock());
    const char *const kRows[] = {
        "device_key_dist", "bitstream_verif_enc", "bitstream_manipulation",
        "cl_deployment", "local_attestation", "cl_authentication",
        "user_ra",
    };
    ASSERT_EQ(report.rows.size(), std::size(kRows));
    for (size_t i = 0; i < report.rows.size(); ++i)
        test::expectGoldenValue(std::string("fig9.") + kRows[i] + "_ns",
                                report.rows[i].modelTime);
    test::expectGoldenValue("fig9.total_ns", report.modelTotal);

    // §6.3: ShEF boots the same artifact; Salus/ShEF is the ratio.
    sim::Nanos shef = shefBoot("shef-dev", tb.storedBitstream(), 2);
    test::expectGoldenValue("fig9.shef_boot_ns", shef);
    test::expectGoldenRatio("fig9.salus_over_shef_x",
                            double(report.modelTotal), double(shef));

    // Table 1: ShEF CL attestation of a 1 MiB bitstream.
    crypto::CtrDrbg rng(uint64_t(1));
    test::expectGoldenValue("table1.shef_attest_1mib_ns",
                            shefBoot("shef-1", rng.bytes(1 << 20), 1));
}

/**
 * @file
 * End-to-end integration tests of the Salus secure boot flow
 * (paper Fig. 3 steps ①-⑨) on an honest platform, plus the secure
 * register channel (§4.5) and the virtual-time phase accounting.
 */

#include <gtest/gtest.h>

#include "bitstream/compiler.hpp"
#include "common/errors.hpp"
#include "fpga/ip.hpp"
#include "golden.hpp"
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
    accel.resources = {1000, 2000, 4, 8};
    return accel;
}

} // namespace

TEST(BootFlow, HappyPathAttestsEverything)
{
    Testbed tb;
    tb.installCl(loopbackAccel());

    UserClient::Outcome outcome = tb.runDeployment();
    ASSERT_TRUE(outcome.ok) << outcome.failure;
    EXPECT_EQ(outcome.dataKey.size(), 32u);

    EXPECT_TRUE(tb.smApp().bootStatus().deployed);
    EXPECT_TRUE(tb.smApp().bootStatus().attested);
    EXPECT_TRUE(tb.smApp().haveDeviceKey());
    EXPECT_TRUE(tb.userApp().hasDataKey());
    EXPECT_EQ(tb.userApp().dataKey(), outcome.dataKey);

    // The CL really is loaded and usable.
    EXPECT_NE(tb.device().design(0), nullptr);
}

TEST(BootFlow, SecureRegisterChannelReachesAccelerator)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // Write two scratch registers through the protected channel and
    // read back their sum from the loopback IP's adder register.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 40));
    EXPECT_TRUE(tb.userApp().secureWrite(0x08, 2));
    auto sum = tb.userApp().secureRead(0x80);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, 42u);
}

TEST(BootFlow, DataKeyPushedThroughSecureChannel)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    ASSERT_TRUE(tb.userApp().pushDataKeyToCl(0x00));
    // The loopback accel stored the 4 words; confirm via secure reads.
    const Bytes &key = tb.userApp().dataKey();
    for (int i = 0; i < 4; ++i) {
        auto word = tb.userApp().secureRead(8 * i);
        ASSERT_TRUE(word.has_value());
        EXPECT_EQ(*word, loadLe64(key.data() + 8 * i)) << "word " << i;
    }
}

TEST(BootFlow, DirectWindowBypassesProtection)
{
    // §4.5: Salus also provides a direct unsecure interface; the
    // developer decides what runs over it.
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    tb.shell().registerWrite(pcie::Window::Direct, 0x00, 5);
    EXPECT_EQ(tb.shell().registerRead(pcie::Window::Direct, 0x00), 5u);
}

TEST(BootFlow, PhaseAccountingCoversFigure9Phases)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    const char *expected[] = {
        phases::kUserRa,          phases::kLocalAttest,
        phases::kDeviceKeyDist,   phases::kBitstreamVerifEnc,
        phases::kBitstreamManip,  phases::kClDeployment,
        phases::kClAuth,
    };
    for (const char *phase : expected) {
        EXPECT_GT(tb.clock().totalFor(phase), 0u)
            << "no time attributed to " << phase;
    }
    // Manipulation dominates CL deployment-side work (paper: 73.2% of
    // the full boot; with a test-scale bitstream the network phases
    // shrink relative to it much less, so just require dominance over
    // verification+encryption).
    EXPECT_GT(tb.clock().totalFor(phases::kBitstreamManip),
              tb.clock().totalFor(phases::kBitstreamVerifEnc));
}

TEST(BootFlow, FreshRotPerDeployment)
{
    // Two deployments of the SAME bitstream must inject different
    // attestation keys (per-deployment RoT, paper §3.2/§4.2).
    Testbed tb1(TestbedConfig{});
    TestbedConfig cfg2;
    cfg2.rngSeed = 2;
    Testbed tb2(cfg2);
    tb1.installCl(loopbackAccel());
    tb2.installCl(loopbackAccel());
    ASSERT_TRUE(tb1.runDeployment().ok);
    ASSERT_TRUE(tb2.runDeployment().ok);

    // Extract the injected keys from configuration memory (white-box:
    // enable readback on our own devices post-hoc).
    auto extractKey = [](Testbed &tb) {
        tb.device().setReadbackEnabled(true);
        Bytes frames = tb.device().readback(0);
        netlist::Netlist design = bitstream::extractDesign(frames);
        return design.findCell(tb.layout().keyAttestPath)->init;
    };
    Bytes k1 = extractKey(tb1);
    Bytes k2 = extractKey(tb2);
    EXPECT_EQ(k1.size(), kKeyAttestSize);
    EXPECT_NE(k1, k2);
    EXPECT_NE(k1, Bytes(kKeyAttestSize, 0)); // actually injected
}

TEST(BootFlow, SecondDeploymentOnSameDeviceWorks)
{
    // Multi-tenant rollover: a second runDeployment() reboots the CL
    // with fresh secrets on the same device.
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.userApp().secureWrite(0x00, 1));

    UserClient::Outcome second = tb.runDeployment();
    ASSERT_TRUE(second.ok) << second.failure;
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 2));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 2u);
}

TEST(BootFlow, UtilizationIncludesSmLogic)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    netlist::ResourceVector total = tb.utilization();
    netlist::ResourceVector sm = smLogicResources();
    EXPECT_GE(total.luts, sm.luts + 1000);
    EXPECT_GE(total.brams, sm.brams); // includes the 3 secret BRAMs
}

TEST(BootFlow, RequiresInstalledCl)
{
    Testbed tb;
    EXPECT_THROW(tb.runDeployment(), SalusError);
}

TEST(BootFlow, SmBlobBytesArePinned)
{
    // The encrypted blob the SM enclave hands to the shell: the copy,
    // digest, patch and seal it runs over the stored bitstream must
    // keep every byte. A pass-through MaliciousShell captures it.
    TestbedConfig cfg;
    cfg.rngSeed = 7;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_NE(tb.maliciousShell(), nullptr);
    test::expectGoldenDigest(
        "deploy." + tb.device().model().name + ".sm_blob",
        stringFromBytes(tb.maliciousShell()->capturedBitstream()));
}

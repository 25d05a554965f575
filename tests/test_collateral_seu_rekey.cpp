/**
 * @file
 * Tests for the second wave of substrate extensions: DCAP collateral
 * (TCB info / QE identity / caching), configuration-memory SEU
 * injection + ECC scrubbing, session re-keying, and I/O statistics.
 */

#include <gtest/gtest.h>

#include "bitstream/compiler.hpp"
#include "common/errors.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "fpga/ip.hpp"
#include "manufacturer/manufacturer.hpp"
#include "salus/sm_logic.hpp"
#include "salus/testbed.hpp"
#include "tee/collateral.hpp"

using namespace salus;
using namespace salus::tee;

// ------------------------------------------------------- collateral

namespace {

struct CollateralRig
{
    crypto::CtrDrbg rng{uint64_t(555)};
    CollateralService pcs{bytesFromString("mft-root-seed"), "icelake"};
    TeePlatform platform{"plat-c", rng};
    manufacturer::Manufacturer mft{rng};

    struct E : Enclave
    {
        using Enclave::createQuote;
        using Enclave::Enclave;
    };
    std::unique_ptr<E> enclave;

    CollateralRig()
    {
        pcs.setQeIdentity(platform.quotingTarget(), 1);
        // PCK issued by the same root the collateral service uses.
        PckCertificate cert;
        cert.platformId = platform.platformId();
        cert.attestPublicKey = platform.attestationPublicKey();
        cert.tcbSvn = platform.cpuSvn();
        crypto::Ed25519KeyPair root;
        root.seed = crypto::hmacSha256(bytesFromString("mft-root-seed"),
                                       bytesFromString("pcs"));
        root.publicKey = crypto::ed25519PublicKey(root.seed);
        cert.signature =
            crypto::ed25519Sign(root.seed, cert.signedPortion());
        platform.installPckCertificate(cert);

        enclave = std::make_unique<E>(
            platform,
            EnclaveImage{"e", "s", 1, bytesFromString("app-code")});
    }
};

} // namespace

TEST(Collateral, FullVerificationHappyPath)
{
    CollateralRig rig;
    CollateralBundle bundle = rig.pcs.issue(0, 24 * 3600 * sim::kSec);
    Quote q = rig.enclave->createQuote(bytesFromString("nonce"));

    QuoteVerdict v = verifyQuoteWithCollateral(
        q, bundle, rig.pcs.rootPublicKey(), sim::Nanos(1000));
    ASSERT_TRUE(v.ok) << v.reason;
    EXPECT_EQ(v.body.mrenclave, rig.enclave->measurement());
}

TEST(Collateral, SerializationRoundtrip)
{
    CollateralRig rig;
    CollateralBundle b = rig.pcs.issue(7, 100 * sim::kSec);
    TcbInfo t = TcbInfo::deserialize(b.tcbInfo.serialize());
    EXPECT_EQ(t.family, "icelake");
    EXPECT_EQ(t.issuedAt, 7u);
    EXPECT_EQ(t.signature, b.tcbInfo.signature);
    QeIdentity qi = QeIdentity::deserialize(b.qeIdentity.serialize());
    EXPECT_EQ(qi.qeMeasurement, b.qeIdentity.qeMeasurement);
    EXPECT_THROW(TcbInfo::deserialize(Bytes(3)), TeeError);
    EXPECT_THROW(QeIdentity::deserialize(Bytes(3)), TeeError);
}

TEST(Collateral, ExpiryEnforced)
{
    CollateralRig rig;
    CollateralBundle bundle = rig.pcs.issue(0, 100 * sim::kSec);
    Quote q = rig.enclave->createQuote(ByteView());

    // Within validity: ok. After nextUpdate: rejected.
    EXPECT_TRUE(verifyQuoteWithCollateral(q, bundle,
                                          rig.pcs.rootPublicKey(),
                                          50 * sim::kSec)
                    .ok);
    QuoteVerdict v = verifyQuoteWithCollateral(
        q, bundle, rig.pcs.rootPublicKey(), 200 * sim::kSec);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.reason.find("expired"), std::string::npos);
}

TEST(Collateral, TcbRecoveryInvalidatesOldPlatforms)
{
    // The manufacturer raises the family's minimum SVN (a TCB
    // recovery event): quotes from unpatched platforms stop passing.
    CollateralRig rig;
    Quote q = rig.enclave->createQuote(ByteView());

    rig.pcs.setMinCpuSvn(5); // platform is at SVN 1
    CollateralBundle strict = rig.pcs.issue(0, 100 * sim::kSec);
    QuoteVerdict v = verifyQuoteWithCollateral(
        q, strict, rig.pcs.rootPublicKey(), 10);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.reason.find("TCB"), std::string::npos);
}

TEST(Collateral, ForgedCollateralAndWrongQeRejected)
{
    CollateralRig rig;
    CollateralBundle bundle = rig.pcs.issue(0, 100 * sim::kSec);
    Quote q = rig.enclave->createQuote(ByteView());

    CollateralBundle badTcb = bundle;
    badTcb.tcbInfo.minCpuSvn = 0; // edit after signing
    EXPECT_FALSE(verifyQuoteWithCollateral(q, badTcb,
                                           rig.pcs.rootPublicKey(), 10)
                     .ok);

    CollateralBundle badQe = bundle;
    badQe.qeIdentity.signature[0] ^= 1;
    EXPECT_FALSE(verifyQuoteWithCollateral(q, badQe,
                                           rig.pcs.rootPublicKey(), 10)
                     .ok);

    // A quote claiming a different quoting enclave is rejected.
    Quote alien = q;
    alien.qeMeasurement = crypto::Sha256::digest(
        bytesFromString("rogue-qe"));
    // (signature now invalid too, but the QE check fires first)
    EXPECT_FALSE(verifyQuoteWithCollateral(alien, bundle,
                                           rig.pcs.rootPublicKey(), 10)
                     .ok);
}

TEST(Collateral, CacheFetchesOnlyOnExpiry)
{
    CollateralRig rig;
    size_t issued = 0;
    CollateralCache cache([&](sim::Nanos now) {
        ++issued;
        return rig.pcs.issue(now, 100 * sim::kSec);
    });

    cache.get(0);
    cache.get(10);
    cache.get(99 * sim::kSec);
    EXPECT_EQ(cache.fetchCount(), 1u);
    cache.get(100 * sim::kSec); // expired -> refetch
    EXPECT_EQ(cache.fetchCount(), 2u);
    EXPECT_EQ(issued, 2u);
}

// --------------------------------------------------------- SEU / ECC

namespace {

struct SeuRig
{
    crypto::CtrDrbg rng{uint64_t(808)};
    std::unique_ptr<core::Testbed> tb;

    SeuRig()
    {
        fpga::ensureBuiltinIps();
        core::SmLogic::registerIp();
        tb = std::make_unique<core::Testbed>();
        netlist::Cell accel;
        accel.path = "engine";
        accel.kind = netlist::CellKind::Logic;
        accel.behaviorId = fpga::kIpLoopback;
        accel.resources = {10, 10, 0, 0};
        tb->installCl(accel);
        EXPECT_TRUE(tb->runDeployment().ok);
    }
};

} // namespace

TEST(SeuScrub, CleanPartitionScrubsClean)
{
    SeuRig rig;
    auto report = rig.tb->device().scrub(0);
    EXPECT_GT(report.framesScanned, 0u);
    EXPECT_EQ(report.corrected, 0u);
    EXPECT_EQ(report.uncorrectable, 0u);
}

TEST(SeuScrub, SingleBitUpsetsCorrected)
{
    SeuRig rig;
    fpga::FpgaDevice &dev = rig.tb->device();

    // Inject SEUs into three different frames.
    dev.injectSeu(0, 5);
    dev.injectSeu(0, 64 * 8 + 17);      // frame 1
    dev.injectSeu(0, 10 * 64 * 8 + 99); // frame 10

    auto report = dev.scrub(0);
    EXPECT_EQ(report.corrected, 3u);
    EXPECT_EQ(report.uncorrectable, 0u);

    // The design still works and a second scrub is clean.
    EXPECT_TRUE(rig.tb->smApp().reattestCl());
    auto again = dev.scrub(0);
    EXPECT_EQ(again.corrected, 0u);
    EXPECT_EQ(again.uncorrectable, 0u);
}

TEST(SeuScrub, DoubleUpsetInOneFrameIsFatal)
{
    SeuRig rig;
    fpga::FpgaDevice &dev = rig.tb->device();

    dev.injectSeu(0, 100);
    dev.injectSeu(0, 200); // same frame 0 (64-byte frames)

    auto report = dev.scrub(0);
    EXPECT_EQ(report.uncorrectable, 1u);
    // SEM semantics: the partition's design is taken down; a reload
    // is required (and the heartbeat notices).
    EXPECT_EQ(dev.design(0), nullptr);
    EXPECT_FALSE(rig.tb->smApp().reattestCl());
}

TEST(SeuScrub, EveryBitOfAFrameIsLocatedAndCorrected)
{
    SeuRig rig;
    fpga::FpgaDevice &dev = rig.tb->device();
    const uint64_t frameBits =
        uint64_t(dev.model().findPartition(0)->frameSize) * 8;
    ASSERT_EQ(frameBits, 512u); // testModel's 64-byte frames
    const uint64_t frame3 = 3 * frameBits;
    // Readback shows whether a "correction" restored the flipped bit or
    // flipped a second one that happens to balance the signature.
    dev.setReadbackEnabled(true);
    const Bytes golden = dev.readback(0);

    // Every bit position, including each word's top bit whose index
    // carries into the next word's, must be located exactly.
    for (uint64_t bit = 0; bit < frameBits; ++bit) {
        dev.injectSeu(0, frame3 + bit);
        auto report = dev.scrub(0);
        ASSERT_EQ(report.corrected, 1u) << "bit " << bit;
        ASSERT_EQ(report.uncorrectable, 0u) << "bit " << bit;
        ASSERT_EQ(dev.readback(0), golden) << "bit " << bit;
        auto again = dev.scrub(0);
        ASSERT_EQ(again.corrected, 0u) << "bit " << bit;
        ASSERT_EQ(again.uncorrectable, 0u) << "bit " << bit;
    }

    // Bit 63 of word 0 and bit 0 of word 1: an even number of flips
    // with a nonzero index difference is detected, not "corrected".
    dev.injectSeu(0, frame3 + 63);
    dev.injectSeu(0, frame3 + 64);
    auto report = dev.scrub(0);
    EXPECT_EQ(report.corrected, 0u);
    EXPECT_EQ(report.uncorrectable, 1u);
}

TEST(SeuScrub, ApiErrors)
{
    SeuRig rig;
    EXPECT_THROW(rig.tb->device().injectSeu(9, 0), DeviceError);
    EXPECT_THROW(rig.tb->device().injectSeu(0, 1ull << 40), DeviceError);
    EXPECT_THROW(rig.tb->device().scrub(9), DeviceError);
}

// ----------------------------------------------------------- re-key

TEST(Rekey, SessionContinuesUnderNewKeys)
{
    SeuRig rig; // deployed platform
    core::UserEnclaveApp &user = rig.tb->userApp();

    ASSERT_TRUE(user.secureWrite(0x00, 1));
    ASSERT_TRUE(user.rekeySession());
    ASSERT_TRUE(user.secureWrite(0x00, 2));
    EXPECT_EQ(user.secureRead(0x00), 2u);

    // Several consecutive rekeys keep converging.
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(user.rekeySession()) << i;
        ASSERT_TRUE(user.secureWrite(0x08, 10 + i)) << i;
    }
    EXPECT_EQ(user.secureRead(0x08), 14u);
}

TEST(Rekey, OldKeyTrafficRejectedAfterRoll)
{
    // White-box: craft a valid request under the ORIGINAL session
    // keys, roll the session, then submit the stale request: the SM
    // logic must reject it (keys are gone).
    SeuRig rig;
    fpga::FpgaDevice &dev = rig.tb->device();
    core::UserEnclaveApp &user = rig.tb->userApp();

    dev.setReadbackEnabled(true);
    netlist::Netlist design = bitstream::extractDesign(dev.readback(0));
    Bytes session =
        design.findCell(rig.tb->layout().keySessionPath)->init;
    core::regchan::SessionKeys oldKeys(session);
    Bytes ctrCell =
        design.findCell(rig.tb->layout().ctrSessionPath)->init;
    uint64_t ctrBase = loadLe64(ctrCell.data());

    ASSERT_TRUE(user.rekeySession());

    auto stale = core::regchan::sealRequest(
        oldKeys.aes(), oldKeys.mac(), ctrBase + 1000,
        core::regchan::RegOp{true, 0x00, 0xbad});
    auto &sh = rig.tb->shell();
    sh.registerWrite(pcie::Window::SmSecure, core::kSmRegIn0, stale.ctr);
    sh.registerWrite(pcie::Window::SmSecure, core::kSmRegIn1, stale.ct0);
    sh.registerWrite(pcie::Window::SmSecure, core::kSmRegIn2, stale.ct1);
    sh.registerWrite(pcie::Window::SmSecure, core::kSmRegIn3, stale.mac);
    sh.registerWrite(pcie::Window::SmSecure, core::kSmRegCmd,
                     core::kSmCmdSecureReg);
    EXPECT_EQ(sh.registerRead(pcie::Window::SmSecure, core::kSmRegStatus),
              core::kSmStatusRejected);
}

TEST(Rekey, RequiresAttestedSession)
{
    fpga::ensureBuiltinIps();
    core::SmLogic::registerIp();
    core::Testbed tb;
    netlist::Cell accel;
    accel.path = "engine";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {10, 10, 0, 0};
    tb.installCl(accel);
    // Before deployment there is nothing to rekey.
    EXPECT_FALSE(tb.smApp().rekeySession());
}

// ------------------------------------------------------ diagnostics

TEST(Diagnostics, SmLogicCountersTrackOutcomes)
{
    SeuRig rig;
    auto &sh = rig.tb->shell();
    auto counter = [&](uint32_t reg) {
        return sh.registerRead(pcie::Window::SmSecure, reg);
    };

    uint64_t okBefore = counter(core::kSmRegStatRegOpOk);
    uint64_t rejBefore = counter(core::kSmRegStatRegOpRejected);

    ASSERT_TRUE(rig.tb->userApp().secureWrite(0x00, 9));
    // Garbage secure-reg command: rejected.
    sh.registerWrite(pcie::Window::SmSecure, core::kSmRegIn0, ~0ull);
    sh.registerWrite(pcie::Window::SmSecure, core::kSmRegCmd,
                     core::kSmCmdSecureReg);

    EXPECT_EQ(counter(core::kSmRegStatRegOpOk), okBefore + 1);
    EXPECT_GE(counter(core::kSmRegStatRegOpRejected), rejBefore + 1);
    EXPECT_GE(counter(core::kSmRegStatAttestOk), 1u);
}

TEST(Diagnostics, ShellIoStatsAccumulate)
{
    SeuRig rig;
    auto &sh = rig.tb->shell();
    auto before = sh.ioStats();

    sh.registerWrite(pcie::Window::Direct, 0x00, 1);
    sh.registerRead(pcie::Window::Direct, 0x00);
    sh.dmaWrite(0, Bytes(100, 1));
    sh.dmaRead(0, 40);

    const auto &after = sh.ioStats();
    EXPECT_EQ(after.registerWrites, before.registerWrites + 1);
    EXPECT_EQ(after.registerReads, before.registerReads + 1);
    EXPECT_EQ(after.dmaBytesToDevice, before.dmaBytesToDevice + 100);
    EXPECT_EQ(after.dmaBytesFromDevice, before.dmaBytesFromDevice + 40);
    EXPECT_GE(after.deployments, 1u);
}

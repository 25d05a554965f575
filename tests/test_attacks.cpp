/**
 * @file
 * Security tests: every attack from the threat model (paper §3.1 /
 * Table 3) is executed against the platform and must be detected or
 * neutralized. These are the executable form of the paper's security
 * analysis (§4.6).
 */

#include <gtest/gtest.h>

#include "bitstream/compiler.hpp"
#include "common/hex.hpp"
#include "fpga/ip.hpp"
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

netlist::Cell
trojanAccel()
{
    netlist::Cell accel;
    accel.path = "trojan";
    accel.kind = netlist::CellKind::Logic;
    accel.behaviorId = fpga::kIpLoopback;
    accel.resources = {999, 999, 1, 0};
    return accel;
}

} // namespace

// ---- ① Integrity attacks on CL during booting -----------------------

TEST(Attacks, ShellTampersEncryptedBitstream)
{
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    cfg.attackPlan.tamperBitstream = true;
    cfg.attackPlan.tamperOffset = 5000;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());

    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
    // GCM authentication inside the fabric catches the flip.
    EXPECT_NE(outcome.failure.find("DecryptFailed"), std::string::npos)
        << outcome.failure;
}

TEST(Attacks, ShellSubstitutesOwnBitstream)
{
    // The CSP compiles its own trojan CL. Without Key_device it can
    // only submit it in cleartext form (or encrypted under a wrong
    // key); the device refuses either way, and even if it somehow
    // loaded, it would not hold Key_attest.
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());

    ClDesign trojan = buildClDesign("trojan_top", trojanAccel());
    bitstream::Compiler compiler(tb.device().model().name);
    auto compiled = compiler.compile(
        trojan.netlist, tb.device().model().partitions[0]);
    tb.maliciousShell()->plan().substituteBitstream = compiled.file;

    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
}

TEST(Attacks, StorageSwapsBitstreamBeforeSmEnclave)
{
    // Untrusted cloud storage hands the SM enclave a different file:
    // the digest check against H (step ⑤) catches it.
    Testbed tb;
    tb.installCl(loopbackAccel());
    ClDesign trojan = buildClDesign("trojan_top", trojanAccel());
    bitstream::Compiler compiler(tb.device().model().name);
    tb.storedBitstream() =
        compiler
            .compile(trojan.netlist, tb.device().model().partitions[0])
            .file;

    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.failure.find("digest"), std::string::npos)
        << outcome.failure;
}

TEST(Attacks, UnmanipulatedBitstreamFailsClAttestation)
{
    // Suppose the shell replays the developer's ORIGINAL (cleartext)
    // bitstream, whose key cells are all zero. The CL loads but holds
    // no RoT, so the SipHash challenge fails.
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    // Substitute with the original plaintext artifact: the device
    // refuses it outright (it expects an encrypted blob).
    tb.maliciousShell()->plan().substituteBitstream =
        tb.storedBitstream();

    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
}

// ---- ③ Bus attacks on host-CL PCIe transactions ----------------------

TEST(Attacks, RegisterTamperOnSmWindowDetected)
{
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // Start flipping a bit in everything crossing the SM window.
    tb.maliciousShell()->plan().smWindowDataTamperMask = 1ull << 17;

    // Writes are authenticated: the SM logic rejects, and the host
    // sees the failure instead of silently corrupted state.
    EXPECT_FALSE(tb.userApp().secureWrite(0x00, 1234));
    EXPECT_FALSE(tb.userApp().secureRead(0x00).has_value());

    // Stop tampering: the channel recovers (counter advanced, no
    // state poisoning).
    tb.maliciousShell()->plan().smWindowDataTamperMask = 0;
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 1234));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 1234u);
}

TEST(Attacks, ReplayOfSecureRegisterWritesRejected)
{
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    ASSERT_TRUE(tb.userApp().secureWrite(0x00, 77));
    ASSERT_TRUE(tb.userApp().secureWrite(0x00, 88));

    // The shell replays all recorded SM-window writes (including the
    // "write 77" transaction). The monotonic session counter makes
    // the SM logic reject every replayed command.
    tb.maliciousShell()->replayRecordedSmWrites();
    EXPECT_EQ(tb.userApp().secureRead(0x00), 88u)
        << "replay must not roll the register back to 77";
}

TEST(Attacks, SnoopSeesNoSecretsOnTheBus)
{
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // Exercise the channel with a known sensitive payload.
    const uint64_t secretValue = 0x5ec2e7c0ffee1234ull;
    ASSERT_TRUE(tb.userApp().secureWrite(0x10, secretValue));
    ASSERT_TRUE(tb.userApp().pushDataKeyToCl(0x20));

    // The shell saw every register transaction; none carries the
    // plaintext value or any data-key word.
    const Bytes &dataKey = tb.userApp().dataKey();
    for (const auto &txn : tb.maliciousShell()->snoopLog()) {
        EXPECT_NE(txn.data, secretValue);
        for (int i = 0; i < 4; ++i)
            EXPECT_NE(txn.data, loadLe64(dataKey.data() + 8 * i));
    }

    // And the captured (encrypted) bitstream does not contain the
    // injected attestation key material anywhere.
    tb.device().setReadbackEnabled(true);
    netlist::Netlist design =
        bitstream::extractDesign(tb.device().readback(0));
    Bytes keyAttest =
        design.findCell(tb.layout().keyAttestPath)->init;
    std::string blobHex =
        hexEncode(tb.maliciousShell()->capturedBitstream());
    EXPECT_EQ(blobHex.find(hexEncode(keyAttest)), std::string::npos);
}

TEST(Attacks, ConfigScanBlockedByReadbackDisable)
{
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // §5.1.2: with the Salus ICAP IP the scan is impossible.
    EXPECT_FALSE(tb.maliciousShell()->tryConfigScan().has_value());
}

TEST(Attacks, LegacyReadbackEnablesKeyExfiltration)
{
    // Demonstrates WHY readback must be disabled: on a legacy ICAP
    // the shell scans configuration memory, extracts Key_attest, and
    // can forge a valid CL attestation response.
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    tb.device().setReadbackEnabled(true); // legacy ICAP
    auto frames = tb.maliciousShell()->tryConfigScan();
    ASSERT_TRUE(frames.has_value());

    netlist::Netlist design = bitstream::extractDesign(*frames);
    Bytes stolenKey = design.findCell(tb.layout().keyAttestPath)->init;
    EXPECT_EQ(stolenKey.size(), kKeyAttestSize);

    // The stolen key forges a response the SM enclave would accept.
    uint64_t nonce = 42;
    uint64_t dna = tb.device().dna().value;
    uint64_t forged =
        regchan::attestResponseMac(stolenKey, nonce, dna);
    EXPECT_EQ(forged, regchan::attestResponseMac(stolenKey, nonce, dna));
}

// ---- ④ Privileged attacks on the host --------------------------------

TEST(Attacks, NetworkMitmOnRaBreaksAttestation)
{
    Testbed tb;
    tb.installCl(loopbackAccel());

    // A network attacker flips a byte in the RA response (the quote).
    tb.network().setInterposer(
        [](const std::string &, const std::string &,
           const std::string &method, Bytes &payload) {
            if (method == "raRequest:response" && payload.size() > 50)
                payload[50] ^= 1;
            return true;
        });
    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
}

TEST(Attacks, WrongMetadataDigestRejectedInsideEnclave)
{
    // A compromised client-side config (or MITM on metadata) makes H
    // mismatch; the SM enclave refuses to deploy.
    Testbed tb;
    tb.installCl(loopbackAccel());
    tb.metadata().digestH[0] ^= 1;

    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.failure.find("digest"), std::string::npos)
        << outcome.failure;
}

TEST(Attacks, RevokedPlatformRejectedByClient)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    tb.mft().verificationService().revokePlatform("platform-1");

    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.failure.find("revoked"), std::string::npos)
        << outcome.failure;
}

TEST(Attacks, OutdatedTcbRejected)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    tb.mft().verificationService().setMinTcbSvn(7);

    UserClient::Outcome outcome = tb.runDeployment();
    EXPECT_FALSE(outcome.ok);
}

TEST(Attacks, HostCannotDriveSecureChannelWithoutLa)
{
    // The OS calls the SM enclave's channel entry point directly with
    // garbage (no established LA session): nothing happens.
    Testbed tb;
    tb.installCl(loopbackAccel());
    EXPECT_TRUE(tb.smApp().channelRequest(0, Bytes(64, 7)).empty());

    // After a legitimate deployment, replaying an old sealed channel
    // message is also rejected (sequence numbers).
    ASSERT_TRUE(tb.runDeployment().ok);
    EXPECT_TRUE(tb.smApp().channelRequest(0, Bytes(64, 7)).empty());
}

TEST(Attacks, DmaTamperIsVisibleToDeveloperEncryption)
{
    // §3.1 attack 2 is delegated to the developer's memory encryption;
    // the substrate makes the tampering observable so accel-level
    // tests (test_accel.cpp) can prove AES-CTR+digest catches it.
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    cfg.attackPlan.tamperDma = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    tb.shell().dmaWrite(0, Bytes{0x11, 0x22});
    // The payload was corrupted on its way into device memory.
    EXPECT_NE(tb.device().dram().read(0, 2), (Bytes{0x11, 0x22}));
    // And a read of intact memory is corrupted on its way out.
    tb.device().dram().write(16, Bytes{0x33, 0x44});
    EXPECT_NE(tb.shell().dmaRead(16, 2), (Bytes{0x33, 0x44}));
}

// ---- Motivation: what legacy (unprotected) FaaS leaks ----------------

TEST(LegacyFaas, CleartextFlowLeaksEverything)
{
    // §2.2's baseline FaaS with no TEE: the CL ships in plaintext and
    // register traffic is unprotected. The CSP-controlled shell
    // trivially recovers both the design IP and the runtime data --
    // the motivation for building an FPGA TEE at all.
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());

    // Legacy deployment: the raw bitstream goes through the shell.
    Bytes plainFile = tb.storedBitstream();
    ASSERT_EQ(tb.device().loadCleartextPartial(plainFile),
              fpga::LoadStatus::Ok);

    // 1. Design theft: the shell can parse the plaintext bitstream
    //    and recover the entire netlist (IP piracy).
    bitstream::Bitstream bs = bitstream::Bitstream::fromFile(plainFile);
    netlist::Netlist stolen = bitstream::extractDesign(bs.body);
    EXPECT_NE(stolen.findCell(tb.layout().accelCellPath), nullptr);

    // 2. Data theft: unprotected register writes cross the shell in
    //    plaintext and land in its snoop log verbatim.
    const uint64_t secret = 0xfeedfacecafef00dull;
    tb.shell().registerWrite(pcie::Window::Direct, 0x10, secret);
    bool seen = false;
    for (const auto &txn : tb.maliciousShell()->snoopLog())
        seen |= txn.isWrite && txn.data == secret;
    EXPECT_TRUE(seen) << "legacy FaaS must leak plaintext registers "
                         "(that is the point of this test)";
}

// ---- Why bitstream CONFIDENTIALITY is load-bearing -------------------

TEST(SpliceAttack, PossibleOnPlaintextImpossibleThroughSalus)
{
    // The paper's integrity argument: a successful Key_attest check
    // implies an intact CL *because* (a) partial reconfiguration
    // rewrites the whole partition and (b) the manipulated bitstream
    // is confidential. This test shows (b) is essential: an attacker
    // WITH the manipulated plaintext could splice a trojan around the
    // intact key cells and still pass attestation.
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    ASSERT_TRUE(tb.smApp().reattestCl());

    // --- hypothetical: attacker holds the manipulated PLAINTEXT ----
    // (white-box: rebuild it from config memory, which equals the
    // decrypted manipulated bitstream body)
    tb.device().setReadbackEnabled(true);
    netlist::Netlist manipulated =
        bitstream::extractDesign(tb.device().readback(0));
    tb.device().setReadbackEnabled(false);

    // Splice: keep the SM logic and its key BRAMs (the injected
    // secrets!), replace only the accelerator.
    netlist::Netlist spliced = manipulated;
    netlist::Cell *accel =
        spliced.findCell(tb.layout().accelCellPath);
    ASSERT_NE(accel, nullptr);
    accel->params = bytesFromString("trojan payload");

    bitstream::Compiler compiler(tb.device().model().name);
    auto trojan = compiler.compile(
        spliced, tb.device().model().partitions[0]);

    // Loaded in PLAINTEXT (the hypothetical world without bitstream
    // encryption), the spliced CL passes runtime attestation -- the
    // injected keys came along for the ride.
    ASSERT_EQ(tb.device().loadCleartextPartial(trojan.file),
              fpga::LoadStatus::Ok);
    EXPECT_TRUE(tb.smApp().reattestCl())
        << "splice keeps the RoT, so attestation cannot tell -- this "
           "is exactly why the plaintext must never leave the enclave";

    // --- reality: through Salus the attacker only ever holds the
    // ciphertext, and any modification of it bricks the load.
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    cfg.attackPlan.tamperBitstream = true;
    cfg.attackPlan.tamperOffset = 100;
    Testbed salus(cfg);
    salus.installCl(loopbackAccel());
    EXPECT_FALSE(salus.runDeployment().ok);
}

/**
 * @file
 * Focused SM-logic and register-channel tests (paper §5.1, Fig. 4a,
 * §4.5): the attestation FSM, the secure register channel crypto, and
 * the monotonic-counter freshness rules — exercised at the register
 * level, without the surrounding boot flow.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bitstream/compiler.hpp"
#include "bitstream/encryptor.hpp"
#include "bitstream/manipulator.hpp"
#include "common/errors.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "fpga/device.hpp"
#include "salus/cl_builder.hpp"
#include "salus/reg_channel.hpp"
#include "salus/secrets.hpp"
#include "salus/sm_logic.hpp"

using namespace salus;
using namespace salus::core;

namespace {

/** Builds a device with a loaded, secret-injected Salus CL. */
struct Rig
{
    crypto::CtrDrbg rng{uint64_t(404)};
    fpga::DeviceModelInfo model = fpga::testModel();
    fpga::FpgaDevice device{fpga::testModel(),
                            fpga::DeviceDna{0xabcdef012345ULL}};
    Bytes deviceKey;
    ClLayout layout;
    ClSecrets secrets;
    fpga::IpBehavior *sm = nullptr;

    Rig()
    {
        fpga::ensureBuiltinIps();
        SmLogic::registerIp();
        deviceKey = rng.bytes(32);
        device.fuseKey(deviceKey);

        netlist::Cell accel;
        accel.path = "engine";
        accel.kind = netlist::CellKind::Logic;
        accel.behaviorId = fpga::kIpLoopback;
        accel.resources = {100, 100, 0, 0};
        ClDesign design = buildClDesign("cl", accel);
        layout = design.layout;

        bitstream::Compiler compiler(model.name);
        auto compiled =
            compiler.compile(design.netlist, model.partitions[0]);

        secrets = ClSecrets::generate(rng);
        bitstream::Manipulator::patchCell(compiled.file,
                                          compiled.logicLocations,
                                          layout.keyAttestPath,
                                          secrets.keyAttest);
        bitstream::Manipulator::patchCell(compiled.file,
                                          compiled.logicLocations,
                                          layout.keySessionPath,
                                          secrets.keySession);
        bitstream::Manipulator::patchCell(compiled.file,
                                          compiled.logicLocations,
                                          layout.ctrSessionPath,
                                          secrets.ctrBytes());

        bitstream::EncryptedHeader header{model.name, 0};
        Bytes blob = bitstream::encryptBitstream(compiled.file,
                                                 deviceKey, header, rng);
        EXPECT_EQ(device.loadEncryptedPartial(blob),
                  fpga::LoadStatus::Ok);
        sm = device.design(0)->behaviorAt(layout.smCellPath);
        EXPECT_NE(sm, nullptr);
    }

    uint64_t dna() const { return 0xabcdef012345ULL; }

    /** Drives one attestation exchange; returns the status register. */
    uint64_t
    attest(uint64_t nonce, uint64_t macReq, uint64_t *rspNonce = nullptr,
           uint64_t *rspMac = nullptr)
    {
        sm->writeRegister(kSmRegIn0, nonce);
        sm->writeRegister(kSmRegIn1, macReq);
        sm->writeRegister(kSmRegCmd, kSmCmdAttest);
        if (rspNonce)
            *rspNonce = sm->readRegister(kSmRegOut0);
        if (rspMac)
            *rspMac = sm->readRegister(kSmRegOut1);
        return sm->readRegister(kSmRegStatus);
    }

    /** Drives one sealed register op; returns the status register. */
    uint64_t
    secureOp(const regchan::SealedRegRequest &req,
             regchan::SealedRegResponse *rsp = nullptr)
    {
        sm->writeRegister(kSmRegIn0, req.ctr);
        sm->writeRegister(kSmRegIn1, req.ct0);
        sm->writeRegister(kSmRegIn2, req.ct1);
        sm->writeRegister(kSmRegIn3, req.mac);
        sm->writeRegister(kSmRegCmd, kSmCmdSecureReg);
        if (rsp) {
            rsp->ct0 = sm->readRegister(kSmRegOut0);
            rsp->ct1 = sm->readRegister(kSmRegOut1);
            rsp->mac = sm->readRegister(kSmRegOut2);
        }
        return sm->readRegister(kSmRegStatus);
    }
};

} // namespace

TEST(SmLogicTest, AttestationHappyPath)
{
    Rig rig;
    uint64_t nonce = 0x1111222233334444ull;
    uint64_t macReq =
        regchan::attestRequestMac(rig.secrets.keyAttest, nonce,
                                  rig.dna());
    uint64_t rspNonce = 0, rspMac = 0;
    EXPECT_EQ(rig.attest(nonce, macReq, &rspNonce, &rspMac),
              kSmStatusOk);
    EXPECT_EQ(rspNonce, nonce + 1);
    EXPECT_EQ(rspMac, regchan::attestResponseMac(rig.secrets.keyAttest,
                                                 nonce, rig.dna()));
}

TEST(SmLogicTest, AttestationRejectsWrongMacOrKey)
{
    Rig rig;
    uint64_t nonce = 7;

    // Wrong MAC entirely.
    uint64_t rspMac = 1;
    EXPECT_EQ(rig.attest(nonce, 0xdeadbeef, nullptr, &rspMac),
              kSmStatusRejected);
    EXPECT_EQ(rspMac, 0u) << "rejection must not leak MAC material";

    // MAC computed under a different key (e.g. attacker guess).
    Bytes wrongKey(16, 0x42);
    uint64_t macReq = regchan::attestRequestMac(wrongKey, nonce,
                                                rig.dna());
    EXPECT_EQ(rig.attest(nonce, macReq), kSmStatusRejected);
}

TEST(SmLogicTest, AttestationBindsDeviceDna)
{
    // The MAC covers DeviceDNA: a request computed for a DIFFERENT
    // device (CSP bait-and-switch, §4.3) is rejected by this one.
    Rig rig;
    uint64_t nonce = 9;
    uint64_t macOtherDevice = regchan::attestRequestMac(
        rig.secrets.keyAttest, nonce, rig.dna() ^ 0x1);
    EXPECT_EQ(rig.attest(nonce, macOtherDevice), kSmStatusRejected);
}

TEST(SmLogicTest, SecretsNotReadableOverBus)
{
    Rig rig;
    // Scan the whole register window; no read may return any 8-byte
    // slice of the attestation or session keys.
    std::vector<uint64_t> keyWords;
    for (size_t off = 0; off + 8 <= rig.secrets.keyAttest.size(); off++)
        keyWords.push_back(loadLe64(rig.secrets.keyAttest.data() + off));
    for (size_t off = 0; off + 8 <= rig.secrets.keySession.size(); off++)
        keyWords.push_back(
            loadLe64(rig.secrets.keySession.data() + off));

    for (uint32_t addr = 0; addr < 0x100; addr += 8) {
        uint64_t v = rig.sm->readRegister(addr);
        for (uint64_t kw : keyWords)
            ASSERT_NE(v, kw) << "key material readable at 0x"
                             << std::hex << addr;
    }
}

TEST(SmLogicTest, SecureRegReadWrite)
{
    Rig rig;
    regchan::SessionKeys keys(rig.secrets.keySession);
    uint64_t ctr = rig.secrets.ctrBase + 1;

    regchan::RegOp write{true, 0x00, 0x1234};
    regchan::SealedRegResponse rsp;
    EXPECT_EQ(rig.secureOp(
                  regchan::sealRequest(keys.aes(), keys.mac(), ctr, write),
                  &rsp),
              kSmStatusOk);
    auto opened = regchan::openResponse(keys.aes(), keys.mac(), ctr, rsp);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->first, 0);

    ++ctr;
    regchan::RegOp read{false, 0x00, 0};
    EXPECT_EQ(rig.secureOp(
                  regchan::sealRequest(keys.aes(), keys.mac(), ctr, read),
                  &rsp),
              kSmStatusOk);
    opened = regchan::openResponse(keys.aes(), keys.mac(), ctr, rsp);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->second, 0x1234u);
}

TEST(SmLogicTest, CounterRulesEnforced)
{
    Rig rig;
    regchan::SessionKeys keys(rig.secrets.keySession);
    uint64_t ctr = rig.secrets.ctrBase + 5;
    regchan::RegOp op{true, 0x08, 1};
    auto req = regchan::sealRequest(keys.aes(), keys.mac(), ctr, op);

    EXPECT_EQ(rig.secureOp(req), kSmStatusOk);
    // Exact replay: rejected.
    EXPECT_EQ(rig.secureOp(req), kSmStatusRejected);
    // Counter below the base: rejected even with a valid MAC.
    auto stale = regchan::sealRequest(keys.aes(), keys.mac(),
                                      rig.secrets.ctrBase, op);
    EXPECT_EQ(rig.secureOp(stale), kSmStatusRejected);
    // Skipping forward is fine (lost messages tolerated).
    auto ahead =
        regchan::sealRequest(keys.aes(), keys.mac(), ctr + 100, op);
    EXPECT_EQ(rig.secureOp(ahead), kSmStatusOk);
}

TEST(SmLogicTest, TamperedSealedRequestRejected)
{
    Rig rig;
    regchan::SessionKeys keys(rig.secrets.keySession);
    uint64_t ctr = rig.secrets.ctrBase + 1;
    regchan::RegOp op{true, 0x00, 42};
    auto req = regchan::sealRequest(keys.aes(), keys.mac(), ctr, op);

    auto flipCt = req;
    flipCt.ct0 ^= 1;
    EXPECT_EQ(rig.secureOp(flipCt), kSmStatusRejected);

    auto flipMac = req;
    flipMac.mac ^= 1;
    EXPECT_EQ(rig.secureOp(flipMac), kSmStatusRejected);

    // Changing the counter invalidates the MAC too (ctr is MACed).
    auto flipCtr = req;
    flipCtr.ctr += 1;
    EXPECT_EQ(rig.secureOp(flipCtr), kSmStatusRejected);
}

TEST(SmLogicTest, UnknownCommandRejected)
{
    Rig rig;
    rig.sm->writeRegister(kSmRegCmd, 99);
    EXPECT_EQ(rig.sm->readRegister(kSmRegStatus), kSmStatusRejected);
}

// ---------------------------------------------------- regchan crypto

TEST(RegChannel, SealOpenRoundtrip)
{
    crypto::CtrDrbg rng(uint64_t(5));
    crypto::Aes aes(rng.bytes(16));
    crypto::HmacSha256 mac(rng.bytes(32));

    for (uint64_t ctr : {1ull, 77ull, ~0ull}) {
        regchan::RegOp op{true, 0xabcd, 0x1122334455667788ull};
        auto req = regchan::sealRequest(aes, mac, ctr, op);
        auto back = regchan::openRequest(aes, mac, req);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->isWrite, op.isWrite);
        EXPECT_EQ(back->addr, op.addr);
        EXPECT_EQ(back->data, op.data);
    }
}

TEST(RegChannel, RequestsAndResponsesDomainSeparated)
{
    // A request ciphertext replayed as a response (reflection attack)
    // must not verify: directions use distinct MAC labels and CTR
    // blocks.
    crypto::CtrDrbg rng(uint64_t(6));
    crypto::Aes aes(rng.bytes(16));
    crypto::HmacSha256 mac(rng.bytes(32));
    auto req = regchan::sealRequest(aes, mac, 10,
                                    regchan::RegOp{false, 0, 0});
    regchan::SealedRegResponse fakeRsp{req.ct0, req.ct1, req.mac};
    EXPECT_FALSE(
        regchan::openResponse(aes, mac, 10, fakeRsp).has_value());
}

TEST(RegChannel, SessionKeysSplitTheBlockAesThenMac)
{
    crypto::CtrDrbg rng(uint64_t(8));
    Bytes block = rng.bytes(kKeySessionSize);
    regchan::SessionKeys keys(block);
    EXPECT_TRUE(std::equal(keys.block().begin(), keys.block().end(),
                           block.begin(), block.end()));

    // AES-128 under the first 16 bytes, HMAC under the other 32.
    crypto::Aes aes(ByteView(block).first(16));
    uint8_t in[16] = {1, 2, 3}, want[16], got[16];
    aes.encryptBlock(in, want);
    keys.aes().encryptBlock(in, got);
    EXPECT_TRUE(std::equal(want, want + 16, got));
    Bytes macKey(block.begin() + 16, block.end());
    EXPECT_EQ(Bytes(keys.macKey().begin(), keys.macKey().end()), macKey);
    Bytes msg = bytesFromString("tag me");
    EXPECT_EQ(keys.mac().mac(msg), crypto::HmacSha256(macKey).mac(msg));

    EXPECT_THROW(regchan::SessionKeys(ByteView(block).first(47)),
                 CryptoError);
    EXPECT_THROW(regchan::SessionKeys(Bytes(49, 0)), CryptoError);
}

TEST(RegChannel, WrongKeysFail)
{
    crypto::CtrDrbg rng(uint64_t(7));
    crypto::Aes aes(rng.bytes(16));
    crypto::HmacSha256 mac(rng.bytes(32));
    auto req = regchan::sealRequest(aes, mac, 3,
                                    regchan::RegOp{true, 4, 5});

    crypto::HmacSha256 otherMac(rng.bytes(32));
    EXPECT_FALSE(regchan::openRequest(aes, otherMac, req).has_value());

    // Wrong AES key with right MAC key: MAC still verifies (MAC is
    // over ciphertext) but the decrypted op is garbage -- this is why
    // both halves of Key_session come from the same injection.
    crypto::Aes otherAes(rng.bytes(16));
    auto opened = regchan::openRequest(otherAes, mac, req);
    ASSERT_TRUE(opened.has_value());
    EXPECT_FALSE(opened->isWrite == true && opened->addr == 4 &&
                 opened->data == 5);
}

TEST(RegChannel, AttestMacsDifferPerNonceKeyDna)
{
    Bytes k1(16, 1), k2(16, 2);
    EXPECT_NE(regchan::attestRequestMac(k1, 5, 9),
              regchan::attestRequestMac(k2, 5, 9));
    EXPECT_NE(regchan::attestRequestMac(k1, 5, 9),
              regchan::attestRequestMac(k1, 6, 9));
    EXPECT_NE(regchan::attestRequestMac(k1, 5, 9),
              regchan::attestRequestMac(k1, 5, 8));
    // Request and response MACs are distinct (N vs N+1).
    EXPECT_NE(regchan::attestRequestMac(k1, 5, 9),
              regchan::attestResponseMac(k1, 5, 9));
    // Direction domain separation: a response MAC for N can never be
    // replayed as a request MAC for N+1.
    EXPECT_NE(regchan::attestResponseMac(k1, 5, 9),
              regchan::attestRequestMac(k1, 6, 9));
}

/**
 * @file
 * Batched secure register channel + multi-session scheduler tests:
 * wire-format round trips and rejection properties of the RegBatch
 * crypto, counter-stride replay resistance at the fabric, tenant key
 * isolation, the BatchScheduler's fairness / backpressure /
 * typed-failover semantics, and the channel's exact throughput on the
 * virtual clock across session counts and batch sizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/errors.hpp"
#include "common/hex.hpp"
#include "crypto/backend.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "golden.hpp"
#include "obs/trace.hpp"
#include "salus/reg_channel.hpp"
#include "salus/scheduler.hpp"
#include "salus/sim_hooks.hpp"
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
    accel.resources = {10, 10, 0, 0};
    return accel;
}

struct BatchKeys
{
    crypto::Aes aes;
    crypto::HmacSha256 mac;
};

BatchKeys
testKeys(uint64_t seed)
{
    crypto::CtrDrbg rng(seed);
    return {crypto::Aes(rng.bytes(16)), crypto::HmacSha256(rng.bytes(32))};
}

std::vector<regchan::RegOp>
sampleOps(size_t n, uint64_t salt = 0)
{
    std::vector<regchan::RegOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        regchan::RegOp op;
        op.isWrite = (i % 3) != 2;
        op.addr = uint32_t(8 * (i % 16));
        op.data = salt + 0x1111111111111111ull * i;
        ops.push_back(op);
    }
    return ops;
}

} // namespace

// ---- wire format ----------------------------------------------------

TEST(RegBatch, SealOpenRoundTripAllSizes)
{
    BatchKeys k = testKeys(11);
    for (size_t n : {size_t(1), size_t(2), size_t(32),
                     regchan::kMaxBatchOps}) {
        std::vector<regchan::RegOp> ops = sampleOps(n, n);
        regchan::SealedRegBatch sealed =
            regchan::sealBatch(k.aes, k.mac, 3, 1000 + n, ops);
        EXPECT_EQ(sealed.count(), n);
        auto open = regchan::openBatch(k.aes, k.mac, sealed);
        ASSERT_TRUE(open.has_value()) << "count " << n;
        ASSERT_EQ(open->size(), n);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ((*open)[i].isWrite, ops[i].isWrite);
            EXPECT_EQ((*open)[i].addr, ops[i].addr);
            EXPECT_EQ((*open)[i].data, ops[i].data);
        }
    }
}

TEST(RegBatch, ResponseRoundTrip)
{
    BatchKeys k = testKeys(12);
    std::vector<regchan::BatchResult> results;
    for (size_t i = 0; i < 32; ++i)
        results.push_back({uint8_t(i % 4), 0xabcd0000 + i});
    regchan::SealedBatchResponse rsp = regchan::sealBatchResponse(
        k.aes, k.mac, 7, 5000, results);
    auto open = regchan::openBatchResponse(k.aes, k.mac, 7, 5000,
                                           results.size(), rsp);
    ASSERT_TRUE(open.has_value());
    ASSERT_EQ(open->size(), results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ((*open)[i].status, results[i].status);
        EXPECT_EQ((*open)[i].data, results[i].data);
    }
}

TEST(RegBatch, RejectsMalformedShape)
{
    BatchKeys k = testKeys(13);
    regchan::SealedRegBatch sealed =
        regchan::sealBatch(k.aes, k.mac, 1, 100, sampleOps(4));

    regchan::SealedRegBatch empty = sealed;
    empty.payload.clear();
    EXPECT_FALSE(regchan::openBatch(k.aes, k.mac, empty).has_value());

    regchan::SealedRegBatch misaligned = sealed;
    misaligned.payload.resize(sealed.payload.size() - 3);
    EXPECT_FALSE(
        regchan::openBatch(k.aes, k.mac, misaligned).has_value());

    regchan::SealedRegBatch oversize = sealed;
    oversize.payload.resize(
        (regchan::kMaxBatchOps + 1) * regchan::kRegBatchBlock);
    EXPECT_FALSE(
        regchan::openBatch(k.aes, k.mac, oversize).has_value());

    // Counter stride may never wrap past 2^64.
    regchan::SealedRegBatch wrapping = regchan::sealBatch(
        k.aes, k.mac, 1, ~uint64_t(0) - 1, sampleOps(4));
    EXPECT_FALSE(
        regchan::openBatch(k.aes, k.mac, wrapping).has_value());
}

TEST(RegBatch, RejectsTruncationAndBitFlips)
{
    BatchKeys k = testKeys(14);
    regchan::SealedRegBatch sealed =
        regchan::sealBatch(k.aes, k.mac, 9, 777, sampleOps(8));

    // Truncating whole blocks changes the MACed count.
    regchan::SealedRegBatch truncated = sealed;
    truncated.payload.resize(sealed.payload.size() -
                             regchan::kRegBatchBlock);
    EXPECT_FALSE(
        regchan::openBatch(k.aes, k.mac, truncated).has_value());

    // Any single bit flip anywhere in the payload must be caught.
    crypto::CtrDrbg rng(uint64_t(999));
    for (int trial = 0; trial < 64; ++trial) {
        regchan::SealedRegBatch flipped = sealed;
        size_t byte = rng.below(flipped.payload.size());
        flipped.payload[byte] ^= uint8_t(1 << rng.below(8));
        EXPECT_FALSE(
            regchan::openBatch(k.aes, k.mac, flipped).has_value());
    }

    regchan::SealedRegBatch badMac = sealed;
    badMac.mac ^= 1;
    EXPECT_FALSE(regchan::openBatch(k.aes, k.mac, badMac).has_value());

    // Session id and counter base are cleartext but MAC-bound.
    regchan::SealedRegBatch badSession = sealed;
    badSession.sessionId ^= 1;
    EXPECT_FALSE(
        regchan::openBatch(k.aes, k.mac, badSession).has_value());
    regchan::SealedRegBatch badCtr = sealed;
    badCtr.ctrBase += 1;
    EXPECT_FALSE(regchan::openBatch(k.aes, k.mac, badCtr).has_value());
}

TEST(RegBatch, ResponseRejectsMismatchedContext)
{
    BatchKeys k = testKeys(15);
    std::vector<regchan::BatchResult> results(4);
    regchan::SealedBatchResponse rsp =
        regchan::sealBatchResponse(k.aes, k.mac, 2, 600, results);

    EXPECT_TRUE(regchan::openBatchResponse(k.aes, k.mac, 2, 600, 4, rsp)
                    .has_value());
    // Wrong expected count, session, or stride base: reject.
    EXPECT_FALSE(
        regchan::openBatchResponse(k.aes, k.mac, 2, 600, 3, rsp)
            .has_value());
    EXPECT_FALSE(
        regchan::openBatchResponse(k.aes, k.mac, 3, 600, 4, rsp)
            .has_value());
    EXPECT_FALSE(
        regchan::openBatchResponse(k.aes, k.mac, 2, 601, 4, rsp)
            .has_value());

    regchan::SealedBatchResponse flipped = rsp;
    flipped.payload[5] ^= 0x20;
    EXPECT_FALSE(
        regchan::openBatchResponse(k.aes, k.mac, 2, 600, 4, flipped)
            .has_value());
}

TEST(RegBatch, RequestAndResponseKeystreamsAreDisjoint)
{
    BatchKeys k = testKeys(16);
    uint8_t req[regchan::kRegBatchBlock] = {};
    uint8_t rsp[regchan::kRegBatchBlock] = {};
    regchan::cryptBatchBlock(k.aes, false, 42, req);
    regchan::cryptBatchBlock(k.aes, true, 42, rsp);
    EXPECT_NE(Bytes(req, req + sizeof req), Bytes(rsp, rsp + sizeof rsp));
}

namespace {

/** The fixed vectors of the wire-format known answers: op i of n. */
std::vector<regchan::RegOp>
katOps(size_t n)
{
    std::vector<regchan::RegOp> ops;
    for (size_t i = 0; i < n; ++i) {
        ops.push_back(regchan::RegOp{i % 3 == 0, uint32_t(0x1000 + 8 * i),
                                     0x0102030405060708ull * (i + 1)});
    }
    return ops;
}

std::vector<regchan::BatchResult>
katResults(size_t n)
{
    std::vector<regchan::BatchResult> results;
    for (size_t i = 0; i < n; ++i) {
        results.push_back(regchan::BatchResult{
            uint8_t(i % 5 == 4 ? 2 : 0),
            0x1111111111111111ull * i ^ 0xa5a5a5a5ull});
    }
    return results;
}

Bytes
countingBytes(size_t n, uint8_t start)
{
    Bytes b(n);
    for (size_t i = 0; i < n; ++i)
        b[i] = uint8_t(start + i);
    return b;
}

/** Restores the crypto backend a test toggled. */
struct ScopedBackend
{
    bool prev = crypto::forceScalar();
    ~ScopedBackend() { crypto::setForceScalar(prev); }
};

} // namespace

// Wire bytes pinned from the implementation that sealed every op with
// its own one-block AES-CTR context: a change on both ends that
// altered the bytes would still round-trip, but fails here.
TEST(RegBatch, WireFormatKnownAnswers)
{
    ScopedBackend restore;
    crypto::Aes aes(countingBytes(16, 0x00));
    crypto::HmacSha256 mac(countingBytes(32, 0x40));
    const uint32_t slot = 3;
    const uint64_t ctrBase = 0x00000001fffffff0ull;
    struct Expect
    {
        size_t n;
        const char *reqSha, *rspSha;
        uint64_t reqMac, rspMac;
    };
    // SHA-256 of each payload, then the two truncated MACs.
    const Expect expects[] = {
        {1,
         "afa55977b5006fdbd59623f6a14afe45223d2915175ece7ef160feeb9600e16e",
         "ddc801ec20fc7f90bb359b97595a185e30a2dc3c95e3b7cd261354fbed6aa204",
         0x2f56765316103010ull, 0x75b0a07957aff5f2ull},
        {32,
         "41c2b393447429f2c2618c665ff0c641a29c02cc0a9d1d9a994bc645227c56bf",
         "4d3f6b41208b0b5fcc61df69ed30eeb13c6f4a5d718d6f1a9360a1421a937c33",
         0x3605a1850820f499ull, 0xd9c6a28d0308b480ull},
        {256,
         "7c44d40f0b26e07a75b7d89a7266548e3f48a1f19a418038c3cf5db9da573d6d",
         "a57b94ca88b20a641acd2b4da075f46441ebab65d21e4a67a593a896662b201c",
         0x0463bceda6b96b1dull, 0xbb2d64ead0546e02ull},
    };
    for (bool scalar : {false, true}) {
        crypto::setForceScalar(scalar);
        for (const Expect &e : expects) {
            SCOPED_TRACE("n " + std::to_string(e.n) +
                         (scalar ? " scalar" : " dispatched"));
            regchan::SealedRegBatch req = regchan::sealBatch(
                aes, mac, slot, ctrBase, katOps(e.n));
            regchan::SealedBatchResponse rsp = regchan::sealBatchResponse(
                aes, mac, slot, ctrBase, katResults(e.n));
            EXPECT_EQ(hexEncode(crypto::Sha256::digest(req.payload)),
                      e.reqSha);
            EXPECT_EQ(req.mac, e.reqMac);
            EXPECT_EQ(hexEncode(crypto::Sha256::digest(rsp.payload)),
                      e.rspSha);
            EXPECT_EQ(rsp.mac, e.rspMac);
            if (e.n == 1) {
                EXPECT_EQ(hexEncode(req.payload),
                          "174437f7a37c940d309efbaa72a113ec");
                EXPECT_EQ(hexEncode(rsp.payload),
                          "8d35131a9a76ede03e992ea968405dcf");
            }
        }

        regchan::SealedRegRequest single = regchan::sealRequest(
            aes, mac, 0x1234,
            regchan::RegOp{true, 0x40, 0xdeadbeefcafef00dull});
        EXPECT_EQ(single.ct0, 0x81435ef3858c8549ull);
        EXPECT_EQ(single.ct1, 0x4eaaa88b5021e6d7ull);
        EXPECT_EQ(single.mac, 0xc415579eb0cc9298ull);
        regchan::SealedRegResponse singleRsp = regchan::sealResponse(
            aes, mac, 0x1234, 7, 0x0123456789abcdefull);
        EXPECT_EQ(singleRsp.ct0, 0x5b6e5fd2cf973377ull);
        EXPECT_EQ(singleRsp.ct1, 0xeb8bb842a6f3f419ull);
        EXPECT_EQ(singleRsp.mac, 0xbfd9ffeda01b5635ull);
    }
}

// The one-pass burst keystream equals N one-block calls and the
// keystream's definition, E(label || LE64(ctr)), under both backends,
// across the 8/16-wide pipeline edges, past one kMaxBatchOps chunk
// (257) and up to the top of the counter space.
TEST(RegBatch, BurstKeystreamMatchesPerBlockCalls)
{
    ScopedBackend restore;
    BatchKeys k = testKeys(29);
    const crypto::Aes &aes = k.aes;
    for (bool scalar : {false, true}) {
        crypto::setForceScalar(scalar);
        for (size_t n : {1, 2, 7, 8, 9, 16, 17, 32, 256, 257}) {
            for (uint64_t ctrBase : {uint64_t(1000), UINT64_MAX - (n - 1)}) {
                for (bool response : {false, true}) {
                    SCOPED_TRACE("n " + std::to_string(n) + " base " +
                                 std::to_string(ctrBase) +
                                 (response ? " rsp" : " req") +
                                 (scalar ? " scalar" : " dispatched"));
                    Bytes data(n * regchan::kRegBatchBlock);
                    for (size_t i = 0; i < data.size(); ++i)
                        data[i] = uint8_t(i * 13 + n);
                    Bytes burst = data, blocks = data, reference = data;
                    regchan::cryptBatchBlocks(aes, response, ctrBase,
                                              burst.data(), n);
                    for (size_t i = 0; i < n; ++i) {
                        uint8_t *block =
                            blocks.data() + i * regchan::kRegBatchBlock;
                        regchan::cryptBatchBlock(aes, response,
                                                 ctrBase + i, block);
                        uint8_t ctr[16], ks[16];
                        std::memcpy(ctr, response ? "SRSPBRST" : "SREGBRST",
                                    8);
                        storeLe64(ctr + 8, ctrBase + i);
                        aes.encryptBlock(ctr, ks);
                        for (size_t j = 0; j < 16; ++j)
                            reference[i * 16 + j] ^= ks[j];
                    }
                    ASSERT_EQ(burst, blocks);
                    ASSERT_EQ(burst, reference);
                    regchan::cryptBatchBlocks(aes, response, ctrBase,
                                              burst.data(), n);
                    ASSERT_EQ(burst, data);
                }
            }
        }
    }
}

// ---- multi-session key fan-out --------------------------------------

TEST(RegBatch, SlotKeyDerivationIsolatesSessions)
{
    crypto::CtrDrbg rng(uint64_t(77));
    Bytes base = rng.bytes(48);

    Bytes slot1 = regchan::deriveSlotSessionKeys(base, 1, 10);
    Bytes slot2 = regchan::deriveSlotSessionKeys(base, 2, 10);
    Bytes slot1b = regchan::deriveSlotSessionKeys(base, 1, 11);
    ASSERT_EQ(slot1.size(), 48u);
    EXPECT_NE(slot1, slot2);  // per-slot separation
    EXPECT_NE(slot1, slot1b); // per-nonce separation
    EXPECT_EQ(slot1, regchan::deriveSlotSessionKeys(base, 1, 10));

    // A burst sealed under slot 1's keys never opens under slot 2's.
    regchan::SessionKeys keys1(slot1), keys2(slot2);
    regchan::SealedRegBatch sealed =
        regchan::sealBatch(keys1.aes(), keys1.mac(), 1, 50, sampleOps(4));
    EXPECT_TRUE(
        regchan::openBatch(keys1.aes(), keys1.mac(), sealed).has_value());
    EXPECT_FALSE(
        regchan::openBatch(keys2.aes(), keys2.mac(), sealed).has_value());

    // Open authorization MACs are slot- and nonce-specific.
    regchan::SessionKeys baseKeys(base);
    const crypto::HmacSha256 &baseMac = baseKeys.mac();
    EXPECT_NE(regchan::sessionOpenMac(baseMac, 1, 10),
              regchan::sessionOpenMac(baseMac, 2, 10));
    EXPECT_NE(regchan::sessionOpenMac(baseMac, 1, 10),
              regchan::sessionOpenMac(baseMac, 1, 11));
}

// ---- fabric: counter stride + replay --------------------------------

TEST(RegBatch, FabricConsumesStrideAndRejectsReplay)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    TestbedConfig cfg;
    cfg.maliciousShell = true;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    // A legitimate burst: writes then readbacks in one stride.
    std::vector<regchan::RegOp> ops;
    ops.push_back({true, 0x00, 0xdead});
    ops.push_back({false, 0x00, 0});
    ops.push_back({true, 0x08, 0xbeef});
    ops.push_back({false, 0x08, 0});
    auto results = tb.smApp().secureRegBatch(0, ops);
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results)
        EXPECT_EQ(r.status, 0);
    EXPECT_EQ(results[1].data, 0xdeadull);
    EXPECT_EQ(results[3].data, 0xbeefull);

    // The attacker replays every SM-window write it snooped — burst
    // payload words, stride registers and the command included. The
    // stride was consumed, so the fabric must reject wholesale.
    tb.maliciousShell()->replayRecordedSmWrites();
    EXPECT_EQ(tb.shell().registerRead(pcie::Window::SmSecure,
                                      kSmRegStatBatchOk),
              1u);
    EXPECT_GE(tb.shell().registerRead(pcie::Window::SmSecure,
                                      kSmRegStatBatchRejected),
              1u);

    // State is what the legitimate session left, and the channel
    // still serves fresh strides.
    auto after = tb.smApp().secureRegBatch(0, {{false, 0x00, 0}});
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].status, 0);
    EXPECT_EQ(after[0].data, 0xdeadull);
}

TEST(RegBatch, UserEnclaveBatchEndToEnd)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    std::vector<regchan::RegOp> ops;
    for (uint32_t i = 0; i < 8; ++i)
        ops.push_back({true, 8 * i, 100 + i});
    for (uint32_t i = 0; i < 8; ++i)
        ops.push_back({false, 8 * i, 0});
    auto results = tb.userApp().secureBatch(ops);
    ASSERT_EQ(results.size(), 16u);
    for (uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(results[8 + i].status, 0);
        EXPECT_EQ(results[8 + i].data, 100ull + i);
    }
    // Batch and single-op paths interleave on one counter space.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 555));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 555u);
}

TEST(RegBatch, TenantSessionsAreIsolatedEndToEnd)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    uint32_t peerA = tb.addUserSession();
    uint32_t peerB = tb.addUserSession();
    ASSERT_TRUE(tb.userApp(peerA).attachToPlatform());
    ASSERT_TRUE(tb.userApp(peerB).attachToPlatform());

    // Each session writes its own scratch register through its own
    // derived keys; every readback sees its own value.
    auto ra = tb.userApp(peerA).secureBatch(
        {{true, 0x10, 0xaaaa}, {false, 0x10, 0}});
    auto rb = tb.userApp(peerB).secureBatch(
        {{true, 0x18, 0xbbbb}, {false, 0x18, 0}});
    ASSERT_EQ(ra.size(), 2u);
    ASSERT_EQ(rb.size(), 2u);
    EXPECT_EQ(ra[1].data, 0xaaaaull);
    EXPECT_EQ(rb[1].data, 0xbbbbull);

    // The owner session is unaffected by tenant traffic.
    EXPECT_TRUE(tb.userApp().secureWrite(0x00, 42));
    EXPECT_EQ(tb.userApp().secureRead(0x00), 42u);

    // Tenants never share the owner's boot authority.
    EXPECT_EQ(tb.shell().registerRead(pcie::Window::SmSecure,
                                      kSmRegStatSessionsOpen),
              3u);
}

TEST(RegBatch, OutOfRangeSlotsAndPeersAreTypedRejections)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    SmEnclaveApp &sm = tb.smApp();

    for (uint32_t slot : {kSmMaxSessions, 99u}) {
        SCOPED_TRACE(slot);
        auto results = sm.secureRegBatch(slot, sampleOps(3));
        ASSERT_EQ(results.size(), 3u);
        for (const regchan::BatchResult &r : results)
            EXPECT_EQ(r.status, 0xfd);
        EXPECT_EQ(sm.dmaWrite(slot, 0x8000, Bytes(64, 1)).status, 0xfd);
        Bytes out;
        EXPECT_EQ(sm.dmaRead(slot, 0x8000, 64, out).status, 0xfd);
    }

    // Peers that were never allocated answer nothing.
    for (uint32_t peer : {uint32_t(sm.peerCount()), kSmMaxSessions, 99u}) {
        SCOPED_TRACE(peer);
        EXPECT_TRUE(sm.laAnswer(peer, Bytes(64, 1)).empty());
        EXPECT_FALSE(sm.laConfirm(peer, Bytes(64, 1)));
        EXPECT_FALSE(sm.laEstablished(peer));
        EXPECT_TRUE(sm.channelRequest(peer, Bytes(64, 1)).empty());
    }

    // Peer ids are fabric slots: kSmMaxSessions peers including the
    // owner fill the table, and one more is refused.
    while (sm.peerCount() < kSmMaxSessions)
        sm.createPeer();
    EXPECT_THROW(sm.createPeer(), SalusError);
    EXPECT_EQ(sm.peerCount(), size_t(kSmMaxSessions));
}

// ---- scheduler ------------------------------------------------------

TEST(BatchScheduler, FairRoundRobinAcrossSessions)
{
    std::vector<std::pair<uint32_t, size_t>> bursts;
    BatchScheduler::Config cfg;
    cfg.maxBatchOps = 4;
    BatchScheduler sched(
        [&](uint32_t session, const std::vector<regchan::RegOp> &ops) {
            bursts.push_back({session, ops.size()});
            return std::vector<regchan::BatchResult>(ops.size());
        },
        cfg);
    for (uint32_t s = 0; s < 3; ++s)
        sched.addSession(s);
    for (uint32_t s = 0; s < 3; ++s)
        for (int i = 0; i < 8; ++i)
            ASSERT_EQ(sched.submit(s, {true, 0, 0}, nullptr),
                      BatchScheduler::Submit::Accepted);

    EXPECT_EQ(sched.drain(), 24u);
    // Every session got the same service in maxBatchOps slices, and
    // no session was dispatched twice before another got a turn.
    ASSERT_EQ(bursts.size(), 6u);
    for (const auto &[session, count] : bursts)
        EXPECT_EQ(count, 4u);
    for (uint32_t s = 0; s < 3; ++s)
        EXPECT_EQ(sched.dispatchedFor(s), 8u);
    for (size_t i = 0; i + 2 < bursts.size(); i += 3) {
        std::set<uint32_t> sweep = {bursts[i].first, bursts[i + 1].first,
                                    bursts[i + 2].first};
        EXPECT_EQ(sweep.size(), 3u);
    }
}

TEST(BatchScheduler, BackpressureBoundsEachSessionQueue)
{
    BatchScheduler::Config cfg;
    cfg.queueCapacity = 4;
    cfg.maxBatchOps = 2;
    BatchScheduler sched(
        [](uint32_t, const std::vector<regchan::RegOp> &ops) {
            return std::vector<regchan::BatchResult>(ops.size());
        },
        cfg);
    sched.addSession(1);

    EXPECT_EQ(sched.submit(9, {true, 0, 0}, nullptr),
              BatchScheduler::Submit::UnknownSession);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sched.submit(1, {true, 0, 0}, nullptr),
                  BatchScheduler::Submit::Accepted);
    EXPECT_EQ(sched.submit(1, {true, 0, 0}, nullptr),
              BatchScheduler::Submit::Backpressure);
    EXPECT_EQ(sched.stats().rejectedBackpressure, 1u);

    // A pump frees capacity (maxBatchOps worth), then submits flow.
    EXPECT_EQ(sched.pumpOnce(), 2u);
    EXPECT_EQ(sched.submit(1, {true, 0, 0}, nullptr),
              BatchScheduler::Submit::Accepted);
    EXPECT_EQ(sched.drain(), 3u);
    EXPECT_EQ(sched.totalQueued(), 0u);
}

TEST(BatchScheduler, FailoverCompletesInFlightWithTypedStatus)
{
    int calls = 0;
    BatchScheduler::Config cfg;
    cfg.maxBatchOps = 2;
    BatchScheduler sched(
        [&](uint32_t, const std::vector<regchan::RegOp> &ops) {
            if (++calls == 1)
                throw FailoverError("device quarantined mid-burst");
            std::vector<regchan::BatchResult> out(ops.size());
            for (auto &r : out)
                r.data = 7;
            return out;
        },
        cfg);
    sched.addSession(0);

    std::vector<uint8_t> statuses;
    for (int i = 0; i < 4; ++i)
        sched.submit(0, {true, 0, 0},
                     [&](uint8_t st, uint64_t) {
                         statuses.push_back(st);
                     });

    // The burst in flight completes with the typed failed-over status
    // and the error propagates; the queued ops survive untouched.
    EXPECT_THROW(sched.pumpOnce(), FailoverError);
    ASSERT_EQ(statuses.size(), 2u);
    EXPECT_EQ(statuses[0], kBatchStatusFailedOver);
    EXPECT_EQ(statuses[1], kBatchStatusFailedOver);
    EXPECT_EQ(sched.totalQueued(), 2u);
    EXPECT_EQ(sched.stats().failedOverOps, 2u);

    // The next sweep serves the survivors on the recovered device.
    EXPECT_EQ(sched.drain(), 2u);
    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_EQ(statuses[2], 0);
    EXPECT_EQ(statuses[3], 0);
}

TEST(BatchScheduler, EndToEndOverTestbedSessions)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    TestbedConfig cfg;
    cfg.schedulerMaxBatchOps = 4;
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    uint32_t peer = tb.addUserSession();
    ASSERT_TRUE(tb.userApp(peer).attachToPlatform());

    BatchScheduler &sched = tb.scheduler();
    std::map<uint32_t, uint64_t> lastRead;
    for (int i = 0; i < 12; ++i) {
        for (uint32_t s : {uint32_t(0), peer}) {
            uint64_t value = 1000 * s + uint64_t(i);
            ASSERT_EQ(sched.submit(s, {true, 8 * s, value}, nullptr),
                      BatchScheduler::Submit::Accepted);
            ASSERT_EQ(
                sched.submit(s, {false, 8 * s, 0},
                             [&lastRead, s](uint8_t st, uint64_t data) {
                                 ASSERT_EQ(st, 0);
                                 lastRead[s] = data;
                             }),
                BatchScheduler::Submit::Accepted);
        }
    }
    EXPECT_EQ(sched.drain(), 48u);
    EXPECT_EQ(lastRead[0], 11u);
    EXPECT_EQ(lastRead[peer], 1000ull * peer + 11);
    EXPECT_EQ(sched.dispatchedFor(0), 24u);
    EXPECT_EQ(sched.dispatchedFor(peer), 24u);
    EXPECT_GE(sched.stats().dispatchedBatches, 12u);
}

TEST(BatchScheduler, DispatchBackpressureRetriesOnceInSameSweep)
{
    // Session 1's first slice is refused downstream; the scheduler
    // finishes the other sessions' slices, then retries session 1
    // exactly once in the SAME sweep, so its ops are not starved for
    // a whole sweep by one transient refusal.
    std::vector<uint32_t> order;
    bool refusedOnce = false;
    BatchScheduler::Config cfg;
    cfg.maxBatchOps = 4;
    BatchScheduler sched(
        [&](uint32_t session, const std::vector<regchan::RegOp> &ops) {
            if (session == 1 && !refusedOnce) {
                refusedOnce = true;
                throw DispatchBackpressure("device buffer full");
            }
            order.push_back(session);
            return std::vector<regchan::BatchResult>(ops.size());
        },
        cfg);
    for (uint32_t s = 0; s < 3; ++s) {
        sched.addSession(s);
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(sched.submit(s, {true, 0, 0}, nullptr),
                      BatchScheduler::Submit::Accepted);
    }

    // One sweep completes ALL 12 ops: sessions 0 and 2 in order, then
    // the retried session-1 slice at the end of the sweep.
    EXPECT_EQ(sched.pumpOnce(), 12u);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order.back(), 1u);
    EXPECT_EQ(sched.stats().dispatchBackpressure, 1u);
    EXPECT_EQ(sched.stats().retriedSlices, 1u);
    // Fairness held: every session got identical service.
    for (uint32_t s = 0; s < 3; ++s)
        EXPECT_EQ(sched.dispatchedFor(s), 4u);
    EXPECT_EQ(sched.totalQueued(), 0u);
}

TEST(BatchScheduler, PersistentBackpressureKeepsQueueAndNeverSpins)
{
    // A dispatch that ALWAYS refuses: the retry is attempted exactly
    // once per sweep, the queue stays intact, and drain() terminates
    // instead of spinning on the unprogressable session.
    int calls = 0;
    BatchScheduler sched(
        [&](uint32_t, const std::vector<regchan::RegOp> &)
            -> std::vector<regchan::BatchResult> {
            ++calls;
            throw DispatchBackpressure("saturated");
        });
    sched.addSession(0);
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(sched.submit(0, {true, 0, 0}, nullptr),
                  BatchScheduler::Submit::Accepted);

    EXPECT_EQ(sched.drain(), 0u);
    EXPECT_EQ(sched.totalQueued(), 3u);
    // One sweep = initial attempt + one retry; drain stops after the
    // first zero-progress sweep.
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(sched.stats().dispatchBackpressure, 2u);
    EXPECT_EQ(sched.stats().retriedSlices, 1u);
}

TEST(BatchScheduler, QuiesceParksPumpAndReleaseResumes)
{
    size_t dispatched = 0;
    BatchScheduler sched(
        [&](uint32_t, const std::vector<regchan::RegOp> &ops) {
            dispatched += ops.size();
            return std::vector<regchan::BatchResult>(ops.size());
        });
    sched.addSession(0);
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(sched.submit(0, {true, 0, 0}, nullptr),
                  BatchScheduler::Submit::Accepted);

    EXPECT_EQ(sched.quiesce(), 5u);
    EXPECT_TRUE(sched.parked());
    // Parked: nothing dispatches, but submit() keeps accepting.
    EXPECT_EQ(sched.pumpOnce(), 0u);
    EXPECT_EQ(sched.drain(), 0u);
    EXPECT_EQ(dispatched, 0u);
    EXPECT_EQ(sched.submit(0, {true, 0, 0}, nullptr),
              BatchScheduler::Submit::Accepted);
    EXPECT_EQ(sched.totalQueued(), 6u);

    sched.release();
    EXPECT_FALSE(sched.parked());
    EXPECT_EQ(sched.drain(), 6u);
    EXPECT_EQ(dispatched, 6u);
    EXPECT_EQ(sched.totalQueued(), 0u);
}

// ---- throughput on the virtual clock --------------------------------

namespace {

constexpr size_t kSweepOpsPerSession = 256;

/** One throughput point, in virtual nanoseconds. A traced run also
 *  exports its trace and metrics and the whole-run channel totals. */
struct ThroughputPoint
{
    sim::Nanos elapsed = 0;
    sim::Nanos p50 = 0;
    sim::Nanos p99 = 0;
    sim::Nanos crypto = 0; ///< Channel Crypto spent by the ops
    sim::Nanos transport = 0; ///< Channel Transport spent by the ops
    std::string traceJson;
    std::string metricsText;
    sim::Nanos cryptoSpans = 0; ///< whole-run trace span sums ...
    sim::Nanos cryptoClock = 0; ///< ... and the clock's own totals
    sim::Nanos transportSpans = 0;
    sim::Nanos transportClock = 0;
};

/** Each of `sessions` sessions pushes kSweepOpsPerSession alternating
 *  writes and reads of its own register through bursts of `batch`
 *  ops. Every op must complete with status 0 and every read return
 *  the value written just before it. */
ThroughputPoint
runThroughputPoint(uint32_t sessions, size_t batch, bool traced = false)
{
    ThroughputPoint p;
    TestbedConfig cfg;
    cfg.rngSeed = 7000 + sessions * 100 + batch;
    cfg.schedulerMaxBatchOps = batch;
    cfg.schedulerQueueCapacity = kSweepOpsPerSession;
    Testbed tb(cfg);
    sim::VirtualClock &clock = tb.clock();
    obs::TraceRecorder recorder(clock);
    obs::MetricsRegistry metrics;
    {
        obs::ObsScope scope(traced ? &recorder : nullptr,
                            traced ? &metrics : nullptr);
        tb.installCl(loopbackAccel());
        if (!tb.runDeployment().ok) {
            ADD_FAILURE() << "deployment failed";
            return p;
        }
        for (uint32_t s = 1; s < sessions; ++s)
            if (!tb.userApp(tb.addUserSession()).attachToPlatform()) {
                ADD_FAILURE() << "session " << s << " did not attach";
                return p;
            }

        BatchScheduler &sched = tb.scheduler();
        std::vector<sim::Nanos> latencies;
        sim::Nanos start = clock.now();
        sim::Nanos cryptoBase = clock.totalFor(phases::kChanCrypto);
        sim::Nanos transportBase = clock.totalFor(phases::kChanTransport);
        for (uint32_t s = 0; s < sessions; ++s) {
            for (size_t i = 0; i < kSweepOpsPerSession; ++i) {
                uint64_t value = (uint64_t(s) << 32) | uint64_t(i / 2);
                bool isRead = i % 2 == 1;
                regchan::RegOp op{!isRead, 8 * s, isRead ? 0 : value};
                sim::Nanos submittedAt = clock.now();
                auto done = [&, submittedAt, isRead,
                             value](uint8_t st, uint64_t data) {
                    EXPECT_EQ(st, 0);
                    if (isRead) {
                        EXPECT_EQ(data, value);
                    }
                    latencies.push_back(clock.now() - submittedAt);
                };
                if (sched.submit(s, op, done) !=
                    BatchScheduler::Submit::Accepted) {
                    ADD_FAILURE() << "submit refused";
                    return p;
                }
            }
        }
        EXPECT_EQ(sched.drain(), sessions * kSweepOpsPerSession);
        EXPECT_EQ(latencies.size(), sessions * kSweepOpsPerSession);
        if (latencies.empty())
            return p;
        std::sort(latencies.begin(), latencies.end());
        p.elapsed = clock.now() - start;
        p.p50 = latencies[latencies.size() / 2];
        p.p99 = latencies[latencies.size() * 99 / 100];
        p.crypto = clock.totalFor(phases::kChanCrypto) - cryptoBase;
        p.transport =
            clock.totalFor(phases::kChanTransport) - transportBase;
    }
    if (traced) {
        p.traceJson = recorder.chromeTraceJson();
        p.metricsText = metrics.renderText();
        p.cryptoSpans = recorder.phaseTotal(phases::kChanCrypto);
        p.cryptoClock = clock.totalFor(phases::kChanCrypto);
        p.transportSpans = recorder.phaseTotal(phases::kChanTransport);
        p.transportClock = clock.totalFor(phases::kChanTransport);
    }
    return p;
}

} // namespace

TEST(BatchScheduler, ThroughputSweepIsExactAndBatchingPaysFiveFold)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    // Sessions x batch size. The whole table is pinned as one digest,
    // so any point moving fails; SCOPED_TRACE prints it on failure.
    std::string table;
    std::map<std::pair<uint32_t, size_t>, sim::Nanos> elapsed;
    for (uint32_t sessions : {1u, 2u, 4u}) {
        for (size_t batch : {1, 2, 4, 8, 16, 32, 64}) {
            ThroughputPoint p = runThroughputPoint(sessions, batch);
            char line[160];
            std::snprintf(line, sizeof(line),
                          "sessions %u batch %zu elapsed %llu p50 %llu "
                          "p99 %llu crypto %llu transport %llu\n",
                          sessions, batch, (unsigned long long)p.elapsed,
                          (unsigned long long)p.p50,
                          (unsigned long long)p.p99,
                          (unsigned long long)p.crypto,
                          (unsigned long long)p.transport);
            table += line;
            elapsed[{sessions, batch}] = p.elapsed;
        }
    }
    SCOPED_TRACE(table);
    test::expectGoldenDigest("channel_throughput.sweep.txt", table);
    sim::Nanos s1b1 = elapsed[{1, 1}];
    sim::Nanos s1b32 = elapsed[{1, 32}];
    test::expectGoldenValue("channel.s1_b1_ns", s1b1);
    test::expectGoldenValue("channel.s1_b32_ns", s1b32);
    test::expectGoldenValue("channel.s4_b32_ns", elapsed[{4, 32}]);

    // A 32-op burst pays one PCIe round trip for 32 ops: at least 5x
    // the ops per virtual second of single ops.
    EXPECT_GE(s1b1, 5 * s1b32);
    test::expectGoldenRatio("channel.batch32_speedup_x", double(s1b1),
                            double(s1b32));
}

TEST(BatchScheduler, TracedThroughputPointIsDeterministicAndExact)
{
    fpga::ensureBuiltinIps();
    SmLogic::registerIp();
    // Traced from before deployment, the run's span sums equal the
    // clock's phase totals to the nanosecond, and a second run at the
    // same seed exports byte-identical artifacts.
    ThroughputPoint a = runThroughputPoint(2, 8, true);
    ThroughputPoint b = runThroughputPoint(2, 8, true);
    EXPECT_GT(a.cryptoClock, 0u);
    EXPECT_EQ(a.cryptoSpans, a.cryptoClock);
    EXPECT_EQ(a.transportSpans, a.transportClock);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);
    test::expectGoldenDigest("channel_throughput.trace.json", a.traceJson);
    test::expectGoldenDigest("channel_throughput.metrics.txt",
                             a.metricsText);
}

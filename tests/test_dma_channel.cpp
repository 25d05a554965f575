/**
 * @file
 * Secure DMA data-plane tests: descriptor wire-format round trips,
 * known answers and rejection properties, the sequence bound that
 * keeps counter blocks disjoint, fabric-side window semantics (replay,
 * reorder, sync, cross-session isolation) driven at the register
 * level, the host sliding-window engine end to end through the
 * testbed (fault recovery, determinism, exact throughput on the
 * virtual clock, scheduler coexistence), and a crash sweep over the
 * DMA journal steps.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "bitstream/compiler.hpp"
#include "bitstream/encryptor.hpp"
#include "bitstream/manipulator.hpp"
#include "common/hex.hpp"
#include "common/serde.hpp"
#include "crash_sweep.hpp"
#include "crypto/backend.hpp"
#include "crypto/ct.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "fpga/device.hpp"
#include "golden.hpp"
#include "obs/trace.hpp"
#include "salus/cl_builder.hpp"
#include "salus/dma_channel.hpp"
#include "salus/secrets.hpp"
#include "salus/sim_hooks.hpp"
#include "salus/sm_enclave.hpp"
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

Bytes
pattern(size_t n, uint64_t salt = 0)
{
    Bytes out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = uint8_t(salt * 131 + i * 7 + 3);
    return out;
}

using DmaKeys = regchan::SessionKeys;

DmaKeys
testKeys(uint64_t seed)
{
    crypto::CtrDrbg rng(seed);
    return DmaKeys(concatBytes({rng.bytes(16), rng.bytes(32)}));
}

/** Builds a sealed write descriptor scattering `plain` to `addr`. */
Bytes
sealWrite(const DmaKeys &k, uint32_t sessionId, uint64_t seq, bool sync,
          uint64_t addr, ByteView plain)
{
    dmachan::DmaDescriptor d;
    d.read = false;
    d.sync = sync;
    d.sessionId = sessionId;
    d.seq = seq;
    d.ctrBase = seq * dmachan::kDmaCtrStride;
    d.sg.push_back({addr, uint32_t(plain.size())});
    return dmachan::encodeDescriptor(k.gcm(), d, plain);
}

/** Builds a sealed read (gather) descriptor. */
Bytes
sealRead(const DmaKeys &k, uint32_t sessionId, uint64_t seq,
         uint64_t addr, uint32_t len, uint64_t respAddr)
{
    dmachan::DmaDescriptor d;
    d.read = true;
    d.sessionId = sessionId;
    d.seq = seq;
    d.ctrBase = seq * dmachan::kDmaCtrStride;
    d.respAddr = respAddr;
    d.sg.push_back({addr, len});
    return dmachan::encodeDescriptor(k.gcm(), d);
}

} // namespace

// ---- wire format ----------------------------------------------------

TEST(DmaDescriptor, WriteRoundTripPreservesEveryField)
{
    DmaKeys k = testKeys(21);
    Bytes plain = pattern(4096, 1);
    for (uint64_t seq :
         {uint64_t(0), uint64_t(7), dmachan::kDmaMaxSeq - 1}) {
        dmachan::DmaDescriptor d;
        d.sync = seq == 0;
        d.sessionId = 3;
        d.seq = seq;
        d.ctrBase = seq * dmachan::kDmaCtrStride;
        d.sg = {{0x1000, 1024}, {0x9000, 3072}};

        Bytes encoded = dmachan::encodeDescriptor(k.gcm(), d, plain);
        EXPECT_TRUE(dmachan::verifyDescriptorMac(k.gcm(), encoded));
        dmachan::DmaDescriptor back = dmachan::decodeDescriptor(encoded);
        EXPECT_NE(back.payload, plain) << "payload not encrypted";
        EXPECT_EQ(back.read, d.read);
        EXPECT_EQ(back.sync, d.sync);
        EXPECT_EQ(back.sessionId, d.sessionId);
        EXPECT_EQ(back.seq, d.seq);
        EXPECT_EQ(back.ctrBase, d.ctrBase);
        ASSERT_EQ(back.sg.size(), d.sg.size());
        for (size_t i = 0; i < d.sg.size(); ++i) {
            EXPECT_EQ(back.sg[i].addr, d.sg[i].addr);
            EXPECT_EQ(back.sg[i].len, d.sg[i].len);
        }
        dmachan::cryptDmaPayload(k.aes(), false, back.ctrBase,
                                 back.payload.data(),
                                 back.payload.size());
        EXPECT_EQ(back.payload, plain);
    }
}

TEST(DmaDescriptor, ReadRoundTripAndResponse)
{
    DmaKeys k = testKeys(22);
    Bytes encoded = sealRead(k, 2, 5, 0x4000, 512, 0x340000);
    dmachan::DmaDescriptor back = dmachan::decodeDescriptor(encoded);
    EXPECT_TRUE(back.read);
    EXPECT_EQ(back.respAddr, 0x340000u);
    EXPECT_TRUE(back.payload.empty());
    EXPECT_EQ(back.sgBytes(), 512u);

    Bytes plain = pattern(512, 2);
    Bytes blob =
        dmachan::sealReadResponse(k.gcm(), 2, 5, back.ctrBase, plain);
    EXPECT_EQ(blob.size(), plain.size() + dmachan::kDmaRespOverhead);
    auto open =
        dmachan::openReadResponse(k.gcm(), 2, 5, back.ctrBase, blob);
    ASSERT_TRUE(open.has_value());
    EXPECT_EQ(*open, plain);

    // Echoed-context mismatches and tampering are all fatal.
    EXPECT_FALSE(
        dmachan::openReadResponse(k.gcm(), 3, 5, back.ctrBase, blob));
    EXPECT_FALSE(
        dmachan::openReadResponse(k.gcm(), 2, 6, back.ctrBase, blob));
    Bytes flipped = blob;
    flipped[dmachan::kDmaRespHeaderBytes] ^= 0x80;
    EXPECT_FALSE(
        dmachan::openReadResponse(k.gcm(), 2, 5, back.ctrBase, flipped));
}

namespace {

/** Restores the crypto backend a test toggled. */
struct ScopedBackend
{
    bool prev = crypto::forceScalar();
    ~ScopedBackend() { crypto::setForceScalar(prev); }
};

} // namespace

TEST(DmaDescriptor, RejectsTruncationBitFlipsAndWrongKey)
{
    ScopedBackend restore;
    DmaKeys k = testKeys(23);
    Bytes plain = pattern(2048, 3);
    Bytes encoded = sealWrite(k, 1, 4, false, 0x2000, plain);
    const uint64_t ctrBase = 4 * dmachan::kDmaCtrStride;
    Bytes resp = dmachan::sealReadResponse(k.gcm(), 1, 4, ctrBase, plain);

    for (size_t cut : {size_t(1), size_t(8), encoded.size() / 2}) {
        Bytes truncated(encoded.begin(),
                        encoded.end() - ptrdiff_t(cut));
        EXPECT_THROW(dmachan::decodeDescriptor(truncated), SerdeError)
            << "cut " << cut;
    }
    EXPECT_THROW(dmachan::decodeDescriptor(Bytes()), SerdeError);

    // A one-bit flip in any region fails closed on both backends:
    // descriptor header, sg list, payload and tag; response header
    // (each field also echo-checked), payload and tag.
    for (bool scalar : {false, true}) {
        crypto::setForceScalar(scalar);
        for (size_t pos : {size_t(0), size_t(17), size_t(41),
                           dmachan::kDmaHeaderBytes + 13 + 100,
                           encoded.size() - 8, encoded.size() - 1}) {
            Bytes flipped = encoded;
            flipped[pos] ^= 0x01;
            EXPECT_FALSE(dmachan::verifyDescriptorMac(k.gcm(), flipped))
                << "descriptor pos " << pos << " scalar " << scalar;
        }
        for (size_t pos : {size_t(0), size_t(13),
                           dmachan::kDmaRespHeaderBytes + 100,
                           resp.size() - 8, resp.size() - 1}) {
            Bytes flipped = resp;
            flipped[pos] ^= 0x01;
            EXPECT_FALSE(
                dmachan::openReadResponse(k.gcm(), 1, 4, ctrBase, flipped))
                << "response pos " << pos << " scalar " << scalar;
        }
    }

    DmaKeys other = testKeys(24);
    EXPECT_FALSE(dmachan::verifyDescriptorMac(other.gcm(), encoded));
    EXPECT_NE(dmachan::ackMac(k.gcm(), 1, 4),
              dmachan::ackMac(other.gcm(), 1, 4));
    EXPECT_NE(dmachan::ackMac(k.gcm(), 1, 4), dmachan::ackMac(k.gcm(), 2, 4));
    EXPECT_NE(dmachan::ackMac(k.gcm(), 1, 4), dmachan::ackMac(k.gcm(), 1, 5));
}

// Wire bytes pinned from the GMAC-tagged implementation. The other
// DMA tests only round-trip, so a keystream or tag change made the
// same way on both ends would pass them; it fails here. Covers a
// partial tail block (1000 B), the write descriptor size (64 KiB), a
// full descriptor (1 MiB) and the last legal seq.
TEST(DmaDescriptor, WireFormatKnownAnswers)
{
    ScopedBackend restore;
    Bytes aesKey(16);
    for (size_t i = 0; i < aesKey.size(); ++i)
        aesKey[i] = uint8_t(i);
    const uint32_t slot = 3;
    struct Expect
    {
        uint64_t seq;
        size_t n;
        const char *descSha, *respSha;
    };
    // SHA-256 of the encoded write descriptor and of the sealed read
    // response carrying the same bytes.
    const Expect expects[] = {
        {uint64_t(0), 16,
         "d57d06746a8558ebc101d21b5938742f3a3ae4e3ba3e407f5f129ccd2047092b",
         "92c54bb825eb0ec133ab8251d6a34b730e7091659d0f6944763b9fdc275b224b"},
        {uint64_t(0), 1000,
         "54a9c2568416e6e03d9b12a21c700d6ce5828acb103d240c92c27bf83aa419fb",
         "3985cfc3a7fcb390e31e70c6cd5824a1dd2e9eea0fc99914e57de4221b7ec3fa"},
        {uint64_t(0), size_t(64) << 10,
         "ddb0c8406f1a461ed3c7f773e5ff9de31b216c732660ca2a377ca74d2dc9593b",
         "fb70d39d2da44ec30dc088678443558d65cce43ed3363d7b3cb404a41846fc1e"},
        {uint64_t(0), size_t(1) << 20,
         "98005f363a2b112d647bb920ac421855f3b6ca9afa1b289300a9a789e0d43267",
         "169af9ceea796bbc337f60dd417495e6b78250fe7409af504664d5c717c0ed49"},
        {uint64_t(1), 16,
         "09cfff96307ba68d361238f3f32acb769cc13372ec4845c853d9b6e40f89846f",
         "b0169534f7996e35f44fcb68ea9f73a2c890f71e195dd4f39679f92536b01e58"},
        {uint64_t(1), 1000,
         "1918ff6d79d3e2986e3c2b289107b3bc7db4c533ba88cb7f7d05b4a889b1eef5",
         "9183a6dab77c3431a3c15336ee2fa0d1b7ea6372dda3739038dfae2a0962b609"},
        {uint64_t(1), size_t(64) << 10,
         "1d9702ebbde2ba938b6321d021e4d0f5dd647b1ca54530b2c2ec3901d9c45f68",
         "36e0b7d8ab0427f220217181cd86ae1fa42d31226d2002df3f83ff9544a6f993"},
        {uint64_t(1), size_t(1) << 20,
         "c7d46cbe5720054472d01b13a8df801a504f2d52eb520970b0236c3589da9ce2",
         "f2616a80586043a54c4c06aabd9f884b73e9097bd5636eae7b6009b3791634e5"},
        {dmachan::kDmaMaxSeq - 1, 16,
         "d470138120282e9c029f9953c7a1e91160574d280aa26ab99d6ae73a99060da4",
         "d74f56d365c7ab6cc9b1facbe96186653ecb88e986bae12bf89a4cd961890e2d"},
        {dmachan::kDmaMaxSeq - 1, 1000,
         "174232fc918661850ba0494cbf88daa2e48cd62833a6b77091dd28dc4f8940b6",
         "4ba19c523f9bb3fa7c8ebebfd2e456118376ecc3468e695585e0ea5473c4bf7f"},
        {dmachan::kDmaMaxSeq - 1, size_t(64) << 10,
         "617737c7dc4dec6c1f41c30b0a1dd34f1145c2fdc698a1cf82f65dbdc011cba4",
         "950bec9ffedf391732116a63e0279415531710e5a166d5d8d565866716ed279c"},
        {dmachan::kDmaMaxSeq - 1, size_t(1) << 20,
         "d0f673493a6d9041bcefec3181db7ae38900614c3c1fdc8acff904d30ff18ed9",
         "bfdd9d13d38918321d2eeeb14861fa91145248f7d70b617c44b822834f2629f8"},
    };
    // The full wire bytes of the 16-byte case, per seq, as the
    // truncated-HMAC-SHA256 implementation sealed them (HMAC key
    // 0x20..0x3f). The GMAC tag replaced only the trailing 8 bytes:
    // the header and the ciphertext are unchanged. The seq-0 tags
    // match OpenSSL's AES-GCM over the same IV and bytes.
    struct Wire
    {
        const char *hmacDesc, *hmacResp; ///< HMAC-tagged wire bytes
        const char *descTag, *respTag;   ///< the GMAC tags now sent
    };
    const std::map<uint64_t, Wire> fullHex = {
        {0,
         {"414d445301000100030000004c000000000000000000000000000000"
          "00000000000000000000000000100000000000001000000089a15f34"
          "0e87ca6b2ca8501b1e56f2318ab374799454cf5f",
          "524d4453030000001000000000000000000000000000000000000000"
          "aec996087575dd83c27e75f6e32d4b2da025f4724f3e3ff7",
          "d12504db84ecdefa", "b36d819c48a5d8b2"}},
        {1,
         {"414d445301000100030000004c000000010000000000000000000100"
          "000000000000000000000000001000000000000010000000d063adbc"
          "2a1a9b26fe4d682cc200b25a5fafbed40605c5e2",
          "524d4453030000001000000001000000000000000000010000000000"
          "5a3a11228302f945663c4ecb916f74c92d8c1119ccf171f9",
          "016304b203aa5fe1", "9de5dcef93ef764a"}},
        {dmachan::kDmaMaxSeq - 1,
         {"414d445301000100030000004c000000ffffffff000000000000ffff"
          "ffff00000000000000000000001000000000000010000000ebea0a3a"
          "440297cd07da5a76b2e36dd09b21b895e03a28fb",
          "524d44530300000010000000ffffffff000000000000ffffffff0000"
          "1d87bb5e50929b4e92cb29f7bcedefa35dc8d2c97142daf4",
          "6183e33613ade728", "32102415f8d43ed8"}},
    };
    // Everything but the trailing 8-byte tag, in hex.
    auto sansTag = [](const std::string &hex) {
        return hex.substr(0, hex.size() - 16);
    };

    for (bool scalar : {false, true}) {
        crypto::setForceScalar(scalar);
        crypto::AesGcm key(aesKey);
        for (const Expect &e : expects) {
            SCOPED_TRACE("seq " + std::to_string(e.seq) + " n " +
                         std::to_string(e.n) +
                         (scalar ? " scalar" : " dispatched"));
            Bytes plain = pattern(e.n);
            uint64_t ctrBase = e.seq * dmachan::kDmaCtrStride;
            dmachan::DmaDescriptor d;
            d.sessionId = slot;
            d.seq = e.seq;
            d.ctrBase = ctrBase;
            d.sg.push_back({0x1000, uint32_t(e.n)});
            Bytes desc = dmachan::encodeDescriptor(key, d, plain);
            Bytes resp =
                dmachan::sealReadResponse(key, slot, e.seq, ctrBase, plain);
            EXPECT_EQ(hexEncode(crypto::Sha256::digest(desc)), e.descSha);
            EXPECT_EQ(hexEncode(crypto::Sha256::digest(resp)), e.respSha);
            if (e.n == 16) {
                const Wire &w = fullHex.at(e.seq);
                EXPECT_EQ(hexEncode(desc),
                          sansTag(w.hmacDesc) + w.descTag);
                EXPECT_EQ(hexEncode(resp),
                          sansTag(w.hmacResp) + w.respTag);
            }
        }
    }
}

// ---- GMAC tags --------------------------------------------------------

namespace {

/** The first 8 bytes of GCM's tag over `msg` as additional data and an
 *  empty text, from the copying seal() the NIST vectors check. */
uint64_t
gcmTag8(const crypto::AesGcm &gcm, const std::array<uint8_t, 12> &iv,
        ByteView msg)
{
    crypto::GcmSealed sealed = gcm.seal(iv, msg, ByteView());
    EXPECT_TRUE(sealed.ciphertext.empty());
    return loadLe64(sealed.tag.data());
}

} // namespace

TEST(DmaTag, IsTheTruncatedGcmTagOfTheMessage)
{
    ScopedBackend restore;
    // The IV layout: a 4-byte label per kind, then LE64(seq).
    EXPECT_EQ(hexEncode(dmachan::dmaTagIv(dmachan::DmaTagKind::Descriptor,
                                          0x0102030405060708ULL)),
              "474453430807060504030201");
    EXPECT_EQ(hexEncode(dmachan::dmaTagIv(dmachan::DmaTagKind::Response, 1)),
              "475253500100000000000000");
    EXPECT_EQ(hexEncode(dmachan::dmaTagIv(dmachan::DmaTagKind::Ack,
                                          dmachan::kDmaMaxSeq)),
              "4741434b0000000001000000");

    for (bool scalar : {false, true}) {
        crypto::setForceScalar(scalar);
        SCOPED_TRACE(scalar ? "scalar" : "dispatched");
        DmaKeys k = testKeys(25);
        crypto::AesGcm ref(k.block().first(16));
        auto iv = [](dmachan::DmaTagKind kind, uint64_t seq) {
            return dmachan::dmaTagIv(kind, seq);
        };
        for (uint64_t seq : {uint64_t(0), uint64_t(9),
                             dmachan::kDmaMaxSeq - 1}) {
            for (size_t n : {size_t(16), size_t(1000), size_t(64) << 10}) {
                Bytes desc = sealWrite(k, 2, seq, false, 0x1000, pattern(n));
                ByteView body = ByteView(desc).first(desc.size() - 8);
                uint64_t tag = loadLe64(desc.data() + desc.size() - 8);
                EXPECT_EQ(tag, gcmTag8(ref, iv(dmachan::DmaTagKind::Descriptor,
                                               seq),
                                       body));
                EXPECT_EQ(tag, dmachan::descriptorMac(k.gcm(), body));

                Bytes resp = dmachan::sealReadResponse(
                    k.gcm(), 2, seq, seq * dmachan::kDmaCtrStride,
                    pattern(n));
                EXPECT_EQ(loadLe64(resp.data() + resp.size() - 8),
                          gcmTag8(ref, iv(dmachan::DmaTagKind::Response, seq),
                                  ByteView(resp).first(resp.size() - 8)));
            }
            Bytes read = sealRead(k, 2, seq, 0x1000, 512, 0x340000);
            EXPECT_EQ(loadLe64(read.data() + read.size() - 8),
                      gcmTag8(ref, iv(dmachan::DmaTagKind::Descriptor, seq),
                              ByteView(read).first(read.size() - 8)));
        }
        // The ack message: LE32(sessionId) || LE64(ackSeq) || "dack".
        for (uint64_t ackSeq : {uint64_t(0), uint64_t(9),
                                dmachan::kDmaMaxSeq}) {
            uint8_t msg[16];
            storeLe32(msg, 2);
            storeLe64(msg + 4, ackSeq);
            std::memcpy(msg + 12, "dack", 4);
            EXPECT_EQ(dmachan::ackMac(k.gcm(), 2, ackSeq),
                      gcmTag8(ref, iv(dmachan::DmaTagKind::Ack, ackSeq),
                              ByteView(msg, sizeof(msg))));
        }
    }
}

TEST(DmaTag, NoJ0OrHashKeyIsACounterBlock)
{
    DmaKeys k = testKeys(26);
    const crypto::Aes &aes = k.aes();
    using Block = std::array<uint8_t, 16>;
    auto encrypt = [&](const Block &in) {
        Block out;
        aes.encryptBlock(in.data(), out.data());
        return out;
    };

    // E_K of every J0 = IV || BE32(1) the tags use here, and the GHASH
    // key H = E_K(0^128). AES is a permutation, so a J0 (or the zero
    // block) equal to a counter block would show as an equal
    // keystream block.
    const uint64_t last = dmachan::kDmaMaxSeq - 1;
    std::map<Block, std::string> masks;
    masks[encrypt(Block{})] = "H";
    std::vector<Block> j0s;
    for (auto kind : {dmachan::DmaTagKind::Descriptor,
                      dmachan::DmaTagKind::Response,
                      dmachan::DmaTagKind::Ack}) {
        for (uint64_t seq : {uint64_t(0), last, dmachan::kDmaMaxSeq}) {
            Block j0{};
            std::array<uint8_t, 12> iv = dmachan::dmaTagIv(kind, seq);
            std::memcpy(j0.data(), iv.data(), 12);
            storeBe32(j0.data() + 12, 1);
            j0s.push_back(j0);
            masks[encrypt(j0)] =
                "J0 kind " + std::to_string(int(kind)) + " seq " +
                std::to_string(seq);
        }
    }
    ASSERT_EQ(masks.size(), 1 + j0s.size()) << "two masks coincide";
    for (const Block &j0 : j0s)
        for (const char *label : {"SDMAWRIT", "SDMAREAD", "SREGCHAN",
                                  "SRSPCHAN", "SREGBRST", "SRSPBRST"})
            EXPECT_NE(std::memcmp(j0.data(), label, 8), 0) << label;

    auto expectNoMask = [&](ByteView ks, const std::string &what) {
        ASSERT_EQ(ks.size() % 16, 0u);
        for (size_t off = 0; off < ks.size(); off += 16) {
            Block b;
            std::memcpy(b.data(), ks.data() + off, 16);
            auto hit = masks.find(b);
            EXPECT_TRUE(hit == masks.end())
                << hit->second << " == " << what << " block " << off / 16;
        }
    };

    // DMA payload keystreams, both directions: blocks 0 and
    // kDmaCtrStride - 1 of seqs 0 and 2^32 - 1.
    for (bool read : {false, true}) {
        for (uint64_t seq : {uint64_t(0), last}) {
            Bytes ks(dmachan::kDmaMaxPayload, 0);
            dmachan::cryptDmaPayload(aes, read,
                                     seq * dmachan::kDmaCtrStride,
                                     ks.data(), ks.size());
            std::string what = std::string(read ? "SDMAREAD" : "SDMAWRIT") +
                               " seq " + std::to_string(seq);
            expectNoMask(ByteView(ks).first(16), what);
            expectNoMask(ByteView(ks).last(16), what);
        }
    }

    // Register keystreams at the same counters, and at the counter
    // whose LE64 bytes equal a J0's last eight, where only the label
    // could tell the two blocks apart.
    std::vector<uint64_t> ctrs = {0, last, last * dmachan::kDmaCtrStride};
    for (const Block &j0 : j0s)
        ctrs.push_back(loadLe64(j0.data() + 8));
    for (uint64_t ctr : ctrs) {
        std::string at = " ctr " + std::to_string(ctr);
        for (bool response : {false, true}) {
            uint8_t ks[16] = {};
            regchan::cryptBatchBlocks(aes, response, ctr, ks, 1);
            expectNoMask(ByteView(ks, 16),
                         (response ? "SRSPBRST" : "SREGBRST") + at);
        }
        // A zero op and a zero result encode as an all-zero block, so
        // their ciphertext is the keystream.
        regchan::SealedRegRequest req =
            regchan::sealRequest(aes, k.mac(), ctr, regchan::RegOp{});
        regchan::SealedRegResponse rsp =
            regchan::sealResponse(aes, k.mac(), ctr, 0, 0);
        uint8_t ks[32];
        storeLe64(ks, req.ct0);
        storeLe64(ks + 8, req.ct1);
        storeLe64(ks + 16, rsp.ct0);
        storeLe64(ks + 24, rsp.ct1);
        expectNoMask(ByteView(ks, 16), "SREGCHAN" + at);
        expectNoMask(ByteView(ks + 16, 16), "SRSPCHAN" + at);
    }
}

namespace {

using CounterBlock = std::array<uint8_t, 16>;

/** Counter block of payload block `block` of write descriptor `seq`,
 *  from the layout alone: "SDMAWRIT" || LE64(seq * kDmaCtrStride),
 *  plus `block` as one big-endian 128-bit add. */
CounterBlock
dmaCounterBlock(uint64_t seq, uint64_t block)
{
    CounterBlock c{};
    std::memcpy(c.data(), "SDMAWRIT", 8);
    storeLe64(c.data() + 8, seq * dmachan::kDmaCtrStride);
    for (int i = 15; i >= 0 && block != 0; --i) {
        uint64_t sum = uint64_t(c[size_t(i)]) + (block & 0xff);
        c[size_t(i)] = uint8_t(sum);
        block = (block >> 8) + (sum >> 8);
    }
    return c;
}

/** Keystream block `block` of write descriptor `seq`, as
 *  cryptDmaPayload produces it. */
Bytes
dmaKeystreamBlock(const crypto::Aes &aes, uint64_t seq, uint64_t block)
{
    Bytes ks((block + 1) * dmachan::kDmaBlock, 0);
    dmachan::cryptDmaPayload(aes, false, seq * dmachan::kDmaCtrStride,
                             ks.data(), ks.size());
    return Bytes(ks.end() - ptrdiff_t(dmachan::kDmaBlock), ks.end());
}

} // namespace

TEST(DmaDescriptor, CounterBlocksDisjointBelowSeqBound)
{
    DmaKeys keys = testKeys(41);
    const crypto::Aes &aes = keys.aes();
    // The layout arithmetic is what cryptDmaPayload actually runs.
    for (auto [seq, block] :
         {std::pair<uint64_t, uint64_t>{5, 0}, {5, 256},
          {dmachan::kDmaMaxSeq - 1, dmachan::kDmaCtrStride - 1}}) {
        CounterBlock c = dmaCounterBlock(seq, block);
        Bytes expect(16);
        aes.encryptBlock(c.data(), expect.data());
        EXPECT_EQ(dmaKeystreamBlock(aes, seq, block), expect)
            << "seq " << seq << " block " << block;
    }

    // With the old bound of 2^40, seq 5 + 2^32 was legal: the block
    // index steps bytes 14-15, which hold seq bits 32-47, so its block
    // 0 is block 256 of seq 5 — one counter block, one keystream.
    const uint64_t oldMaxSeq = uint64_t(1) << 40;
    const uint64_t aliased = 5 + (uint64_t(1) << 32);
    ASSERT_LT(aliased, oldMaxSeq);
    EXPECT_EQ(dmaCounterBlock(5, 256), dmaCounterBlock(aliased, 0));
    EXPECT_EQ(dmaKeystreamBlock(aes, 5, 256),
              dmaKeystreamBlock(aes, aliased, 0));
    EXPECT_GE(aliased, dmachan::kDmaMaxSeq);

    // The decoder refuses the first seq past the bound.
    DmaKeys k = testKeys(42);
    EXPECT_NO_THROW(dmachan::decodeDescriptor(sealWrite(
        k, 0, dmachan::kDmaMaxSeq - 1, true, 0x1000, pattern(64))));
    EXPECT_THROW(dmachan::decodeDescriptor(sealWrite(
                     k, 0, dmachan::kDmaMaxSeq, true, 0x1000,
                     pattern(64))),
                 SerdeError);

    // Every counter block of a descriptor differs from every counter
    // block of its neighbours on either side of 2^31 and 2^32 - 1.
    const uint64_t half = uint64_t(1) << 31;
    const uint64_t last = dmachan::kDmaMaxSeq - 1;
    for (auto [a, b] : {std::pair<uint64_t, uint64_t>{half - 1, half},
                        {half, half + 1},
                        {last - 1, last},
                        {0, last},
                        {half, last}}) {
        std::set<CounterBlock> seen;
        for (uint64_t seq : {a, b})
            for (uint64_t i = 0; i < dmachan::kDmaCtrStride; ++i)
                seen.insert(dmaCounterBlock(seq, i));
        EXPECT_EQ(seen.size(), 2 * dmachan::kDmaCtrStride)
            << "seqs " << a << " and " << b;
    }
}

// ---- write-ahead counter spans (the host's 0xf7 refusal) ------------

TEST(CounterSpan, DmaSpanRefusesTheSeqBoundAndCommitsNothing)
{
    const uint64_t k = 3;
    const uint64_t bound = dmachan::kDmaMaxSeq;
    CounterSpan span{bound - k, bound - k, bound};
    int commits = 0;
    auto commit = [&] { ++commits; };

    // [2^32 - 3, 2^32 + 1) would reach 2^32: refused, nothing moves.
    EXPECT_FALSE(span.reserve(k + 1, commit));
    EXPECT_EQ(commits, 0);
    EXPECT_EQ(span.next, bound - k);
    EXPECT_EQ(span.reserved, bound - k);

    // The span ending exactly at the bound fits; its reservation stops
    // at the bound instead of a stride past it.
    EXPECT_EQ(span.reserve(k, commit), bound - k);
    EXPECT_EQ(commits, 1);
    EXPECT_EQ(span.next, bound);
    EXPECT_EQ(span.reserved, bound);

    EXPECT_FALSE(span.reserve(1, commit));
    EXPECT_EQ(commits, 1);
}

TEST(CounterSpan, RegisterSpanRefusesAtTheTopInsteadOfWrapping)
{
    // A Ctr_session drawn just below 2^64: the base session starts
    // one above it.
    const uint64_t ctrBase = UINT64_MAX - 10;
    CounterSpan span{ctrBase + 1, 0, UINT64_MAX};
    int commits = 0;
    auto commit = [&] { ++commits; };

    EXPECT_EQ(span.reserve(5, commit), ctrBase + 1);
    EXPECT_EQ(commits, 1);
    EXPECT_EQ(span.reserved, UINT64_MAX); // clamped, not wrapped
    EXPECT_FALSE(span.reserve(5, commit)); // [2^64 - 5, 2^64) passes it
    EXPECT_FALSE(span.reserve(UINT64_MAX, commit));
    EXPECT_EQ(commits, 1);
    EXPECT_EQ(span.reserve(4, commit), ctrBase + 6);
    EXPECT_EQ(span.next, UINT64_MAX);

    // A restart from the journalled reservation resumes above every
    // counter handed out, never back at Ctr_session.
    CounterSpan restarted{ctrBase + 1, span.reserved, UINT64_MAX};
    restarted.resume(restarted.next);
    EXPECT_EQ(restarted.next, UINT64_MAX);
    EXPECT_FALSE(restarted.reserve(1, commit));
}

TEST(CounterSpan, CommitsExactlyWhenTheSpanPassesTheReservation)
{
    CounterSpan span{10, 0, 1000};
    std::vector<std::pair<uint64_t, uint64_t>> commits; // (next, reserved)
    auto commit = [&] { commits.emplace_back(span.next, span.reserved); };

    // The journal is written before the span is handed out, and
    // already covers it.
    EXPECT_EQ(span.reserve(1, commit), 10u);
    ASSERT_EQ(commits.size(), 1u);
    EXPECT_EQ(commits[0], std::make_pair(uint64_t(10),
                                         uint64_t(11 + kCtrReserveStride)));

    // Up to the reservation: no commit.
    EXPECT_EQ(span.reserve(kCtrReserveStride, commit), 11u);
    EXPECT_EQ(commits.size(), 1u);
    EXPECT_EQ(span.next, span.reserved);

    // One past it: commit.
    EXPECT_EQ(span.reserve(1, commit), 11 + kCtrReserveStride);
    ASSERT_EQ(commits.size(), 2u);
    EXPECT_EQ(span.reserved, 12 + 2 * kCtrReserveStride);
}

TEST(CounterSpan, ResumeNeverLandsBelowTheReservation)
{
    CounterSpan span{5, 200, UINT64_MAX};
    span.resume(1);
    EXPECT_EQ(span.next, 200u);
    span.resume(300);
    EXPECT_EQ(span.next, 300u);
    span.next = 0;
    span.resume(0);
    EXPECT_EQ(span.next, 200u);
}

// ---- fabric-side window semantics -----------------------------------

namespace {

/** A loaded device with known injected secrets, driven at the SM
 *  register interface (no host enclave in the loop). */
struct FabricRig
{
    crypto::CtrDrbg rng{uint64_t(4242)};
    fpga::DeviceModelInfo model = fpga::testModel();
    fpga::FpgaDevice device{fpga::testModel(),
                            fpga::DeviceDna{0x5a5a5a5a5a5aULL}};
    ClSecrets secrets = ClSecrets::generate(rng);
    fpga::IpBehavior *sm = nullptr;
    DmaKeys keys{secrets.keySession};

    FabricRig()
    {
        fpga::ensureBuiltinIps();
        SmLogic::registerIp();
        Bytes deviceKey = rng.bytes(32);
        device.fuseKey(deviceKey);

        ClDesign design = buildClDesign("cl", loopbackAccel());
        bitstream::Compiler compiler(model.name);
        auto compiled =
            compiler.compile(design.netlist, model.partitions[0]);
        bitstream::Manipulator::patchCell(
            compiled.file, compiled.logicLocations,
            design.layout.keyAttestPath, secrets.keyAttest);
        bitstream::Manipulator::patchCell(
            compiled.file, compiled.logicLocations,
            design.layout.keySessionPath, secrets.keySession);
        bitstream::Manipulator::patchCell(
            compiled.file, compiled.logicLocations,
            design.layout.ctrSessionPath, secrets.ctrBytes());
        bitstream::EncryptedHeader header{model.name, 0};
        Bytes blob = bitstream::encryptBitstream(compiled.file,
                                                 deviceKey, header, rng);
        EXPECT_EQ(device.loadEncryptedPartial(blob),
                  fpga::LoadStatus::Ok);
        sm = device.design(0)->behaviorAt(design.layout.smCellPath);
        EXPECT_NE(sm, nullptr);
    }

    /** Stages `encoded` in DRAM and rings the doorbell. */
    uint64_t
    doorbell(const Bytes &encoded, uint64_t staging = 0x200000)
    {
        device.dram().write(staging, encoded);
        sm->writeRegister(kSmRegIn0, staging);
        sm->writeRegister(kSmRegIn1, encoded.size());
        sm->writeRegister(kSmRegCmd, kSmCmdDmaDoorbell);
        return sm->readRegister(kSmRegStatus);
    }

    uint64_t
    ack(uint32_t slot = 0)
    {
        sm->writeRegister(kSmRegIn0, slot);
        sm->writeRegister(kSmRegCmd, kSmCmdDmaAck);
        EXPECT_EQ(sm->readRegister(kSmRegStatus), kSmStatusOk);
        uint64_t seq = sm->readRegister(kSmRegOut0);
        EXPECT_EQ(sm->readRegister(kSmRegOut1),
                  dmachan::ackMac(keys.gcm(), slot, seq));
        return seq;
    }

    uint64_t stat(uint32_t reg) { return sm->readRegister(reg); }
};

} // namespace

TEST(DmaFabric, AppliesWriteAndAdvancesCumulativeAck)
{
    FabricRig rig;
    Bytes plain = pattern(4096, 4);
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 0, true, 0x1000,
                                     plain)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 1u);
    EXPECT_EQ(rig.device.dram().read(0x1000, plain.size()), plain);
    EXPECT_EQ(rig.stat(kSmRegStatDmaOk), 1u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaBytes), plain.size());
}

TEST(DmaFabric, RejectsReplayDuplicateAndBadCtrBinding)
{
    FabricRig rig;
    Bytes first = sealWrite(rig.keys, 0, 0, true, 0x1000,
                            pattern(256, 5));
    Bytes second = sealWrite(rig.keys, 0, 1, false, 0x1100,
                             pattern(256, 6));
    EXPECT_EQ(rig.doorbell(first), kSmStatusOk);
    EXPECT_EQ(rig.doorbell(second), kSmStatusOk);
    EXPECT_EQ(rig.ack(), 2u);

    // Replaying either applied descriptor — identical bytes, valid
    // MAC — is dead on arrival and never rewinds the ack.
    EXPECT_EQ(rig.doorbell(first), kSmStatusRejected);
    EXPECT_EQ(rig.doorbell(second), kSmStatusRejected);
    EXPECT_EQ(rig.ack(), 2u);

    // A MAC-valid descriptor whose ctrBase is not seq * stride is
    // rejected before it can touch memory (keystream pinning).
    dmachan::DmaDescriptor d;
    d.sessionId = 0;
    d.seq = 2;
    d.ctrBase = 7; // not 2 * kDmaCtrStride
    d.sg.push_back({0x1200, 16});
    Bytes bad = dmachan::encodeDescriptor(rig.keys.gcm(), d, pattern(16, 7));
    EXPECT_EQ(rig.doorbell(bad), kSmStatusRejected);
    EXPECT_EQ(rig.ack(), 2u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaRejected), 3u);
}

TEST(DmaFabric, RejectsForgedCrossSessionAndOutOfWindow)
{
    FabricRig rig;
    // Sealed under the wrong keys: MAC check fails closed.
    DmaKeys wrong = testKeys(31);
    EXPECT_EQ(rig.doorbell(sealWrite(wrong, 0, 0, true, 0x1000,
                                     pattern(64, 8))),
              kSmStatusRejected);
    // Unopened session slot.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 3, 0, true, 0x1000,
                                     pattern(64, 9))),
              kSmStatusRejected);
    // Bit flip in transit.
    Bytes flipped = sealWrite(rig.keys, 0, 0, true, 0x1000,
                              pattern(64, 10));
    flipped[flipped.size() / 2] ^= 0x40;
    EXPECT_EQ(rig.doorbell(flipped), kSmStatusRejected);
    // Beyond the reorder window: seq too far ahead of expected.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0,
                                     dmachan::kDmaMaxWindow, false,
                                     0x1000, pattern(64, 11))),
              kSmStatusRejected);
    // Scatter outside DRAM.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 0, true,
                                     rig.device.dram().size() - 8,
                                     pattern(64, 12))),
              kSmStatusRejected);
    EXPECT_EQ(rig.stat(kSmRegStatDmaRejected), 5u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaOk), 0u);
    EXPECT_EQ(rig.ack(), 0u);
}

TEST(DmaFabric, BuffersOutOfOrderAndAppliesInOrder)
{
    FabricRig rig;
    Bytes p0 = pattern(512, 13);
    Bytes p1 = pattern(512, 14);
    // seq 1 lands first: buffered (doorbell ok), nothing applied yet.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 1, false, 0x1200,
                                     p1)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 0u);
    EXPECT_EQ(rig.stat(kSmRegStatDmaBytes), 0u);
    // seq 0 arrives: both apply, in order.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 0, false, 0x1000,
                                     p0)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 2u);
    EXPECT_EQ(rig.device.dram().read(0x1000, p0.size()), p0);
    EXPECT_EQ(rig.device.dram().read(0x1200, p1.size()), p1);
}

TEST(DmaFabric, SyncOnlyJumpsForward)
{
    FabricRig rig;
    // Forward jump to seq 5 (crash-recovery resync).
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 5, true, 0x1000,
                                     pattern(64, 15))),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 6u);
    // A replayed (older) sync cannot rewind the window.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, 2, true, 0x1000,
                                     pattern(64, 16))),
              kSmStatusRejected);
    EXPECT_EQ(rig.ack(), 6u);
}

TEST(DmaFabric, RejectsSequenceAtTheBound)
{
    FabricRig rig;
    // A sync descriptor may jump the window to any later seq, so only
    // the bound stands between it and seq 2^32.
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, dmachan::kDmaMaxSeq,
                                     true, 0x1000, pattern(64, 18))),
              kSmStatusRejected);
    EXPECT_EQ(rig.ack(), 0u);
    Bytes last = pattern(64, 19);
    EXPECT_EQ(rig.doorbell(sealWrite(rig.keys, 0, dmachan::kDmaMaxSeq - 1,
                                     true, 0x1000, last)),
              kSmStatusOk);
    // ack() verifies the tag of ackSeq 2^32. Its IV keeps all 64 bits
    // of ackSeq, so it shares no nonce with ack 0.
    EXPECT_EQ(rig.ack(), dmachan::kDmaMaxSeq);
    EXPECT_NE(dmachan::dmaTagIv(dmachan::DmaTagKind::Ack, 0),
              dmachan::dmaTagIv(dmachan::DmaTagKind::Ack,
                                dmachan::kDmaMaxSeq));
    EXPECT_EQ(rig.device.dram().read(0x1000, last.size()), last);
}

TEST(DmaFabric, ReadGatherSealsVerifiableResponse)
{
    FabricRig rig;
    Bytes plain = pattern(768, 17);
    rig.device.dram().write(0x3000, plain);
    EXPECT_EQ(rig.doorbell(sealRead(rig.keys, 0, 0, 0x3000,
                                    uint32_t(plain.size()), 0x340000)),
              kSmStatusOk);
    EXPECT_EQ(rig.ack(), 1u);
    Bytes blob = rig.device.dram().read(
        0x340000, plain.size() + dmachan::kDmaRespOverhead);
    auto open = dmachan::openReadResponse(rig.keys.gcm(), 0, 0, 0, blob);
    ASSERT_TRUE(open.has_value());
    EXPECT_EQ(*open, plain);
    // The sealed blob never exposes the plaintext on the bus.
    EXPECT_TRUE(std::search(blob.begin(), blob.end(), plain.begin(),
                            plain.end()) == blob.end());
}

// ---- host engine end to end -----------------------------------------

TEST(DmaEndToEnd, WriteLandsPlaintextAndChargesTheClock)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(200 * 1000, 18);
    sim::Nanos before = tb.clock().now();
    SmEnclaveApp::DmaOptions opts;
    opts.windowSize = 4;
    dmachan::DmaTransferReport rep =
        tb.smApp().dmaWrite(0, 0x8000, data, opts);
    ASSERT_EQ(rep.status, 0);
    EXPECT_EQ(rep.bytes, data.size());
    EXPECT_EQ(rep.descriptors, 4u); // ceil(200000 / 64 KiB)
    EXPECT_EQ(rep.retransmits, 0u);
    EXPECT_GE(rep.maxInFlight, 2u);
    EXPECT_LE(rep.maxInFlight, 4u);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()), data);
    // The engine owns all time attribution: the clock advanced by
    // exactly the exposed crypto plus transport it reported.
    EXPECT_EQ(tb.clock().now() - before,
              rep.cryptoNanos + rep.transportNanos);
    EXPECT_GT(rep.hiddenCryptoNanos, 0);
}

TEST(DmaEndToEnd, ScatterGatherWriteAndReadBack)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(24 * 1024, 19);
    std::vector<dmachan::DmaSgEntry> sg = {{0x4000, 8 * 1024},
                                           {0x10000, 16 * 1024}};
    ASSERT_EQ(tb.smApp().dmaWriteSg(0, sg, data).status, 0);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x4000, 8 * 1024),
              sliceBytes(data, 0, 8 * 1024));
    EXPECT_EQ(tb.shell().dmaPostedRead(0x10000, 16 * 1024),
              sliceBytes(data, 8 * 1024, 16 * 1024));

    Bytes out;
    ASSERT_EQ(tb.smApp().dmaRead(0, 0x4000, 8 * 1024, out).status, 0);
    EXPECT_EQ(out, sliceBytes(data, 0, 8 * 1024));
}

TEST(DmaEndToEnd, RecoversFromDropReorderAndCorruption)
{
    TestbedConfig cfg;
    cfg.rngSeed = 77;
    cfg.faultPlan.seed = 77;
    cfg.faultPlan.add(sim::FaultRule::dropDma(0.2));
    cfg.faultPlan.add(sim::FaultRule::reorderDma(0.2));
    cfg.faultPlan.add(sim::FaultRule::corruptDma(0.1));
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(256 * 1024, 20);
    SmEnclaveApp::DmaOptions opts;
    opts.windowSize = 8;
    opts.descriptorBytes = 16 * 1024;
    dmachan::DmaTransferReport rep =
        tb.smApp().dmaWrite(0, 0x8000, data, opts);
    ASSERT_EQ(rep.status, 0);
    EXPECT_GT(rep.retransmits, 0u) << "storm never fired";
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()), data);
}

TEST(DmaEndToEnd, FailsClosedWhenEveryDescriptorIsCorrupted)
{
    TestbedConfig cfg;
    cfg.faultPlan.add(sim::FaultRule::corruptDma(1.0));
    Testbed tb(cfg);
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);

    Bytes data = pattern(8 * 1024, 21);
    dmachan::DmaTransferReport rep =
        tb.smApp().dmaWrite(0, 0x8000, data);
    EXPECT_EQ(rep.status, 0xf8); // retransmits exhausted
    // Fail closed: not one corrupted payload byte reached memory.
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()),
              Bytes(data.size(), 0));
}

TEST(DmaEndToEnd, PerSessionSequencesAreIsolated)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    uint32_t slot = tb.addUserSession();
    ASSERT_TRUE(tb.userApp(slot).attachToPlatform());

    Bytes a = pattern(32 * 1024, 22);
    Bytes b = pattern(32 * 1024, 23);
    ASSERT_EQ(tb.smApp().dmaWrite(0, 0x8000, a).status, 0);
    ASSERT_EQ(tb.smApp().dmaWrite(slot, 0x20000, b).status, 0);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, a.size()), a);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x20000, b.size()), b);
    // Rejecting bad slots is typed, not an exception.
    EXPECT_EQ(tb.smApp().dmaWrite(99, 0x8000, a).status, 0xfd);
    // So is a read longer than one scatter-gather entry can name: it
    // must not wrap to a short read, and `out` stays as passed in.
    Bytes out = {1, 2, 3};
    dmachan::DmaTransferReport big =
        tb.smApp().dmaRead(0, 0x8000, (1ull << 32) + 64, out);
    EXPECT_EQ(big.status, 0xfd);
    EXPECT_EQ(big.bytes, 0u);
    EXPECT_EQ(out, (Bytes{1, 2, 3}));
}

TEST(DmaEndToEnd, SameSeedRunsAreByteIdentical)
{
    auto run = [](std::string &traceJson) {
        TestbedConfig cfg;
        cfg.rngSeed = 404;
        cfg.faultPlan.seed = 404;
        cfg.faultPlan.add(sim::FaultRule::dropDma(0.15));
        cfg.faultPlan.add(sim::FaultRule::reorderDma(0.15));
        Testbed tb(cfg);
        obs::TraceRecorder recorder(tb.clock());
        obs::MetricsRegistry metrics;
        dmachan::DmaTransferReport rep;
        {
            obs::ObsScope scope(&recorder, &metrics);
            tb.installCl(loopbackAccel());
            if (!tb.runDeployment().ok)
                throw SalusError("deployment failed");
            rep = tb.smApp().dmaWrite(0, 0x8000, pattern(128 * 1024, 24));
        }
        traceJson = recorder.chromeTraceJson() + metrics.renderText();
        return rep;
    };
    std::string traceA, traceB;
    dmachan::DmaTransferReport repA = run(traceA);
    dmachan::DmaTransferReport repB = run(traceB);
    ASSERT_EQ(repA.status, 0);
    EXPECT_EQ(repA.retransmits, repB.retransmits);
    EXPECT_EQ(repA.transportNanos, repB.transportNanos);
    EXPECT_EQ(traceA, traceB);
}

// ---- throughput on the virtual clock --------------------------------

namespace {

/** One DMA write's throughput point, in virtual nanoseconds. A traced
 *  run also exports its trace and metrics and the whole-run DMA
 *  totals. */
struct DmaThroughputPoint
{
    dmachan::DmaTransferReport rep;
    sim::Nanos elapsed = 0;
    sim::Nanos crypto = 0; ///< DMA Crypto spent by the write
    sim::Nanos transport = 0; ///< DMA Transport spent by the write
    std::string traceJson;
    std::string metricsText;
    sim::Nanos cryptoSpans = 0; ///< whole-run trace span sums ...
    sim::Nanos cryptoClock = 0; ///< ... and the clock's own totals
    sim::Nanos transportSpans = 0;
    sim::Nanos transportClock = 0;
};

/** One `bytes`-long dmaWrite through a window of `window` descriptors.
 *  It must complete with status 0, land every byte, and advance the
 *  clock by exactly the exposed crypto plus transport it reports. */
DmaThroughputPoint
runDmaThroughputPoint(uint32_t window, size_t bytes, bool traced = false)
{
    DmaThroughputPoint p;
    TestbedConfig cfg;
    cfg.rngSeed = 9000 + window * 100 + bytes / 1024;
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
        Bytes data = pattern(bytes, window);
        sim::Nanos start = clock.now();
        sim::Nanos cryptoBase = clock.totalFor(phases::kDmaCrypto);
        sim::Nanos transportBase = clock.totalFor(phases::kDmaTransport);
        SmEnclaveApp::DmaOptions opts;
        opts.windowSize = window;
        p.rep = tb.smApp().dmaWrite(0, 0x8000, data, opts);
        p.elapsed = clock.now() - start;
        p.crypto = clock.totalFor(phases::kDmaCrypto) - cryptoBase;
        p.transport = clock.totalFor(phases::kDmaTransport) - transportBase;
        EXPECT_EQ(p.rep.status, 0);
        EXPECT_EQ(p.rep.bytes, bytes);
        EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, bytes), data);
        EXPECT_EQ(p.elapsed, p.rep.cryptoNanos + p.rep.transportNanos);
    }
    if (traced) {
        p.traceJson = recorder.chromeTraceJson();
        p.metricsText = metrics.renderText();
        p.cryptoSpans = recorder.phaseTotal(phases::kDmaCrypto);
        p.cryptoClock = clock.totalFor(phases::kDmaCrypto);
        p.transportSpans = recorder.phaseTotal(phases::kDmaTransport);
        p.transportClock = clock.totalFor(phases::kDmaTransport);
    }
    return p;
}

} // namespace

TEST(DmaEndToEnd, ThroughputSweepIsExactAndWindowingPaysThreeFold)
{
    // Window x transfer size. The whole table is pinned as one digest,
    // so any point moving fails; SCOPED_TRACE prints it on failure.
    constexpr size_t kMiB = 1024 * 1024;
    std::string table;
    std::map<std::pair<uint32_t, size_t>, DmaThroughputPoint> points;
    for (uint32_t window : {1u, 2u, 4u, 8u}) {
        for (size_t bytes : {kMiB / 16, kMiB / 4, kMiB}) {
            DmaThroughputPoint p = runDmaThroughputPoint(window, bytes);
            char line[192];
            std::snprintf(
                line, sizeof(line),
                "window %u bytes %zu elapsed %llu descriptors %u "
                "in_flight %u crypto %llu hidden %llu transport %llu\n",
                window, bytes, (unsigned long long)p.elapsed,
                p.rep.descriptors, p.rep.maxInFlight,
                (unsigned long long)p.crypto,
                (unsigned long long)p.rep.hiddenCryptoNanos,
                (unsigned long long)p.transport);
            table += line;
            points[{window, bytes}] = p;
        }
    }
    SCOPED_TRACE(table);
    test::expectGoldenDigest("dma_throughput.sweep.txt", table);
    const DmaThroughputPoint &w1 = points[{1, kMiB}];
    const DmaThroughputPoint &w4 = points[{4, kMiB}];
    const DmaThroughputPoint &w8 = points[{8, kMiB}];
    test::expectGoldenValue("dma.w1_1mib_ns", w1.elapsed);
    test::expectGoldenValue("dma.w4_1mib_ns", w4.elapsed);
    test::expectGoldenValue("dma.w8_1mib_ns", w8.elapsed);
    test::expectGoldenRatio("dma.w8_1mib_overlap_fraction",
                            double(w8.rep.hiddenCryptoNanos),
                            double(w8.rep.hiddenCryptoNanos +
                                   w8.rep.cryptoNanos));

    // Four descriptors in flight overlap the keystream of one burst
    // with the wire time of the last: at least 3x the bytes per
    // virtual second of a window of one at 1 MiB.
    EXPECT_GE(w1.elapsed, 3 * w4.elapsed);
    test::expectGoldenRatio("dma.window4_speedup_x", double(w1.elapsed),
                            double(w4.elapsed));
}

TEST(DmaEndToEnd, TracedThroughputPointIsDeterministicAndExact)
{
    // Traced from before deployment, the run's span sums equal the
    // clock's phase totals to the nanosecond, and a second run at the
    // same seed exports byte-identical artifacts.
    DmaThroughputPoint a = runDmaThroughputPoint(4, 256 * 1024, true);
    DmaThroughputPoint b = runDmaThroughputPoint(4, 256 * 1024, true);
    EXPECT_GT(a.cryptoClock, 0u);
    EXPECT_EQ(a.cryptoSpans, a.cryptoClock);
    EXPECT_EQ(a.transportSpans, a.transportClock);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.metricsText, b.metricsText);
    test::expectGoldenDigest("dma_throughput.trace.json", a.traceJson);
    test::expectGoldenDigest("dma_throughput.metrics.txt", a.metricsText);
}

// ---- scheduler coexistence ------------------------------------------

TEST(DmaScheduler, BulkJobsRideTheSweepWithoutStarvingRegisterOps)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    BatchScheduler &sched = tb.scheduler();
    sched.addSession(0, 1);

    Bytes data = pattern(64 * 1024, 25);
    std::vector<uint8_t> dmaStatuses;
    for (int i = 0; i < 3; ++i) {
        BatchScheduler::DmaJob job;
        job.addr = 0x8000 + uint64_t(i) * 0x10000;
        job.data = data;
        job.done = [&](const dmachan::DmaTransferReport &rep) {
            dmaStatuses.push_back(rep.status);
        };
        ASSERT_EQ(sched.submitDma(0, std::move(job)),
                  BatchScheduler::Submit::Accepted);
    }
    int regDone = 0;
    regchan::RegOp op;
    op.isWrite = true;
    op.addr = 0x00;
    op.data = 42;
    ASSERT_EQ(sched.submit(0, op, [&](uint8_t st, uint64_t) {
        EXPECT_EQ(st, 0);
        ++regDone;
    }),
              BatchScheduler::Submit::Accepted);

    // One sweep: the register slice goes first, then exactly ONE DMA
    // job — bulk never monopolises a sweep.
    sched.pumpOnce();
    EXPECT_EQ(regDone, 1);
    EXPECT_EQ(dmaStatuses.size(), 1u);
    sched.drain();
    ASSERT_EQ(dmaStatuses.size(), 3u);
    for (uint8_t st : dmaStatuses)
        EXPECT_EQ(st, 0);
    EXPECT_EQ(sched.stats().dmaJobs, 3u);
    EXPECT_EQ(sched.stats().dmaBytes, 3 * data.size());
    EXPECT_EQ(tb.shell().dmaPostedRead(0x8000, data.size()), data);
    EXPECT_EQ(tb.shell().dmaPostedRead(0x28000, data.size()), data);
}

TEST(DmaScheduler, BoundedQueueRefusesWithBackpressure)
{
    Testbed tb;
    tb.installCl(loopbackAccel());
    ASSERT_TRUE(tb.runDeployment().ok);
    BatchScheduler &sched = tb.scheduler();
    sched.addSession(0, 1);
    BatchScheduler::DmaJob job;
    job.addr = 0x8000;
    job.data = pattern(1024, 26);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(sched.submitDma(0, job),
                  BatchScheduler::Submit::Accepted);
    EXPECT_EQ(sched.submitDma(0, job),
              BatchScheduler::Submit::Backpressure);
    EXPECT_EQ(sched.submitDma(42, job),
              BatchScheduler::Submit::UnknownSession);
    sched.drain();
    EXPECT_EQ(sched.stats().dmaJobs, 8u);
}

// ---- crash sweep over the DMA journal steps -------------------------

namespace {

/** Deploy + one journalled DMA transfer (seq-span reservation commits
 *  ride the same write-ahead journal as everything else). */
void
runDmaJournalSession(Testbed &tb)
{
    tb.installCl(loopbackAccel());
    if (!tb.runDeployment().ok)
        throw SalusError("deployment failed");
    if (tb.smApp().dmaWrite(0, 0x8000, pattern(96 * 1024, 27)).status !=
        0)
        throw SalusError("dma write failed");
}

TestbedConfig
dmaJournalConfig()
{
    TestbedConfig cfg;
    cfg.rngSeed = 31;
    return cfg;
}

int
dmaJournalWrites()
{
    static int n =
        test::journalWritesOf(dmaJournalConfig(), runDmaJournalSession);
    return n;
}

} // namespace

class DmaCrashSweep : public ::testing::TestWithParam<test::CrashPoint>
{
};

TEST_P(DmaCrashSweep, EveryJournalStepRecoversAndResyncsTheWindow)
{
    ASSERT_GE(dmaJournalWrites(), 3)
        << "scenario no longer journals enough steps to sweep";
    SmEnclaveApp::RecoveryReport rep;
    auto tb = test::crashAndRecover(dmaJournalConfig(), GetParam(),
                                    runDmaJournalSession, rep);
    ASSERT_TRUE(tb);

    // The recovered instance resumes PAST its seq reservation and the
    // sync flag jumps the fabric forward — bulk transfers work again
    // end to end, whatever step the crash hit.
    ASSERT_TRUE(tb->runDeployment().ok);
    Bytes data = pattern(32 * 1024, 28);
    ASSERT_EQ(tb->smApp().dmaWrite(0, 0x8000, data).status, 0);
    EXPECT_EQ(tb->shell().dmaPostedRead(0x8000, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(AllJournalSteps, DmaCrashSweep,
                         test::crashPoints(dmaJournalWrites()),
                         test::crashPointName);

/**
 * @file
 * Differential and edge-case tests for the runtime-dispatched crypto
 * backends: scalar vs hardware bit-equality across primitives,
 * keystream continuity across the 128-bit counter's low-word carry,
 * GCM's 32-bit counter wrap at 2^32, the split-call regression for
 * the CTR keystream, the fused counter-mode kernel (Aes::ctrXor)
 * against the scalar reference, and the raw x86 CTR and GHASH kernels
 * at every tier the host has.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hex.hpp"
#include "crypto/aes.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/backend.hpp"
#include "crypto/backend_x86.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"

using namespace salus;
using namespace salus::crypto;

namespace {

/** Prints which backend this binary actually dispatched to. */
class BackendBanner : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        std::printf("[ backend  ] %s\n", backendSummary().c_str());
    }
};

const ::testing::Environment *const kBanner =
    ::testing::AddGlobalTestEnvironment(new BackendBanner);

/** Pins the scalar path for one scope, restoring the prior override
 *  state (NOT unconditionally re-enabling hardware) on exit. */
struct ScopedForceScalar
{
    bool prev;
    ScopedForceScalar() : prev(forceScalar()) { setForceScalar(true); }
    ~ScopedForceScalar() { setForceScalar(prev); }
};

bool
anyHardware()
{
    const BackendInfo &b = backendInfo();
    return b.aesni || b.pclmul || b.shani;
}

/** 128-bit big-endian add of a small delta (test-local reference). */
void
refAdd128(uint8_t ctr[16], uint64_t delta)
{
    for (int i = 15; i >= 0 && delta != 0; --i) {
        uint64_t sum = uint64_t(ctr[i]) + (delta & 0xff);
        ctr[i] = uint8_t(sum);
        delta = (delta >> 8) + (sum >> 8);
    }
}

/** Reference CTR keystream: block i is E_K(counter0 + i), computed
 *  one block at a time through the public single-block entry. */
Bytes
refCtrKeystream(const Aes &aes, const uint8_t counter0[16],
                size_t blocks)
{
    Bytes out(blocks * kAesBlockSize);
    for (size_t i = 0; i < blocks; ++i) {
        uint8_t ctr[16];
        std::memcpy(ctr, counter0, 16);
        refAdd128(ctr, i);
        aes.encryptBlock(ctr, out.data() + i * kAesBlockSize);
    }
    return out;
}

} // namespace

// ---- AesCtr split-call regression (the byte-at-a-time bugfix) --------

TEST(CryptoBackend, CtrSplitCallsMatchOneShot)
{
    CtrDrbg rng(0xc7a11);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    Bytes data = rng.bytes(1021); // deliberately not block-aligned

    for (int scalar = 0; scalar < 2; ++scalar) {
        std::optional<ScopedForceScalar> force;
        if (scalar)
            force.emplace();

        Bytes oneShot = data;
        AesCtr whole(key, iv);
        whole.crypt(oneShot.data(), oneShot.size());

        // Odd split points exercise every head/tail alignment of the
        // word-wise XOR against the batched keystream buffer.
        const size_t cuts[] = {1, 3, 7, 13, 16, 17, 31, 64, 127, 255};
        for (size_t cut : cuts) {
            Bytes split = data;
            AesCtr ctr(key, iv);
            size_t off = 0;
            while (off < split.size()) {
                size_t n = std::min(cut, split.size() - off);
                ctr.crypt(split.data() + off, n);
                off += n;
            }
            EXPECT_EQ(split, oneShot)
                << "split at " << cut << " scalar=" << scalar;
        }
    }
}

TEST(CryptoBackend, CtrMatchesReferenceKeystream)
{
    CtrDrbg rng(0xc7a12);
    for (size_t keyLen : {size_t(16), size_t(24), size_t(32)}) {
        Bytes key = rng.bytes(keyLen);
        Bytes iv = rng.bytes(16);
        Aes aes(key);
        Bytes expect = refCtrKeystream(aes, iv.data(), 32);

        for (int scalar = 0; scalar < 2; ++scalar) {
            std::optional<ScopedForceScalar> force;
            if (scalar)
                force.emplace();
            Bytes ks(32 * kAesBlockSize, 0);
            AesCtr ctr(key, iv);
            ctr.crypt(ks.data(), ks.size());
            EXPECT_EQ(ks, expect)
                << "keyLen=" << keyLen << " scalar=" << scalar;
        }
    }
}

// Split points that leave keystream behind, followed by a remainder
// big enough for the 16-wide whole-block path: the leftover must be
// used up first and the counter must resume right after it.
TEST(CryptoBackend, CtrSplitAcrossWholeBlockPath)
{
    CtrDrbg rng(0xc7a1b);
    Bytes key = rng.bytes(32);
    Bytes iv = rng.bytes(16);
    Bytes data = rng.bytes(4096 + 5);

    for (int scalar = 0; scalar < 2; ++scalar) {
        std::optional<ScopedForceScalar> force;
        if (scalar)
            force.emplace();
        Bytes oneShot = data;
        AesCtr(key, iv).crypt(oneShot.data(), oneShot.size());
        for (size_t first : {size_t(1), size_t(15), size_t(17),
                             size_t(255)}) {
            // first | whole-block run | first again | the rest.
            Bytes split = data;
            AesCtr ctr(key, iv);
            size_t cuts[] = {first, first + 2048 + 3, 2 * first + 2048 + 3,
                             split.size()};
            size_t off = 0;
            for (size_t cut : cuts) {
                ctr.crypt(split.data() + off, cut - off);
                off = cut;
            }
            EXPECT_EQ(split, oneShot)
                << "first " << first << " scalar=" << scalar;
        }
    }
}

// ---- The fused counter-mode kernel -----------------------------------

namespace {

/** Runs Aes::ctrXor in place or out of place; returns the output and
 *  leaves the advanced counter in ctr. */
Bytes
runCtrXor(const Aes &aes, uint8_t ctr[16], const Bytes &in, bool inPlace)
{
    size_t blocks = in.size() / kAesBlockSize;
    Bytes out = inPlace ? in : Bytes(in.size(), 0xa5);
    aes.ctrXor(ctr, inPlace ? out.data() : in.data(), out.data(), blocks);
    return out;
}

} // namespace

// Aes::ctrXor against the forced-scalar reference and the keystream's
// definition, across the 8/16/32-wide pipeline edges (a 48-block run
// takes one 32-block zmm batch and one 16-block ymm batch) and with
// the low 64 counter bits wrapping at every position inside a 32-block
// batch.
TEST(CryptoBackend, CtrXorAgreesAcrossBackends)
{
    CtrDrbg rng(0xc7a1c);
    for (size_t keyLen : {size_t(16), size_t(24), size_t(32)}) {
        Aes aes(rng.bytes(keyLen));
        for (size_t blocks :
             {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
              size_t(15), size_t(16), size_t(17), size_t(31), size_t(32),
              size_t(33), size_t(47), size_t(48), size_t(49), size_t(63),
              size_t(64), size_t(65), size_t(4096)}) {
            Bytes in = rng.bytes(blocks * kAesBlockSize);
            Bytes hi = rng.bytes(8);
            // One random counter, then low halves UINT64_MAX - k.
            for (int k = -1; k < 32; ++k) {
                uint8_t ctr0[16];
                std::memcpy(ctr0, hi.data(), 8);
                storeBe64(ctr0 + 8, k < 0 ? loadBe64(rng.bytes(8).data())
                                          : UINT64_MAX - uint64_t(k));
                Bytes expect = refCtrKeystream(aes, ctr0, blocks);
                for (size_t i = 0; i < expect.size(); ++i)
                    expect[i] ^= in[i];
                uint8_t ctrEnd[16];
                std::memcpy(ctrEnd, ctr0, 16);
                refAdd128(ctrEnd, blocks);

                for (bool inPlace : {false, true}) {
                    for (int scalar = 0; scalar < 2; ++scalar) {
                        std::optional<ScopedForceScalar> force;
                        if (scalar)
                            force.emplace();
                        uint8_t ctr[16];
                        std::memcpy(ctr, ctr0, 16);
                        Bytes out = runCtrXor(aes, ctr, in, inPlace);
                        EXPECT_EQ(out, expect)
                            << "keyLen=" << keyLen << " blocks=" << blocks
                            << " k=" << k << " inPlace=" << inPlace
                            << " scalar=" << scalar;
                        EXPECT_EQ(0, std::memcmp(ctr, ctrEnd, 16))
                            << "counter not advanced by " << blocks;
                    }
                }
            }
        }
    }
}

// ---- The x86 kernels at every tier the host has ----------------------

#ifdef SALUS_CRYPTO_HAVE_X86_BACKEND

namespace {

/** The (useVaes, useVaes512) tiers of the x86 AES kernels this host
 *  can run, the narrower ones included: dispatch only ever takes the
 *  widest, so a wide host runs the narrower loops over long inputs
 *  only when a test asks for them. */
std::vector<std::pair<bool, bool>>
hostAesTiers()
{
    const BackendInfo &b = backendInfo();
    std::vector<std::pair<bool, bool>> tiers;
    if (b.aesni)
        tiers.emplace_back(false, false);
    if (b.aesni && b.vaes)
        tiers.emplace_back(true, false);
    if (b.aesni && b.vaes512)
        tiers.emplace_back(true, true);
    return tiers;
}

/** GHASH one bit at a time (SP 800-38D, Algorithm 1), in the kernels'
 *  representation: the big-endian-loaded halves of each element. */
void
refGhash(uint64_t &yh, uint64_t &yl, const uint8_t *data, size_t n,
         uint64_t h0, uint64_t h1)
{
    for (size_t b = 0; b < n; ++b, data += 16) {
        const uint64_t xh = yh ^ loadBe64(data);
        const uint64_t xl = yl ^ loadBe64(data + 8);
        uint64_t zh = 0, zl = 0, vh = h0, vl = h1;
        for (int i = 0; i < 128; ++i) {
            if ((i < 64 ? xh >> (63 - i) : xl >> (127 - i)) & 1) {
                zh ^= vh;
                zl ^= vl;
            }
            const uint64_t lsb = vl & 1;
            vl = (vl >> 1) | (vh << 63);
            vh = (vh >> 1) ^ (lsb ? 0xe100000000000000ULL : 0);
        }
        yh = zh;
        yl = zl;
    }
}

} // namespace

// x86::aesniCtrXor at each tier against the scalar keystream, over
// 0-70 blocks (every batch edge of every width, and the 64-70 blocks
// where the 32-block batch repeats) and 4096 blocks (256 batches of
// the 16-block loop when that is the widest), with a random counter
// and with the last counter at UINT64_MAX.
TEST(CryptoBackend, X86CtrKernelAgreesAtEveryTier)
{
    const auto tiers = hostAesTiers();
    if (tiers.empty())
        GTEST_SKIP() << "no AES-NI on this host";
    CtrDrbg rng(0xc7a1d);
    std::vector<size_t> sizes;
    for (size_t blocks = 0; blocks <= 70; ++blocks)
        sizes.push_back(blocks);
    sizes.push_back(4096);
    for (size_t keyLen : {size_t(16), size_t(24), size_t(32)}) {
        Aes aes(rng.bytes(keyLen));
        for (size_t blocks : sizes) {
            Bytes in = rng.bytes(blocks * kAesBlockSize);
            for (bool atTop : {false, true}) {
                uint8_t ctr[16];
                std::memcpy(ctr, rng.bytes(16).data(), 16);
                storeBe64(ctr + 8, atTop ? UINT64_MAX - (blocks - 1)
                                         : loadBe64(ctr + 8) >> 1);
                Bytes expect;
                {
                    ScopedForceScalar force;
                    expect = refCtrKeystream(aes, ctr, blocks);
                }
                for (size_t i = 0; i < expect.size(); ++i)
                    expect[i] ^= in[i];
                for (auto [vaes, vaes512] : tiers) {
                    for (bool inPlace : {false, true}) {
                        Bytes out = inPlace ? in : Bytes(in.size(), 0xa5);
                        x86::aesniCtrXor(aes.roundKeyBytes(), aes.rounds(),
                                         ctr,
                                         inPlace ? out.data() : in.data(),
                                         out.data(), blocks, vaes, vaes512);
                        EXPECT_EQ(out, expect)
                            << "keyLen=" << keyLen << " blocks=" << blocks
                            << " atTop=" << atTop << " vaes=" << vaes
                            << " vaes512=" << vaes512
                            << " inPlace=" << inPlace;
                    }
                }
            }
        }
    }
}

// x86::pclmulGhashBlocks with and without the 512-bit path against the
// bitwise reference, over 0-70 blocks (the 4-block loop and its 0-3
// block tail; the 32-block path from 64 blocks on) and 4096 blocks.
TEST(CryptoBackend, X86GhashKernelAgreesAtEveryTier)
{
    const BackendInfo &b = backendInfo();
    if (!b.pclmul)
        GTEST_SKIP() << "no PCLMULQDQ on this host";
    std::vector<bool> wides = {false};
    if (b.vaes512)
        wides.push_back(true);
    CtrDrbg rng(0xc7a1e);
    std::vector<size_t> sizes;
    for (size_t blocks = 0; blocks <= 70; ++blocks)
        sizes.push_back(blocks);
    sizes.push_back(4096);
    for (size_t blocks : sizes) {
        const Bytes data = rng.bytes(blocks * 16);
        const Bytes init = rng.bytes(32);
        const uint64_t h0 = loadBe64(init.data());
        const uint64_t h1 = loadBe64(init.data() + 8);
        const uint64_t y0h = loadBe64(init.data() + 16);
        const uint64_t y0l = loadBe64(init.data() + 24);
        uint64_t eh = y0h, el = y0l;
        refGhash(eh, el, data.data(), blocks, h0, h1);
        for (bool wide : wides) {
            uint64_t yh = y0h, yl = y0l;
            x86::pclmulGhashBlocks(yh, yl, data.data(), blocks, h0, h1,
                                   wide);
            EXPECT_EQ(yh, eh) << "blocks=" << blocks << " vaes512=" << wide;
            EXPECT_EQ(yl, el) << "blocks=" << blocks << " vaes512=" << wide;
        }
    }
}

#endif // SALUS_CRYPTO_HAVE_X86_BACKEND

// ---- Counter carry edges ---------------------------------------------

TEST(CryptoBackend, CtrKeystreamContinuousAcrossLow64Carry)
{
    CtrDrbg rng(0xc7a13);
    Bytes key = rng.bytes(16);
    // Counter starts 3 blocks below the low-64-bit carry, so the
    // batched refill crosses it mid-batch.
    Bytes iv = hexDecode("0011223344556677fffffffffffffffd");

    Aes aes(key);
    Bytes expect = refCtrKeystream(aes, iv.data(), 16);
    for (int scalar = 0; scalar < 2; ++scalar) {
        std::optional<ScopedForceScalar> force;
        if (scalar)
            force.emplace();
        Bytes ks(16 * kAesBlockSize, 0);
        AesCtr ctr(key, iv);
        ctr.crypt(ks.data(), ks.size());
        EXPECT_EQ(ks, expect) << "scalar=" << scalar;
    }
}

TEST(CryptoBackend, CtrKeystreamContinuousAcrossFullWrap)
{
    CtrDrbg rng(0xc7a14);
    Bytes key = rng.bytes(16);
    // One block below all-ones: the increment wraps the whole 128-bit
    // counter to zero.
    Bytes iv = hexDecode("ffffffffffffffffffffffffffffffff");

    Aes aes(key);
    uint8_t c0[16];
    std::memcpy(c0, iv.data(), 16);
    Bytes expect(2 * kAesBlockSize);
    aes.encryptBlock(c0, expect.data());
    uint8_t zero[16] = {};
    aes.encryptBlock(zero, expect.data() + kAesBlockSize);

    for (int scalar = 0; scalar < 2; ++scalar) {
        std::optional<ScopedForceScalar> force;
        if (scalar)
            force.emplace();
        Bytes ks(2 * kAesBlockSize, 0);
        AesCtr ctr(key, iv);
        ctr.crypt(ks.data(), ks.size());
        EXPECT_EQ(ks, expect) << "scalar=" << scalar;
    }
}

TEST(CryptoBackend, CtrSeekAcrossCarryMatchesSequential)
{
    CtrDrbg rng(0xc7a15);
    Bytes key = rng.bytes(16);
    Bytes iv = hexDecode("8899aabbccddeefffffffffffffffffa");

    Bytes sequential(12 * kAesBlockSize, 0);
    AesCtr seq(key, iv);
    seq.crypt(sequential.data(), sequential.size());

    // Seek straight past the carry (block 8 lands above the low-word
    // wrap) and expect the same keystream as sequential consumption.
    AesCtr seeked(key, iv);
    seeked.seekBlock(8);
    Bytes tail(4 * kAesBlockSize, 0);
    seeked.crypt(tail.data(), tail.size());
    EXPECT_EQ(tail, Bytes(sequential.begin() + 8 * kAesBlockSize,
                          sequential.end()));
}

TEST(CryptoBackend, GcmCounterWrapsAt32Bits)
{
    CtrDrbg rng(0xc7a16);
    for (size_t keyLen : {size_t(16), size_t(32)}) {
        Bytes key = rng.bytes(keyLen);
        AesGcm gcm(key);
        Aes aes(key);
        // 40 whole blocks and a partial one.
        Bytes plain = rng.bytes(40 * 16 + 7);

        // Pin the 32-bit counter word just below 2^32: block i of the
        // keystream uses low32 = (low32(J0) + 1 + i) mod 2^32, so the
        // run wraps to 0 after `before` blocks while the upper 96 bits
        // MUST stay untouched (inc32, not a 128-bit increment). The
        // wrap lands at the start, inside and at the end of 16-wide
        // runs, and on the partial tail block.
        for (uint32_t before : {1u, 2u, 9u, 16u, 20u, 33u, 40u}) {
            uint8_t j0[16];
            std::memcpy(j0, rng.bytes(12).data(), 12);
            storeBe32(j0 + 12, uint32_t(0) - 1 - before);

            Bytes expect = plain;
            for (size_t i = 0; i * 16 < expect.size(); ++i) {
                uint8_t ctr[16];
                std::memcpy(ctr, j0, 16);
                // Wraps mod 2^32.
                storeBe32(ctr + 12, loadBe32(j0 + 12) + 1 + uint32_t(i));
                uint8_t ks[16];
                aes.encryptBlock(ctr, ks);
                for (size_t b = 0; b < 16 && i * 16 + b < expect.size();
                     ++b)
                    expect[i * 16 + b] ^= ks[b];
            }

            for (int scalar = 0; scalar < 2; ++scalar) {
                std::optional<ScopedForceScalar> force;
                if (scalar)
                    force.emplace();
                Bytes out;
                gcm.ctrCryptRaw(j0, plain, out);
                EXPECT_EQ(out, expect)
                    << "keyLen=" << keyLen << " before=" << before
                    << " scalar=" << scalar;
            }
        }
    }
}

// ---- Scalar vs hardware differential ---------------------------------

namespace {

/** Seals under both backends, requires identical output, and
 *  cross-opens each side's result on the other. */
void
expectGcmAgrees(const AesGcm &gcm, const Bytes &iv, const Bytes &aad,
                const Bytes &plain, const std::string &label)
{
    GcmSealed hw = gcm.seal(iv, aad, plain);
    GcmSealed sc;
    {
        ScopedForceScalar force;
        sc = gcm.seal(iv, aad, plain);
    }
    EXPECT_EQ(hw.ciphertext, sc.ciphertext) << label;
    EXPECT_EQ(hw.tag, sc.tag) << label;

    // Cross-open: hardware-sealed must verify on the scalar path and
    // vice versa.
    {
        ScopedForceScalar force;
        auto opened = gcm.open(iv, aad, hw.ciphertext, hw.tag);
        ASSERT_TRUE(opened.has_value()) << label;
        EXPECT_EQ(*opened, plain) << label;
    }
    auto opened = gcm.open(iv, aad, sc.ciphertext, sc.tag);
    ASSERT_TRUE(opened.has_value()) << label;
    EXPECT_EQ(*opened, plain) << label;
}

} // namespace

TEST(CryptoBackend, GcmSealAgreesAcrossBackends)
{
    if (!anyHardware())
        GTEST_SKIP() << "no hardware backend on this host";
    CtrDrbg rng(0xc7a17);
    for (size_t len : {size_t(0), size_t(1), size_t(16), size_t(17),
                       size_t(255), size_t(4096)}) {
        Bytes key = rng.bytes(32);
        Bytes iv = rng.bytes(len % 2 ? 12 : 31); // both IV paths
        Bytes aad = rng.bytes(len % 3 ? 21 : 0);
        Bytes plain = rng.bytes(len);
        expectGcmAgrees(AesGcm(key), iv, aad, plain,
                        "len=" + std::to_string(len));
    }

    // GHASH takes 32 blocks per reduction (on zmm hosts, from 64
    // blocks on), then four, then one at a time. The GMAC form first,
    // the DMA tag's shape: AAD of 0-70 blocks, each with a partial
    // block on either side, and no text.
    AesGcm gcm(rng.bytes(32));
    for (size_t blocks = 0; blocks <= 70; ++blocks) {
        for (int partial : {-7, 0, 5}) {
            if (blocks == 0 && partial < 0)
                continue;
            size_t len = 16 * blocks + size_t(partial);
            expectGcmAgrees(gcm, rng.bytes(12), rng.bytes(len), Bytes(),
                            "gmac aad=" + std::to_string(len));
        }
    }

    // Then 0-70 blocks of text (31-33 and 63-65 straddle the 32-block
    // batches and the zmm path's entry), each with a partial block on
    // either side, behind AAD that is empty, partial, exactly four
    // blocks, four blocks plus one byte, and 32.5 and 64.5 blocks.
    for (size_t aadLen : {size_t(0), size_t(13), size_t(64), size_t(65),
                          size_t(520), size_t(1032)}) {
        Bytes aad = rng.bytes(aadLen);
        for (size_t blocks = 0; blocks <= 70; ++blocks) {
            for (int partial : {-7, 0, 5}) {
                if (blocks == 0 && partial < 0)
                    continue;
                size_t len = 16 * blocks + size_t(partial);
                Bytes iv = rng.bytes(len % 2 ? 12 : 31);
                expectGcmAgrees(gcm, iv, aad, rng.bytes(len),
                                "aad=" + std::to_string(aadLen) +
                                    " len=" + std::to_string(len));
            }
        }
    }
    Bytes big = rng.bytes((size_t(1) << 20) + 5);
    expectGcmAgrees(gcm, rng.bytes(12), rng.bytes(13), big, "1 MiB + 5");
}

TEST(CryptoBackend, Sha256AgreesAcrossBackends)
{
    if (!anyHardware())
        GTEST_SKIP() << "no hardware backend on this host";
    CtrDrbg rng(0xc7a18);
    // Every length through two compression blocks, plus bulk sizes
    // that hit the multi-block fast path.
    for (size_t len = 0; len <= 130; ++len) {
        Bytes msg = rng.bytes(len);
        Bytes hw = Sha256::digest(msg);
        ScopedForceScalar force;
        EXPECT_EQ(Sha256::digest(msg), hw) << "len=" << len;
    }
    for (size_t len : {size_t(4096), size_t(100000)}) {
        Bytes msg = rng.bytes(len);
        Bytes hw = Sha256::digest(msg);
        ScopedForceScalar force;
        EXPECT_EQ(Sha256::digest(msg), hw) << "len=" << len;
    }
}

TEST(CryptoBackend, Sha256StreamingChunksMatchOneShot)
{
    CtrDrbg rng(0xc7a19);
    Bytes msg = rng.bytes(1000);
    Bytes oneShot = Sha256::digest(msg);
    for (int scalar = 0; scalar < 2; ++scalar) {
        std::optional<ScopedForceScalar> force;
        if (scalar)
            force.emplace();
        for (size_t cut : {size_t(1), size_t(17), size_t(63), size_t(64),
                           size_t(65), size_t(200)}) {
            Sha256 h;
            size_t off = 0;
            while (off < msg.size()) {
                size_t n = std::min(cut, msg.size() - off);
                h.update(ByteView(msg).subspan(off, n));
                off += n;
            }
            EXPECT_EQ(h.finish(), oneShot)
                << "cut=" << cut << " scalar=" << scalar;
        }
    }
}

TEST(CryptoBackend, EncryptBlocksAgreesAcrossBackends)
{
    if (!backendInfo().aesni)
        GTEST_SKIP() << "no AES-NI on this host";
    CtrDrbg rng(0xc7a1a);
    for (size_t keyLen : {size_t(16), size_t(24), size_t(32)}) {
        Bytes key = rng.bytes(keyLen);
        Aes aes(key);
        // Cover the scalar remainder of the 8/16-wide pipelines.
        for (size_t blocks :
             {size_t(1), size_t(7), size_t(8), size_t(9), size_t(16),
              size_t(17), size_t(33)}) {
            Bytes in = rng.bytes(blocks * kAesBlockSize);
            Bytes hw(in.size()), sc(in.size());
            aes.encryptBlocks(in.data(), hw.data(), blocks);
            {
                ScopedForceScalar force;
                aes.encryptBlocks(in.data(), sc.data(), blocks);
            }
            EXPECT_EQ(hw, sc)
                << "keyLen=" << keyLen << " blocks=" << blocks;
        }
    }
}

// ---- KATs against the forced-scalar path -----------------------------
//
// The rest of the suite runs every NIST vector against whatever the
// dispatcher selected (hardware on CI runners); these pin the scalar
// reference to the same answers even when hardware is active, so a
// broken fallback cannot hide behind a healthy fast path.

TEST(CryptoBackend, ScalarKatsStayGreenUnderOverride)
{
    ScopedForceScalar force;

    Aes aes(hexDecode("000102030405060708090a0b0c0d0e0f"));
    Bytes ct(16);
    Bytes pt = hexDecode("00112233445566778899aabbccddeeff");
    aes.encryptBlock(pt.data(), ct.data());
    EXPECT_EQ(hexEncode(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");

    // SP 800-38A F.5.1 CTR-AES128, first block.
    Bytes ctrOut = aesCtrCrypt(
        hexDecode("2b7e151628aed2a6abf7158809cf4f3c"),
        hexDecode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
        hexDecode("6bc1bee22e409f96e93d7e117393172a"));
    EXPECT_EQ(hexEncode(ctrOut), "874d6191b620e3261bef6864990db6ce");

    EXPECT_EQ(hexEncode(Sha256::digest(bytesFromString("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

/**
 * @file
 * AES-CTR (SP 800-38A), AES-GCM (NIST GCM spec test cases) and
 * AES-CMAC (RFC 4493) known-answer tests plus tamper-detection
 * properties.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/errors.hpp"
#include "common/hex.hpp"
#include "crypto/aes_cmac.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/random.hpp"

using namespace salus;
using namespace salus::crypto;

// ---------------------------------------------------------------- CTR

TEST(AesCtrMode, Sp80038aF51)
{
    Bytes key = hexDecode("2b7e151628aed2a6abf7158809cf4f3c");
    Bytes ctr = hexDecode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    Bytes p1 = hexDecode("6bc1bee22e409f96e93d7e117393172a");
    Bytes p2 = hexDecode("ae2d8a571e03ac9c9eb76fac45af8e51");

    AesCtr c(key, ctr);
    EXPECT_EQ(hexEncode(c.crypt(p1)),
              "874d6191b620e3261bef6864990db6ce");
    EXPECT_EQ(hexEncode(c.crypt(p2)),
              "9806f66b7970fdff8617187bb9fffdff");
}

TEST(AesCtrMode, RoundtripArbitraryLengths)
{
    CtrDrbg rng(7);
    Bytes key = rng.bytes(32);
    Bytes iv = rng.bytes(16);
    for (size_t len : {size_t(0), size_t(1), size_t(15), size_t(16),
                       size_t(17), size_t(1000)}) {
        Bytes msg = rng.bytes(len);
        Bytes ct = aesCtrCrypt(key, iv, msg);
        Bytes back = aesCtrCrypt(key, iv, ct);
        EXPECT_EQ(back, msg) << "len=" << len;
    }
}

TEST(AesCtrMode, SeekMatchesSequential)
{
    CtrDrbg rng(8);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    Bytes msg = rng.bytes(256);

    Bytes full = aesCtrCrypt(key, iv, msg);

    // Encrypt only blocks 4.. by seeking.
    AesCtr c(key, iv);
    c.seekBlock(4);
    Bytes tail(msg.begin() + 64, msg.end());
    Bytes tailCt = c.crypt(tail);
    EXPECT_EQ(tailCt, Bytes(full.begin() + 64, full.end()));
}

TEST(AesCtrMode, CounterWrapAcrossLowWord)
{
    // Counter close to the 64-bit boundary must carry into the top.
    Bytes key(16, 0x11);
    Bytes iv = hexDecode("00000000000000ffffffffffffffffff");
    Bytes msg(48, 0x00);
    Bytes ct = aesCtrCrypt(key, iv, msg);
    // Three distinct keystream blocks expected.
    EXPECT_NE(Bytes(ct.begin(), ct.begin() + 16),
              Bytes(ct.begin() + 16, ct.begin() + 32));
    EXPECT_NE(Bytes(ct.begin() + 16, ct.begin() + 32),
              Bytes(ct.begin() + 32, ct.end()));
}

TEST(AesCtrMode, RejectsBadCounterSize)
{
    EXPECT_THROW(AesCtr(Bytes(16), Bytes(15)), CryptoError);
}

// ---------------------------------------------------------------- GCM

TEST(AesGcmMode, NistTestCase1EmptyPlaintext)
{
    AesGcm gcm(Bytes(16, 0));
    GcmSealed sealed = gcm.seal(Bytes(12, 0), ByteView(), ByteView());
    EXPECT_TRUE(sealed.ciphertext.empty());
    EXPECT_EQ(hexEncode(sealed.tag),
              "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(AesGcmMode, NistTestCase2SingleZeroBlock)
{
    AesGcm gcm(Bytes(16, 0));
    GcmSealed sealed = gcm.seal(Bytes(12, 0), ByteView(), Bytes(16, 0));
    EXPECT_EQ(hexEncode(sealed.ciphertext),
              "0388dace60b6a392f328c2b971b2fe78");
    EXPECT_EQ(hexEncode(sealed.tag),
              "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(AesGcmMode, RoundtripWithAad)
{
    CtrDrbg rng(9);
    AesGcm gcm(rng.bytes(32));
    Bytes iv = rng.bytes(12);
    Bytes aad = bytesFromString("bitstream-header-v1");
    Bytes msg = rng.bytes(333);

    GcmSealed sealed = gcm.seal(iv, aad, msg);
    auto opened = gcm.open(iv, aad, sealed.ciphertext, sealed.tag);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, msg);
}

TEST(AesGcmMode, DetectsCiphertextTamper)
{
    CtrDrbg rng(10);
    AesGcm gcm(rng.bytes(32));
    Bytes iv = rng.bytes(12);
    Bytes msg = rng.bytes(64);
    GcmSealed sealed = gcm.seal(iv, ByteView(), msg);

    for (size_t bit : {size_t(0), size_t(7), size_t(300), size_t(511)}) {
        Bytes bad = sealed.ciphertext;
        bad[bit / 8] ^= uint8_t(1 << (bit % 8));
        EXPECT_FALSE(gcm.open(iv, ByteView(), bad, sealed.tag));
    }
}

TEST(AesGcmMode, DetectsTagTamper)
{
    CtrDrbg rng(11);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    Bytes msg = rng.bytes(32);
    GcmSealed sealed = gcm.seal(iv, ByteView(), msg);

    Bytes badTag = sealed.tag;
    badTag[15] ^= 0x80;
    EXPECT_FALSE(gcm.open(iv, ByteView(), sealed.ciphertext, badTag));
    EXPECT_FALSE(gcm.open(iv, ByteView(), sealed.ciphertext,
                          Bytes(sealed.tag.begin(), sealed.tag.end() - 1)));
}

TEST(AesGcmMode, DetectsAadTamper)
{
    CtrDrbg rng(12);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    Bytes msg = rng.bytes(32);
    Bytes aad = bytesFromString("device=u200;partition=rp0");
    GcmSealed sealed = gcm.seal(iv, aad, msg);

    Bytes badAad = bytesFromString("device=u200;partition=rp1");
    EXPECT_FALSE(gcm.open(iv, badAad, sealed.ciphertext, sealed.tag));
    EXPECT_FALSE(
        gcm.open(iv, ByteView(), sealed.ciphertext, sealed.tag));
}

TEST(AesGcmMode, DetectsIvMismatch)
{
    CtrDrbg rng(13);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    Bytes msg = rng.bytes(32);
    GcmSealed sealed = gcm.seal(iv, ByteView(), msg);

    Bytes otherIv = iv;
    otherIv[0] ^= 1;
    EXPECT_FALSE(gcm.open(otherIv, ByteView(), sealed.ciphertext,
                          sealed.tag));
}

TEST(AesGcmMode, NonTwelveByteIvSupported)
{
    CtrDrbg rng(14);
    AesGcm gcm(rng.bytes(32));
    Bytes iv = rng.bytes(16); // exercises the GHASH J0 derivation
    Bytes msg = rng.bytes(100);
    GcmSealed sealed = gcm.seal(iv, ByteView(), msg);
    auto opened = gcm.open(iv, ByteView(), sealed.ciphertext, sealed.tag);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, msg);
}

TEST(AesGcmMode, InPlaceFormsMatchCopyingForms)
{
    // sealInPlace/openInto/verify/cryptAt are the forms the bitstream
    // path uses; seal/open wrap them. Each must agree byte for byte,
    // for both IV paths and texts that end mid-block.
    CtrDrbg rng(15);
    AesGcm gcm(rng.bytes(32));
    Bytes aad = rng.bytes(21);
    for (size_t ivSize : {size_t(12), size_t(16)}) {
        Bytes iv = rng.bytes(ivSize);
        for (size_t len : {0, 1, 15, 16, 17, 100, 1000}) {
            SCOPED_TRACE(std::to_string(ivSize) + "/" + std::to_string(len));
            Bytes msg = rng.bytes(len);
            GcmSealed sealed = gcm.seal(iv, aad, msg);

            Bytes text = msg;
            uint8_t tag[kGcmTagSize];
            gcm.sealInPlace(iv, aad, text, tag);
            EXPECT_EQ(text, sealed.ciphertext);
            EXPECT_EQ(Bytes(tag, tag + kGcmTagSize), sealed.tag);
            EXPECT_TRUE(gcm.verify(iv, aad, text, sealed.tag));

            // Any byte range decrypts on its own, at any alignment.
            for (size_t off = 0; off <= len; off += 7) {
                size_t n = std::min<size_t>(len - off, 37);
                Bytes piece(n);
                gcm.cryptAt(iv, off, text.data() + off, piece.data(), n);
                EXPECT_TRUE(std::equal(piece.begin(), piece.end(),
                                       msg.begin() + off))
                    << "offset " << off;
            }

            ASSERT_TRUE(gcm.openInto(iv, aad, text, sealed.tag, text.data()));
            EXPECT_EQ(text, msg);

            if (len > 0) {
                Bytes bad = sealed.ciphertext;
                bad[len / 2] ^= 1;
                Bytes out(len, 0xee);
                EXPECT_FALSE(gcm.verify(iv, aad, bad, sealed.tag));
                EXPECT_FALSE(gcm.openInto(iv, aad, bad, sealed.tag,
                                          out.data()));
                EXPECT_EQ(out, Bytes(len, 0xee)) << "out must stay untouched";
            }
        }
    }
}

// --------------------------------------------------------------- CMAC

TEST(AesCmacMode, Rfc4493Example1EmptyMessage)
{
    Bytes key = hexDecode("2b7e151628aed2a6abf7158809cf4f3c");
    EXPECT_EQ(hexEncode(aesCmac(key, ByteView())),
              "bb1d6929e95937287fa37d129b756746");
}

TEST(AesCmacMode, Rfc4493Example2SixteenBytes)
{
    Bytes key = hexDecode("2b7e151628aed2a6abf7158809cf4f3c");
    Bytes msg = hexDecode("6bc1bee22e409f96e93d7e117393172a");
    EXPECT_EQ(hexEncode(aesCmac(key, msg)),
              "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(AesCmacMode, Rfc4493Example3FortyBytes)
{
    Bytes key = hexDecode("2b7e151628aed2a6abf7158809cf4f3c");
    Bytes msg = hexDecode(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411");
    EXPECT_EQ(hexEncode(aesCmac(key, msg)),
              "dfa66747de9ae63030ca32611497c827");
}

TEST(AesCmacMode, VerifyAcceptsAndRejects)
{
    Bytes key(16, 0x42);
    Bytes msg = bytesFromString("report body");
    Bytes tag = aesCmac(key, msg);
    EXPECT_TRUE(aesCmacVerify(key, msg, tag));

    Bytes badMsg = bytesFromString("report bodY");
    EXPECT_FALSE(aesCmacVerify(key, badMsg, tag));
    Bytes badTag = tag;
    badTag[0] ^= 1;
    EXPECT_FALSE(aesCmacVerify(key, msg, badTag));
    EXPECT_FALSE(aesCmacVerify(key, msg, ByteView()));
}

TEST(AesCmacMode, LengthExtensionBlocked)
{
    // Appending data must change the MAC (padding is unambiguous).
    Bytes key(16, 0x24);
    Bytes m1 = bytesFromString("abc");
    Bytes m2 = bytesFromString("abc\x80");
    EXPECT_NE(aesCmac(key, m1), aesCmac(key, m2));
}

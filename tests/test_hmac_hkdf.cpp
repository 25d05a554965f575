/**
 * @file
 * HMAC (RFC 4231) and HKDF (RFC 5869) known-answer tests, and the
 * constant-time compares every tag check goes through.
 */

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/hex.hpp"
#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

using namespace salus;
using namespace salus::crypto;

TEST(Hmac, Rfc4231Case1Sha256)
{
    Bytes key(20, 0x0b);
    Bytes data = bytesFromString("Hi There");
    EXPECT_EQ(hexEncode(hmacSha256(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2Sha256)
{
    Bytes key = bytesFromString("Jefe");
    Bytes data = bytesFromString("what do ya want for nothing?");
    EXPECT_EQ(hexEncode(hmacSha256(key, data)),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case1Sha512)
{
    Bytes key(20, 0x0b);
    Bytes data = bytesFromString("Hi There");
    EXPECT_EQ(hexEncode(hmacSha512(key, data)),
              "87aa7cdea5ef619d4ff0b4241a1d6cb0"
              "2379f4e2ce4ec2787ad0b30545e17cde"
              "daa833b7d6b8a702038b274eaea3f4e4"
              "be9d914eeb61f1702e696c203a126854");
}

TEST(Hmac, LongKeyGetsHashed)
{
    // A key longer than the block size must be pre-hashed; verify the
    // two paths agree via the definition: HMAC(K) == HMAC(H(K)).
    Bytes longKey(200, 0x61);
    Bytes data = bytesFromString("message");
    Bytes viaLong = hmacSha256(longKey, data);

    Bytes hashed = Sha256::digest(longKey);
    Bytes viaHashed = hmacSha256(hashed, data);
    EXPECT_EQ(viaLong, viaHashed);
}

TEST(Hmac, KeySensitivity)
{
    Bytes data = bytesFromString("payload");
    Bytes k1(32, 0x01), k2(32, 0x01);
    k2[31] ^= 1;
    EXPECT_NE(hmacSha256(k1, data), hmacSha256(k2, data));
}

namespace {

/** RFC 2104 straight from the definition, independent of the keyed
 *  class: H((K' ^ opad) || H((K' ^ ipad) || m)). */
Bytes
referenceHmacSha256(ByteView key, ByteView msg)
{
    Bytes k = key.size() > 64 ? Sha256::digest(key)
                              : Bytes(key.begin(), key.end());
    k.resize(64, 0);
    Bytes ipad(64), opad(64);
    for (size_t i = 0; i < 64; ++i) {
        ipad[i] = uint8_t(k[i] ^ 0x36);
        opad[i] = uint8_t(k[i] ^ 0x5c);
    }
    Bytes inner = Sha256::digest(concatBytes({ipad, msg}));
    return Sha256::digest(concatBytes({opad, inner}));
}

} // namespace

TEST(Hmac, KeyedClassPassesRfc4231Cases1And2)
{
    HmacSha256 case1(Bytes(20, 0x0b));
    EXPECT_EQ(hexEncode(case1.mac(bytesFromString("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
    HmacSha256 case2(bytesFromString("Jefe"));
    EXPECT_EQ(
        hexEncode(case2.mac(bytesFromString("what do ya want for nothing?"))),
        "5bdcc146bf60754e6a042426089575c7"
        "5a003f089d2739839dec58b964ec3843");
    // A context stays keyed: the second tag equals the first.
    EXPECT_EQ(hexEncode(case1.mac(bytesFromString("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, KeyedClassReusedMatchesOneShotAndDefinition)
{
    // Key lengths around the 64-byte block: empty, short, exactly one
    // block, one over (hashed) and two blocks plus (hashed).
    for (size_t keyLen : {0, 32, 64, 65, 131}) {
        Bytes key(keyLen);
        for (size_t i = 0; i < keyLen; ++i)
            key[i] = uint8_t(7 * i + keyLen);
        HmacSha256 keyed(key);
        for (size_t m = 0; m < 1000; ++m) {
            // Lengths 0..199 cross every block-boundary case of the
            // inner hash (55/56/63/64 after the 64-byte ipad block).
            Bytes msg(m % 200);
            for (size_t i = 0; i < msg.size(); ++i)
                msg[i] = uint8_t(m * 31 + i);
            Bytes oneShot = hmacSha256(key, msg);
            ASSERT_EQ(keyed.mac(msg), oneShot)
                << "key " << keyLen << " msg " << m;
            // Split across parts: the same tag as the whole message.
            size_t cut = msg.empty() ? 0 : m % msg.size();
            uint8_t tag[HmacSha256::kTagSize];
            keyed.mac({ByteView(msg).subspan(0, cut),
                       ByteView(msg).subspan(cut)},
                      tag);
            ASSERT_EQ(Bytes(tag, tag + sizeof(tag)), oneShot);
            if (m % 97 == 0) {
                ASSERT_EQ(oneShot, referenceHmacSha256(key, msg))
                    << "key " << keyLen << " msg " << m;
            }
        }
    }
}

TEST(Hkdf, Rfc5869Case1)
{
    Bytes ikm(22, 0x0b);
    Bytes salt = hexDecode("000102030405060708090a0b0c");
    Bytes info = hexDecode("f0f1f2f3f4f5f6f7f8f9");

    Bytes prk = hkdfExtract(salt, ikm);
    EXPECT_EQ(hexEncode(prk),
              "077709362c2e32df0ddc3f0dc47bba63"
              "90b6c73bb50f9c3122ec844ad7c2b3e5");

    Bytes okm = hkdfExpand(prk, info, 42);
    EXPECT_EQ(hexEncode(okm),
              "3cb25f25faacd57a90434f64d0362f2a"
              "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
              "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengthEdgeCases)
{
    Bytes prk = hkdfExtract(Bytes(32, 1), Bytes(32, 2));
    EXPECT_EQ(hkdfExpand(prk, ByteView(), 0).size(), 0u);
    EXPECT_EQ(hkdfExpand(prk, ByteView(), 1).size(), 1u);
    EXPECT_EQ(hkdfExpand(prk, ByteView(), 32).size(), 32u);
    EXPECT_EQ(hkdfExpand(prk, ByteView(), 33).size(), 33u);
    EXPECT_EQ(hkdfExpand(prk, ByteView(), 255 * 32).size(), 255u * 32u);
    EXPECT_THROW(hkdfExpand(prk, ByteView(), 255 * 32 + 1), CryptoError);
}

TEST(Hkdf, PrefixConsistency)
{
    // Expanding to 64 bytes must begin with the 32-byte expansion.
    Bytes prk = hkdfExtract(Bytes(16, 9), Bytes(16, 7));
    Bytes info = bytesFromString("ctx");
    Bytes short32 = hkdfExpand(prk, info, 32);
    Bytes long64 = hkdfExpand(prk, info, 64);
    EXPECT_EQ(Bytes(long64.begin(), long64.begin() + 32), short32);
}

TEST(Hkdf, InfoSeparatesDomains)
{
    Bytes prk = hkdfExtract(Bytes(16, 3), Bytes(16, 4));
    EXPECT_NE(hkdfExpand(prk, bytesFromString("a"), 32),
              hkdfExpand(prk, bytesFromString("b"), 32));
}

TEST(CtEqual, BuffersMatchOnlyOnSameLengthAndEveryByte)
{
    Bytes a(32);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = uint8_t(0x30 + i);
    EXPECT_TRUE(ctEqual(a, Bytes(a)));
    EXPECT_TRUE(ctEqual(ByteView(), ByteView()));
    for (size_t i = 0; i < a.size(); ++i) {
        Bytes b = a;
        b[i] ^= 0x80;
        EXPECT_FALSE(ctEqual(a, b)) << "byte " << i;
    }
    // A prefix is not a match, in either order.
    ByteView prefix = ByteView(a).first(31);
    EXPECT_FALSE(ctEqual(a, prefix));
    EXPECT_FALSE(ctEqual(prefix, a));
    EXPECT_FALSE(ctEqual(a, ByteView()));
}

TEST(CtEqual, TruncatedTagsMatchOnlyOnEveryBit)
{
    for (uint64_t v : {uint64_t(0), uint64_t(1),
                       uint64_t(0x0123456789abcdefull), UINT64_MAX}) {
        EXPECT_TRUE(ctEqual64(v, v));
        for (int bit = 0; bit < 64; ++bit) {
            EXPECT_FALSE(ctEqual64(v, v ^ (uint64_t(1) << bit)))
                << std::hex << v << " bit " << std::dec << bit;
        }
    }
    // A difference confined to any one byte position is caught.
    for (int byte = 0; byte < 8; ++byte)
        EXPECT_FALSE(ctEqual64(0, uint64_t(0xff) << (8 * byte)));
}

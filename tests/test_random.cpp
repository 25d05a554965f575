/**
 * @file
 * Random-source tests: determinism, stream separation, reseeding.
 */

#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/backend.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"

using namespace salus;
using namespace salus::crypto;

TEST(CtrDrbgTest, DeterministicPerSeed)
{
    CtrDrbg a(12345u);
    CtrDrbg b(12345u);
    EXPECT_EQ(a.bytes(64), b.bytes(64));
    EXPECT_EQ(a.bytes(7), b.bytes(7));
}

TEST(CtrDrbgTest, DistinctSeedsDistinctStreams)
{
    CtrDrbg a(1u);
    CtrDrbg b(2u);
    EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(CtrDrbgTest, SequentialCallsAdvanceState)
{
    CtrDrbg a(7u);
    Bytes first = a.bytes(32);
    Bytes second = a.bytes(32);
    EXPECT_NE(first, second);
}

TEST(CtrDrbgTest, ReseedChangesStream)
{
    CtrDrbg a(7u);
    CtrDrbg b(7u);
    a.bytes(16);
    b.bytes(16);
    a.reseed(Bytes{1, 2, 3});
    EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(CtrDrbgTest, ByteSeedAndIntSeedIndependent)
{
    CtrDrbg a(uint64_t(0));
    CtrDrbg b{ByteView()};
    EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(CtrDrbgTest, BelowStaysInRange)
{
    CtrDrbg a(99u);
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(a.below(17), 17u);
    EXPECT_EQ(a.below(0), 0u);
    EXPECT_EQ(a.below(1), 0u);
}

TEST(CtrDrbgTest, RoughlyUniformBytes)
{
    // Sanity check, not a statistical test: all byte values appear in
    // a 64 KiB stream.
    CtrDrbg a(5u);
    Bytes data = a.bytes(65536);
    bool seen[256] = {};
    for (uint8_t b : data)
        seen[b] = true;
    for (int i = 0; i < 256; ++i)
        EXPECT_TRUE(seen[i]) << "byte value " << i << " never seen";
}

TEST(CtrDrbgTest, StreamIsPinnedOnBothBackends)
{
    // Digests of CtrDrbg(0xd4b6).bytes(n) and the nextU64() after it,
    // recorded from the block-at-a-time filler: the counter-mode fill
    // must keep every byte, the partial last block and V's end value.
    struct Row
    {
        size_t n;
        const char *sha256;
        uint64_t next;
    };
    const Row rows[] = {
        {0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         0x74eba3ee81e4505dULL},
        {1,
         "cfae0d4248f7142f7b17f826cd7a519280e312577690e957830d23dcf35a3fff",
         0xc221e4b02e890864ULL},
        {15,
         "776180000a93ab2400136c1563cc41aac4c675d5fbc09c8aecd26d0bfc9ba2de",
         0xc221e4b02e890864ULL},
        {16,
         "4525dc51e7d1047a15acf7df545fce4a9e5381fdb1ab5a6b0a9f092273559369",
         0xc221e4b02e890864ULL},
        {17,
         "bd8555840a3271595483850aab1df33a4038a60ec1a28e3e7cef85fcc8631a14",
         0x8a31b7e51299500fULL},
        {33,
         "6a72c96230456142f449fd264ab9e3faf5957ac368cf48ef1e122563db400f09",
         0xa731890f8cc4a063ULL},
        {4101,
         "3cf07a249a13dd69e97074ad0107d62e4fd1e2d30f39d26dd66640ead4cb40b8",
         0x64681dd30202d895ULL},
        {(size_t(1) << 20) + 3,
         "66ea405f7f7698a9b29836b4a22d578b158c6a163f78ed295b36992eccdeb6f8",
         0xf2dbf993d7d4254dULL},
    };
    const bool prev = forceScalar();
    for (bool scalar : {false, true}) {
        setForceScalar(scalar);
        for (const Row &row : rows) {
            CtrDrbg rng(uint64_t(0xd4b6));
            Bytes out = rng.bytes(row.n);
            EXPECT_EQ(hexEncode(Sha256::digest(out)), row.sha256)
                << "n=" << row.n << " scalar=" << scalar;
            EXPECT_EQ(rng.nextU64(), row.next)
                << "n=" << row.n << " scalar=" << scalar;
        }
    }
    setForceScalar(prev);
}

TEST(SystemRandomTest, ProducesDifferingBuffers)
{
    SystemRandom sr;
    Bytes a = sr.bytes(32);
    Bytes b = sr.bytes(32);
    EXPECT_NE(a, b);
}

/**
 * @file
 * Tests for common utilities: hex codec, byte helpers, ZeroedBytes,
 * binary serde.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/hex.hpp"
#include "common/serde.hpp"

using namespace salus;

TEST(Hex, RoundtripAndCase)
{
    Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
    EXPECT_EQ(hexEncode(data), "0001abff10");
    EXPECT_EQ(hexDecode("0001ABff10"), data);
    EXPECT_EQ(hexDecode("00 01 ab ff 10"), data);
    EXPECT_EQ(hexDecode(""), Bytes());
}

TEST(Hex, RejectsMalformed)
{
    EXPECT_THROW(hexDecode("0g"), std::invalid_argument);
    EXPECT_THROW(hexDecode("abc"), std::invalid_argument);
}

TEST(BytesUtil, ConcatSliceXor)
{
    Bytes a = {1, 2}, b = {3}, c = {};
    EXPECT_EQ(concatBytes({a, b, c}), (Bytes{1, 2, 3}));

    Bytes big = {10, 20, 30, 40};
    EXPECT_EQ(sliceBytes(big, 1, 2), (Bytes{20, 30}));
    EXPECT_EQ(sliceBytes(big, 4, 0), Bytes());
    EXPECT_THROW(sliceBytes(big, 3, 2), std::out_of_range);
    EXPECT_THROW(sliceBytes(big, 5, 0), std::out_of_range);

    Bytes x = {0xff, 0x0f};
    xorInto(x, Bytes{0x0f, 0x0f});
    EXPECT_EQ(x, (Bytes{0xf0, 0x00}));
    EXPECT_THROW(xorInto(x, Bytes{1}), std::invalid_argument);
}

TEST(BytesUtil, EndianHelpers)
{
    uint8_t buf[8];
    storeBe32(buf, 0x01020304);
    EXPECT_EQ(loadBe32(buf), 0x01020304u);
    EXPECT_EQ(buf[0], 0x01);

    storeLe32(buf, 0x01020304);
    EXPECT_EQ(loadLe32(buf), 0x01020304u);
    EXPECT_EQ(buf[0], 0x04);

    storeBe64(buf, 0x0102030405060708ULL);
    EXPECT_EQ(loadBe64(buf), 0x0102030405060708ULL);
    storeLe64(buf, 0x0102030405060708ULL);
    EXPECT_EQ(loadLe64(buf), 0x0102030405060708ULL);
}

TEST(BytesUtil, SecureZero)
{
    Bytes b = {1, 2, 3};
    secureZero(b);
    EXPECT_EQ(b, (Bytes{0, 0, 0}));
}

TEST(BytesUtil, SecureZeroEdgeLengthsAtUnalignedOffsets)
{
    // Each target range sits at an odd offset inside a larger buffer
    // of nonzero bytes; only the range may change.
    constexpr size_t kGuard = 37;
    for (size_t len : {size_t(0), size_t(1), size_t(7), size_t(15),
                       size_t((1u << 20) + 3)}) {
        for (size_t offset : {size_t(1), size_t(3), size_t(kGuard)}) {
            Bytes buf(offset + len + kGuard);
            for (size_t i = 0; i < buf.size(); ++i)
                buf[i] = uint8_t(i % 251 + 1);
            Bytes before = buf;
            secureZero(buf.data() + offset, len);
            for (size_t i = 0; i < buf.size(); ++i) {
                bool target = i >= offset && i < offset + len;
                ASSERT_EQ(buf[i], target ? 0 : before[i])
                    << "len " << len << " offset " << offset << " byte "
                    << i;
            }
        }
    }
}

TEST(BytesUtil, StringConversion)
{
    Bytes b = bytesFromString("hi");
    EXPECT_EQ(b, (Bytes{'h', 'i'}));
    EXPECT_EQ(stringFromBytes(b), "hi");
}

namespace {

size_t
pageSize()
{
    return size_t(sysconf(_SC_PAGESIZE));
}

/** How many pages of [p, p + n) are resident, by mincore. */
size_t
residentPages(const uint8_t *p, size_t n)
{
    const uintptr_t page = pageSize();
    uintptr_t begin = uintptr_t(p) & ~(page - 1);
    uintptr_t end = (uintptr_t(p) + n + page - 1) & ~(page - 1);
    std::vector<unsigned char> pages((end - begin) / page);
    EXPECT_EQ(mincore(reinterpret_cast<void *>(begin), end - begin,
                      pages.data()),
              0);
    return size_t(std::count_if(pages.begin(), pages.end(),
                                [](unsigned char v) { return v & 1; }));
}

} // namespace

TEST(ZeroedBytes, EveryBufferIsBornWithoutResidentPages)
{
    // Not only the first: a heap calloc recycles the block the last
    // buffer freed and zeroes it by writing, so its later buffers are
    // born with every page resident.
    const size_t kSize = 4 << 20, kWritten = 64 << 10;
    for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE(round);
        ZeroedBytes buf(kSize);
        ASSERT_EQ(buf.size(), kSize);
        EXPECT_LE(residentPages(buf.data(), kSize), 1u);
        std::fill_n(buf.data(), kWritten, uint8_t(0xa5));
        EXPECT_GE(residentPages(buf.data(), kSize), kWritten / pageSize())
            << "mincore does not see the pages just written";
    }
}

TEST(ZeroedBytes, GrowKeepsTheBytesAndZeroFillsTheTail)
{
    // Within the last page and across many pages.
    for (size_t to : {size_t(4000), size_t(3 << 20)}) {
        SCOPED_TRACE(to);
        ZeroedBytes buf(3000);
        for (size_t i = 0; i < buf.size(); ++i)
            buf.data()[i] = uint8_t(i * 7 + 1);
        buf.grow(to);
        ASSERT_EQ(buf.size(), to);
        for (size_t i = 0; i < 3000; ++i)
            ASSERT_EQ(buf.data()[i], uint8_t(i * 7 + 1)) << i;
        EXPECT_TRUE(std::all_of(buf.data() + 3000, buf.data() + to,
                                [](uint8_t b) { return b == 0; }));
    }

    ZeroedBytes buf(16);
    buf.grow(8);
    EXPECT_EQ(buf.size(), 16u) << "grow never shrinks";
}

TEST(ZeroedBytes, MovesOwnership)
{
    ZeroedBytes a(100);
    a.data()[99] = 7;
    const uint8_t *mem = a.data();
    ZeroedBytes b(std::move(a));
    EXPECT_EQ(b.data(), mem);
    EXPECT_EQ(b.data()[99], 7);
    EXPECT_EQ(a.size(), 0u);

    ZeroedBytes c(1);
    c = std::move(b);
    EXPECT_EQ(c.data(), mem);
    EXPECT_EQ(c.size(), 100u);
}

TEST(Serde, WriterReaderRoundtrip)
{
    BinaryWriter w;
    w.writeU8(0xab);
    w.writeU16(0x1234);
    w.writeU32(0xdeadbeef);
    w.writeU64(0x0102030405060708ULL);
    w.writeBytes(Bytes{9, 8, 7});
    w.writeString("salus");
    w.writeRaw(Bytes{0x55});

    BinaryReader r(w.data());
    EXPECT_EQ(r.readU8(), 0xab);
    EXPECT_EQ(r.readU16(), 0x1234);
    EXPECT_EQ(r.readU32(), 0xdeadbeefu);
    EXPECT_EQ(r.readU64(), 0x0102030405060708ULL);
    EXPECT_EQ(r.readBytes(), (Bytes{9, 8, 7}));
    EXPECT_EQ(r.readString(), "salus");
    EXPECT_EQ(r.readRaw(1), Bytes{0x55});
    EXPECT_TRUE(r.atEnd());
}

TEST(Serde, TruncationDetected)
{
    BinaryWriter w;
    w.writeU32(7);
    BinaryReader r(w.data());
    EXPECT_EQ(r.readU32(), 7u);
    EXPECT_THROW(r.readU8(), SerdeError);
}

TEST(Serde, HostileLengthPrefixRejected)
{
    // A length prefix larger than the remaining buffer must throw,
    // not allocate or overread.
    BinaryWriter w;
    w.writeU32(0xffffffffu);
    w.writeRaw(Bytes{1, 2, 3});
    BinaryReader r(w.data());
    EXPECT_THROW(r.readBytes(), SerdeError);

    BinaryReader r2(w.data());
    EXPECT_THROW(r2.readString(), SerdeError);
}

TEST(Serde, EmptyContainersRoundtrip)
{
    BinaryWriter w;
    w.writeBytes(ByteView());
    w.writeString("");
    BinaryReader r(w.data());
    EXPECT_EQ(r.readBytes(), Bytes());
    EXPECT_EQ(r.readString(), "");
    EXPECT_TRUE(r.atEnd());
}

/**
 * @file
 * Netlist model, bitstream compiler, manipulator and encryptor tests —
 * the substrate for Salus's RoT injection (paper §2.3, §4.2).
 */

#include <gtest/gtest.h>

#include <vector>

#include "bitstream/compiler.hpp"
#include "bitstream/crc32.hpp"
#include "bitstream/encryptor.hpp"
#include "bitstream/manipulator.hpp"
#include "common/errors.hpp"
#include "common/hex.hpp"
#include "crypto/backend.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "fpga/device.hpp"
#include "golden.hpp"

using namespace salus;
using namespace salus::netlist;
using namespace salus::bitstream;

namespace {

PartitionGeometry
smallGeometry()
{
    PartitionGeometry g;
    g.partitionId = 0;
    g.frameStart = 100;
    g.frameCount = 256;
    g.frameSize = 64;
    g.capacity = {10000, 20000, 100, 50};
    return g;
}

Netlist
sampleDesign(const std::string &secret = "0123456789abcdef")
{
    Netlist nl("top");
    Cell logic;
    logic.path = "top/engine";
    logic.kind = CellKind::Logic;
    logic.behaviorId = 7;
    logic.resources = {100, 200, 0, 2};
    nl.addCell(logic);

    Cell bram;
    bram.path = "top/secret";
    bram.kind = CellKind::Bram;
    bram.resources = {0, 0, 1, 0};
    bram.init = bytesFromString(secret);
    nl.addCell(bram);
    return nl;
}

} // namespace

// ------------------------------------------------------------ netlist

TEST(Netlist, SerializeRoundtrip)
{
    Netlist nl = sampleDesign();
    Netlist back = Netlist::deserialize(nl.serialize());
    EXPECT_EQ(back.top(), "top");
    ASSERT_EQ(back.cells().size(), 2u);
    EXPECT_EQ(back.cells()[0].path, "top/engine");
    EXPECT_EQ(back.cells()[0].behaviorId, 7u);
    EXPECT_EQ(back.cells()[1].init, bytesFromString("0123456789abcdef"));
    EXPECT_EQ(back.digest(), nl.digest());
}

TEST(Netlist, RejectsDuplicatePathsAndGarbage)
{
    Netlist nl = sampleDesign();
    Cell dup;
    dup.path = "top/engine";
    EXPECT_THROW(nl.addCell(dup), BitstreamError);
    EXPECT_THROW(Netlist::deserialize(Bytes{1, 2, 3}), BitstreamError);
}

TEST(Netlist, ResourceAccounting)
{
    Netlist nl = sampleDesign();
    ResourceVector total = nl.totalResources();
    EXPECT_EQ(total.luts, 100u);
    EXPECT_EQ(total.registers, 200u);
    EXPECT_EQ(total.brams, 1u);
    EXPECT_EQ(total.dsps, 2u);

    EXPECT_EQ(nl.resourcesUnder("top/engine").luts, 100u);
    EXPECT_EQ(nl.resourcesUnder("top/secret").brams, 1u);
    EXPECT_EQ(nl.resourcesUnder("nope").luts, 0u);

    ResourceVector cap{100, 200, 1, 2};
    EXPECT_TRUE(total.fitsWithin(cap));
    cap.brams = 0;
    EXPECT_FALSE(total.fitsWithin(cap));
}

TEST(Netlist, SpanTrackingMatchesSerialization)
{
    Netlist nl = sampleDesign("s3cr3t-contents!");
    std::vector<BramSpan> spans;
    Bytes wire = nl.serializeWithSpans(spans);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].path, "top/secret");
    Bytes extracted(wire.begin() + spans[0].offset,
                    wire.begin() + spans[0].offset + spans[0].length);
    EXPECT_EQ(extracted, bytesFromString("s3cr3t-contents!"));
}

// ------------------------------------------------------------- crc32

namespace {

/** Bit-at-a-time CRC-32, the definition the table and folded
 *  kernels must match. */
uint32_t
referenceCrc32(ByteView data)
{
    uint32_t c = 0xffffffffu;
    for (uint8_t b : data) {
        c ^= b;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

/** Pins every primitive to the scalar path (or not) for one scope,
 *  restoring the prior override on exit. */
struct ScopedForceScalar
{
    bool prev = crypto::forceScalar();
    explicit ScopedForceScalar(bool on) { crypto::setForceScalar(on); }
    ~ScopedForceScalar() { crypto::setForceScalar(prev); }
};

} // namespace

TEST(Crc32, KnownValueAndSensitivity)
{
    // CRC-32("123456789") = 0xcbf43926 (classic check value).
    EXPECT_EQ(crc32(bytesFromString("123456789")), 0xcbf43926u);
    EXPECT_EQ(crc32(ByteView()), 0u);
    EXPECT_NE(crc32(bytesFromString("a")), crc32(bytesFromString("b")));

    // With PCLMULQDQ, 16-byte blocks are folded from 64 bytes on;
    // slice-by-8 takes shorter buffers, the tail and the scalar
    // backend, eight bytes per step and then bytewise. Every
    // alignment and length up to 600 must agree with the bitwise
    // definition on both backends.
    crypto::CtrDrbg rng(uint64_t(0xc3c));
    Bytes buf = rng.bytes(600 + 16);
    std::vector<uint32_t> want;
    for (size_t start = 0; start < 16; ++start)
        for (size_t len = 0; len <= 600; ++len)
            want.push_back(
                referenceCrc32(ByteView(buf.data() + start, len)));
    Bytes big = rng.bytes(size_t(1) << 20);
    const uint32_t bigWant = referenceCrc32(big);
    for (bool scalar : {false, true}) {
        ScopedForceScalar pin(scalar);
        size_t i = 0;
        for (size_t start = 0; start < 16; ++start) {
            for (size_t len = 0; len <= 600; ++len, ++i) {
                ASSERT_EQ(crc32(ByteView(buf.data() + start, len)), want[i])
                    << "scalar=" << scalar << " start=" << start
                    << " len=" << len;
            }
        }
        EXPECT_EQ(crc32(big), bigWant) << "scalar=" << scalar;
    }
}

// ----------------------------------------------------------- compiler

TEST(Compiler, FileSizeDependsOnlyOnGeometry)
{
    // Paper §6.3: "a partial CL bitstream's size is only determined by
    // the area reserved for the CL", regardless of design contents.
    Compiler compiler("dev-x");
    auto small = compiler.compile(sampleDesign("aaaaaaaaaaaaaaaa"),
                                  smallGeometry());
    Netlist bigger = sampleDesign("bbbbbbbbbbbbbbbb");
    Cell extra;
    extra.path = "top/extra";
    extra.kind = CellKind::Logic;
    extra.behaviorId = 9;
    extra.resources = {500, 100, 0, 0};
    bigger.addCell(extra);
    auto big = compiler.compile(bigger, smallGeometry());

    EXPECT_EQ(small.file.size(), big.file.size());
    EXPECT_EQ(small.file.size(),
              Bitstream::fromFile(small.file).body.size() +
                  bitstreamBodyOffset("dev-x") + 4);
}

TEST(Compiler, PlacementIsContentDependent)
{
    Compiler compiler("dev-x");
    auto a = compiler.compile(sampleDesign("aaaaaaaaaaaaaaaa"),
                              smallGeometry());
    auto b = compiler.compile(sampleDesign("cccccccccccccccc"),
                              smallGeometry());
    auto ea = a.logicLocations.find("top/secret");
    auto eb = b.logicLocations.find("top/secret");
    ASSERT_TRUE(ea && eb);
    // Different designs place the BRAM at different offsets, which is
    // why Loc_keyattest must ship per-design (paper §4.2).
    EXPECT_NE(ea->fileOffset, eb->fileOffset);
}

TEST(Compiler, LogicLocationPointsAtInitBytes)
{
    Compiler compiler("dev-x");
    auto out = compiler.compile(sampleDesign("findme-1234567!!"),
                                smallGeometry());
    auto entry = out.logicLocations.find("top/secret");
    ASSERT_TRUE(entry.has_value());
    Bytes atLoc = Manipulator::readCell(out.file, out.logicLocations,
                                        "top/secret");
    EXPECT_EQ(atLoc, bytesFromString("findme-1234567!!"));
}

TEST(Compiler, RejectsOverCapacityDesigns)
{
    Netlist nl = sampleDesign();
    Cell fat;
    fat.path = "top/fat";
    fat.kind = CellKind::Logic;
    fat.behaviorId = 3;
    fat.resources = {1000000, 0, 0, 0};
    nl.addCell(fat);
    Compiler compiler("dev-x");
    EXPECT_THROW(compiler.compile(nl, smallGeometry()), BitstreamError);
}

TEST(Compiler, RejectsDesignsLargerThanPartitionFrames)
{
    Netlist nl("top");
    Cell bram;
    bram.path = "top/huge";
    bram.kind = CellKind::Bram;
    bram.resources = {0, 0, 1, 0};
    bram.init = Bytes(64 * 1024, 0x42); // larger than 16 KiB body
    nl.addCell(bram);
    PartitionGeometry tiny = smallGeometry();
    tiny.frameCount = 16; // 1 KiB
    Compiler compiler("dev-x");
    EXPECT_THROW(compiler.compile(nl, tiny), BitstreamError);
}

TEST(Compiler, ExtractDesignRecoversNetlist)
{
    Compiler compiler("dev-x");
    auto out = compiler.compile(sampleDesign(), smallGeometry());
    Bitstream bs = Bitstream::fromFile(out.file);
    Netlist recovered = extractDesign(bs.body);
    EXPECT_EQ(recovered.digest(), sampleDesign().digest());

    EXPECT_THROW(extractDesign(Bytes(100, 0)), BitstreamError);
}

// ------------------------------------------------------------- format

TEST(BitstreamFormat, ParseValidatesStructure)
{
    Compiler compiler("dev-x");
    auto out = compiler.compile(sampleDesign(), smallGeometry());

    Bitstream bs = Bitstream::fromFile(out.file);
    EXPECT_EQ(bs.deviceModel, "dev-x");
    EXPECT_EQ(bs.frameCount, 256u);
    EXPECT_EQ(bs.frameSize, 64u);

    // CRC corruption is detected.
    Bytes bad = out.file;
    bad[bad.size() / 2] ^= 1;
    EXPECT_THROW(Bitstream::fromFile(bad), BitstreamError);
    EXPECT_FALSE(fileCrcValid(bad));

    // Truncation is detected.
    Bytes trunc(out.file.begin(), out.file.end() - 10);
    EXPECT_THROW(Bitstream::fromFile(trunc), BitstreamError);

    // Wrong magic is detected.
    Bytes magic = out.file;
    magic[0] = 'X';
    refreshFileCrc(magic);
    EXPECT_THROW(Bitstream::fromFile(magic), BitstreamError);
}

// --------------------------------------------------------- manipulator

TEST(Manipulator, PatchCellInjectsAndRepairsCrc)
{
    Compiler compiler("dev-x");
    auto out = compiler.compile(sampleDesign("0000000000000000"),
                                smallGeometry());

    Bytes newSecret = bytesFromString("fresh-rot-keyval");
    Manipulator::patchCell(out.file, out.logicLocations, "top/secret",
                           newSecret);

    // CRC still valid, file parses, and the loaded design sees the
    // new init value -- the whole point of bitstream-level injection.
    EXPECT_TRUE(fileCrcValid(out.file));
    Bitstream bs = Bitstream::fromFile(out.file);
    Netlist recovered = extractDesign(bs.body);
    EXPECT_EQ(recovered.findCell("top/secret")->init, newSecret);
}

TEST(Manipulator, IncrementalCrcMatchesFullRecompute)
{
    // patchCell folds each patch into the CRC word; the word must equal
    // a full recompute after every patch: at offset 0, ending at the
    // last byte before the CRC, unaligned, of length 1 and 4096, and
    // at random places.
    crypto::CtrDrbg rng(uint64_t(0xc7c));
    Bytes file = rng.bytes(5 * 4096 + 37 + 4);
    refreshFileCrc(file);
    const uint64_t end = file.size() - 4;
    std::vector<std::pair<uint64_t, uint32_t>> spans = {
        {0, 1},           {0, 4096},       {end - 1, 1},
        {end - 4096, 4096}, {13, 1},       {4099, 4096},
        {777, 333},       {end - 5, 5},
    };
    for (int i = 0; i < 32; ++i) {
        uint32_t len = 1 + uint32_t(rng.nextU64() % 4096);
        spans.push_back({rng.nextU64() % (end - len + 1), len});
    }
    LogicLocationFile ll;
    for (size_t i = 0; i < spans.size(); ++i)
        ll.add({"cell" + std::to_string(i), spans[i].first,
                spans[i].second});
    for (size_t i = 0; i < spans.size(); ++i) {
        SCOPED_TRACE(std::to_string(spans[i].first) + "+" +
                     std::to_string(spans[i].second));
        Manipulator::patchCell(file, ll, "cell" + std::to_string(i),
                               rng.bytes(spans[i].second));
        Bytes recomputed = file;
        refreshFileCrc(recomputed);
        EXPECT_EQ(loadLe32(file.data() + end),
                  loadLe32(recomputed.data() + end));
    }
    EXPECT_TRUE(fileCrcValid(file));
}

TEST(Crc32, ContinuesAndFoldsDeltas)
{
    crypto::CtrDrbg rng(uint64_t(0xc7d));
    Bytes a = rng.bytes(1000);
    Bytes b = rng.bytes(333);
    EXPECT_EQ(crc32(b, crc32(a)), crc32(concatBytes({a, b})));
    EXPECT_EQ(crc32(Bytes(), crc32(a)), crc32(a));

    // Every split of a message up to 200 bytes, so each side falls on
    // either side of the folded kernel's 64-byte threshold.
    Bytes m200 = rng.bytes(200);
    for (bool scalar : {false, true}) {
        ScopedForceScalar pin(scalar);
        for (size_t la = 0; la <= 200; ++la) {
            for (size_t lb = 0; la + lb <= 200; ++lb) {
                ByteView whole(m200.data(), la + lb);
                ASSERT_EQ(crc32(ByteView(m200.data() + la, lb),
                                crc32(ByteView(m200.data(), la))),
                          referenceCrc32(whole))
                    << "scalar=" << scalar << " a=" << la << " b=" << lb;
            }
        }
    }

    // A delta far from the end: the tail shift runs over 1 MiB.
    Bytes m = rng.bytes((1 << 20) + 64);
    Bytes delta = rng.bytes(48);
    Bytes patched = m;
    for (size_t i = 0; i < delta.size(); ++i)
        patched[5 + i] ^= delta[i];
    uint64_t tail = m.size() - 5 - delta.size();
    EXPECT_EQ(crc32(patched), crc32(m) ^ crc32Delta(delta, tail));
}

TEST(Manipulator, ErrorsOnBadInput)
{
    Compiler compiler("dev-x");
    auto out = compiler.compile(sampleDesign(), smallGeometry());
    const Bytes original = out.file;

    EXPECT_THROW(Manipulator::patchCell(out.file, out.logicLocations,
                                        "top/nothere", Bytes(16)),
                 BitstreamError);
    EXPECT_THROW(Manipulator::patchCell(out.file, out.logicLocations,
                                        "top/secret", Bytes(15)),
                 BitstreamError);

    LogicLocationFile hostile;
    hostile.add({"top/secret", out.file.size() + 10, 16});
    EXPECT_THROW(Manipulator::patchCell(out.file, hostile, "top/secret",
                                        Bytes(16)),
                 BitstreamError);

    // Metadata bytes decode to any 64-bit offset; offset + length
    // must not wrap past the bounds check.
    for (uint64_t offset : {~uint64_t(0), ~uint64_t(0) - 15,
                            ~uint64_t(0) - 8, uint64_t(1) << 63}) {
        LogicLocationFile ll;
        ll.add({"top/secret", offset, 16});
        LogicLocationFile decoded =
            LogicLocationFile::deserialize(ll.serialize());
        ASSERT_EQ(decoded.find("top/secret")->fileOffset, offset);
        EXPECT_THROW(Manipulator::patchCell(out.file, decoded,
                                            "top/secret", Bytes(16)),
                     BitstreamError)
            << offset;
        EXPECT_THROW(
            Manipulator::readCell(out.file, decoded, "top/secret"),
            BitstreamError)
            << offset;
    }
    EXPECT_EQ(out.file, original);

    // A file shorter than its CRC word has no room for any cell, not
    // even an empty one at offset 0.
    for (size_t size = 0; size < 4; ++size) {
        Bytes tiny(size, 0x5a);
        LogicLocationFile ll;
        ll.add({"c", 0, 0});
        EXPECT_THROW(Manipulator::patchCell(tiny, ll, "c", Bytes()),
                     BitstreamError)
            << size;
        EXPECT_THROW(Manipulator::readCell(tiny, ll, "c"), BitstreamError)
            << size;
        EXPECT_EQ(tiny, Bytes(size, 0x5a));
    }
}

TEST(LogicLocation, SerializeRoundtrip)
{
    LogicLocationFile ll;
    ll.add({"a/b/c", 1234, 16});
    ll.add({"d/e", 99, 48});
    LogicLocationFile back =
        LogicLocationFile::deserialize(ll.serialize());
    ASSERT_EQ(back.entries().size(), 2u);
    EXPECT_EQ(back.find("a/b/c")->fileOffset, 1234u);
    EXPECT_EQ(back.find("d/e")->length, 48u);
    EXPECT_FALSE(back.find("nope").has_value());
    EXPECT_THROW(LogicLocationFile::deserialize(Bytes(3, 9)),
                 BitstreamError);
}

// ----------------------------------------------------------- encryptor

class EncryptorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        rng_ = std::make_unique<crypto::CtrDrbg>(uint64_t(77));
        key_ = rng_->bytes(32);
        Compiler compiler("dev-x");
        compiled_ = compiler.compile(sampleDesign(), smallGeometry());
        header_.deviceModel = "dev-x";
        header_.partitionId = 0;
    }

    std::unique_ptr<crypto::CtrDrbg> rng_;
    Bytes key_;
    CompiledDesign compiled_;
    EncryptedHeader header_;
};

TEST_F(EncryptorTest, RoundtripAndHeaderPeek)
{
    Bytes blob =
        encryptBitstream(compiled_.file, key_, header_, *rng_);
    EncryptedHeader peeked = peekEncryptedHeader(blob);
    EXPECT_EQ(peeked.deviceModel, "dev-x");
    EXPECT_EQ(peeked.partitionId, 0u);

    auto plain = decryptBitstream(blob, key_);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(*plain, compiled_.file);
}

TEST_F(EncryptorTest, CiphertextHidesPlaintext)
{
    Bytes blob =
        encryptBitstream(compiled_.file, key_, header_, *rng_);
    // The known plaintext secret must not appear in the ciphertext.
    std::string hay = hexEncode(blob);
    std::string needle = hexEncode(bytesFromString("0123456789abcdef"));
    EXPECT_EQ(hay.find(needle), std::string::npos);
}

TEST_F(EncryptorTest, WrongKeyAndTamperRejected)
{
    Bytes blob =
        encryptBitstream(compiled_.file, key_, header_, *rng_);

    Bytes otherKey = rng_->bytes(32);
    EXPECT_FALSE(decryptBitstream(blob, otherKey).has_value());

    Bytes tampered = blob;
    tampered[tampered.size() / 2] ^= 0x40;
    EXPECT_FALSE(decryptBitstream(tampered, key_).has_value());

    // Header (AAD) tamper also invalidates the whole blob.
    Bytes headerTamper = blob;
    headerTamper[6] ^= 1; // inside deviceModel string
    EXPECT_FALSE(decryptBitstream(headerTamper, key_).has_value());

    EXPECT_FALSE(decryptBitstream(Bytes(10, 1), key_).has_value());
}

TEST_F(EncryptorTest, RequiresAes256Key)
{
    EXPECT_THROW(
        encryptBitstream(compiled_.file, Bytes(16), header_, *rng_),
        CryptoError);
}

TEST_F(EncryptorTest, FreshIvPerEncryption)
{
    Bytes b1 = encryptBitstream(compiled_.file, key_, header_, *rng_);
    Bytes b2 = encryptBitstream(compiled_.file, key_, header_, *rng_);
    EXPECT_NE(b1, b2);
}

TEST(Netlist, ResourcePrefixRespectsHierarchyBoundaries)
{
    Netlist nl("top");
    Cell a;
    a.path = "top/a";
    a.kind = CellKind::Logic;
    a.resources = {1, 0, 0, 0};
    nl.addCell(a);
    Cell ab;
    ab.path = "top/ab";
    ab.kind = CellKind::Logic;
    ab.resources = {10, 0, 0, 0};
    nl.addCell(ab);
    Cell aChild;
    aChild.path = "top/a/child";
    aChild.kind = CellKind::Logic;
    aChild.resources = {100, 0, 0, 0};
    nl.addCell(aChild);

    EXPECT_EQ(nl.resourcesUnder("top/a").luts, 101u);
    EXPECT_EQ(nl.resourcesUnder("top/ab").luts, 10u);
    EXPECT_EQ(nl.resourcesUnder("top").luts, 111u);
}

TEST(Compiler, DeterministicOutput)
{
    // Same design + geometry => bit-identical bitstream and logic
    // locations (required for the digest H workflow: the developer's
    // H must match any reproducing build).
    Compiler compiler("dev-x");
    auto a = compiler.compile(sampleDesign("deterministic!!!"),
                              smallGeometry());
    auto b = compiler.compile(sampleDesign("deterministic!!!"),
                              smallGeometry());
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.logicLocations.serialize(),
              b.logicLocations.serialize());
}

// ------------------------------------------------------- pinned bytes

TEST(Compiler, FileBytesArePinned)
{
    // The compiled file for both device scales, byte for byte: the
    // compiler writes it in place and must keep every byte.
    for (const fpga::DeviceModelInfo &model :
         {fpga::testModel(), fpga::u200ScaledModel()}) {
        SCOPED_TRACE(model.name);
        Bytes file = Compiler(model.name)
                         .compile(sampleDesign(), model.partitions[0])
                         .file;
        test::expectGoldenDigest("compile." + model.name + ".file",
                                 stringFromBytes(file));
    }
}

TEST(Encryptor, BlobBytesArePinned)
{
    fpga::DeviceModelInfo model = fpga::testModel();
    Bytes file = Compiler(model.name)
                     .compile(sampleDesign(), model.partitions[0])
                     .file;
    crypto::CtrDrbg rng(uint64_t(0xb10b));
    Bytes key = rng.bytes(32);
    Bytes blob = encryptBitstream(file, key,
                                  EncryptedHeader{model.name, 0}, rng);
    test::expectGoldenDigest("encrypt." + model.name + ".blob",
                             stringFromBytes(blob));
}

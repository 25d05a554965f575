/**
 * @file
 * FPGA device-model tests: eFUSE, DNA, encrypted/plain configuration,
 * whole-partition overwrite (paper Observation 2), ICAP readback
 * gating (§5.1.2), and behavioural design instantiation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "bitstream/compiler.hpp"
#include "bitstream/encryptor.hpp"
#include "common/errors.hpp"
#include "common/hex.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "fpga/device.hpp"
#include "pcie/transactions.hpp"
#include "shell/shell.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"

using namespace salus;
using namespace salus::fpga;

namespace {

struct Rig
{
    crypto::CtrDrbg rng{uint64_t(123)};
    DeviceModelInfo model = testModel();
    FpgaDevice device{testModel(), DeviceDna{0x1234567890abcULL}};
    Bytes deviceKey;

    Rig()
    {
        ensureBuiltinIps();
        deviceKey = rng.bytes(32);
        device.fuseKey(deviceKey);
    }

    netlist::Netlist
    loopbackDesign(const std::string &secret = "ssssssssssssssss")
    {
        netlist::Netlist nl("cl");
        netlist::Cell logic;
        logic.path = "cl/loop";
        logic.kind = netlist::CellKind::Logic;
        logic.behaviorId = kIpLoopback;
        logic.resources = {10, 10, 0, 0};
        nl.addCell(logic);
        netlist::Cell bram;
        bram.path = "cl/secret";
        bram.kind = netlist::CellKind::Bram;
        bram.resources = {0, 0, 1, 0};
        bram.init = bytesFromString(secret);
        nl.addCell(bram);
        return nl;
    }

    Bytes
    encryptedBlob(const netlist::Netlist &nl)
    {
        bitstream::Compiler compiler(model.name);
        auto compiled = compiler.compile(nl, model.partitions[0]);
        bitstream::EncryptedHeader header{model.name, 0};
        return bitstream::encryptBitstream(compiled.file, deviceKey,
                                           header, rng);
    }
};

} // namespace

TEST(FpgaDevice, EfuseIsOneShot)
{
    FpgaDevice dev(testModel(), DeviceDna{1});
    EXPECT_FALSE(dev.keyFused());
    Bytes key(32, 7);
    dev.fuseKey(key);
    EXPECT_TRUE(dev.keyFused());
    EXPECT_THROW(dev.fuseKey(key), DeviceError);
    EXPECT_THROW(FpgaDevice(testModel(), DeviceDna{2}).fuseKey(Bytes(16)),
                 DeviceError);
}

TEST(FpgaDevice, DnaMaskedTo57Bits)
{
    FpgaDevice dev(testModel(), DeviceDna{~0ULL});
    EXPECT_EQ(dev.dna().value, (uint64_t(1) << 57) - 1);
    EXPECT_EQ(dev.dna().bytes().size(), 8u);
}

TEST(FpgaDevice, EncryptedLoadHappyPath)
{
    Rig rig;
    Bytes blob = rig.encryptedBlob(rig.loopbackDesign());
    EXPECT_EQ(rig.device.loadEncryptedPartial(blob), LoadStatus::Ok);

    LoadedDesign *design = rig.device.design(0);
    ASSERT_NE(design, nullptr);
    EXPECT_EQ(design->design().findCell("cl/secret")->init,
              bytesFromString("ssssssssssssssss"));
    IpBehavior *loop = design->behaviorAt("cl/loop");
    ASSERT_NE(loop, nullptr);
    loop->writeRegister(0x00, 41);
    loop->writeRegister(0x08, 1);
    EXPECT_EQ(loop->readRegister(0x80), 42u);
}

TEST(FpgaDevice, LoadFailureModes)
{
    Rig rig;
    Bytes blob = rig.encryptedBlob(rig.loopbackDesign());

    // No key fused.
    FpgaDevice bare(testModel(), DeviceDna{5});
    EXPECT_EQ(bare.loadEncryptedPartial(blob), LoadStatus::NoKeyFused);

    // Wrong key (different device).
    FpgaDevice other(testModel(), DeviceDna{6});
    crypto::CtrDrbg rng2(uint64_t(9));
    other.fuseKey(rng2.bytes(32));
    EXPECT_EQ(other.loadEncryptedPartial(blob),
              LoadStatus::DecryptFailed);

    // Tampered ciphertext.
    Bytes tampered = blob;
    tampered[tampered.size() - 5] ^= 1;
    EXPECT_EQ(rig.device.loadEncryptedPartial(tampered),
              LoadStatus::DecryptFailed);

    // Garbage blob.
    EXPECT_EQ(rig.device.loadEncryptedPartial(Bytes(64, 3)),
              LoadStatus::MalformedBitstream);

    // Wrong device model in header.
    bitstream::Compiler compiler("some-other-device");
    auto compiled = compiler.compile(
        rig.loopbackDesign(),
        rig.model.partitions[0]);
    bitstream::EncryptedHeader header{"some-other-device", 0};
    Bytes wrongModel = bitstream::encryptBitstream(
        compiled.file, rig.deviceKey, header, rig.rng);
    EXPECT_EQ(rig.device.loadEncryptedPartial(wrongModel),
              LoadStatus::WrongDeviceModel);
}

TEST(FpgaDevice, CleartextLoadWorksForLegacyFlow)
{
    Rig rig;
    bitstream::Compiler compiler(rig.model.name);
    auto compiled = compiler.compile(rig.loopbackDesign(),
                                     rig.model.partitions[0]);
    EXPECT_EQ(rig.device.loadCleartextPartial(compiled.file),
              LoadStatus::Ok);
    EXPECT_NE(rig.device.design(0), nullptr);
}

TEST(FpgaDevice, PartialReconfigOverwritesWholePartition)
{
    // Observation 2: nothing from tenant A's design survives tenant
    // B's load, even cells B doesn't "use".
    Rig rig;
    ASSERT_EQ(rig.device.loadEncryptedPartial(rig.encryptedBlob(
                  rig.loopbackDesign("AAAAAAAAAAAAAAAA"))),
              LoadStatus::Ok);

    ASSERT_EQ(rig.device.loadEncryptedPartial(rig.encryptedBlob(
                  rig.loopbackDesign("BBBBBBBBBBBBBBBB"))),
              LoadStatus::Ok);

    LoadedDesign *design = rig.device.design(0);
    ASSERT_NE(design, nullptr);
    EXPECT_EQ(design->design().findCell("cl/secret")->init,
              bytesFromString("BBBBBBBBBBBBBBBB"));

    // The old secret is gone from configuration memory entirely.
    rig.device.setReadbackEnabled(true);
    Bytes frames = rig.device.readback(0);
    std::string hay(frames.begin(), frames.end());
    EXPECT_EQ(hay.find("AAAAAAAAAAAAAAAA"), std::string::npos);
    EXPECT_NE(hay.find("BBBBBBBBBBBBBBBB"), std::string::npos);
}

TEST(FpgaDevice, ReadbackGateBlocksConfigScan)
{
    Rig rig;
    ASSERT_EQ(rig.device.loadEncryptedPartial(
                  rig.encryptedBlob(rig.loopbackDesign())),
              LoadStatus::Ok);

    // Salus devices ship with readback off (§5.1.2).
    EXPECT_FALSE(rig.device.readbackEnabled());
    EXPECT_THROW(rig.device.readback(0), DeviceError);

    // A legacy ICAP with readback on exposes the configuration -- the
    // attack surface Salus requires the manufacturer to close.
    rig.device.setReadbackEnabled(true);
    Bytes frames = rig.device.readback(0);
    std::string hay(frames.begin(), frames.end());
    EXPECT_NE(hay.find("ssssssssssssssss"), std::string::npos);
}

TEST(FpgaDevice, ClearPartitionRemovesDesign)
{
    Rig rig;
    ASSERT_EQ(rig.device.loadEncryptedPartial(
                  rig.encryptedBlob(rig.loopbackDesign())),
              LoadStatus::Ok);
    ASSERT_NE(rig.device.design(0), nullptr);
    rig.device.clearPartition(0);
    EXPECT_EQ(rig.device.design(0), nullptr);
    EXPECT_THROW(rig.device.clearPartition(42), DeviceError);
}

TEST(FpgaDevice, UnknownBehaviorMakesDesignUnusable)
{
    Rig rig;
    netlist::Netlist nl("cl");
    netlist::Cell logic;
    logic.path = "cl/mystery";
    logic.kind = netlist::CellKind::Logic;
    logic.behaviorId = 0xdead;
    logic.resources = {1, 1, 0, 0};
    nl.addCell(logic);
    EXPECT_EQ(rig.device.loadEncryptedPartial(rig.encryptedBlob(nl)),
              LoadStatus::DesignUnusable);
    EXPECT_EQ(rig.device.design(0), nullptr);
}

TEST(DeviceDram, BoundsChecked)
{
    DeviceDram dram(1024);
    dram.write(0, Bytes{1, 2, 3});
    EXPECT_EQ(dram.read(0, 3), (Bytes{1, 2, 3}));
    dram.write(1021, Bytes{9, 9, 9});
    EXPECT_THROW(dram.write(1022, Bytes{1, 2, 3}), DeviceError);
    EXPECT_THROW(dram.read(1024, 1), DeviceError);
    EXPECT_THROW(dram.read(0, 1025), DeviceError);
}

TEST(ShellTest, RoutesWindowsAndChargesTime)
{
    Rig rig;
    sim::VirtualClock clock;
    sim::CostModel cost; // defaults
    shell::Shell sh(rig.device, clock, cost);

    ASSERT_EQ(sh.deployBitstream(rig.encryptedBlob(rig.loopbackDesign())),
              LoadStatus::Ok);
    EXPECT_GT(clock.now(), 0u);

    // Loopback design has no SM logic; the direct window reaches it,
    // the SM window reads as zero. Direct-window ops cost MMIO
    // latency; SM-window ops go through the driver path.
    sim::Nanos before = clock.now();
    sh.registerWrite(pcie::Window::Direct, 0x00, 7);
    sh.registerWrite(pcie::Window::Direct, 0x08, 8);
    EXPECT_EQ(sh.registerRead(pcie::Window::Direct, 0x80), 15u);
    EXPECT_EQ(sh.registerRead(pcie::Window::SmSecure, 0x80), 0u);
    EXPECT_EQ(clock.now() - before, 3 * cost.mmioLatency + cost.pcieRtt);

    // DMA reaches device DRAM.
    sh.dmaWrite(64, Bytes{5, 6, 7});
    EXPECT_EQ(sh.dmaRead(64, 3), (Bytes{5, 6, 7}));
}

TEST(FpgaDevice, AbortedEncryptedLoadFailsSafe)
{
    // A tampered encrypted load disturbs the partition before the GCM
    // tag check completes (streaming decryption): the device must end
    // up with NO design loaded, never with the previous one still
    // running (fail-safe, not fail-open).
    Rig rig;
    ASSERT_EQ(rig.device.loadEncryptedPartial(rig.encryptedBlob(
                  rig.loopbackDesign("AAAAAAAAAAAAAAAA"))),
              LoadStatus::Ok);
    ASSERT_NE(rig.device.design(0), nullptr);

    Bytes tampered = rig.encryptedBlob(
        rig.loopbackDesign("BBBBBBBBBBBBBBBB"));
    tampered[tampered.size() / 2] ^= 1;
    ASSERT_EQ(rig.device.loadEncryptedPartial(tampered),
              LoadStatus::DecryptFailed);

    EXPECT_EQ(rig.device.design(0), nullptr)
        << "previous design must not survive an aborted load";

    // And the partition's configuration memory really is blank.
    rig.device.setReadbackEnabled(true);
    Bytes frames = rig.device.readback(0);
    for (uint8_t b : frames)
        ASSERT_EQ(b, 0);
}

namespace {

/** What a partition holds after an encrypted load attempt. */
struct LoadOutcome
{
    LoadStatus status;
    bool hasDesign;
    /** "zero", "previous" (the design loaded before the attempt,
     *  byte for byte) or the SHA-256 of the partition's frames. */
    std::string frames;
};

/** One encrypted-load case: builds the blob (and may arm a fault). */
struct LoadCase
{
    const char *name;
    std::function<Bytes(Rig &, sim::FaultInjector &)> blob;
    LoadOutcome expect;
};

/** A bitstream file for `nl` as `deviceModel`'s compiler emits it. */
Bytes
compiledFile(const std::string &deviceModel,
             const bitstream::PartitionGeometry &geometry,
             const netlist::Netlist &nl)
{
    return bitstream::Compiler(deviceModel).compile(nl, geometry).file;
}

Bytes
sealFile(Rig &rig, ByteView file, uint32_t headerPartition = 0)
{
    return bitstream::encryptBitstream(
        file, rig.deviceKey,
        bitstream::EncryptedHeader{rig.model.name, headerPartition},
        rig.rng);
}

std::string
framesLabel(FpgaDevice &device, ByteView previous)
{
    device.setReadbackEnabled(true);
    Bytes frames = device.readback(0);
    device.setReadbackEnabled(false);
    if (std::all_of(frames.begin(), frames.end(),
                    [](uint8_t b) { return b == 0; }))
        return "zero";
    if (ByteView(frames).size() == previous.size() &&
        std::equal(frames.begin(), frames.end(), previous.begin()))
        return "previous";
    return hexEncode(crypto::Sha256::digest(frames));
}

} // namespace

TEST(FpgaDevice, EncryptedLoadOutcomeTable)
{
    // Every way an encrypted load can end, pinned by status, surviving
    // design and the partition's frames afterwards. Each case starts
    // from a partition that already runs a design ("previous"): an
    // envelope or tag failure, or a malformed plaintext, clears it; a
    // well-formed plaintext aimed elsewhere leaves it intact.
    using bitstream::PartitionGeometry;
    auto geometry = [](Rig &rig) { return rig.model.partitions[0]; };
    const std::vector<LoadCase> cases = {
        {"ok",
         [](Rig &rig, sim::FaultInjector &) {
             return rig.encryptedBlob(rig.loopbackDesign("BBBBBBBBBBBBBBBB"));
         },
         {LoadStatus::Ok, true,
          "1e9d5b8df9df10205f76c4f9877f9e06fbeaf9701b0ad54fd93011f2c67b4ca7"}},
        {"tag_byte_flipped",
         [](Rig &rig, sim::FaultInjector &) {
             Bytes blob = rig.encryptedBlob(rig.loopbackDesign());
             blob[blob.size() - 1] ^= 0x80;
             return blob;
         },
         {LoadStatus::DecryptFailed, false, "zero"}},
        {"aad_partition_byte_flipped",
         [](Rig &rig, sim::FaultInjector &) {
             Bytes blob = rig.encryptedBlob(rig.loopbackDesign());
             // "SENC" | u32 len | model | u32 partitionId ...
             blob[4 + 4 + rig.model.name.size()] ^= 0x01;
             return blob;
         },
         {LoadStatus::DecryptFailed, true, "previous"}},
        {"aad_model_byte_flipped",
         [](Rig &rig, sim::FaultInjector &) {
             Bytes blob = rig.encryptedBlob(rig.loopbackDesign());
             blob[4 + 4] ^= 0x01;
             return blob;
         },
         {LoadStatus::WrongDeviceModel, true, "previous"}},
        {"blob_truncated",
         [](Rig &rig, sim::FaultInjector &) {
             Bytes blob = rig.encryptedBlob(rig.loopbackDesign());
             blob.pop_back();
             return blob;
         },
         {LoadStatus::DecryptFailed, false, "zero"}},
        {"blob_trailing_bytes",
         [](Rig &rig, sim::FaultInjector &) {
             Bytes blob = rig.encryptedBlob(rig.loopbackDesign());
             blob.push_back(0);
             return blob;
         },
         {LoadStatus::DecryptFailed, false, "zero"}},
        {"injected_load_fault",
         [](Rig &rig, sim::FaultInjector &fault) {
             rig.device.setFaultInjector(&fault);
             return rig.encryptedBlob(rig.loopbackDesign());
         },
         {LoadStatus::DecryptFailed, false, "zero"}},
        {"plaintext_crc_wrong",
         [geometry](Rig &rig, sim::FaultInjector &) {
             Bytes file = compiledFile(rig.model.name, geometry(rig),
                                       rig.loopbackDesign());
             file.back() ^= 0x01;
             return sealFile(rig, file);
         },
         {LoadStatus::MalformedBitstream, false, "zero"}},
        {"plaintext_magic_wrong",
         [geometry](Rig &rig, sim::FaultInjector &) {
             Bytes file = compiledFile(rig.model.name, geometry(rig),
                                       rig.loopbackDesign());
             file[0] ^= 0x01;
             bitstream::refreshFileCrc(file);
             return sealFile(rig, file);
         },
         {LoadStatus::MalformedBitstream, false, "zero"}},
        {"plaintext_trailing_garbage",
         [geometry](Rig &rig, sim::FaultInjector &) {
             Bytes file = compiledFile(rig.model.name, geometry(rig),
                                       rig.loopbackDesign());
             file.insert(file.end() - 4, 0x00);
             bitstream::refreshFileCrc(file);
             return sealFile(rig, file);
         },
         {LoadStatus::MalformedBitstream, false, "zero"}},
        {"plaintext_too_short",
         [](Rig &rig, sim::FaultInjector &) {
             return sealFile(rig, Bytes{1, 2, 3, 4, 5});
         },
         {LoadStatus::MalformedBitstream, false, "zero"}},
        {"plaintext_model_differs",
         [geometry](Rig &rig, sim::FaultInjector &) {
             return sealFile(rig, compiledFile("xcother-sim", geometry(rig),
                                               rig.loopbackDesign()));
         },
         {LoadStatus::WrongDeviceModel, true, "previous"}},
        {"plaintext_partition_differs",
         [geometry](Rig &rig, sim::FaultInjector &) {
             PartitionGeometry g = geometry(rig);
             g.partitionId = 1;
             return sealFile(rig, compiledFile(rig.model.name, g,
                                               rig.loopbackDesign()));
         },
         {LoadStatus::GeometryMismatch, true, "previous"}},
        {"geometry_frame_start_differs",
         [geometry](Rig &rig, sim::FaultInjector &) {
             PartitionGeometry g = geometry(rig);
             g.frameStart += 1;
             return sealFile(rig, compiledFile(rig.model.name, g,
                                               rig.loopbackDesign()));
         },
         {LoadStatus::GeometryMismatch, true, "previous"}},
        {"geometry_frame_count_differs",
         [geometry](Rig &rig, sim::FaultInjector &) {
             PartitionGeometry g = geometry(rig);
             g.frameCount /= 2;
             return sealFile(rig, compiledFile(rig.model.name, g,
                                               rig.loopbackDesign()));
         },
         {LoadStatus::GeometryMismatch, true, "previous"}},
        {"unusable_design",
         [](Rig &rig, sim::FaultInjector &) {
             netlist::Netlist nl("cl");
             netlist::Cell logic;
             logic.path = "cl/mystery";
             logic.kind = netlist::CellKind::Logic;
             logic.behaviorId = 0xdead;
             logic.resources = {1, 1, 0, 0};
             nl.addCell(logic);
             return rig.encryptedBlob(nl);
         },
         {LoadStatus::DesignUnusable, false,
          "6726065fe67da15244d0ba593acbcd7e6fc08a38290fb5e5cba37f89cf3d5389"}},
    };

    for (const LoadCase &c : cases) {
        SCOPED_TRACE(c.name);
        Rig rig;
        ASSERT_EQ(rig.device.loadEncryptedPartial(rig.encryptedBlob(
                      rig.loopbackDesign("AAAAAAAAAAAAAAAA"))),
                  LoadStatus::Ok);
        rig.device.setReadbackEnabled(true);
        Bytes previous = rig.device.readback(0);
        rig.device.setReadbackEnabled(false);

        sim::VirtualClock clock;
        sim::FaultInjector fault(
            sim::FaultPlan{}.add(sim::FaultRule::bitstreamLoadFail()),
            clock);
        Bytes blob = c.blob(rig, fault);
        LoadStatus status = rig.device.loadEncryptedPartial(blob);
        bool hasDesign = rig.device.design(0) != nullptr;
        std::string frames = framesLabel(rig.device, previous);
        EXPECT_EQ(loadStatusName(status), loadStatusName(c.expect.status));
        EXPECT_EQ(hasDesign, c.expect.hasDesign);
        EXPECT_EQ(frames, c.expect.frames);
    }
}

TEST(FpgaDevice, EncryptedLoadDecryptsEveryChunkIntoTheFrames)
{
    // A partition of several decrypt chunks, the last one partial, at
    // a body offset that is not block-aligned: the frames must hold
    // the file's body byte for byte.
    DeviceModelInfo model = testModel();
    model.name = "xcchunks-sim";
    model.partitions[0].frameCount = 5000; // 320000 bytes
    model.totalFrames = model.partitions[0].frameStart + 5000;
    FpgaDevice device(model, DeviceDna{7});
    crypto::CtrDrbg rng(uint64_t(77));
    Bytes key = rng.bytes(32);
    device.fuseKey(key);

    Rig rig;
    auto compiled = bitstream::Compiler(model.name)
                        .compile(rig.loopbackDesign(), model.partitions[0]);
    Bytes blob = bitstream::encryptBitstream(
        compiled.file, key, bitstream::EncryptedHeader{model.name, 0}, rng);
    ASSERT_EQ(device.loadEncryptedPartial(blob), LoadStatus::Ok);
    ASSERT_NE(device.design(0), nullptr);

    size_t bodyOffset = bitstream::bitstreamBodyOffset(model.name);
    ASSERT_NE(bodyOffset % 16, 0u);
    device.setReadbackEnabled(true);
    EXPECT_EQ(device.readback(0),
              Bytes(compiled.file.begin() + bodyOffset,
                    compiled.file.end() - 4));
}

// ---------------------------------------------------------- frame ECC

namespace {

/** Bit by bit: the definition the folded frameEcc must match. */
FrameEcc
referenceEcc(ByteView frame)
{
    FrameEcc ecc;
    for (size_t j = 0; j < frame.size(); ++j) {
        for (int b = 0; b < 8; ++b) {
            if (frame[j] >> b & 1) {
                ecc.xorIndex ^= uint32_t(8 * j + b + 1);
                ecc.parity ^= 1;
            }
        }
    }
    return ecc;
}

} // namespace

TEST(FrameEccTest, FoldsMatchThePerBitDefinition)
{
    // Whole 64-bit words, a byte tail, all-ones words and words with
    // bit 63 set (whose carry lands in the next word's index).
    crypto::CtrDrbg rng(uint64_t(0xecc));
    std::vector<size_t> sizes = {8,   9,   15,  16,  17,   63,   64,
                                 65,  71,  72,  127, 128,  255,  256,
                                 257, 1000, 1023, 1024};
    for (int i = 0; i < 48; ++i)
        sizes.push_back(8 + size_t(rng.below(1024 - 8 + 1)));
    for (size_t size : sizes) {
        Bytes top = rng.bytes(size);
        for (size_t j = 7; j < size; j += 8)
            top[j] |= 0x80;
        Bytes single(size);
        single[rng.below(size)] = uint8_t(1 << rng.below(8));
        for (const Bytes &frame :
             {rng.bytes(size), Bytes(size, 0xff), top, single, Bytes(size)}) {
            FrameEcc want = referenceEcc(frame);
            FrameEcc got = frameEcc(frame);
            ASSERT_EQ(got.xorIndex, want.xorIndex) << "size " << size;
            ASSERT_EQ(got.parity, want.parity) << "size " << size;
        }
    }
}

TEST(FpgaDevice, ScrubCorrectsEverySingleBitUpsetInAFrame)
{
    Rig rig;
    ASSERT_EQ(rig.device.loadEncryptedPartial(
                  rig.encryptedBlob(rig.loopbackDesign())),
              LoadStatus::Ok);
    rig.device.setReadbackEnabled(true);
    const Bytes clean = rig.device.readback(0);
    const uint64_t frameBits =
        uint64_t(rig.model.partitions[0].frameSize) * 8;
    ASSERT_EQ(frameBits, 512u);
    const uint64_t first = 3 * frameBits; // frame 3
    for (uint64_t bit = first; bit < first + frameBits; ++bit) {
        rig.device.injectSeu(0, bit);
        FpgaDevice::ScrubReport report = rig.device.scrub(0);
        ASSERT_EQ(report.corrected, 1u) << "bit " << bit;
        ASSERT_EQ(report.uncorrectable, 0u) << "bit " << bit;
        ASSERT_EQ(rig.device.readback(0), clean) << "bit " << bit;
    }
    EXPECT_NE(rig.device.design(0), nullptr);
}

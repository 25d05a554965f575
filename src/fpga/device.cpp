#include "fpga/device.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "bitstream/compiler.hpp"
#include "bitstream/crc32.hpp"
#include "bitstream/encryptor.hpp"
#include "common/errors.hpp"
#include "common/log.hpp"
#include "crypto/aes_gcm.hpp"
#include "sim/fault.hpp"

namespace salus::fpga {

const bitstream::PartitionGeometry *
DeviceModelInfo::findPartition(uint32_t partitionId) const
{
    for (const auto &p : partitions) {
        if (p.partitionId == partitionId)
            return &p;
    }
    return nullptr;
}

DeviceModelInfo
u200ScaledModel()
{
    DeviceModelInfo m;
    m.name = "xcu200-sim";
    m.frameSize = 256;
    m.totalFrames = 3 * 131072; // one SLR of three is the RP
    m.dramBytes = 64ull << 20;

    bitstream::PartitionGeometry rp;
    rp.partitionId = 0;
    rp.frameStart = 2 * 131072;
    rp.frameCount = 131072; // 32 MiB partial bitstream (paper scale)
    rp.frameSize = m.frameSize;
    // Paper Table 5 "Total CL Resource" row.
    rp.capacity = {355040, 710080, 696, 2265};
    m.partitions.push_back(rp);
    return m;
}

DeviceModelInfo
testModel()
{
    DeviceModelInfo m;
    m.name = "xctest-sim";
    m.frameSize = 64;
    m.totalFrames = 3072;
    m.dramBytes = 4u << 20;

    bitstream::PartitionGeometry rp;
    rp.partitionId = 0;
    rp.frameStart = 2048;
    rp.frameCount = 1024; // 64 KiB partial bitstream
    rp.frameSize = m.frameSize;
    rp.capacity = {355040, 710080, 696, 2265};
    m.partitions.push_back(rp);
    return m;
}

DeviceModelInfo
testModelMultiRp(uint32_t rpCount)
{
    DeviceModelInfo m;
    m.name = "xctest-multi-sim";
    m.frameSize = 64;
    m.dramBytes = 4u << 20;

    const uint32_t framesPerRp = 1024; // 64 KiB per RP
    const uint32_t staticFrames = 2048;
    m.totalFrames = staticFrames + rpCount * framesPerRp;
    for (uint32_t i = 0; i < rpCount; ++i) {
        bitstream::PartitionGeometry rp;
        rp.partitionId = i;
        rp.frameStart = staticFrames + i * framesPerRp;
        rp.frameCount = framesPerRp;
        rp.frameSize = m.frameSize;
        rp.capacity = {355040, 710080, 696, 2265};
        m.partitions.push_back(rp);
    }
    return m;
}

const char *
loadStatusName(LoadStatus s)
{
    switch (s) {
      case LoadStatus::Ok: return "Ok";
      case LoadStatus::NoKeyFused: return "NoKeyFused";
      case LoadStatus::WrongDeviceModel: return "WrongDeviceModel";
      case LoadStatus::DecryptFailed: return "DecryptFailed";
      case LoadStatus::MalformedBitstream: return "MalformedBitstream";
      case LoadStatus::GeometryMismatch: return "GeometryMismatch";
      case LoadStatus::DesignUnusable: return "DesignUnusable";
      default: return "?";
    }
}

LoadedDesign::LoadedDesign(netlist::Netlist design,
                           const FabricServices &services)
    : design_(std::move(design))
{
    for (const auto &cell : design_.cells()) {
        if (cell.kind != netlist::CellKind::Logic || cell.behaviorId == 0)
            continue;
        behaviors_.emplace_back(
            cell.path,
            IpCatalog::global().instantiate(cell, design_, services));
    }
    for (auto &[path, behavior] : behaviors_)
        behavior->connect(*this);
}

IpBehavior *
LoadedDesign::behaviorAt(const std::string &cellPath)
{
    for (auto &[path, behavior] : behaviors_) {
        if (path == cellPath)
            return behavior.get();
    }
    return nullptr;
}

std::vector<std::string>
LoadedDesign::behaviorPaths() const
{
    std::vector<std::string> out;
    out.reserve(behaviors_.size());
    for (const auto &[path, behavior] : behaviors_)
        out.push_back(path);
    return out;
}

FpgaDevice::FpgaDevice(DeviceModelInfo model, DeviceDna dna)
    : model_(std::move(model)), dna_(dna), dram_(model_.dramBytes),
      configMem_(size_t(model_.totalFrames) * model_.frameSize)
{
    dna_.value &= (uint64_t(1) << 57) - 1;
}

void
FpgaDevice::fuseKey(ByteView key32)
{
    if (keyFused_)
        throw DeviceError("eFUSE key already programmed");
    if (key32.size() != 32)
        throw DeviceError("eFUSE key must be 32 bytes (AES-256)");
    std::memcpy(efuse_, key32.data(), 32);
    keyFused_ = true;
}

namespace {

/** Plaintext is decrypted and checked this many bytes at a time. */
constexpr size_t kPlainChunk = 64 * 1024;

/**
 * The plaintext file inside an authenticated blob, decrypted on demand
 * at any offset: the device never holds the whole file, only what it
 * reads (a header field, a chunk) or writes straight to the frames.
 */
class PlainFile
{
  public:
    PlainFile(const crypto::AesGcm &gcm,
              const bitstream::SealedBitstream &sealed)
        : gcm_(gcm), sealed_(sealed)
    {}

    size_t size() const { return sealed_.ciphertext.size(); }

    void
    read(size_t offset, uint8_t *out, size_t len) const
    {
        gcm_.cryptAt(sealed_.iv, offset,
                     sealed_.ciphertext.data() + offset, out, len);
    }

    uint32_t
    readLe32(size_t offset) const
    {
        uint8_t word[4];
        read(offset, word, 4);
        return loadLe32(word);
    }

    /** CRC-32 of plaintext [0, len), decrypted through a scratch
     *  buffer of at most one chunk. */
    uint32_t
    crc(size_t len) const
    {
        Bytes chunk(std::min(len, kPlainChunk));
        uint32_t crc = 0;
        for (size_t done = 0; done < len; done += chunk.size()) {
            size_t n = std::min(chunk.size(), len - done);
            read(done, chunk.data(), n);
            crc = bitstream::crc32(ByteView(chunk.data(), n), crc);
        }
        secureZero(chunk);
        return crc;
    }

  private:
    const crypto::AesGcm &gcm_;
    const bitstream::SealedBitstream &sealed_;
};

} // namespace

LoadStatus
FpgaDevice::configureFrames(const bitstream::PartitionGeometry &part)
{
    // Record per-frame ECC signatures, as the configuration engine
    // does while writing frames.
    size_t base = size_t(part.frameStart) * part.frameSize;
    size_t len = part.bodyBytes();
    std::vector<FrameEcc> ecc(part.frameCount);
    for (uint32_t f = 0; f < part.frameCount; ++f) {
        ecc[f] = frameEcc(ByteView(configMem_.data() + base +
                                       size_t(f) * part.frameSize,
                                   part.frameSize));
    }
    ecc_[part.partitionId] = std::move(ecc);

    designs_.erase(part.partitionId);
    try {
        netlist::Netlist design = bitstream::extractDesign(
            ByteView(configMem_.data() + base, len));
        FabricServices services{dna_, &dram_};
        designs_[part.partitionId] =
            std::make_unique<LoadedDesign>(std::move(design), services);
    } catch (const SalusError &e) {
        logf(LogLevel::Warn, "fpga", "partition ", part.partitionId,
             " configured but design is unusable: ", e.what());
        return LoadStatus::DesignUnusable;
    }
    return LoadStatus::Ok;
}

const bitstream::PartitionGeometry *
FpgaDevice::matchPartition(uint32_t partitionId, uint32_t frameStart,
                           uint32_t frameCount, uint32_t frameSize) const
{
    const auto *part = model_.findPartition(partitionId);
    if (!part || frameStart != part->frameStart ||
        frameCount != part->frameCount || frameSize != part->frameSize)
        return nullptr;
    return part;
}

LoadStatus
FpgaDevice::loadEncryptedPartial(ByteView blob)
{
    if (!keyFused_)
        return LoadStatus::NoKeyFused;

    bitstream::EncryptedHeader header;
    try {
        header = bitstream::peekEncryptedHeader(blob);
    } catch (const BitstreamError &) {
        return LoadStatus::MalformedBitstream;
    }
    if (header.deviceModel != model_.name)
        return LoadStatus::WrongDeviceModel;

    // Decryption happens inside the fabric; plaintext never leaves
    // this function except into configuration memory. As on real
    // devices, frames stream into the partition while the GCM tag is
    // still pending — an authentication failure aborts the load with
    // the partition already disturbed, so the model clears it
    // (fail-safe: a tampered load can never leave the PREVIOUS design
    // running, let alone a spliced one). The same goes for a plaintext
    // that authenticates but does not parse.
    auto failClosed = [&](LoadStatus status) {
        if (model_.findPartition(header.partitionId))
            clearPartition(header.partitionId);
        return status;
    };

    // A scheduled load fault models a bit flipped in flight: the GCM
    // tag check fails mid-stream, which leaves the partition disturbed
    // and therefore cleared.
    if (fault_ && fault_->onBitstreamLoad(deviceIndex_))
        return failClosed(LoadStatus::DecryptFailed);

    // The model checks the tag over the blob where it lies before any
    // frame is written, then decrypts the body straight into the
    // partition's frames: one pass, no whole-file plaintext anywhere.
    std::optional<bitstream::SealedBitstream> sealed =
        bitstream::parseSealedBitstream(blob);
    crypto::AesGcm gcm(ByteView(efuse_, 32));
    if (!sealed || !gcm.verify(sealed->iv, sealed->aad,
                               sealed->ciphertext, sealed->tag))
        return failClosed(LoadStatus::DecryptFailed);

    const PlainFile plain(gcm, *sealed);
    bitstream::FileHeader file;
    try {
        file = bitstream::parseFileHeader(
            plain.size(), [&plain](size_t off, uint8_t *out, size_t len) {
                plain.read(off, out, len);
            });
    } catch (const BitstreamError &) {
        return failClosed(LoadStatus::MalformedBitstream);
    }
    const size_t crcOffset = plain.size() - 4;

    // The clear header's routing claim is GCM-authenticated; the
    // decrypted bitstream must target the same partition, with the
    // partition's exact geometry.
    const bitstream::PartitionGeometry *part =
        file.partitionId == header.partitionId
            ? matchPartition(file.partitionId, file.frameStart,
                             file.frameCount, file.frameSize)
            : nullptr;
    if (file.deviceModel != model_.name || !part) {
        // A well-formed file for somewhere else is refused with the
        // partition untouched, but only once its CRC holds: a bad CRC
        // is malformed, whatever the header says. No frame is written.
        if (plain.crc(crcOffset) != plain.readLe32(crcOffset))
            return failClosed(LoadStatus::MalformedBitstream);
        return file.deviceModel != model_.name
                   ? LoadStatus::WrongDeviceModel
                   : LoadStatus::GeometryMismatch;
    }

    // The body is exactly the partition, so writing it overwrites
    // every frame (Observation 2). Each chunk is CRC-checked while it
    // is still in cache.
    uint8_t *frames =
        configMem_.data() + size_t(part->frameStart) * part->frameSize;
    const size_t len = part->bodyBytes();
    uint32_t crc = plain.crc(file.bodyOffset);
    for (size_t done = 0; done < len; done += kPlainChunk) {
        size_t n = std::min(kPlainChunk, len - done);
        plain.read(file.bodyOffset + done, frames + done, n);
        crc = bitstream::crc32(ByteView(frames + done, n), crc);
    }
    if (crc != plain.readLe32(crcOffset))
        return failClosed(LoadStatus::MalformedBitstream);
    return configureFrames(*part);
}

LoadStatus
FpgaDevice::loadCleartextPartial(ByteView file)
{
    bitstream::Bitstream bs;
    try {
        bs = bitstream::Bitstream::fromFile(file);
    } catch (const BitstreamError &) {
        return LoadStatus::MalformedBitstream;
    }
    if (bs.deviceModel != model_.name)
        return LoadStatus::WrongDeviceModel;
    const auto *part = matchPartition(bs.partitionId, bs.frameStart,
                                      bs.frameCount, bs.frameSize);
    if (!part)
        return LoadStatus::GeometryMismatch;
    std::memcpy(configMem_.data() +
                    size_t(part->frameStart) * part->frameSize,
                bs.body.data(), part->bodyBytes());
    return configureFrames(*part);
}

Bytes
FpgaDevice::readback(uint32_t partitionId) const
{
    if (!readbackEnabled_) {
        throw DeviceError(
            "ICAP readback is disabled on this device (Salus §5.1.2)");
    }
    const auto *part = model_.findPartition(partitionId);
    if (!part)
        throw DeviceError("no such partition");
    const uint8_t *frames =
        configMem_.data() + size_t(part->frameStart) * part->frameSize;
    return Bytes(frames, frames + part->bodyBytes());
}

LoadedDesign *
FpgaDevice::design(uint32_t partitionId)
{
    applyPendingSeus();
    auto it = designs_.find(partitionId);
    return it == designs_.end() ? nullptr : it->second.get();
}

void
FpgaDevice::applyPendingSeus()
{
    if (!fault_)
        return;
    for (const auto &event : fault_->takePendingSeus(deviceIndex_)) {
        try {
            injectSeu(event.partition, event.bitIndex);
        } catch (const DeviceError &e) {
            logf(LogLevel::Warn, "fpga",
                 "scheduled SEU not applicable: ", e.what());
        }
    }
}

void
FpgaDevice::clearPartition(uint32_t partitionId)
{
    const auto *part = model_.findPartition(partitionId);
    if (!part)
        throw DeviceError("no such partition");
    size_t base = size_t(part->frameStart) * part->frameSize;
    std::memset(configMem_.data() + base, 0, part->bodyBytes());
    designs_.erase(partitionId);
    ecc_.erase(partitionId);
}

namespace {

inline uint32_t
parity(uint64_t v)
{
    return uint32_t(__builtin_parityll(v));
}

} // namespace

FrameEcc
frameEcc(ByteView frameBytes)
{
    // A set bit at position p = 8j + b adds p + 1 to xorIndex. Shift
    // the frame's bit string up by one (word q becomes
    // s_q = w_q << 1 | w_{q-1} >> 63, plus a word q = words holding the
    // last carry): then each set bit i of s_q stands for exactly
    // p + 1 = 64q + i. Bit k < 6 of xorIndex is the parity of the set
    // bits whose i has bit k set, over all words; bit 6 + k is the
    // parity of the set bits of the words whose q has bit k set.
    // Parity is linear, so each is the parity of one XOR fold of words.
    const uint8_t *frame = frameBytes.data();
    const size_t frameSize = frameBytes.size();
    const size_t words = frameSize / 8;
    uint64_t all = 0, bits = 0, carry = 0;
    uint64_t byIndexBit[32] = {}; // frame sizes are 32-bit: q < 2^32
    // Eight words at a time: the low three bits of q are fixed by a
    // word's place in the block, the rest are those of q / 8.
    size_t q = 0;
    for (; q + 8 <= words; q += 8) {
        uint64_t s[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            const uint64_t w = loadLe64(frame + 8 * (q + i));
            s[i] = w << 1 | carry;
            carry = w >> 63;
            bits ^= w;
        }
        const uint64_t odd = s[1] ^ s[3] ^ s[5] ^ s[7];
        const uint64_t block = s[0] ^ s[2] ^ s[4] ^ s[6] ^ odd;
        byIndexBit[0] ^= odd;
        byIndexBit[1] ^= s[2] ^ s[3] ^ s[6] ^ s[7];
        byIndexBit[2] ^= s[4] ^ s[5] ^ s[6] ^ s[7];
        all ^= block;
        for (size_t m = q >> 3; m != 0; m &= m - 1)
            byIndexBit[3 + std::countr_zero(m)] ^= block;
    }
    auto add = [&](size_t index, uint64_t s) {
        all ^= s;
        for (size_t m = index; m != 0; m &= m - 1)
            byIndexBit[std::countr_zero(m)] ^= s;
    };
    for (; q < words; ++q) {
        const uint64_t w = loadLe64(frame + 8 * q);
        add(q, w << 1 | carry);
        carry = w >> 63;
        bits ^= w;
    }
    add(words, carry);

    uint64_t index = parity(all & 0xaaaaaaaaaaaaaaaaULL) |
                     parity(all & 0xccccccccccccccccULL) << 1 |
                     parity(all & 0xf0f0f0f0f0f0f0f0ULL) << 2 |
                     parity(all & 0xff00ff00ff00ff00ULL) << 3 |
                     parity(all & 0xffff0000ffff0000ULL) << 4 |
                     parity(all & 0xffffffff00000000ULL) << 5;
    for (int k = 0; k < int(std::bit_width(words)); ++k)
        index ^= uint64_t(parity(byIndexBit[k])) << (6 + k);
    FrameEcc ecc;
    ecc.xorIndex = uint32_t(index); // positions are taken mod 2^32
    ecc.parity = uint8_t(parity(bits));
    for (size_t byte = 8 * words; byte < frameSize; ++byte) {
        uint8_t v = frame[byte];
        while (v) {
            int bit = __builtin_ctz(v);
            v = uint8_t(v & (v - 1));
            ecc.xorIndex ^= uint32_t(byte * 8 + bit + 1);
            ecc.parity ^= 1;
        }
    }
    return ecc;
}

void
FpgaDevice::injectSeu(uint32_t partitionId, uint64_t bitIndex)
{
    const auto *part = model_.findPartition(partitionId);
    if (!part)
        throw DeviceError("no such partition");
    if (bitIndex >= uint64_t(part->bodyBytes()) * 8)
        throw DeviceError("SEU bit index outside partition");
    size_t base = size_t(part->frameStart) * part->frameSize;
    configMem_.data()[base + bitIndex / 8] ^= uint8_t(1 << (bitIndex % 8));
}

FpgaDevice::ScrubReport
FpgaDevice::scrub(uint32_t partitionId)
{
    const auto *part = model_.findPartition(partitionId);
    if (!part)
        throw DeviceError("no such partition");
    auto eccIt = ecc_.find(partitionId);
    if (eccIt == ecc_.end())
        throw DeviceError("partition has no configured frames to scrub");

    ScrubReport report;
    size_t base = size_t(part->frameStart) * part->frameSize;
    for (uint32_t f = 0; f < part->frameCount; ++f) {
        uint8_t *frame = configMem_.data() + base +
                         size_t(f) * part->frameSize;
        FrameEcc current = frameEcc(ByteView(frame, part->frameSize));
        const FrameEcc &stored = eccIt->second[f];
        ++report.framesScanned;

        uint32_t diff = current.xorIndex ^ stored.xorIndex;
        bool parityFlip = current.parity != stored.parity;
        if (diff == 0 && !parityFlip)
            continue; // clean frame
        if (parityFlip && diff != 0) {
            // Odd number of flips with a located position: correct
            // the single-bit upset in place.
            uint32_t pos = diff - 1;
            if (pos < part->frameSize * 8) {
                frame[pos / 8] ^= uint8_t(1 << (pos % 8));
                if (frameEcc(ByteView(frame, part->frameSize)) ==
                    stored) {
                    ++report.corrected;
                    continue;
                }
            }
        }
        ++report.uncorrectable;
    }

    if (report.uncorrectable > 0) {
        // SEM-IP semantics: multi-bit upsets are fatal for the
        // partition; the design must be reloaded.
        logf(LogLevel::Warn, "fpga", "partition ", partitionId,
             " has uncorrectable configuration errors");
        designs_.erase(partitionId);
    }
    return report;
}

} // namespace salus::fpga

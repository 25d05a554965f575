#include "bitstream/format.hpp"

#include <cstring>

#include "bitstream/crc32.hpp"
#include "common/errors.hpp"
#include "common/serde.hpp"

namespace salus::bitstream {

namespace {

const char kMagic[4] = {'S', 'B', 'I', 'T'};

} // namespace

Bytes
Bitstream::emptyFile() const
{
    size_t bodySize = size_t(frameCount) * frameSize;
    BinaryWriter w;
    w.reserve(bodyOffsetInFile() + bodySize + 4);
    w.writeRaw(ByteView(reinterpret_cast<const uint8_t *>(kMagic), 4));
    w.writeU16(version);
    w.writeString(deviceModel);
    w.writeU32(partitionId);
    w.writeU32(frameStart);
    w.writeU32(frameCount);
    w.writeU32(frameSize);
    w.writeU32(uint32_t(bodySize));
    Bytes file = w.take();
    file.resize(file.size() + bodySize + 4);
    return file;
}

FileHeader
parseFileHeader(size_t fileSize, const FileReader &read)
{
    if (fileSize < 4 + 4)
        throw BitstreamError("file too short");
    // Field by field up to the body, which must then run exactly to
    // the CRC word.
    const size_t end = fileSize - 4;
    size_t pos = 0;
    auto take = [&](void *out, size_t len) {
        if (end - pos < len)
            throw BitstreamError("parse: truncated input");
        read(pos, static_cast<uint8_t *>(out), len);
        pos += len;
    };
    auto u32 = [&] {
        uint8_t b[4];
        take(b, 4);
        return loadLe32(b);
    };
    auto length = [&] {
        uint32_t n = u32();
        if (n > end - pos)
            throw BitstreamError("parse: length prefix exceeds buffer");
        return n;
    };

    uint8_t magic[4];
    take(magic, 4);
    if (std::memcmp(magic, kMagic, 4) != 0)
        throw BitstreamError("bad magic");
    FileHeader h;
    uint8_t version[2];
    take(version, 2);
    h.version = uint16_t(version[0] | (version[1] << 8));
    h.deviceModel.resize(length());
    take(h.deviceModel.data(), h.deviceModel.size());
    h.partitionId = u32();
    h.frameStart = u32();
    h.frameCount = u32();
    h.frameSize = u32();
    uint32_t bodyLen = length();
    if (bodyLen != end - pos)
        throw BitstreamError("trailing garbage");
    if (h.frameSize == 0 ||
        bodyLen != uint64_t(h.frameCount) * h.frameSize)
        throw BitstreamError("body/geometry mismatch");
    h.bodyOffset = pos;
    return h;
}

Bitstream
Bitstream::fromFile(ByteView file)
{
    if (file.size() < 4 + 4)
        throw BitstreamError("file too short");
    if (!fileCrcValid(file))
        throw BitstreamError("CRC mismatch");

    FileHeader h = parseFileHeader(
        file.size(), [file](size_t offset, uint8_t *out, size_t len) {
            std::memcpy(out, file.data() + offset, len);
        });
    Bitstream bs;
    bs.version = h.version;
    bs.deviceModel = std::move(h.deviceModel);
    bs.partitionId = h.partitionId;
    bs.frameStart = h.frameStart;
    bs.frameCount = h.frameCount;
    bs.frameSize = h.frameSize;
    bs.body.assign(file.begin() + h.bodyOffset, file.end() - 4);
    return bs;
}

size_t
bitstreamBodyOffset(const std::string &deviceModel)
{
    // magic(4) + version(2) + deviceModel(4 + n) + partitionId(4) +
    // frameStart(4) + frameCount(4) + frameSize(4) + body length(4)
    return 4 + 2 + 4 + deviceModel.size() + 4 + 4 + 4 + 4 + 4;
}

size_t
Bitstream::bodyOffsetInFile() const
{
    return bitstreamBodyOffset(deviceModel);
}

void
refreshFileCrc(Bytes &file)
{
    if (file.size() < 4)
        throw BitstreamError("file too short for CRC");
    uint32_t crc = crc32(ByteView(file.data(), file.size() - 4));
    storeLe32(file.data() + file.size() - 4, crc);
}

bool
fileCrcValid(ByteView file)
{
    if (file.size() < 4)
        return false;
    uint32_t stored = loadLe32(file.data() + file.size() - 4);
    return crc32(ByteView(file.data(), file.size() - 4)) == stored;
}

} // namespace salus::bitstream

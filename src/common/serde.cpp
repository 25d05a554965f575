#include "common/serde.hpp"

namespace salus {

void
BinaryWriter::writeU8(uint8_t v)
{
    buf_.push_back(v);
}

void
BinaryWriter::writeU16(uint16_t v)
{
    buf_.push_back(uint8_t(v));
    buf_.push_back(uint8_t(v >> 8));
}

void
BinaryWriter::writeU32(uint32_t v)
{
    uint8_t tmp[4];
    storeLe32(tmp, v);
    buf_.insert(buf_.end(), tmp, tmp + 4);
}

void
BinaryWriter::writeU64(uint64_t v)
{
    uint8_t tmp[8];
    storeLe64(tmp, v);
    buf_.insert(buf_.end(), tmp, tmp + 8);
}

void
BinaryWriter::writeRaw(ByteView data)
{
    if (!data.empty())
        buf_.insert(buf_.end(), data.begin(), data.end());
}

void
BinaryWriter::writeBytes(ByteView data)
{
    writeU32(uint32_t(data.size()));
    writeRaw(data);
}

void
BinaryWriter::writeString(const std::string &s)
{
    writeU32(uint32_t(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

const uint8_t *
BinaryReader::need(size_t n)
{
    if (remaining() < n)
        throw SerdeError("truncated input");
    const uint8_t *p = data_.data() + pos_;
    pos_ += n;
    return p;
}

uint8_t
BinaryReader::readU8()
{
    return *need(1);
}

uint16_t
BinaryReader::readU16()
{
    const uint8_t *p = need(2);
    return uint16_t(p[0]) | (uint16_t(p[1]) << 8);
}

uint32_t
BinaryReader::readU32()
{
    return loadLe32(need(4));
}

uint64_t
BinaryReader::readU64()
{
    return loadLe64(need(8));
}

Bytes
BinaryReader::readRaw(size_t n)
{
    const uint8_t *p = need(n);
    return Bytes(p, p + n);
}

Bytes
BinaryReader::readBytes()
{
    ByteView v = readBytesView();
    return Bytes(v.begin(), v.end());
}

ByteView
BinaryReader::readBytesView()
{
    uint32_t n = readU32();
    if (n > remaining())
        throw SerdeError("length prefix exceeds buffer");
    return ByteView(need(n), n);
}

std::string
BinaryReader::readString()
{
    uint32_t n = readU32();
    if (n > remaining())
        throw SerdeError("length prefix exceeds buffer");
    const uint8_t *p = need(n);
    return std::string(p, p + n);
}

} // namespace salus

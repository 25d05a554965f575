/**
 * @file
 * Minimal binary serialization used by RPC messages, bitstream headers,
 * attestation reports and quotes. Little-endian, length-prefixed.
 */

#ifndef SALUS_COMMON_SERDE_HPP
#define SALUS_COMMON_SERDE_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"
#include "common/errors.hpp"

namespace salus {

/** Appends primitive values to an owned byte buffer. */
class BinaryWriter
{
  public:
    BinaryWriter() = default;

    /** Pre-sizes the buffer for a message of known length. */
    void reserve(size_t n) { buf_.reserve(n); }

    void writeU8(uint8_t v);
    void writeU16(uint16_t v);
    void writeU32(uint32_t v);
    void writeU64(uint64_t v);
    /** Writes raw bytes with no length prefix. */
    void writeRaw(ByteView data);
    /** Writes a u32 length prefix followed by the bytes. */
    void writeBytes(ByteView data);
    /** Writes a u32 length prefix followed by the UTF-8 string. */
    void writeString(const std::string &s);

    const Bytes &data() const { return buf_; }
    Bytes take() { return std::move(buf_); }

  private:
    Bytes buf_;
};

/**
 * Reads primitive values back out of a byte view.
 *
 * All read methods throw SerdeError on truncated input, which protocol
 * code treats as a malformed (possibly attacker-corrupted) message.
 */
class BinaryReader
{
  public:
    explicit BinaryReader(ByteView data) : data_(data) {}

    uint8_t readU8();
    uint16_t readU16();
    uint32_t readU32();
    uint64_t readU64();
    /** Reads exactly n raw bytes. */
    Bytes readRaw(size_t n);
    /** Reads a u32 length prefix then that many bytes. */
    Bytes readBytes();
    /** readBytes() as a view into the input, without a copy. */
    ByteView readBytesView();
    /** Reads a u32 length prefix then that many chars. */
    std::string readString();

    /** Bytes not yet consumed. */
    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return remaining() == 0; }

  private:
    const uint8_t *need(size_t n);

    ByteView data_;
    size_t pos_ = 0;
};

/** Thrown when deserialization hits truncated or oversized input. */
class SerdeError : public SalusError
{
  public:
    explicit SerdeError(const std::string &what)
        : SalusError("serde: " + what)
    {}
};

} // namespace salus

#endif // SALUS_COMMON_SERDE_HPP

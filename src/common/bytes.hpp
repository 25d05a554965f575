/**
 * @file
 * Core byte-buffer aliases and helpers used across the code base.
 */

#ifndef SALUS_COMMON_BYTES_HPP
#define SALUS_COMMON_BYTES_HPP

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace salus {

/** Owning byte buffer. */
using Bytes = std::vector<uint8_t>;

/** Non-owning read-only view over bytes. */
using ByteView = std::span<const uint8_t>;

/** Builds a Bytes buffer from a C string (no terminating NUL). */
Bytes bytesFromString(const std::string &s);

/** Renders a byte buffer as a std::string (may contain NULs). */
std::string stringFromBytes(ByteView data);

/** Concatenates any number of byte views into a fresh buffer. */
Bytes concatBytes(std::initializer_list<ByteView> parts);

/** Returns data[offset, offset+len); throws std::out_of_range if OOB. */
Bytes sliceBytes(ByteView data, size_t offset, size_t len);

/** XORs b into a (a ^= b); sizes must match. */
void xorInto(Bytes &a, ByteView b);

/** Overwrites the buffer with zeros (best-effort secure wipe). */
void secureZero(Bytes &b);

/** Overwrites a raw region with zeros (best-effort secure wipe). */
void secureZero(uint8_t *p, size_t n);

/** Reads a big-endian 32-bit word. */
uint32_t loadBe32(const uint8_t *p);

/** Writes a big-endian 32-bit word. */
void storeBe32(uint8_t *p, uint32_t v);

/** Reads a big-endian 64-bit word. */
uint64_t loadBe64(const uint8_t *p);

/** Writes a big-endian 64-bit word. */
void storeBe64(uint8_t *p, uint64_t v);

/** Reads a little-endian 32-bit word. Inline: the CRC-32 and frame
 *  ECC loops call it once per word, and it compiles to one load. */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return uint32_t(p[0]) | (uint32_t(p[1]) << 8) |
           (uint32_t(p[2]) << 16) | (uint32_t(p[3]) << 24);
}

/** Writes a little-endian 32-bit word. */
void storeLe32(uint8_t *p, uint32_t v);

/** Reads a little-endian 64-bit word (inline, like loadLe32). */
inline uint64_t
loadLe64(const uint8_t *p)
{
    return uint64_t(loadLe32(p)) | (uint64_t(loadLe32(p + 4)) << 32);
}

/** Writes a little-endian 64-bit word. */
void storeLe64(uint8_t *p, uint64_t v);

} // namespace salus

#endif // SALUS_COMMON_BYTES_HPP

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

/**
 * Zero-filled storage on pages of its own. It maps anonymous memory
 * rather than asking the heap: the kernel hands out fresh zero pages,
 * so a page that is never written never becomes resident, whatever
 * the process freed before (a heap calloc zeroes recycled memory by
 * writing it, which makes every page resident at birth). Device
 * memories use it, where a model reserves far more than one run
 * touches, and so does the trace recorder's event log, which grows.
 *
 * The size is rounded up to whole pages when mapped; the bytes past
 * size() stay zero as long as nothing writes out of bounds. Because
 * the pages come from mmap, AddressSanitizer does not redzone them:
 * users check their bounds in code.
 */
class ZeroedBytes
{
  public:
    /** @throws std::bad_alloc when the memory is not available. */
    explicit ZeroedBytes(size_t size);
    ~ZeroedBytes();
    ZeroedBytes(ZeroedBytes &&other) noexcept;
    ZeroedBytes &operator=(ZeroedBytes &&other) noexcept;
    ZeroedBytes(const ZeroedBytes &) = delete;
    ZeroedBytes &operator=(const ZeroedBytes &) = delete;

    /** Grows to `size` bytes (no-op when not larger). The contents
     *  stay and the new tail reads zero; the pages are remapped, not
     *  copied, so data() may move.
     *  @throws std::bad_alloc when the memory is not available. */
    void grow(size_t size);

    size_t size() const { return size_; }
    uint8_t *data() { return mem_; }
    const uint8_t *data() const { return mem_; }
    std::span<uint8_t> span() { return {mem_, size_}; }
    ByteView view() const { return {mem_, size_}; }

  private:
    uint8_t *mem_ = nullptr;
    size_t size_ = 0;
};

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

#include "common/bytes.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <stdexcept>
#include <utility>

namespace salus {

namespace {

/** `size` rounded up to whole pages; at least one page, so every
 *  buffer, even an empty one, owns a mapping that grow() can remap. */
size_t
mappedLength(size_t size)
{
    static const size_t kPage = size_t(sysconf(_SC_PAGESIZE));
    return size == 0 ? kPage : (size + kPage - 1) / kPage * kPage;
}

} // namespace

ZeroedBytes::ZeroedBytes(size_t size)
    : size_(size)
{
    void *p = mmap(nullptr, mappedLength(size), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    mem_ = static_cast<uint8_t *>(p);
}

ZeroedBytes::~ZeroedBytes()
{
    if (mem_)
        munmap(mem_, mappedLength(size_));
}

ZeroedBytes::ZeroedBytes(ZeroedBytes &&other) noexcept
    : mem_(std::exchange(other.mem_, nullptr)),
      size_(std::exchange(other.size_, 0))
{
}

ZeroedBytes &
ZeroedBytes::operator=(ZeroedBytes &&other) noexcept
{
    if (this != &other) {
        if (mem_)
            munmap(mem_, mappedLength(size_));
        mem_ = std::exchange(other.mem_, nullptr);
        size_ = std::exchange(other.size_, 0);
    }
    return *this;
}

void
ZeroedBytes::grow(size_t size)
{
    if (size <= size_)
        return;
    size_t from = mappedLength(size_), to = mappedLength(size);
    if (to != from) {
        // An anonymous mapping grows by fresh zero pages; the old ones
        // move by page-table update, not by copy.
        void *p = mremap(mem_, from, to, MREMAP_MAYMOVE);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        mem_ = static_cast<uint8_t *>(p);
    }
    size_ = size;
}

Bytes
bytesFromString(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

std::string
stringFromBytes(ByteView data)
{
    return std::string(data.begin(), data.end());
}

Bytes
concatBytes(std::initializer_list<ByteView> parts)
{
    size_t total = 0;
    for (const auto &p : parts)
        total += p.size();
    Bytes out;
    out.reserve(total);
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

Bytes
sliceBytes(ByteView data, size_t offset, size_t len)
{
    if (offset > data.size() || len > data.size() - offset)
        throw std::out_of_range("sliceBytes: range outside buffer");
    return Bytes(data.begin() + offset, data.begin() + offset + len);
}

void
xorInto(Bytes &a, ByteView b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("xorInto: size mismatch");
    for (size_t i = 0; i < a.size(); ++i)
        a[i] ^= b[i];
}

void
secureZero(uint8_t *p, size_t n)
{
    if (n == 0)
        return; // p may be null (an empty Bytes); memset must not see it
    std::memset(p, 0, n);
    // The empty asm takes p as an input and clobbers memory, so the
    // compiler must assume the zeroed bytes are read afterwards and
    // cannot elide the memset as a dead store (BoringSSL's
    // OPENSSL_cleanse).
    __asm__ __volatile__("" : : "r"(p) : "memory");
}

void
secureZero(Bytes &b)
{
    if (!b.empty())
        secureZero(b.data(), b.size());
}

uint32_t
loadBe32(const uint8_t *p)
{
    return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
           (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}

void
storeBe32(uint8_t *p, uint32_t v)
{
    p[0] = uint8_t(v >> 24);
    p[1] = uint8_t(v >> 16);
    p[2] = uint8_t(v >> 8);
    p[3] = uint8_t(v);
}

uint64_t
loadBe64(const uint8_t *p)
{
    return (uint64_t(loadBe32(p)) << 32) | loadBe32(p + 4);
}

void
storeBe64(uint8_t *p, uint64_t v)
{
    storeBe32(p, uint32_t(v >> 32));
    storeBe32(p + 4, uint32_t(v));
}

void
storeLe32(uint8_t *p, uint32_t v)
{
    p[0] = uint8_t(v);
    p[1] = uint8_t(v >> 8);
    p[2] = uint8_t(v >> 16);
    p[3] = uint8_t(v >> 24);
}

void
storeLe64(uint8_t *p, uint64_t v)
{
    storeLe32(p, uint32_t(v));
    storeLe32(p + 4, uint32_t(v >> 32));
}

} // namespace salus

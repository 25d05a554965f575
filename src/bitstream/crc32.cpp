#include "bitstream/crc32.hpp"

#include "crypto/backend.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SALUS_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace salus::bitstream {

namespace {

/**
 * Slice-by-8 tables: tbl[0] is the classic bytewise table, and
 * tbl[k][b] is the CRC register contribution of byte b followed by k
 * zero bytes, so eight table lookups advance the CRC by eight bytes.
 */
struct Crc32Table
{
    uint32_t tbl[8][256];

    Crc32Table()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            tbl[0][i] = c;
        }
        for (int k = 1; k < 8; ++k)
            for (uint32_t i = 0; i < 256; ++i)
                tbl[k][i] = tbl[0][tbl[k - 1][i] & 0xff] ^
                            (tbl[k - 1][i] >> 8);
    }
};

const Crc32Table kTable;

constexpr uint32_t kPoly = 0xedb88320u; ///< reflected IEEE polynomial

#ifdef SALUS_CRC32_CLMUL

/**
 * Folding constants in the reflected domain: k(n) is x^n mod P,
 * bit-reversed over 32 bits and shifted left by one, so a carry-less
 * product with a 64-bit lane moves that lane n bits further along the
 * message (Intel, "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ"). kFold4 skips 4 x 128 bits, kFold1 skips 128 bits,
 * kFold64 folds 96 bits down to 64, and the Barrett reduction to 32
 * bits takes P (33 bits) and floor(x^64 / P), both reflected.
 */
constexpr uint64_t kFold4Lo = 0x154442bd4;  ///< k(4 * 128 + 32)
constexpr uint64_t kFold4Hi = 0x1c6e41596;  ///< k(4 * 128 - 32)
constexpr uint64_t kFold1Lo = 0x1751997d0;  ///< k(128 + 32)
constexpr uint64_t kFold1Hi = 0x0ccaa009e;  ///< k(128 - 32)
constexpr uint64_t kFold64 = 0x163cd6124;   ///< k(64)
constexpr uint64_t kPolyRefl = 0x1db710641; ///< P, reflected
constexpr uint64_t kMuRefl = 0x1f7011641;   ///< floor(x^64 / P), reflected

__attribute__((target("pclmul,sse2"))) inline __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** acc moved forward by the distance k encodes, XORed onto next. */
__attribute__((target("pclmul,sse2"))) inline __m128i
fold(__m128i acc, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                       _mm_clmulepi64_si128(acc, k, 0x11)),
                         next);
}

/**
 * The CRC register run over n bytes, n >= 64 and a multiple of 16:
 * four 128-bit lanes fold 64 bytes per step, then fold into one lane,
 * take the remaining 16-byte blocks, and reduce 128 -> 64 -> 32 bits
 * (the last step a Barrett reduction).
 */
__attribute__((target("pclmul,sse2"))) uint32_t
updateClmul(uint32_t c, const uint8_t *p, size_t n)
{
    const __m128i k4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
    const __m128i k1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
    __m128i x0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(int(c)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x0 = fold(x0, k4, load128(p));
        x1 = fold(x1, k4, load128(p + 16));
        x2 = fold(x2, k4, load128(p + 32));
        x3 = fold(x3, k4, load128(p + 48));
    }
    __m128i x = fold(fold(fold(x0, k1, x1), k1, x2), k1, x3);
    for (; n >= 16; p += 16, n -= 16)
        x = fold(x, k1, load128(p));

    const __m128i low32 = _mm_set_epi32(0, ~0, 0, ~0);
    // 128 -> 96 bits: the low lane times k(96) onto the high lane.
    x = _mm_xor_si128(_mm_srli_si128(x, 8),
                      _mm_clmulepi64_si128(x, k1, 0x10));
    // 96 -> 64 bits: the low 32 bits times k(64) onto the rest.
    x = _mm_xor_si128(
        _mm_srli_si128(x, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                             _mm_cvtsi64_si128(int64_t(kFold64)), 0x00));
    // Barrett: q = (low 32 bits * mu) mod x^32, remainder = x ^ q * P.
    const __m128i barrett = _mm_set_epi64x(kMuRefl, kPolyRefl);
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    x = _mm_xor_si128(x, q);
    return uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif // SALUS_CRC32_CLMUL

/**
 * Runs the CRC register `c` over the data (no init, no final XOR).
 * With PCLMULQDQ the 16-byte blocks of a buffer of at least 64 bytes
 * are folded; slice-by-8 takes shorter buffers and the tail.
 */
uint32_t
update(uint32_t c, const uint8_t *p, size_t n)
{
#ifdef SALUS_CRC32_CLMUL
    if (n >= 64 && crypto::crc32BackendActive()) {
        const size_t blocks = n & ~size_t(15);
        c = updateClmul(c, p, blocks);
        p += blocks;
        n -= blocks;
    }
#endif
    const auto &t = kTable.tbl;
    for (; n >= 8; n -= 8, p += 8) {
        const uint32_t lo = c ^ loadLe32(p);
        const uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c;
}

/**
 * a * b mod P over GF(2) in the reflected representation (bit 31 is
 * the x^0 coefficient): b is multiplied by x once per coefficient of
 * a, reducing x^32 by the polynomial as it falls off bit 0.
 */
uint32_t
mulModP(uint32_t a, uint32_t b)
{
    uint32_t product = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            product ^= b;
        b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
    }
    return product;
}

/** x^(2^i) mod P for every i a 64-bit exponent needs. */
struct PowerTable
{
    uint32_t x2i[64];

    PowerTable()
    {
        x2i[0] = 1u << 30; // x^1
        for (int i = 1; i < 64; ++i)
            x2i[i] = mulModP(x2i[i - 1], x2i[i - 1]);
    }
};

const PowerTable kPowers;

} // namespace

uint32_t
crc32(ByteView data, uint32_t prior)
{
    return ~update(~prior, data.data(), data.size());
}

uint32_t
crc32Delta(ByteView delta, uint64_t tailBytes)
{
    // For equal-length messages crc32(m) ^ crc32(m ^ d) is the register
    // run from zero over d, and leading zero bytes of d leave it zero.
    // Trailing zero bytes multiply it by x^8 each, so the tail is one
    // multiply by x^(8 * tailBytes), built from the squares table.
    uint32_t shift = 1u << 31; // x^0
    uint64_t bits = tailBytes * 8;
    for (int i = 0; bits != 0; ++i, bits >>= 1) {
        if (bits & 1)
            shift = mulModP(kPowers.x2i[i], shift);
    }
    return mulModP(shift, update(0, delta.data(), delta.size()));
}

} // namespace salus::bitstream

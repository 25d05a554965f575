#include "bitstream/crc32.hpp"

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

/** Runs the CRC register `c` over the data (no init, no final XOR). */
uint32_t
update(uint32_t c, const uint8_t *p, size_t n)
{
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

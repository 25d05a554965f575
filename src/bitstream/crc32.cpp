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

} // namespace

uint32_t
crc32(ByteView data)
{
    const auto &t = kTable.tbl;
    const uint8_t *p = data.data();
    size_t n = data.size();
    uint32_t c = 0xffffffffu;
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
    return c ^ 0xffffffffu;
}

} // namespace salus::bitstream

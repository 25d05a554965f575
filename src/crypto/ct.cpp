#include "crypto/ct.hpp"

namespace salus::crypto {

bool
ctEqual(ByteView a, ByteView b)
{
    if (a.size() != b.size())
        return false;
    uint8_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i)
        acc |= uint8_t(a[i] ^ b[i]);
    return acc == 0;
}

bool
ctEqual64(uint64_t a, uint64_t b)
{
    // d | -d has its top bit set iff d != 0: no branch on the values.
    uint64_t d = a ^ b;
    return ((d | (0 - d)) >> 63) == 0;
}

} // namespace salus::crypto

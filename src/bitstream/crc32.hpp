/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial) as used for bitstream integrity
 * words. Note this is an error-detection code, not a MAC — the
 * manipulator repairs it after patching exactly like real bitstream
 * tooling does, and the threat model never relies on it for security.
 */

#ifndef SALUS_BITSTREAM_CRC32_HPP
#define SALUS_BITSTREAM_CRC32_HPP

#include <cstdint>

#include "common/bytes.hpp"

namespace salus::bitstream {

/**
 * Computes the CRC-32 of the buffer (init 0xffffffff, reflected),
 * continued from `prior`, the CRC of whatever precedes it:
 * crc32(b, crc32(a)) == crc32(a ‖ b), and crc32(a) == crc32(a, 0).
 */
uint32_t crc32(ByteView data, uint32_t prior = 0);

/**
 * The change in a message's CRC-32 when `delta` is XORed into it with
 * `tailBytes` bytes of the message after the changed span:
 * crc32(m ^ d) == crc32(m) ^ crc32Delta(delta, tailBytes). CRC-32 is
 * affine, so this depends only on the delta and where it sits; it
 * costs O(delta.size() + log tailBytes), not a pass over the message.
 */
uint32_t crc32Delta(ByteView delta, uint64_t tailBytes);

} // namespace salus::bitstream

#endif // SALUS_BITSTREAM_CRC32_HPP

/**
 * @file
 * Constant-time comparison helpers. Every MAC/tag/digest comparison in
 * protocol code must go through these, never operator==.
 */

#ifndef SALUS_CRYPTO_CT_HPP
#define SALUS_CRYPTO_CT_HPP

#include "common/bytes.hpp"

namespace salus::crypto {

/**
 * Compares two buffers in time independent of where they differ.
 * @return true iff both have the same length and contents.
 */
bool ctEqual(ByteView a, ByteView b);

/** Compares two 64-bit (truncated) tags in time independent of their
 *  values. */
bool ctEqual64(uint64_t a, uint64_t b);

} // namespace salus::crypto

#endif // SALUS_CRYPTO_CT_HPP

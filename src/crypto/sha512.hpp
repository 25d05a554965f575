/**
 * @file
 * SHA-512 (FIPS 180-4). Required by Ed25519 signatures, which sign the
 * DCAP-style quotes and the ShEF-baseline certificates.
 */

#ifndef SALUS_CRYPTO_SHA512_HPP
#define SALUS_CRYPTO_SHA512_HPP

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace salus::crypto {

/** Digest length of SHA-512 in bytes. */
constexpr size_t kSha512DigestSize = 64;

/** Streaming SHA-512 context. */
class Sha512
{
  public:
    /** Input block and digest lengths in bytes. */
    static constexpr size_t kBlockSize = 128;
    static constexpr size_t kDigestSize = kSha512DigestSize;

    Sha512() { reset(); }

    /** Resets to the initial state. */
    void reset();

    /** Absorbs more message bytes. */
    void update(ByteView data);

    /** Finalizes and returns the 64-byte digest; context then reset. */
    Bytes finish();

    /** Finalizes into out[kDigestSize] without allocating; context
     *  then reset. */
    void finish(uint8_t *out);

    /** One-shot convenience. */
    static Bytes digest(ByteView data);

  private:
    void compress(const uint8_t block[128]);

    std::array<uint64_t, 8> state_;
    uint8_t buf_[128] = {};
    size_t bufLen_;
    uint64_t total_;
};

} // namespace salus::crypto

#endif // SALUS_CRYPTO_SHA512_HPP

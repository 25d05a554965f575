/**
 * @file
 * SHA-256 (FIPS 180-4). Used for enclave measurement (MRENCLAVE),
 * bitstream digests, HKDF, and quote report data.
 */

#ifndef SALUS_CRYPTO_SHA256_HPP
#define SALUS_CRYPTO_SHA256_HPP

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace salus::crypto {

/** Digest length of SHA-256 in bytes. */
constexpr size_t kSha256DigestSize = 32;

/** Streaming SHA-256 context. */
class Sha256
{
  public:
    /** Input block and digest lengths in bytes. */
    static constexpr size_t kBlockSize = 64;
    static constexpr size_t kDigestSize = kSha256DigestSize;

    Sha256() { reset(); }

    /** Resets to the initial state. */
    void reset();

    /** Absorbs more message bytes. */
    void update(ByteView data);

    /** Finalizes and returns the 32-byte digest; context then reset. */
    Bytes finish();

    /** Finalizes into out[kDigestSize] without allocating; context
     *  then reset. */
    void finish(uint8_t *out);

    /** One-shot convenience. */
    static Bytes digest(ByteView data);

  private:
    void compress(const uint8_t block[64]);
    void compressMany(const uint8_t *blocks, size_t n);

    std::array<uint32_t, 8> state_;
    uint8_t buf_[64] = {};
    size_t bufLen_;
    uint64_t total_;
};

} // namespace salus::crypto

#endif // SALUS_CRYPTO_SHA256_HPP

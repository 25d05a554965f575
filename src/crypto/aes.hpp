/**
 * @file
 * AES block cipher (FIPS 197), key sizes 128/192/256.
 *
 * This is the primitive underneath every mode in the repo: CTR (memory
 * and register-channel encryption), GCM (bitstream encryption, data
 * upload), and CMAC (SGX-style local-attestation report MACs).
 */

#ifndef SALUS_CRYPTO_AES_HPP
#define SALUS_CRYPTO_AES_HPP

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace salus::crypto {

/** AES block size in bytes. */
constexpr size_t kAesBlockSize = 16;

/**
 * Expanded-key AES context. Construct once per key, then encrypt or
 * decrypt any number of 16-byte blocks.
 */
class Aes
{
  public:
    /**
     * Expands the key schedule.
     * @param key 16, 24 or 32 bytes.
     * @throws CryptoError on any other key length.
     */
    explicit Aes(ByteView key);

    ~Aes();
    Aes(const Aes &) = delete;
    Aes &operator=(const Aes &) = delete;

    /** Encrypts one 16-byte block (in and out may alias). */
    void encryptBlock(const uint8_t in[16], uint8_t out[16]) const;

    /**
     * Encrypts n independent 16-byte blocks (ECB; in and out may
     * alias). This is the batched-dispatch entry every mode's hot
     * path funnels through: with AES-NI/VAES active the blocks are
     * pipelined 8/16-wide, otherwise they run through the scalar
     * block function one by one.
     */
    void encryptBlocks(const uint8_t *in, uint8_t *out, size_t n) const;

    /**
     * Counter mode over nBlocks whole 16-byte blocks: XORs E_K(ctr),
     * E_K(ctr + 1), ... over in into out (in and out may alias), the
     * counter block read as one 128-bit big-endian integer, and
     * advances ctr past the last counter used. The one counter-mode
     * loop behind AesCtr and GCM: with AES-NI/VAES active it runs the
     * fused kernel that builds the counters in registers, otherwise
     * the scalar block function one counter at a time.
     */
    void ctrXor(uint8_t ctr[16], const uint8_t *in, uint8_t *out,
                size_t nBlocks) const;

    /** Decrypts one 16-byte block (in and out may alias). */
    void decryptBlock(const uint8_t in[16], uint8_t out[16]) const;

    /** Number of rounds (10/12/14). */
    int rounds() const { return rounds_; }

    /** The schedule serialized as bytes, 16 * (rounds() + 1) of them:
     *  the form the raw kernels in crypto/backend_x86.hpp take. */
    const uint8_t *roundKeyBytes() const { return roundKeyBytes_.data(); }

  private:
    void encryptBlockScalar(const uint8_t in[16],
                            uint8_t out[16]) const;

    /** Round keys as 4-byte words, 4*(rounds+1) entries. */
    std::array<uint32_t, 60> roundKeys_{};
    /** The same schedule serialized as bytes (FIPS-197 order) — the
     *  form the AES-NI round instructions consume directly. Expanded
     *  once at construction, cached for the object's lifetime. */
    std::array<uint8_t, 240> roundKeyBytes_{};
    int rounds_;
};

} // namespace salus::crypto

#endif // SALUS_CRYPTO_AES_HPP

/**
 * @file
 * AES-CTR streaming cipher (NIST SP 800-38A).
 *
 * This is the paper's memory-traffic cipher: the CL accelerators add an
 * AES-CTR engine at the memory interface (§6.4), and the DMA channel
 * encrypts payloads with it. The secure register channel (§4.5) does
 * not use this class: its counter blocks are labelled per op, so
 * regchan builds a burst's counter blocks itself and encrypts them in
 * one Aes::encryptBlocks call.
 *
 * Keystream is generated in batches of up to eight blocks per refill
 * (sized to the demand, so short messages never over-generate) and
 * XORed over the data word-wise; with the AES-NI/VAES backend active
 * the batch is a single pipelined multi-block encrypt.
 */

#ifndef SALUS_CRYPTO_AES_CTR_HPP
#define SALUS_CRYPTO_AES_CTR_HPP

#include <optional>

#include "crypto/aes.hpp"

namespace salus::crypto {

/**
 * Streaming CTR context. The 16-byte counter block increments as a
 * 128-bit big-endian integer per encrypted block. Encryption and
 * decryption are the same operation.
 */
class AesCtr
{
  public:
    /** Keystream blocks generated per refill (matches the DMA
     *  double-buffer refill granularity). */
    static constexpr size_t kBatchBlocks = 8;

    /**
     * @param key AES key, 16/24/32 bytes.
     * @param counterBlock initial 16-byte counter block.
     */
    AesCtr(ByteView key, ByteView counterBlock);

    /**
     * Borrows a caller-owned expanded key schedule instead of
     * expanding the key again — the per-session fast path of the
     * register and DMA channels. @p aes must outlive this object.
     */
    AesCtr(const Aes &aes, ByteView counterBlock);

    ~AesCtr();

    /** XORs the keystream over data in place. */
    void crypt(uint8_t *data, size_t len);

    /** Convenience: returns the transformed copy. */
    Bytes crypt(ByteView data);

    /** Skips keystream so independent offsets can be addressed. */
    void seekBlock(uint64_t blockIndex);

  private:
    void init(ByteView counterBlock);
    void refill(size_t wantBytes);

    std::optional<Aes> owned_;
    const Aes *aes_;
    uint8_t counter0_[16];
    uint8_t counter_[16];
    uint8_t keystream_[kBatchBlocks * kAesBlockSize];
    size_t used_;
    size_t avail_;
};

/** One-shot CTR transform. */
Bytes aesCtrCrypt(ByteView key, ByteView counterBlock, ByteView data);

} // namespace salus::crypto

#endif // SALUS_CRYPTO_AES_CTR_HPP

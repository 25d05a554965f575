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
 * Whole blocks go straight through Aes::ctrXor (the fused counter-mode
 * kernel with AES-NI/VAES active); only a partial tail block leaves
 * keystream behind, which the next call uses up first.
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

    std::optional<Aes> owned_;
    const Aes *aes_;
    uint8_t counter0_[16];
    /** Next counter block to encrypt. */
    uint8_t counter_[16];
    /** Keystream of the last partial block; used_ bytes are spent
     *  (kAesBlockSize = none left). */
    uint8_t keystream_[kAesBlockSize];
    size_t used_;
};

/** One-shot CTR transform. */
Bytes aesCtrCrypt(ByteView key, ByteView counterBlock, ByteView data);

} // namespace salus::crypto

#endif // SALUS_CRYPTO_AES_CTR_HPP

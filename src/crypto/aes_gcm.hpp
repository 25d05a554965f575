/**
 * @file
 * AES-GCM authenticated encryption (NIST SP 800-38D).
 *
 * This is the bitstream cipher: the SM enclave encrypts the manipulated
 * CL bitstream with AES-GCM-256 under Key_device (§5.2, xapp1267), and
 * the FPGA's internal decrypt engine opens it. It also protects bulk
 * data uploads from the data owner to the user enclave.
 */

#ifndef SALUS_CRYPTO_AES_GCM_HPP
#define SALUS_CRYPTO_AES_GCM_HPP

#include <optional>

#include "crypto/aes.hpp"

namespace salus::crypto {

/** GCM authentication tag length in bytes. */
constexpr size_t kGcmTagSize = 16;

/** Result of sealing: ciphertext plus authentication tag. */
struct GcmSealed
{
    Bytes ciphertext;
    Bytes tag; ///< 16 bytes.
};

/**
 * Authenticated encryption context for one key. Each seal/open call is
 * independent; the caller supplies a unique IV per seal.
 */
class AesGcm
{
  public:
    /** @param key AES key, 16/24/32 bytes. */
    explicit AesGcm(ByteView key);
    /** Wipes the GHASH key (the Aes destructor wipes the round keys). */
    ~AesGcm();

    /** The expanded key schedule, for callers that run other AES modes
     *  under the same key. */
    const Aes &aes() const { return aes_; }

    /**
     * Encrypts and authenticates.
     * @param iv nonce; 12 bytes is the fast path, other sizes hashed.
     * @param aad additional authenticated (but not encrypted) data.
     */
    GcmSealed seal(ByteView iv, ByteView aad, ByteView plaintext) const;

    /**
     * Verifies and decrypts.
     * @return plaintext, or std::nullopt when the tag does not verify
     *         (the normal "attacker tampered" outcome, not an error).
     */
    std::optional<Bytes> open(ByteView iv, ByteView aad,
                              ByteView ciphertext, ByteView tag) const;

    /**
     * seal() without a copy: encrypts `text` where it lies and writes
     * the tag to `tag` (kGcmTagSize bytes).
     */
    void sealInPlace(ByteView iv, ByteView aad, std::span<uint8_t> text,
                     uint8_t *tag) const;

    /**
     * open() into caller memory: verifies the tag, then decrypts into
     * `out` (ciphertext.size() bytes; may be ciphertext itself).
     * @return false, with `out` untouched, when the tag does not verify.
     */
    bool openInto(ByteView iv, ByteView aad, ByteView ciphertext,
                  ByteView tag, uint8_t *out) const;

    /** The tag check of open() on its own; nothing is decrypted. */
    bool verify(ByteView iv, ByteView aad, ByteView ciphertext,
                ByteView tag) const;

    /**
     * Decrypts (or encrypts: it is the same XOR) the bytes at
     * [offset, offset + len) of a text sealed under `iv`, reading `in`
     * and writing `out` (which may alias). Lets a verified ciphertext
     * be decrypted piece by piece straight to where each piece goes.
     */
    void cryptAt(ByteView iv, uint64_t offset, const uint8_t *in,
                 uint8_t *out, size_t len) const;

    /**
     * White-box seam for counter-wrap KATs: runs the GCM CTR core
     * against an explicit pre-increment counter block J0 (the keystream
     * starts at inc32(J0)), which lets tests pin the 32-bit counter
     * word right below its 2^32 wrap — unreachable through seal(),
     * where J0 is derived from the IV.
     */
    void ctrCryptRaw(const uint8_t j0[16], ByteView in,
                     Bytes &out) const;

  private:
    struct Ghash;
    void deriveCounter0(ByteView iv, uint8_t j0[16]) const;
    void ctrCrypt(const uint8_t j0[16], uint64_t offset, const uint8_t *in,
                  uint8_t *out, size_t len) const;
    void sealTo(ByteView iv, ByteView aad, const uint8_t *in, uint8_t *out,
                size_t len, uint8_t *tag) const;
    void tagOf(const uint8_t j0[16], ByteView aad, ByteView ciphertext,
               uint8_t tag[16]) const;

    Aes aes_;
    uint64_t h_[2]; ///< GHASH key H = E_K(0), big-endian halves.
};

} // namespace salus::crypto

#endif // SALUS_CRYPTO_AES_GCM_HPP

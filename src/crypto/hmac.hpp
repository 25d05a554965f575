/**
 * @file
 * HMAC (RFC 2104) over SHA-256 and SHA-512, plus HKDF (RFC 5869).
 *
 * HMAC-SHA256 authenticates RPC payloads and attestation transcripts;
 * HKDF derives session keys from X25519 shared secrets.
 */

#ifndef SALUS_CRYPTO_HMAC_HPP
#define SALUS_CRYPTO_HMAC_HPP

#include <initializer_list>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace salus::crypto {

/**
 * HMAC keyed once. The constructor absorbs K ^ ipad and K ^ opad into
 * two hash midstates; every mac() starts from copies of them, so a tag
 * costs the message's compressions plus one, not three more. The pads
 * live on the stack and are wiped, and the destructor wipes both
 * midstates (each is key-equivalent).
 */
template <typename Hash>
class Hmac
{
  public:
    /** Tag length in bytes. */
    static constexpr size_t kTagSize = Hash::kDigestSize;

    /** Keys the context; keys longer than one block are hashed. */
    explicit Hmac(ByteView key);
    ~Hmac();
    Hmac(const Hmac &) = delete;
    Hmac &operator=(const Hmac &) = delete;

    /** Writes the tag over the concatenation of `parts` to
     *  out[kTagSize]; no allocation, no copy of the message. */
    void mac(std::initializer_list<ByteView> parts, uint8_t *out) const;

    /** Returns the kTagSize-byte tag over msg. */
    Bytes mac(ByteView msg) const;

  private:
    Hash inner_;
    Hash outer_;
};

extern template class Hmac<Sha256>;
extern template class Hmac<Sha512>;

/** The register, DMA and session channels' MAC. */
using HmacSha256 = Hmac<Sha256>;

/** One-shot HMAC-SHA256; returns a 32-byte tag. */
Bytes hmacSha256(ByteView key, ByteView msg);

/** One-shot HMAC-SHA512; returns a 64-byte tag. */
Bytes hmacSha512(ByteView key, ByteView msg);

/** HKDF-Extract with SHA-256; returns the 32-byte PRK. */
Bytes hkdfExtract(ByteView salt, ByteView ikm);

/**
 * HKDF-Expand with SHA-256.
 * @param prk pseudorandom key from hkdfExtract.
 * @param info context string.
 * @param length output length, at most 255 * 32.
 */
Bytes hkdfExpand(ByteView prk, ByteView info, size_t length);

/** Extract-then-expand convenience. */
Bytes hkdf(ByteView salt, ByteView ikm, ByteView info, size_t length);

} // namespace salus::crypto

#endif // SALUS_CRYPTO_HMAC_HPP

/**
 * @file
 * The secrets Salus injects into the CL bitstream at deployment time
 * (paper §4.2, §4.5): the attestation key (the RoT), the session key
 * material for the transparent register channel, and the session
 * counter base. Each maps to one reserved BRAM cell in the SM logic,
 * patched by the SM enclave via bitstream manipulation.
 */

#ifndef SALUS_SALUS_SECRETS_HPP
#define SALUS_SALUS_SECRETS_HPP

#include "common/bytes.hpp"
#include "crypto/random.hpp"

namespace salus::core {

/** Sizes of the reserved BRAM cells. */
constexpr size_t kKeyAttestSize = 16;  ///< SipHash-2-4 key
constexpr size_t kKeySessionSize = 48; ///< AES-128 key + HMAC key
constexpr size_t kCtrSessionSize = 8;  ///< u64 counter base

/** Conventional cell names inside the SM logic hierarchy. */
extern const char *const kKeyAttestCell;
extern const char *const kKeySessionCell;
extern const char *const kCtrSessionCell;

/** One deployment's freshly generated CL secrets. */
struct ClSecrets
{
    Bytes keyAttest;   ///< 16 bytes, SipHash key (the RoT)
    Bytes keySession;  ///< 48 bytes: AES-128 key(16) + HMAC key(32)
    uint64_t ctrBase = 0;

    /** Generates fresh random secrets (inside the SM enclave). */
    static ClSecrets generate(crypto::RandomSource &rng);

    /** BRAM image of the counter cell. */
    Bytes ctrBytes() const;

    /** SHA-256 over keyAttest || keySession || ctrBase: the identity
     *  of one deployment epoch's secrets. Safe to store and compare
     *  outside the enclave (tombstones, migration tickets) — it
     *  reveals nothing about the keys. */
    Bytes fingerprint() const;

    /** Wipes all key material. */
    void wipe();
};

} // namespace salus::core

#endif // SALUS_SALUS_SECRETS_HPP

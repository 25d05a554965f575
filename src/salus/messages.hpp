/**
 * @file
 * Message formats of the Salus software stack (paper Fig. 7):
 * the bitstream metadata the data owner ships to the user enclave
 * (digest H + Loc_keyattest et al.), and the sealed user<->SM enclave
 * channel that runs over the local-attestation session key.
 */

#ifndef SALUS_SALUS_MESSAGES_HPP
#define SALUS_SALUS_MESSAGES_HPP

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/logic_location.hpp"
#include "common/bytes.hpp"

namespace salus::core {

/**
 * Everything the data owner knows about the expected CL bitstream
 * (produced by the developer, paper §4.2 "application development").
 */
struct ClMetadata
{
    Bytes digestH;        ///< SHA-256 over the raw bitstream file
    Bytes logicLocations; ///< serialized bitstream::LogicLocationFile
    std::string keyAttestPath;
    std::string keySessionPath;
    std::string ctrSessionPath;

    Bytes serialize() const;
    static ClMetadata deserialize(ByteView data);

    /** Digest over the serialized metadata (bound into the final RA
     *  report so the client can confirm which CL was deployed). */
    Bytes digest() const;
};

/** Boot/attestation outcome the SM enclave reports upstream. */
struct ClBootStatus
{
    bool deployed = false;   ///< bitstream verified + loaded
    bool attested = false;   ///< CL attestation succeeded
    std::string failure;     ///< first failing step, empty when ok

    bool ok() const { return deployed && attested; }

    Bytes serialize() const;
    static ClBootStatus deserialize(ByteView data);
};

// ---- SM-enclave crash-recovery journal ------------------------------
//
// The SM enclave's durable state: the deployment on the active device
// and its session slots, sealed to the enclave identity and versioned
// against a platform monotonic counter. The HOST stores the sealed
// blob (untrusted storage); rollback to an earlier version is detected
// at rehydration and refused.

/** One fabric session slot: slot 0 (the base session, keyed by the
 *  injected Key_session) or an opened derived slot. */
struct SmJournalSession
{
    uint32_t slot = 0;
    Bytes keys;             ///< 48-byte key block (AES + MAC keys)
    uint64_t openNonce = 0; ///< nonce a derived slot was opened with
    /** Write-ahead reservations (exclusive): register counters and DMA
     *  sequence numbers below them may already have reached the
     *  fabric, so a restart resumes at or above them. */
    uint64_t regReserved = 0;
    uint64_t dmaReserved = 0;
};

/** The journal record (plaintext form; sealed before storage). */
struct SmJournal
{
    /** Must equal (or exceed by the crash window) the platform
     *  monotonic counter at rehydration; smaller = rollback. */
    uint64_t version = 0;
    uint8_t haveMetadata = 0;
    Bytes metadata; ///< serialized ClMetadata
    /** Per-DNA Key_device cache (dna -> 32-byte key). */
    std::vector<std::pair<uint64_t, Bytes>> deviceKeys;

    // The deployment on the active device.
    uint32_t activeDevice = 0;
    uint8_t deployed = 0;
    uint8_t attested = 0;
    uint8_t haveSecrets = 0;
    Bytes keyAttest;      ///< 16 bytes when haveSecrets
    uint64_t ctrBase = 0; ///< Ctr_session
    uint8_t havePendingRekey = 0;
    Bytes pendingRekeyMacKey;
    uint64_t pendingRekeyNonce = 0;
    /** Slot 0 first, then every opened derived slot; parsing refuses
     *  secrets without slot 0. */
    std::vector<SmJournalSession> sessions;

    /** SHA-256 fingerprints of every retired secret set — the
     *  key-freshness invariant survives SM restarts. */
    std::vector<Bytes> retiredFingerprints;

    Bytes serialize() const;
    /** @throws SerdeError on truncation, bad magic or absurd counts
     *  (fuzz-hardened: attacker-controlled storage feeds this). */
    static SmJournal deserialize(ByteView data);
};

// ---- Sealed enclave-to-enclave channel ------------------------------
//
// AES-GCM under the LA session key with a direction label and a
// sequence number folded into the IV; replayed or reflected messages
// fail to open.

/** Seals one channel message. */
Bytes channelSeal(ByteView sessionKey, const std::string &direction,
                  uint64_t seq, ByteView plaintext);

/** Opens one channel message; nullopt on tamper/replay/reflection. */
std::optional<Bytes> channelOpen(ByteView sessionKey,
                                 const std::string &direction,
                                 uint64_t seq, ByteView sealed);

} // namespace salus::core

#endif // SALUS_SALUS_MESSAGES_HPP

/**
 * @file
 * Wire-level crypto for the two SM protocols that cross the hostile
 * PCIe bus, shared by both endpoints (SM enclave on the host, SM
 * logic in the fabric):
 *
 *  1. CL attestation (paper Fig. 4a): SipHash-2-4 MACs over the nonce
 *     and DeviceDNA under Key_attest.
 *  2. The transparent secure register channel (paper §4.5 / Fig. 5):
 *     AES-128-CTR encrypted register transactions with truncated
 *     HMAC-SHA256 authentication and a strictly increasing session
 *     counter under Key_session / Ctr_session.
 *
 * Everything here is deterministic symmetric crypto — both sides
 * compute the same bytes, which is the whole point of RoT injection.
 */

#ifndef SALUS_SALUS_REG_CHANNEL_HPP
#define SALUS_SALUS_REG_CHANNEL_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/aes.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/hmac.hpp"
#include "salus/secrets.hpp"

namespace salus::core::regchan {

// ---- CL attestation MACs (SipHash under Key_attest) -----------------

/** MAC_req = SipHash(Key_attest, N || DNA). */
uint64_t attestRequestMac(ByteView keyAttest, uint64_t nonce,
                          uint64_t dna);

/** MAC_rsp = SipHash(Key_attest, (N + 1) || DNA). */
uint64_t attestResponseMac(ByteView keyAttest, uint64_t nonce,
                           uint64_t dna);

// ---- Liveness heartbeat (fleet supervision) -------------------------
//
// A MAC'd liveness register exchange under Key_attest: the supervisor
// (via the SM enclave) challenges with a nonce, the SM logic answers
// with its heartbeat count. A shell cannot fabricate the response
// without the injected Key_attest, so a forged "alive" is detected
// and quarantines the device rather than masking its death.

/** Heartbeat challenge MAC = SipHash(Key_attest, N || DNA, 'H'). */
uint64_t heartbeatRequestMac(ByteView keyAttest, uint64_t nonce,
                             uint64_t dna);

/** Heartbeat response MAC = SipHash(Key_attest, (N+1) || DNA || count,
 *  'h') — binds the monotone heartbeat count against replay. */
uint64_t heartbeatResponseMac(ByteView keyAttest, uint64_t nonce,
                              uint64_t dna, uint64_t count);

// ---- Migration tickets (fleet extension) ----------------------------

/** MAC over a migration ticket's bound fields under the CURRENT
 *  deployment's Key_attest: SipHash(Key_attest, from || to || fromDna
 *  || toDna || N || fingerprint, 'M'). The supervisor cannot forge one
 *  and a committed (or otherwise retired) epoch kills the ticket. */
uint64_t migrationTicketMac(ByteView keyAttest, uint32_t fromDevice,
                            uint32_t toDevice, uint64_t fromDna,
                            uint64_t toDna, uint64_t nonce,
                            ByteView sourceFingerprint);

// ---- Secure register channel ----------------------------------------

/** A decrypted register operation. */
struct RegOp
{
    bool isWrite = false;
    uint32_t addr = 0;
    uint64_t data = 0;
};

/** An encrypted register request as it crosses the bus. */
struct SealedRegRequest
{
    uint64_t ctr = 0;  ///< session counter (cleartext, MACed)
    uint64_t ct0 = 0;  ///< ciphertext low half
    uint64_t ct1 = 0;  ///< ciphertext high half
    uint64_t mac = 0;  ///< truncated HMAC over ctr||ct
};

/** An encrypted register response. */
struct SealedRegResponse
{
    uint64_t ct0 = 0;
    uint64_t ct1 = 0;
    uint64_t mac = 0;
};

// ---- Session keys ----------------------------------------------------

/**
 * One session slot's key block (Key_session, or a slot's derived
 * block) with the keys built from it once: the AES half's expanded
 * schedule together with its GHASH key H = E_K(0) (one AesGcm, which
 * runs the CTR keystreams and the DMA plane's GMAC tags) and the keyed
 * HMAC of the register channel. Both channel ends hold one per open
 * slot and seal and open every register and DMA message with it, so no
 * message re-expands a key. This is the only code that splits the
 * block into its AES and HMAC halves. The destructor wipes the block;
 * the AesGcm, Aes and Hmac destructors wipe H, the round keys and the
 * midstates.
 */
class SessionKeys
{
  public:
    /** @throws CryptoError unless `block` is kKeySessionSize long. */
    explicit SessionKeys(ByteView block);
    ~SessionKeys();
    SessionKeys(const SessionKeys &) = delete;
    SessionKeys &operator=(const SessionKeys &) = delete;

    /** The 48-byte block the keys were built from. */
    ByteView block() const { return block_; }
    /** The HMAC half of the block: the re-key KDF's input. */
    ByteView macKey() const;
    const crypto::Aes &aes() const { return gcm_.aes(); }
    /** The AES key with its GHASH key: the DMA plane's sealing key. */
    const crypto::AesGcm &gcm() const { return gcm_; }
    const crypto::HmacSha256 &mac() const { return mac_; }

  private:
    Bytes block_;
    crypto::AesGcm gcm_;
    crypto::HmacSha256 mac_;
};

// Every seal/open entry takes the slot's expanded AES schedule and
// keyed HMAC (a SessionKeys' aes() and mac()), built once when the
// session opens or re-keys, never once per register transaction.

/** Encrypts and MACs a register operation (host side). */
SealedRegRequest sealRequest(const crypto::Aes &aes,
                             const crypto::HmacSha256 &mac, uint64_t ctr,
                             const RegOp &op);

/** Verifies and decrypts a request (fabric side); nullopt = reject. */
std::optional<RegOp> openRequest(const crypto::Aes &aes,
                                 const crypto::HmacSha256 &mac,
                                 const SealedRegRequest &req);

/** Encrypts and MACs a response (fabric side). */
SealedRegResponse sealResponse(const crypto::Aes &aes,
                               const crypto::HmacSha256 &mac, uint64_t ctr,
                               uint8_t status, uint64_t data);

/** Verifies and decrypts a response (host side). */
std::optional<std::pair<uint8_t, uint64_t>>
openResponse(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
             uint64_t ctr, const SealedRegResponse &rsp);

// ---- Batched register bursts (extension) -----------------------------
//
// One sealed burst carries N register operations under ONE counter
// stride and ONE truncated HMAC: op i is encrypted with the one-block
// AES-CTR keystream at counter ctrBase + i, and the MAC covers the
// session id, the stride base, the op count and every ciphertext
// block. The fabric accepts a burst only when ctrBase is strictly
// above the session's last consumed counter and advances the counter
// to ctrBase + count - 1 on success, so no individual op — and no
// whole burst — can ever be replayed. Each op plaintext is exactly
// one AES block, which lets both endpoints crypt a burst in place in
// one keystream pass per burst, with no intermediate copies.

/** Bytes per encrypted batch element (one AES block). */
constexpr size_t kRegBatchBlock = 16;
/** Most ops one sealed burst may carry (fabric buffer bound). */
constexpr size_t kMaxBatchOps = 256;

/** Per-op outcome carried in a batch response block. */
struct BatchResult
{
    uint8_t status = 0; ///< 0 ok; accelerator/channel codes otherwise
    uint64_t data = 0;  ///< read result (0 for writes)
};

/** An encrypted register burst as it crosses the bus. */
struct SealedRegBatch
{
    uint32_t sessionId = 0; ///< fabric session slot (cleartext, MACed)
    uint64_t ctrBase = 0;   ///< first counter of the stride
    Bytes payload;          ///< count x 16-byte ciphertext blocks
    uint64_t mac = 0;       ///< truncated HMAC over the whole burst
    size_t count() const { return payload.size() / kRegBatchBlock; }
};

/** An encrypted burst response (same stride, response direction). */
struct SealedBatchResponse
{
    Bytes payload;
    uint64_t mac = 0;
    size_t count() const { return payload.size() / kRegBatchBlock; }
};

// In-place burst primitives. The fabric decrypts a whole burst in
// its input buffer in one keystream pass, executes the ops in order,
// encodes the results into the output buffer and encrypts that in one
// more pass — no plaintext vector is materialised.

/** En/decrypts `count` consecutive 16-byte batch blocks in place:
 *  block i with the one-block keystream at counter ctrBase + i
 *  (request or response direction). One AES call per burst. */
void cryptBatchBlocks(const crypto::Aes &aes, bool response,
                      uint64_t ctrBase, uint8_t *blocks, size_t count);

/** cryptBatchBlocks with count 1 (salus_bench/tenant_regchan.cpp
 *  replays the fabric's per-op crypt with it). */
void cryptBatchBlock(const crypto::Aes &aes, bool response, uint64_t ctr,
                     uint8_t *block);

/** Serializes an op into a 16-byte plaintext block (and back). */
void encodeBatchOp(const RegOp &op, uint8_t *block);
RegOp decodeBatchOp(const uint8_t *block);

/** Serializes a per-op result into a 16-byte block (and back). */
void encodeBatchResult(uint8_t status, uint64_t data, uint8_t *block);
BatchResult decodeBatchResult(const uint8_t *block);

/** Truncated HMAC over sessionId || ctrBase || count || payload with
 *  direction separation (request vs. response). */
uint64_t batchMac(const crypto::HmacSha256 &mac, uint32_t sessionId,
                  uint64_t ctrBase, ByteView payload, bool response);
/** Keys the HMAC for the one call (salus_bench/tenant_regchan.cpp). */
uint64_t batchMac(ByteView macKey, uint32_t sessionId, uint64_t ctrBase,
                  ByteView payload, bool response);

/** Seals a burst of ops (host side). */
SealedRegBatch sealBatch(const crypto::Aes &aes,
                         const crypto::HmacSha256 &mac, uint32_t sessionId,
                         uint64_t ctrBase, const std::vector<RegOp> &ops);
/** Keys the HMAC for the one call (salus_bench/tenant_regchan.cpp). */
SealedRegBatch sealBatch(const crypto::Aes &aes, ByteView macKey,
                         uint32_t sessionId, uint64_t ctrBase,
                         const std::vector<RegOp> &ops);

/** Verifies and decrypts a burst (fabric side); nullopt = reject.
 *  Rejects empty, oversize, misaligned and counter-wrapping bursts
 *  before touching any crypto. */
std::optional<std::vector<RegOp>> openBatch(const crypto::Aes &aes,
                                            const crypto::HmacSha256 &mac,
                                            const SealedRegBatch &batch);

/** Seals the per-op results of a burst (fabric side). */
SealedBatchResponse
sealBatchResponse(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
                  uint32_t sessionId, uint64_t ctrBase,
                  const std::vector<BatchResult> &results);

/** Verifies and decrypts a burst response (host side). */
std::optional<std::vector<BatchResult>>
openBatchResponse(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
                  uint32_t sessionId, uint64_t ctrBase,
                  size_t expectCount, const SealedBatchResponse &rsp);
/** Keys the HMAC for the one call (salus_bench/tenant_regchan.cpp). */
std::optional<std::vector<BatchResult>>
openBatchResponse(const crypto::Aes &aes, ByteView macKey,
                  uint32_t sessionId, uint64_t ctrBase,
                  size_t expectCount, const SealedBatchResponse &rsp);

// ---- Multi-session key fan-out (extension) ---------------------------
//
// The SM enclave multiplexes several user-enclave sessions over one
// deployed CL. Slot 0 is the bitstream-injected base session; every
// further slot's keys are derived on both ends from the CURRENT base
// session key material and a strictly increasing open nonce, so slots
// never share keystreams and a compromised tenant session reveals
// nothing about any other.

/** MAC authorizing a session-open command under the CURRENT base
 *  session's keyed HMAC. */
uint64_t sessionOpenMac(const crypto::HmacSha256 &baseMac, uint32_t slot,
                        uint64_t nonce);

/** Derives a slot's 48-byte session key block (AES-128 key + HMAC
 *  key) from the base 48-byte session key block and the open nonce.
 *  Deterministic: both ends converge. */
Bytes deriveSlotSessionKeys(ByteView baseKeySession, uint32_t slot,
                            uint64_t nonce);

// ---- Session re-keying (extension) -----------------------------------
//
// Both ends can roll the channel keys forward from a MACed nonce:
// new keys = KDF(old MAC key, nonce). Compromise of a *future* key
// state never reveals traffic sent before the roll.

/** MAC authorizing a re-key request under the CURRENT keyed HMAC. */
uint64_t rekeyMac(const crypto::HmacSha256 &mac, uint64_t ctr,
                  uint64_t nonce);

/** Derives the next 48-byte session key block from the current MAC
 *  key (SessionKeys::macKey()) and the re-key nonce. Deterministic:
 *  both ends converge. */
Bytes deriveRekeyedKeys(ByteView oldMacKey, uint64_t nonce);

} // namespace salus::core::regchan

#endif // SALUS_SALUS_REG_CHANNEL_HPP

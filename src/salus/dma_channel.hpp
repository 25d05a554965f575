/**
 * @file
 * The bulk-data side of the paper's memory channel: AES-CTR-encrypted
 * DMA descriptors with scatter-gather lists, sealed with one truncated
 * GMAC tag each, pushed through a sliding-window protocol so crypto for
 * descriptor N overlaps transport for descriptor N-1.
 *
 * Wire format ("SDMA" v1, little-endian):
 *
 *   offset  size  field
 *        0     4  magic 0x53444d41 ("SDMA")
 *        4     1  version (1)
 *        5     1  flags: bit0 = read (gather), bit1 = sync
 *        6     2  sgCount
 *        8     4  sessionId (fabric session slot)
 *       12     4  encodedLen (whole descriptor incl. trailing MAC)
 *       16     8  seq       (per-slot descriptor sequence number)
 *       24     8  ctrBase   (must equal seq * kDmaCtrStride)
 *       32     8  respAddr  (reads: DRAM address for the sealed reply)
 *       40  12*n  sg entries (u64 addr, u32 len)
 *         +  ...  payload ciphertext (writes; absent for reads)
 *         +    8  mac = truncated GMAC over every preceding byte
 *
 * Every tag (descriptor, read response, cumulative ack) is the first
 * 8 bytes of AES-GMAC under the slot's AES key: GHASH under
 * H = E_K(0^128) over the whole message as GCM's additional data,
 * masked with E_K(J0), exactly GCM's tag over an empty text. The
 * 12-byte IV is a 4-byte label per message kind ("GDSC" descriptor,
 * "GRSP" read response, "GACK" ack) || LE64(seq), so J0 = IV ||
 * BE32(1). Every CTR counter block under the same key starts with an
 * 8-byte label beginning "S" ("SDMAWRIT", "SDMAREAD", "SREGCHAN",
 * "SRSPCHAN", "SREGBRST", "SRSPBRST"), so no J0, and not the all-zero
 * block behind H, is ever a keystream block. A GMAC nonce must never
 * tag two different messages: descriptors are sealed once per seq
 * (the host reserves seqs write-ahead and retransmits identical
 * bytes), a response once per applied seq, and an ack's message is a
 * function of its ackSeq.
 *
 * Replay resistance comes from binding the AES counter stride to the
 * sequence number: ctrBase MUST equal seq * kDmaCtrStride, the MAC
 * covers both, the fabric applies each seq at most once and its
 * cumulative ack only ever moves forward. Counter strides across
 * applied descriptors are therefore strictly increasing, and a
 * replayed descriptor is dead on arrival whatever the interleaving.
 * Retransmits resend the *identical* ciphertext (no keystream reuse).
 *
 * The sync flag (MAC-covered) lets the host re-synchronise the
 * fabric's expected sequence forward after a crash-recovery gap; the
 * fabric only ever accepts a forward jump, so a replayed sync
 * descriptor cannot rewind the window.
 */

#ifndef SALUS_SALUS_DMA_CHANNEL_HPP
#define SALUS_SALUS_DMA_CHANNEL_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/aes.hpp"
#include "crypto/aes_gcm.hpp"
#include "salus/sim_hooks.hpp"

namespace salus::core::dmachan {

/** AES block size — the unit the counter stride is denominated in. */
constexpr size_t kDmaBlock = 16;
/** Most scatter-gather entries one descriptor may carry. */
constexpr size_t kDmaMaxSg = 64;
/** Most payload bytes one descriptor may carry. */
constexpr size_t kDmaMaxPayload = size_t(1) << 20;
/** Counter blocks reserved per sequence number (1 MiB / 16 B). Every
 *  descriptor's ctrBase is seq * this, which pins the keystream to
 *  the sequence number; the strides are disjoint only below
 *  kDmaMaxSeq. */
constexpr uint64_t kDmaCtrStride = kDmaMaxPayload / kDmaBlock;
/** Largest sliding window either end will entertain (fabric reorder
 *  buffer bound == host in-flight bound). */
constexpr size_t kDmaMaxWindow = 16;
/**
 * First sequence number neither end accepts. A payload's counter
 * block is label || LE64(seq * kDmaCtrStride), stepped per block as
 * one big-endian 128-bit integer, so the block index lands in bytes
 * 14-15 — the bytes that hold seq bits 32-47. Below 2^32 those bytes
 * start at zero and every (seq, block) pair has its own counter
 * block; past it, block 256 of seq s would equal block 0 of seq
 * s + 2^32.
 */
constexpr uint64_t kDmaMaxSeq = uint64_t(1) << 32;

/** Descriptor flag bits. */
constexpr uint8_t kDmaFlagRead = 0x01;
constexpr uint8_t kDmaFlagSync = 0x02;

/** Fixed wire-format sizes (shared by host, fabric and fuzzers). */
constexpr size_t kDmaHeaderBytes = 40;
constexpr size_t kDmaSgEntryBytes = 12;
constexpr size_t kDmaRespHeaderBytes = 28;
/** Read-response blob size for a given gather length. */
constexpr size_t kDmaRespOverhead = kDmaRespHeaderBytes + 8;
/** Upper bound on any encoded descriptor. */
constexpr size_t kDmaMaxEncoded = kDmaHeaderBytes +
                                  kDmaMaxSg * kDmaSgEntryBytes +
                                  kDmaMaxPayload + 8;

/** Encoded wire size of a descriptor carrying `sgCount` entries and
 *  `payloadBytes` of ciphertext (0 for gathers): header + sg list +
 *  payload + trailing MAC. Shared by the encoder and the window
 *  engine's wire-time charge so the two cannot drift. */
constexpr size_t
dmaEncodedSize(size_t sgCount, size_t payloadBytes)
{
    return kDmaHeaderBytes + sgCount * kDmaSgEntryBytes + payloadBytes +
           8;
}

/** One scatter-gather element (device-DRAM address + length). */
struct DmaSgEntry
{
    uint64_t addr = 0;
    uint32_t len = 0;
};

/** A decoded (but still payload-encrypted) DMA descriptor. */
struct DmaDescriptor
{
    bool read = false;
    bool sync = false;
    uint32_t sessionId = 0;
    uint64_t seq = 0;
    uint64_t ctrBase = 0;
    uint64_t respAddr = 0;
    std::vector<DmaSgEntry> sg;
    Bytes payload; ///< ciphertext (writes), empty (reads)
    uint64_t mac = 0; ///< truncated GMAC tag

    /** Total bytes named by the scatter-gather list. */
    size_t sgBytes() const;
};

/** Counter blocks a payload of `bytes` consumes. */
size_t dmaCtrBlocks(size_t bytes);

/** En/decrypts a DMA payload in place under the direction-separated
 *  CTR labels ("SDMAWRIT" host->device, "SDMAREAD" device->host).
 *  Like every seal, open and MAC function below, it borrows the
 *  slot's regchan::SessionKeys schedule (aes(), or gcm(), which adds
 *  the GHASH key), built once per session, not once per megabyte
 *  descriptor. */
void cryptDmaPayload(const crypto::Aes &aes, bool read, uint64_t ctrBase,
                     uint8_t *data, size_t len);

/** The message kinds a DMA tag covers; each has its own IV label. */
enum class DmaTagKind : uint8_t
{
    Descriptor, ///< "GDSC", by the descriptor's seq
    Response,   ///< "GRSP", by the answered descriptor's seq
    Ack,        ///< "GACK", by ackSeq (which may equal kDmaMaxSeq)
};

/** The 12-byte GMAC IV of one message: kind label || LE64(seq). */
std::array<uint8_t, 12> dmaTagIv(DmaTagKind kind, uint64_t seq);

/** Truncated GMAC over the encoded descriptor minus its MAC field,
 *  under the IV of the seq it carries (bytes 16-23).
 *  @throws SerdeError when shorter than a descriptor header. */
uint64_t descriptorMac(const crypto::AesGcm &key, ByteView encodedSansMac);

/**
 * Serializes a descriptor and appends its MAC. A write's payload is
 * `plain`: copied into the encoded buffer once and encrypted there
 * under "SDMAWRIT" at d.ctrBase, so no separate ciphertext copy is
 * made (d.payload, which the decoder fills, is not read). Reads carry
 * no payload.
 */
Bytes encodeDescriptor(const crypto::AesGcm &key, const DmaDescriptor &d,
                       ByteView plain = {});

/**
 * Parses an encoded descriptor, validating magic, version, bounds and
 * internal length consistency. Does NOT check the MAC (the fabric
 * does that against its slot key).
 * @throws SerdeError on any malformed input.
 */
DmaDescriptor decodeDescriptor(ByteView encoded);

/** Constant-time MAC check of an encoded descriptor. */
bool verifyDescriptorMac(const crypto::AesGcm &key, ByteView encoded);

// ---- Read responses --------------------------------------------------
//
// The fabric answers a gather descriptor by sealing the collected
// bytes into a response blob at the descriptor's respAddr: "SDMR"
// magic, sessionId, seq, ctrBase echoed from the request, payload
// encrypted under the "SDMAREAD" label at the same stride, one
// truncated GMAC over everything before it.

/** Seals a read-response blob (fabric side). */
Bytes sealReadResponse(const crypto::AesGcm &key, uint32_t sessionId,
                       uint64_t seq, uint64_t ctrBase, ByteView plain);

/** Verifies and decrypts a read-response blob (host side); empty
 *  optional = forged or mismatched. */
std::optional<Bytes> openReadResponse(const crypto::AesGcm &key,
                                      uint32_t sessionId, uint64_t seq,
                                      uint64_t ctrBase, ByteView blob);

/** Cumulative-ack MAC: truncated GMAC over sessionId || ackSeq ||
 *  "dack". `ackSeq` is the lowest sequence number NOT yet applied, so
 *  a fresh slot acks 0 and the value only ever grows. */
uint64_t ackMac(const crypto::AesGcm &key, uint32_t sessionId,
                uint64_t ackSeq);

// ---- Sliding-window engine -------------------------------------------

/** Outcome of one windowed transfer. */
struct DmaTransferReport
{
    /** 0 ok; 0xf7 the slot's sequence space (kDmaMaxSeq) cannot
     *  hold the transfer; 0xf8 retransmits exhausted; 0xf9 forged
     *  ack; 0xfb forged read response. */
    uint8_t status = 0;
    uint64_t bytes = 0;        ///< payload bytes moved
    uint32_t descriptors = 0;  ///< descriptors delivered (first sends)
    uint32_t retransmits = 0;  ///< extra sends after loss/rejection
    uint32_t maxInFlight = 0;  ///< window-occupancy high-water mark
    sim::Nanos cryptoNanos = 0;       ///< exposed (clock-visible) crypto
    sim::Nanos hiddenCryptoNanos = 0; ///< precompute hidden behind transport
    sim::Nanos transportNanos = 0;    ///< wire time + window/ack stalls

    /** Fraction of total crypto hidden behind transport. */
    double overlapFraction() const
    {
        sim::Nanos total = cryptoNanos + hiddenCryptoNanos;
        return total > 0 ? double(hiddenCryptoNanos) / double(total)
                         : 0.0;
    }
};

/** One descriptor's worth of work for the engine. */
struct DmaDescriptorWork
{
    uint64_t seq = 0;
    size_t payloadBytes = 0;
    /** Scatter-gather entries of the sealed descriptor; with
     *  payloadBytes it fixes the wire size (dmaEncodedSize). */
    size_t sgCount = 1;
    bool read = false;
    /** Seals the descriptor; called once, the ciphertext is cached
     *  verbatim for retransmits. Null = nothing to deliver. */
    std::function<Bytes()> seal;
    /** Reads only: fetch + verify + decrypt the response once the
     *  descriptor is acked. False = forged response (abort 0xfb). */
    std::function<bool()> complete;
};

/** Environment the engine drives. All transport is *posted* (the
 *  hooks spend no virtual time); the engine itself charges wire time,
 *  window stalls and exposed crypto, which is what makes the
 *  crypto/transport overlap explicit in the phase totals. */
struct DmaWindowHooks
{
    SimHooks sim;
    /** Stages + doorbells one sealed descriptor (fault fabric lives
     *  behind this hook; it must pass the injector a copy, since the
     *  engine retransmits the cached original). */
    std::function<void(uint64_t seq, const Bytes &encoded)> deliver;
    /** MAC-verified cumulative ack readback. False = forged ack. */
    std::function<bool(uint64_t &ackSeq)> readAck;
};

/**
 * Sliding-window transfer engine. Keeps up to `window` sealed
 * descriptors in flight; while descriptor N-1 is on the wire or
 * waiting for its ack, the keystream precompute for descriptor N runs
 * "for free" against an overlap budget accrued from transport time
 * (double buffering: the budget is capped at two descriptors' worth
 * of crypto). Lost, reordered or rejected descriptors are recovered
 * by cumulative-ack-driven retransmission of the identical
 * ciphertext, bounded by `maxAttempts` per descriptor.
 */
class DmaWindowEngine
{
  public:
    struct Options
    {
        size_t window = 8;        ///< clamped to [1, kDmaMaxWindow]
        uint32_t maxAttempts = 8; ///< sends per descriptor before 0xf8
    };

    DmaWindowEngine(DmaWindowHooks hooks, Options opts);

    /** Runs one transfer; `work` must be in ascending seq order. */
    DmaTransferReport run(const std::vector<DmaDescriptorWork> &work);

  private:
    struct InFlight
    {
        uint64_t seq = 0;
        size_t workIndex = 0;
        Bytes encoded;
        sim::Nanos ackDue = 0;
        uint32_t attempts = 1;
    };

    void spendCrypto(sim::Nanos cost, DmaTransferReport &report);
    void spendTransport(sim::Nanos cost, DmaTransferReport &report);

    DmaWindowHooks hooks_;
    Options opts_;
    sim::Nanos overlapBudget_ = 0;
    sim::Nanos overlapCap_ = 0;
};

} // namespace salus::core::dmachan

#endif // SALUS_SALUS_DMA_CHANNEL_HPP

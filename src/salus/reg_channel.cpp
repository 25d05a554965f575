#include "salus/reg_channel.hpp"

#include <algorithm>
#include <cstring>

#include "common/errors.hpp"
#include "crypto/ct.hpp"
#include "crypto/siphash.hpp"

namespace salus::core::regchan {

namespace {

Bytes
nonceDnaMessage(uint64_t nonce, uint64_t dna, uint8_t direction)
{
    // The direction byte separates request and response domains, so
    // MAC_rsp(N) can never be replayed as MAC_req(N + 1) (hardening
    // the paper's "incremental operation" per its own §4.3 remark).
    Bytes msg(17);
    storeLe64(msg.data(), nonce);
    storeLe64(msg.data() + 8, dna);
    msg[16] = direction;
    return msg;
}

/** The first 8 bytes of a tag under the session MAC, over the
 *  concatenation of `parts`. */
uint64_t
truncatedTag(const crypto::HmacSha256 &mac,
             std::initializer_list<ByteView> parts)
{
    uint8_t tag[crypto::HmacSha256::kTagSize];
    mac.mac(parts, tag);
    return loadLe64(tag);
}

/** XORs the keystream of `count` consecutive counter blocks
 *  label || LE64(ctrBase + i) over 16-byte blocks in place: the
 *  counter blocks are written into one stack buffer, encrypted with
 *  one Aes::encryptBlocks call (pipelined 8/16-wide with AES-NI/VAES)
 *  per kMaxBatchOps blocks, XORed word by word, and wiped once. */
void
cryptStride(const crypto::Aes &aes, const char label[8], uint64_t ctrBase,
            uint8_t *data, size_t count)
{
    // Not zero-filled: every block is written before it is read, and
    // a 4 KiB fill would cost more than a one-block call's AES.
    uint8_t ks[kMaxBatchOps * kRegBatchBlock];
    while (count > 0) {
        size_t n = std::min(count, kMaxBatchOps);
        for (size_t i = 0; i < n; ++i) {
            std::memcpy(ks + i * kRegBatchBlock, label, 8);
            storeLe64(ks + i * kRegBatchBlock + 8, ctrBase + i);
        }
        aes.encryptBlocks(ks, ks, n);
        for (size_t off = 0; off < n * kRegBatchBlock; off += 8) {
            uint64_t d, k;
            std::memcpy(&d, data + off, 8);
            std::memcpy(&k, ks + off, 8);
            d ^= k;
            std::memcpy(data + off, &d, 8);
        }
        secureZero(ks, n * kRegBatchBlock);
        data += n * kRegBatchBlock;
        ctrBase += n;
        count -= n;
    }
}

/** Truncated HMAC over a single-op message: ctr || ct0 || ct1 ||
 *  direction ("req"/"rsp"). */
uint64_t
truncatedHmac(const crypto::HmacSha256 &mac, uint64_t ctr, uint64_t ct0,
              uint64_t ct1, const char direction[3])
{
    uint8_t msg[27];
    storeLe64(msg, ctr);
    storeLe64(msg + 8, ct0);
    storeLe64(msg + 16, ct1);
    std::memcpy(msg + 24, direction, 3);
    return truncatedTag(mac, {ByteView(msg, sizeof(msg))});
}

/** A copy of `block`, which must be one session key block. */
Bytes
checkedKeyBlock(ByteView block)
{
    if (block.size() != kKeySessionSize)
        throw CryptoError("session key block must be 48 bytes");
    return Bytes(block.begin(), block.end());
}

} // namespace

uint64_t
attestRequestMac(ByteView keyAttest, uint64_t nonce, uint64_t dna)
{
    return crypto::sipHash24(keyAttest,
                             nonceDnaMessage(nonce, dna, 'Q'));
}

uint64_t
attestResponseMac(ByteView keyAttest, uint64_t nonce, uint64_t dna)
{
    return crypto::sipHash24(keyAttest,
                             nonceDnaMessage(nonce + 1, dna, 'P'));
}

uint64_t
heartbeatRequestMac(ByteView keyAttest, uint64_t nonce, uint64_t dna)
{
    return crypto::sipHash24(keyAttest,
                             nonceDnaMessage(nonce, dna, 'H'));
}

uint64_t
heartbeatResponseMac(ByteView keyAttest, uint64_t nonce, uint64_t dna,
                     uint64_t count)
{
    Bytes msg = nonceDnaMessage(nonce + 1, dna, 'h');
    msg.resize(25);
    storeLe64(msg.data() + 17, count);
    return crypto::sipHash24(keyAttest, msg);
}

uint64_t
migrationTicketMac(ByteView keyAttest, uint32_t fromDevice,
                   uint32_t toDevice, uint64_t fromDna, uint64_t toDna,
                   uint64_t nonce, ByteView sourceFingerprint)
{
    Bytes msg(33 + sourceFingerprint.size());
    storeLe32(msg.data(), fromDevice);
    storeLe32(msg.data() + 4, toDevice);
    storeLe64(msg.data() + 8, fromDna);
    storeLe64(msg.data() + 16, toDna);
    storeLe64(msg.data() + 24, nonce);
    msg[32] = 'M';
    std::memcpy(msg.data() + 33, sourceFingerprint.data(),
                sourceFingerprint.size());
    return crypto::sipHash24(keyAttest, msg);
}

SessionKeys::SessionKeys(ByteView block)
    : block_(checkedKeyBlock(block)),
      gcm_(ByteView(block_).first(16)), mac_(ByteView(block_).subspan(16))
{
}

SessionKeys::~SessionKeys()
{
    secureZero(block_);
}

ByteView
SessionKeys::macKey() const
{
    return ByteView(block_).subspan(16);
}

SealedRegRequest
sealRequest(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
            uint64_t ctr, const RegOp &op)
{
    uint8_t plain[16] = {};
    plain[0] = op.isWrite ? 1 : 0;
    storeLe32(plain + 1, op.addr);
    storeLe64(plain + 5, op.data);
    cryptStride(aes, "SREGCHAN", ctr, plain, 1);

    SealedRegRequest req;
    req.ctr = ctr;
    req.ct0 = loadLe64(plain);
    req.ct1 = loadLe64(plain + 8);
    req.mac = truncatedHmac(mac, ctr, req.ct0, req.ct1, "req");
    return req;
}

std::optional<RegOp>
openRequest(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
            const SealedRegRequest &req)
{
    if (!crypto::ctEqual64(
            truncatedHmac(mac, req.ctr, req.ct0, req.ct1, "req"), req.mac))
        return std::nullopt;

    uint8_t buf[16];
    storeLe64(buf, req.ct0);
    storeLe64(buf + 8, req.ct1);
    cryptStride(aes, "SREGCHAN", req.ctr, buf, 1);

    RegOp op;
    op.isWrite = buf[0] != 0;
    op.addr = loadLe32(buf + 1);
    op.data = loadLe64(buf + 5);
    return op;
}

SealedRegResponse
sealResponse(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
             uint64_t ctr, uint8_t status, uint64_t data)
{
    uint8_t plain[16] = {};
    plain[0] = status;
    storeLe64(plain + 1, data);
    cryptStride(aes, "SRSPCHAN", ctr, plain, 1);

    SealedRegResponse rsp;
    rsp.ct0 = loadLe64(plain);
    rsp.ct1 = loadLe64(plain + 8);
    rsp.mac = truncatedHmac(mac, ctr, rsp.ct0, rsp.ct1, "rsp");
    return rsp;
}

std::optional<std::pair<uint8_t, uint64_t>>
openResponse(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
             uint64_t ctr, const SealedRegResponse &rsp)
{
    if (!crypto::ctEqual64(truncatedHmac(mac, ctr, rsp.ct0, rsp.ct1, "rsp"),
                           rsp.mac))
        return std::nullopt;

    uint8_t buf[16];
    storeLe64(buf, rsp.ct0);
    storeLe64(buf + 8, rsp.ct1);
    cryptStride(aes, "SRSPCHAN", ctr, buf, 1);

    return std::make_pair(buf[0], loadLe64(buf + 1));
}

// ---- Batched register bursts -----------------------------------------

void
cryptBatchBlocks(const crypto::Aes &aes, bool response, uint64_t ctrBase,
                 uint8_t *blocks, size_t count)
{
    // Op i owns the one-block keystream at ("SREGBRST"/"SRSPBRST",
    // ctrBase + i). The labels are disjoint from the single-op
    // channel's ("SREGCHAN"/"SRSPCHAN"), so batch and single traffic
    // can share a session counter space without keystream reuse.
    cryptStride(aes, response ? "SRSPBRST" : "SREGBRST", ctrBase, blocks,
                count);
}

void
cryptBatchBlock(const crypto::Aes &aes, bool response, uint64_t ctr,
                uint8_t *block)
{
    cryptBatchBlocks(aes, response, ctr, block, 1);
}

void
encodeBatchOp(const RegOp &op, uint8_t *block)
{
    std::memset(block, 0, kRegBatchBlock);
    block[0] = op.isWrite ? 1 : 0;
    storeLe32(block + 1, op.addr);
    storeLe64(block + 5, op.data);
}

RegOp
decodeBatchOp(const uint8_t *block)
{
    RegOp op;
    op.isWrite = block[0] != 0;
    op.addr = loadLe32(block + 1);
    op.data = loadLe64(block + 5);
    return op;
}

void
encodeBatchResult(uint8_t status, uint64_t data, uint8_t *block)
{
    std::memset(block, 0, kRegBatchBlock);
    block[0] = status;
    storeLe64(block + 1, data);
}

BatchResult
decodeBatchResult(const uint8_t *block)
{
    BatchResult res;
    res.status = block[0];
    res.data = loadLe64(block + 1);
    return res;
}

uint64_t
batchMac(const crypto::HmacSha256 &mac, uint32_t sessionId,
         uint64_t ctrBase, ByteView payload, bool response)
{
    uint8_t header[20];
    storeLe32(header, sessionId);
    storeLe64(header + 4, ctrBase);
    storeLe32(header + 12, uint32_t(payload.size() / kRegBatchBlock));
    std::memcpy(header + 16, response ? "brsp" : "breq", 4);
    return truncatedTag(mac, {ByteView(header, sizeof(header)), payload});
}

uint64_t
batchMac(ByteView macKey, uint32_t sessionId, uint64_t ctrBase,
         ByteView payload, bool response)
{
    return batchMac(crypto::HmacSha256(macKey), sessionId, ctrBase,
                    payload, response);
}

namespace {

/** Structural sanity shared by request and response opening: size,
 *  alignment and counter-stride wrap checks that must pass before
 *  any crypto is attempted. */
bool
batchShapeOk(size_t payloadSize, uint64_t ctrBase)
{
    if (payloadSize == 0 || payloadSize % kRegBatchBlock != 0)
        return false;
    size_t count = payloadSize / kRegBatchBlock;
    if (count > kMaxBatchOps)
        return false;
    // The stride [ctrBase, ctrBase + count - 1] must not wrap: a
    // wrapped stride would alias counter 0's keystream.
    return ctrBase <= UINT64_MAX - (count - 1);
}

} // namespace

SealedRegBatch
sealBatch(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
          uint32_t sessionId, uint64_t ctrBase,
          const std::vector<RegOp> &ops)
{
    SealedRegBatch batch;
    batch.sessionId = sessionId;
    batch.ctrBase = ctrBase;
    batch.payload.resize(ops.size() * kRegBatchBlock);
    for (size_t i = 0; i < ops.size(); ++i)
        encodeBatchOp(ops[i], batch.payload.data() + i * kRegBatchBlock);
    cryptBatchBlocks(aes, false, ctrBase, batch.payload.data(), ops.size());
    batch.mac = batchMac(mac, sessionId, ctrBase, batch.payload, false);
    return batch;
}

SealedRegBatch
sealBatch(const crypto::Aes &aes, ByteView macKey, uint32_t sessionId,
          uint64_t ctrBase, const std::vector<RegOp> &ops)
{
    return sealBatch(aes, crypto::HmacSha256(macKey), sessionId, ctrBase,
                     ops);
}

std::optional<std::vector<RegOp>>
openBatch(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
          const SealedRegBatch &batch)
{
    if (!batchShapeOk(batch.payload.size(), batch.ctrBase) ||
        !crypto::ctEqual64(batchMac(mac, batch.sessionId, batch.ctrBase,
                                    batch.payload, false),
                           batch.mac))
        return std::nullopt;

    uint8_t plain[kMaxBatchOps * kRegBatchBlock];
    std::memcpy(plain, batch.payload.data(), batch.payload.size());
    cryptBatchBlocks(aes, false, batch.ctrBase, plain, batch.count());
    std::vector<RegOp> ops(batch.count());
    for (size_t i = 0; i < ops.size(); ++i)
        ops[i] = decodeBatchOp(plain + i * kRegBatchBlock);
    secureZero(plain, batch.payload.size());
    return ops;
}

SealedBatchResponse
sealBatchResponse(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
                  uint32_t sessionId, uint64_t ctrBase,
                  const std::vector<BatchResult> &results)
{
    SealedBatchResponse rsp;
    rsp.payload.resize(results.size() * kRegBatchBlock);
    for (size_t i = 0; i < results.size(); ++i)
        encodeBatchResult(results[i].status, results[i].data,
                          rsp.payload.data() + i * kRegBatchBlock);
    cryptBatchBlocks(aes, true, ctrBase, rsp.payload.data(),
                     results.size());
    rsp.mac = batchMac(mac, sessionId, ctrBase, rsp.payload, true);
    return rsp;
}

std::optional<std::vector<BatchResult>>
openBatchResponse(const crypto::Aes &aes, const crypto::HmacSha256 &mac,
                  uint32_t sessionId, uint64_t ctrBase,
                  size_t expectCount, const SealedBatchResponse &rsp)
{
    if (rsp.count() != expectCount ||
        !batchShapeOk(rsp.payload.size(), ctrBase) ||
        !crypto::ctEqual64(
            batchMac(mac, sessionId, ctrBase, rsp.payload, true), rsp.mac))
        return std::nullopt;

    uint8_t plain[kMaxBatchOps * kRegBatchBlock];
    std::memcpy(plain, rsp.payload.data(), rsp.payload.size());
    cryptBatchBlocks(aes, true, ctrBase, plain, rsp.count());
    std::vector<BatchResult> results(rsp.count());
    for (size_t i = 0; i < results.size(); ++i)
        results[i] = decodeBatchResult(plain + i * kRegBatchBlock);
    secureZero(plain, rsp.payload.size());
    return results;
}

std::optional<std::vector<BatchResult>>
openBatchResponse(const crypto::Aes &aes, ByteView macKey,
                  uint32_t sessionId, uint64_t ctrBase,
                  size_t expectCount, const SealedBatchResponse &rsp)
{
    return openBatchResponse(aes, crypto::HmacSha256(macKey), sessionId,
                             ctrBase, expectCount, rsp);
}

// ---- Multi-session key fan-out ---------------------------------------

uint64_t
sessionOpenMac(const crypto::HmacSha256 &baseMac, uint32_t slot,
               uint64_t nonce)
{
    uint8_t msg[21];
    storeLe32(msg, slot);
    storeLe64(msg + 4, nonce);
    std::memcpy(msg + 12, "sess-open", 9);
    return truncatedTag(baseMac, {ByteView(msg, sizeof(msg))});
}

Bytes
deriveSlotSessionKeys(ByteView baseKeySession, uint32_t slot,
                      uint64_t nonce)
{
    uint8_t salt[12];
    storeLe32(salt, slot);
    storeLe64(salt + 4, nonce);
    return crypto::hkdf(ByteView(salt, sizeof(salt)), baseKeySession,
                        bytesFromString("salus-msess-v1"), kKeySessionSize);
}

uint64_t
rekeyMac(const crypto::HmacSha256 &mac, uint64_t ctr, uint64_t nonce)
{
    uint8_t msg[21];
    storeLe64(msg, ctr);
    storeLe64(msg + 8, nonce);
    std::memcpy(msg + 16, "rekey", 5);
    return truncatedTag(mac, {ByteView(msg, sizeof(msg))});
}

Bytes
deriveRekeyedKeys(ByteView oldMacKey, uint64_t nonce)
{
    uint8_t salt[8];
    storeLe64(salt, nonce);
    return crypto::hkdf(ByteView(salt, 8), oldMacKey,
                        bytesFromString("salus-rekey-v1"),
                        kKeySessionSize);
}

} // namespace salus::core::regchan

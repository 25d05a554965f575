#include "salus/dma_channel.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

#include "common/serde.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/ct.hpp"
#include "obs/trace.hpp"

namespace salus::core::dmachan {

namespace {

constexpr uint32_t kDmaMagic = 0x53444d41;     // "SDMA"
constexpr uint32_t kDmaRespMagic = 0x53444d52; // "SDMR"
constexpr uint8_t kDmaVersion = 1;

/** IV labels by DmaTagKind. None starts with "S", as every CTR
 *  label under the session key does. */
constexpr char kTagIvLabels[3][4] = {{'G', 'D', 'S', 'C'},
                                     {'G', 'R', 'S', 'P'},
                                     {'G', 'A', 'C', 'K'}};

/** The first 8 bytes of the GMAC of `msg` under `kind`'s IV at `seq`. */
uint64_t
truncatedGmac(const crypto::AesGcm &key, DmaTagKind kind, uint64_t seq,
              ByteView msg)
{
    std::array<uint8_t, 12> iv = dmaTagIv(kind, seq);
    uint8_t tag[crypto::kGcmTagSize];
    // GMAC: GCM's tag with `msg` as additional data and an empty text.
    key.sealInPlace(iv, msg, {}, tag);
    return loadLe64(tag);
}

/** Appends the truncated GMAC over everything already in `buf`. */
void
appendMac(const crypto::AesGcm &key, DmaTagKind kind, uint64_t seq,
          Bytes &buf)
{
    uint8_t tag[8];
    storeLe64(tag, truncatedGmac(key, kind, seq, buf));
    buf.insert(buf.end(), tag, tag + 8);
}

} // namespace

size_t
DmaDescriptor::sgBytes() const
{
    size_t total = 0;
    for (const DmaSgEntry &e : sg)
        total += e.len;
    return total;
}

size_t
dmaCtrBlocks(size_t bytes)
{
    return (bytes + kDmaBlock - 1) / kDmaBlock;
}

void
cryptDmaPayload(const crypto::Aes &aes, bool read, uint64_t ctrBase,
                uint8_t *data, size_t len)
{
    if (len == 0)
        return;
    uint8_t block[16];
    std::memcpy(block, read ? "SDMAREAD" : "SDMAWRIT", 8);
    storeLe64(block + 8, ctrBase);
    crypto::AesCtr(aes, ByteView(block, 16)).crypt(data, len);
}

std::array<uint8_t, 12>
dmaTagIv(DmaTagKind kind, uint64_t seq)
{
    std::array<uint8_t, 12> iv;
    std::memcpy(iv.data(), kTagIvLabels[size_t(kind)], 4);
    storeLe64(iv.data() + 4, seq);
    return iv;
}

uint64_t
descriptorMac(const crypto::AesGcm &key, ByteView encodedSansMac)
{
    if (encodedSansMac.size() < kDmaHeaderBytes)
        throw SerdeError("dma descriptor: shorter than its header");
    return truncatedGmac(key, DmaTagKind::Descriptor,
                         loadLe64(encodedSansMac.data() + 16),
                         encodedSansMac);
}

Bytes
encodeDescriptor(const crypto::AesGcm &key, const DmaDescriptor &d,
                 ByteView plain)
{
    size_t encodedLen = dmaEncodedSize(d.sg.size(), plain.size());
    BinaryWriter w;
    w.reserve(encodedLen);
    w.writeU32(kDmaMagic);
    w.writeU8(kDmaVersion);
    uint8_t flags = 0;
    if (d.read)
        flags |= kDmaFlagRead;
    if (d.sync)
        flags |= kDmaFlagSync;
    w.writeU8(flags);
    w.writeU16(uint16_t(d.sg.size()));
    w.writeU32(d.sessionId);
    w.writeU32(uint32_t(encodedLen));
    w.writeU64(d.seq);
    w.writeU64(d.ctrBase);
    w.writeU64(d.respAddr);
    for (const DmaSgEntry &e : d.sg) {
        w.writeU64(e.addr);
        w.writeU32(e.len);
    }
    w.writeRaw(plain);
    Bytes out = w.take();
    cryptDmaPayload(key.aes(), /*read=*/false, d.ctrBase,
                    out.data() + out.size() - plain.size(), plain.size());
    appendMac(key, DmaTagKind::Descriptor, d.seq, out);
    return out;
}

DmaDescriptor
decodeDescriptor(ByteView encoded)
{
    BinaryReader r(encoded);
    if (r.readU32() != kDmaMagic)
        throw SerdeError("dma descriptor: bad magic");
    if (r.readU8() != kDmaVersion)
        throw SerdeError("dma descriptor: unsupported version");
    uint8_t flags = r.readU8();
    if (flags & ~uint8_t(kDmaFlagRead | kDmaFlagSync))
        throw SerdeError("dma descriptor: unknown flags");
    uint16_t sgCount = r.readU16();
    if (sgCount == 0 || sgCount > kDmaMaxSg)
        throw SerdeError("dma descriptor: sg count out of range");

    DmaDescriptor d;
    d.read = (flags & kDmaFlagRead) != 0;
    d.sync = (flags & kDmaFlagSync) != 0;
    d.sessionId = r.readU32();
    uint32_t encodedLen = r.readU32();
    if (encodedLen != encoded.size())
        throw SerdeError("dma descriptor: length mismatch");
    d.seq = r.readU64();
    if (d.seq >= kDmaMaxSeq)
        throw SerdeError("dma descriptor: sequence out of range");
    d.ctrBase = r.readU64();
    d.respAddr = r.readU64();
    d.sg.reserve(sgCount);
    for (uint16_t i = 0; i < sgCount; ++i) {
        DmaSgEntry e;
        e.addr = r.readU64();
        e.len = r.readU32();
        if (e.len == 0)
            throw SerdeError("dma descriptor: empty sg entry");
        d.sg.push_back(e);
    }
    if (d.sgBytes() > kDmaMaxPayload)
        throw SerdeError("dma descriptor: payload over limit");
    size_t payloadLen = d.read ? 0 : d.sgBytes();
    if (r.remaining() != payloadLen + 8)
        throw SerdeError("dma descriptor: payload length mismatch");
    d.payload = r.readRaw(payloadLen);
    d.mac = r.readU64();
    return d;
}

bool
verifyDescriptorMac(const crypto::AesGcm &key, ByteView encoded)
{
    if (encoded.size() < kDmaHeaderBytes + 8)
        return false;
    uint64_t expect =
        descriptorMac(key, ByteView(encoded.data(), encoded.size() - 8));
    uint64_t got = loadLe64(encoded.data() + encoded.size() - 8);
    return crypto::ctEqual64(expect, got);
}

Bytes
sealReadResponse(const crypto::AesGcm &key, uint32_t sessionId,
                 uint64_t seq, uint64_t ctrBase, ByteView plain)
{
    BinaryWriter w;
    w.reserve(kDmaRespOverhead + plain.size());
    w.writeU32(kDmaRespMagic);
    w.writeU32(sessionId);
    w.writeU32(uint32_t(plain.size()));
    w.writeU64(seq);
    w.writeU64(ctrBase);
    w.writeRaw(plain);
    Bytes out = w.take();
    cryptDmaPayload(key.aes(), true, ctrBase,
                    out.data() + kDmaRespHeaderBytes, plain.size());
    appendMac(key, DmaTagKind::Response, seq, out);
    return out;
}

std::optional<Bytes>
openReadResponse(const crypto::AesGcm &key, uint32_t sessionId,
                 uint64_t seq, uint64_t ctrBase, ByteView blob)
{
    if (blob.size() < kDmaRespHeaderBytes + 8)
        return std::nullopt;
    BinaryReader r(blob);
    if (r.readU32() != kDmaRespMagic)
        return std::nullopt;
    if (r.readU32() != sessionId)
        return std::nullopt;
    uint32_t len = r.readU32();
    if (r.readU64() != seq || r.readU64() != ctrBase)
        return std::nullopt;
    if (len > kDmaMaxPayload || r.remaining() != size_t(len) + 8)
        return std::nullopt;
    uint64_t expect = truncatedGmac(key, DmaTagKind::Response, seq,
                                    ByteView(blob.data(), blob.size() - 8));
    uint64_t got = loadLe64(blob.data() + blob.size() - 8);
    if (!crypto::ctEqual64(expect, got))
        return std::nullopt;
    Bytes plain = r.readRaw(len);
    cryptDmaPayload(key.aes(), true, ctrBase, plain.data(), plain.size());
    return plain;
}

uint64_t
ackMac(const crypto::AesGcm &key, uint32_t sessionId, uint64_t ackSeq)
{
    uint8_t msg[16];
    storeLe32(msg, sessionId);
    storeLe64(msg + 4, ackSeq);
    std::memcpy(msg + 12, "dack", 4);
    return truncatedGmac(key, DmaTagKind::Ack, ackSeq,
                         ByteView(msg, sizeof(msg)));
}

// ---- Sliding-window engine -------------------------------------------

DmaWindowEngine::DmaWindowEngine(DmaWindowHooks hooks, Options opts)
    : hooks_(std::move(hooks)), opts_(opts)
{
    opts_.window = std::clamp<size_t>(opts_.window, 1, kDmaMaxWindow);
    if (opts_.maxAttempts == 0)
        opts_.maxAttempts = 1;
}

void
DmaWindowEngine::spendCrypto(sim::Nanos cost, DmaTransferReport &report)
{
    if (cost <= 0)
        return;
    // Double-buffered keystream precompute: transport time already
    // spent on the clock has bought us budget to hide crypto behind.
    sim::Nanos hidden = std::min(cost, overlapBudget_);
    overlapBudget_ -= hidden;
    report.hiddenCryptoNanos += hidden;
    sim::Nanos exposed = cost - hidden;
    if (exposed > 0) {
        hooks_.sim.spend(phases::kDmaCrypto, exposed);
        report.cryptoNanos += exposed;
    }
}

void
DmaWindowEngine::spendTransport(sim::Nanos cost,
                                DmaTransferReport &report)
{
    if (cost <= 0)
        return;
    hooks_.sim.spend(phases::kDmaTransport, cost);
    report.transportNanos += cost;
    overlapBudget_ = std::min(overlapBudget_ + cost, overlapCap_);
}

DmaTransferReport
DmaWindowEngine::run(const std::vector<DmaDescriptorWork> &work)
{
    DmaTransferReport report;
    overlapBudget_ = 0;
    overlapCap_ = 0;

    const sim::CostModel &cost = *hooks_.sim.cost;
    uint64_t totalBytes = 0;
    for (const DmaDescriptorWork &w : work) {
        totalBytes += w.payloadBytes;
        overlapCap_ =
            std::max(overlapCap_, 2 * cost.dmaCrypto(w.payloadBytes));
    }
    obs::Span span(obs::Category::Channel, "dma_transfer", totalBytes);

    auto now = [&] { return hooks_.sim.clock->now(); };
    auto wireTime = [&](size_t bytes) {
        return sim::transferTime(cost.pcieBandwidth, bytes);
    };
    auto sendTime = [&](const DmaDescriptorWork &w) -> sim::Nanos {
        return wireTime(
            dmaEncodedSize(w.sgCount, w.read ? 0 : w.payloadBytes));
    };
    // The ack for a descriptor is believable one RTT after its last
    // wire byte; gathers additionally wait for the response payload
    // to cross back.
    auto ackLatency = [&](const DmaDescriptorWork &w) {
        return cost.pcieRtt +
               (w.read ? wireTime(w.payloadBytes) : sim::Nanos(0));
    };
    auto sealCost = [&](const DmaDescriptorWork &w) {
        return cost.dmaCrypto(w.read ? 0 : w.payloadBytes);
    };

    std::deque<InFlight> inflight;

    // Stalls on the window's oldest descriptor, believes whatever the
    // (MAC-verified) cumulative ack says, and retransmits the cached
    // ciphertext when the front turns out to be lost or rejected.
    auto waitFront = [&]() -> bool {
        sim::Nanos due = inflight.front().ackDue;
        sim::Nanos t = now();
        spendTransport(due > t ? due - t : 0, report);
        uint64_t ackSeq = 0;
        if (!hooks_.readAck || !hooks_.readAck(ackSeq)) {
            report.status = 0xf9; // forged/unreadable ack
            return false;
        }
        bool popped = false;
        while (!inflight.empty() && inflight.front().ackDue <= now() &&
               inflight.front().seq < ackSeq) {
            const DmaDescriptorWork &w = work[inflight.front().workIndex];
            if (w.read) {
                // The response blob is decrypted as it lands.
                spendCrypto(cost.dmaCrypto(w.payloadBytes), report);
            }
            if (w.complete && !w.complete()) {
                report.status = 0xfb; // forged read response
                return false;
            }
            inflight.pop_front();
            popped = true;
        }
        if (!popped) {
            InFlight &f = inflight.front();
            if (f.attempts >= opts_.maxAttempts) {
                report.status = 0xf8; // retransmits exhausted
                return false;
            }
            ++f.attempts;
            ++report.retransmits;
            obs::count("dma.retransmits");
            spendTransport(sendTime(work[f.workIndex]), report);
            if (hooks_.deliver)
                hooks_.deliver(f.seq, f.encoded);
            f.ackDue = now() + ackLatency(work[f.workIndex]);
        }
        obs::observe("dma.window_depth", inflight.size());
        return true;
    };

    for (size_t i = 0; i < work.size(); ++i) {
        const DmaDescriptorWork &w = work[i];
        spendCrypto(sealCost(w), report);
        Bytes encoded = w.seal ? w.seal() : Bytes();

        while (inflight.size() >= opts_.window)
            if (!waitFront())
                return report;

        spendTransport(sendTime(w), report);
        if (hooks_.deliver)
            hooks_.deliver(w.seq, encoded);
        InFlight f;
        f.seq = w.seq;
        f.workIndex = i;
        f.encoded = std::move(encoded);
        f.ackDue = now() + ackLatency(w);
        inflight.push_back(std::move(f));
        report.maxInFlight = std::max(report.maxInFlight,
                                      uint32_t(inflight.size()));
        obs::observe("dma.window_depth", inflight.size());
        ++report.descriptors;
        report.bytes += w.payloadBytes;
    }
    while (!inflight.empty())
        if (!waitFront())
            return report;
    obs::count("dma.transfers");
    return report;
}

} // namespace salus::core::dmachan

#include "salus/sm_logic.hpp"

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/ct.hpp"
#include "salus/reg_channel.hpp"
#include "salus/secrets.hpp"

namespace salus::core {

SmLogic::SmLogic(const netlist::Cell &cell,
                 const netlist::Netlist &design,
                 const fpga::FabricServices &services)
    : dna_(services.dna.value), dram_(services.dram)
{
    // The params blob wired in by the CL builder names our secret
    // BRAMs and our downstream accelerator.
    BinaryReader r(cell.params);
    std::string keyAttestPath = r.readString();
    std::string keySessionPath = r.readString();
    std::string ctrSessionPath = r.readString();
    accelPath_ = r.readString();

    auto bramInit = [&](const std::string &path,
                        size_t expectedSize) -> Bytes {
        const netlist::Cell *bram = design.findCell(path);
        if (!bram || bram->kind != netlist::CellKind::Bram ||
            bram->init.size() != expectedSize) {
            throw DeviceError("SM logic: missing secret BRAM " + path);
        }
        return bram->init;
    };

    keyAttest_ = bramInit(keyAttestPath, kKeyAttestSize);
    Bytes session = bramInit(keySessionPath, kKeySessionSize);
    SessionSlot &base = sessions_[0];
    base.open = true;
    base.keys = std::make_unique<regchan::SessionKeys>(session);
    Bytes ctr = bramInit(ctrSessionPath, kCtrSessionSize);
    base.lastCtr = loadLe64(ctr.data());
    secureZero(session);
}

void
SmLogic::connect(fpga::LoadedDesign &design)
{
    accel_ = design.behaviorAt(accelPath_);
}

void
SmLogic::reset()
{
    status_ = kSmStatusIdle;
    for (auto &v : in_)
        v = 0;
    for (auto &v : out_)
        v = 0;
    burstIn_.clear();
    burstOut_.clear();
    burstOutPos_ = 0;
}

uint64_t
SmLogic::readRegister(uint32_t addr)
{
    switch (addr) {
      case kSmRegStatus:
        return status_;
      case kSmRegOut0:
        return out_[0];
      case kSmRegOut1:
        return out_[1];
      case kSmRegOut2:
        return out_[2];
      case kSmRegOut2 + 8:
        return out_[3];
      case kSmRegStatAttestOk:
        return statAttestOk_;
      case kSmRegStatAttestRejected:
        return statAttestRejected_;
      case kSmRegStatRegOpOk:
        return statRegOpOk_;
      case kSmRegStatRegOpRejected:
        return statRegOpRejected_;
      case kSmRegStatHeartbeatOk:
        return statHeartbeatOk_;
      case kSmRegStatHeartbeatRejected:
        return statHeartbeatRejected_;
      case kSmRegStatBatchOk:
        return statBatchOk_;
      case kSmRegStatBatchRejected:
        return statBatchRejected_;
      case kSmRegStatBatchOps:
        return statBatchOps_;
      case kSmRegStatDmaOk:
        return statDmaOk_;
      case kSmRegStatDmaRejected:
        return statDmaRejected_;
      case kSmRegStatDmaBytes:
        return statDmaBytes_;
      case kSmRegStatSessionsOpen: {
        uint64_t open = 0;
        for (const auto &s : sessions_)
            open += s.open ? 1 : 0;
        return open;
      }
      case kSmRegBurstOut: {
        // Pop the next response word; reads past the end return 0.
        if (burstOutPos_ + 8 > burstOut_.size())
            return 0;
        uint64_t word = loadLe64(burstOut_.data() + burstOutPos_);
        burstOutPos_ += 8;
        return word;
      }
      default:
        // Secrets and inputs are never readable from the bus.
        return 0;
    }
}

void
SmLogic::writeRegister(uint32_t addr, uint64_t value)
{
    switch (addr) {
      case kSmRegCmd:
        execute(value);
        break;
      case kSmRegIn0:
        in_[0] = value;
        break;
      case kSmRegIn1:
        in_[1] = value;
        break;
      case kSmRegIn2:
        in_[2] = value;
        break;
      case kSmRegIn3:
        in_[3] = value;
        break;
      case kSmRegBurstIn:
        // Append one payload word; the FIFO is a bounded on-chip
        // buffer, so words beyond the largest burst are dropped.
        if (burstIn_.size() + 8 <=
            regchan::kMaxBatchOps * regchan::kRegBatchBlock) {
            size_t at = burstIn_.size();
            burstIn_.resize(at + 8);
            storeLe64(burstIn_.data() + at, value);
        }
        break;
      case kSmRegBurstReset:
        burstIn_.clear();
        burstOut_.clear();
        burstOutPos_ = 0;
        break;
      default:
        break;
    }
}

void
SmLogic::execute(uint64_t cmd)
{
    for (auto &v : out_)
        v = 0;
    switch (cmd) {
      case kSmCmdAttest:
        doAttest();
        break;
      case kSmCmdSecureReg:
        doSecureReg();
        break;
      case kSmCmdSecureBatch:
        doSecureBatch();
        break;
      case kSmCmdOpenSession:
        doOpenSession();
        break;
      case kSmCmdRekey:
        doRekey();
        break;
      case kSmCmdHeartbeat:
        doHeartbeat();
        break;
      case kSmCmdDmaDoorbell:
        doDmaDoorbell();
        break;
      case kSmCmdDmaAck:
        doDmaAck();
        break;
      default:
        status_ = kSmStatusRejected;
        break;
    }
}

void
SmLogic::doAttest()
{
    // Fig. 4a, prover side: verify MAC_req over (N, DNA') with the
    // local DNA read from the DNA port, then answer with MAC_rsp over
    // (N + 1, DNA'). A wrong MAC produces no response material at all.
    uint64_t nonce = in_[0];
    uint64_t macReq = in_[1];

    uint64_t expect = regchan::attestRequestMac(keyAttest_, nonce, dna_);
    if (!crypto::ctEqual64(macReq, expect)) {
        ++statAttestRejected_;
        status_ = kSmStatusRejected;
        return;
    }
    out_[0] = nonce + 1;
    out_[1] = regchan::attestResponseMac(keyAttest_, nonce, dna_);
    ++statAttestOk_;
    status_ = kSmStatusOk;
}

void
SmLogic::doHeartbeat()
{
    // Liveness probe: same trust anchor as attestation (Key_attest),
    // but cheap enough to poll. The response binds a monotone beat
    // count so a recorded "alive" cannot be replayed later.
    uint64_t nonce = in_[0];
    uint64_t macReq = in_[1];

    if (!crypto::ctEqual64(
            macReq, regchan::heartbeatRequestMac(keyAttest_, nonce, dna_))) {
        ++statHeartbeatRejected_;
        status_ = kSmStatusRejected;
        return;
    }
    uint64_t count = ++statHeartbeatOk_;
    out_[0] = nonce + 1;
    out_[1] = count;
    out_[2] =
        regchan::heartbeatResponseMac(keyAttest_, nonce, dna_, count);
    status_ = kSmStatusOk;
}

void
SmLogic::doRekey()
{
    uint64_t ctr = in_[0];
    uint64_t nonce = in_[1];
    uint64_t mac = in_[3];

    SessionSlot &base = sessions_[0];
    if (ctr <= base.lastCtr ||
        !crypto::ctEqual64(mac,
                           regchan::rekeyMac(base.keys->mac(), ctr, nonce))) {
        ++statRegOpRejected_;
        status_ = kSmStatusRejected;
        return;
    }
    base.lastCtr = ctr;
    Bytes rolled = regchan::deriveRekeyedKeys(base.keys->macKey(), nonce);
    base.keys = std::make_unique<regchan::SessionKeys>(rolled);
    secureZero(rolled);
    ++statRegOpOk_;
    status_ = kSmStatusOk;
}

uint64_t
SmLogic::executeOp(const regchan::RegOp &op, uint8_t &opStatus)
{
    opStatus = 0;
    uint64_t data = 0;
    if (!accel_) {
        opStatus = 2; // no accelerator behind us
    } else if (op.isWrite) {
        accel_->writeRegister(op.addr, op.data);
    } else {
        data = accel_->readRegister(op.addr);
    }
    return data;
}

void
SmLogic::doSecureReg()
{
    regchan::SealedRegRequest req;
    req.ctr = in_[0];
    req.ct0 = in_[1];
    req.ct1 = in_[2];
    req.mac = in_[3];

    SessionSlot &base = sessions_[0];
    // Freshness: the session counter must strictly increase. A replay
    // of an earlier (valid) transaction fails here.
    if (req.ctr <= base.lastCtr) {
        ++statRegOpRejected_;
        status_ = kSmStatusRejected;
        return;
    }
    auto op =
        regchan::openRequest(base.keys->aes(), base.keys->mac(), req);
    if (!op) {
        ++statRegOpRejected_;
        status_ = kSmStatusRejected;
        return;
    }
    base.lastCtr = req.ctr;

    uint8_t opStatus = 0;
    uint64_t data = executeOp(*op, opStatus);

    regchan::SealedRegResponse rsp = regchan::sealResponse(
        base.keys->aes(), base.keys->mac(), req.ctr, opStatus, data);
    out_[0] = rsp.ct0;
    out_[1] = rsp.ct1;
    out_[2] = rsp.mac;
    ++statRegOpOk_;
    status_ = kSmStatusOk;
}

void
SmLogic::doSecureBatch()
{
    uint64_t ctrBase = in_[0];
    uint64_t count = in_[1];
    uint64_t slotId = in_[2];
    uint64_t mac = in_[3];

    auto reject = [&] {
        ++statBatchRejected_;
        status_ = kSmStatusRejected;
    };

    // Shape checks first: a bad burst must reject without consuming
    // counter state or touching any key material beyond the MAC check.
    if (slotId >= kSmMaxSessions || !sessions_[slotId].open ||
        count == 0 || count > regchan::kMaxBatchOps ||
        burstIn_.size() != count * regchan::kRegBatchBlock) {
        reject();
        return;
    }
    SessionSlot &slot = sessions_[slotId];
    if (ctrBase <= slot.lastCtr ||
        ctrBase > UINT64_MAX - (count - 1)) {
        reject();
        return;
    }
    uint64_t expect = regchan::batchMac(
        slot.keys->mac(), static_cast<uint32_t>(slotId), ctrBase,
        burstIn_, /*response=*/false);
    if (!crypto::ctEqual64(mac, expect)) {
        reject();
        return;
    }
    // Authentic and fresh: the whole stride is consumed even if an op
    // inside reports an accelerator-level error.
    slot.lastCtr = ctrBase + (count - 1);

    // One keystream pass decrypts the whole burst in place; the ops
    // execute in order, their results are encoded straight into the
    // output FIFO, and one more pass encrypts it. No intermediate
    // plaintext vector.
    regchan::cryptBatchBlocks(slot.keys->aes(), /*response=*/false,
                              ctrBase, burstIn_.data(), count);
    burstOut_.assign(count * regchan::kRegBatchBlock, 0);
    burstOutPos_ = 0;
    for (uint64_t i = 0; i < count; ++i) {
        regchan::RegOp op = regchan::decodeBatchOp(
            burstIn_.data() + i * regchan::kRegBatchBlock);
        uint8_t opStatus = 0;
        uint64_t data = executeOp(op, opStatus);
        regchan::encodeBatchResult(
            opStatus, data, burstOut_.data() + i * regchan::kRegBatchBlock);
    }
    regchan::cryptBatchBlocks(slot.keys->aes(), /*response=*/true,
                              ctrBase, burstOut_.data(), count);
    out_[0] = count;
    out_[2] = regchan::batchMac(slot.keys->mac(),
                                static_cast<uint32_t>(slotId), ctrBase,
                                burstOut_, /*response=*/true);
    secureZero(burstIn_);
    burstIn_.clear();
    ++statBatchOk_;
    statBatchOps_ += count;
    status_ = kSmStatusOk;
}

void
SmLogic::doOpenSession()
{
    uint64_t slotId = in_[0];
    uint64_t nonce = in_[1];
    uint64_t mac = in_[3];

    SessionSlot &base = sessions_[0];
    // Slot 0 is the injected base session and can never be re-opened
    // from the bus; every open is authorized under the CURRENT base
    // MAC key with a strictly increasing per-slot nonce.
    if (slotId == 0 || slotId >= kSmMaxSessions ||
        nonce <= sessions_[slotId].openNonce ||
        !crypto::ctEqual64(
            mac, regchan::sessionOpenMac(base.keys->mac(),
                                         static_cast<uint32_t>(slotId),
                                         nonce))) {
        ++statBatchRejected_;
        status_ = kSmStatusRejected;
        return;
    }
    Bytes derived = regchan::deriveSlotSessionKeys(
        base.keys->block(), static_cast<uint32_t>(slotId), nonce);

    SessionSlot &slot = sessions_[slotId];
    slot.keys = std::make_unique<regchan::SessionKeys>(derived);
    secureZero(derived);
    slot.lastCtr = 0;
    slot.openNonce = nonce;
    slot.open = true;
    // Fresh keys mean a fresh DMA sequence space for the slot.
    slot.dmaExpectedSeq = 0;
    slot.dmaBuffer.clear();

    out_[0] = slotId;
    out_[1] = nonce + 1;
    status_ = kSmStatusOk;
}

void
SmLogic::doDmaDoorbell()
{
    uint64_t addr = in_[0];
    uint64_t len = in_[1];

    auto reject = [&] {
        ++statDmaRejected_;
        status_ = kSmStatusRejected;
    };

    if (!dram_ || len < dmachan::kDmaHeaderBytes + 8 ||
        len > dmachan::kDmaMaxEncoded) {
        reject();
        return;
    }
    Bytes encoded;
    try {
        encoded = dram_->read(addr, size_t(len));
    } catch (const DeviceError &) {
        reject();
        return;
    }
    dmachan::DmaDescriptor d;
    try {
        d = dmachan::decodeDescriptor(encoded);
    } catch (const SerdeError &) {
        reject();
        return;
    }
    if (d.sessionId >= kSmMaxSessions || !sessions_[d.sessionId].open) {
        reject();
        return;
    }
    SessionSlot &slot = sessions_[d.sessionId];
    // Fail closed on the MAC before looking at anything else the
    // descriptor claims; a forged descriptor never mutates state.
    if (!dmachan::verifyDescriptorMac(slot.keys->gcm(), encoded)) {
        reject();
        return;
    }
    // The counter stride is pinned to the sequence number, so strides
    // across applied descriptors are strictly increasing and a replay
    // can never line up a fresh keystream.
    if (d.ctrBase != d.seq * dmachan::kDmaCtrStride) {
        reject();
        return;
    }
    // Validate every target range now so applying can never fail
    // half-way through a scatter.
    for (const dmachan::DmaSgEntry &e : d.sg) {
        if (e.addr > dram_->size() || e.len > dram_->size() - e.addr) {
            reject();
            return;
        }
    }
    if (d.read) {
        size_t respLen = d.sgBytes() + dmachan::kDmaRespOverhead;
        if (d.respAddr > dram_->size() ||
            respLen > dram_->size() - d.respAddr) {
            reject();
            return;
        }
    }
    // Sync only ever jumps the window forward: a replayed sync
    // descriptor (old seq) cannot rewind it.
    if (d.sync) {
        if (d.seq < slot.dmaExpectedSeq) {
            reject();
            return;
        }
        slot.dmaExpectedSeq = d.seq;
        slot.dmaBuffer.clear();
    }
    if (d.seq < slot.dmaExpectedSeq ||                       // replayed
        d.seq >= slot.dmaExpectedSeq + dmachan::kDmaMaxWindow ||
        slot.dmaBuffer.count(d.seq) != 0) {                  // duplicate
        reject();
        return;
    }
    slot.dmaBuffer.emplace(d.seq, std::move(d));
    // Apply the in-order prefix; anything still out of order stays
    // buffered until the missing descriptor is retransmitted.
    for (auto it = slot.dmaBuffer.find(slot.dmaExpectedSeq);
         it != slot.dmaBuffer.end();
         it = slot.dmaBuffer.find(slot.dmaExpectedSeq)) {
        applyDmaDescriptor(slot, it->second.sessionId, it->second);
        slot.dmaBuffer.erase(it);
        ++slot.dmaExpectedSeq;
    }
    ++statDmaOk_;
    out_[0] = slot.dmaExpectedSeq;
    status_ = kSmStatusOk;
}

void
SmLogic::applyDmaDescriptor(SessionSlot &slot, uint32_t slotId,
                            dmachan::DmaDescriptor &d)
{
    if (d.read) {
        Bytes plain;
        plain.reserve(d.sgBytes());
        for (const dmachan::DmaSgEntry &e : d.sg) {
            Bytes part = dram_->read(e.addr, e.len);
            plain.insert(plain.end(), part.begin(), part.end());
        }
        Bytes blob = dmachan::sealReadResponse(slot.keys->gcm(), slotId,
                                               d.seq, d.ctrBase, plain);
        dram_->write(d.respAddr, blob);
        secureZero(plain);
        statDmaBytes_ += d.sgBytes();
    } else {
        dmachan::cryptDmaPayload(slot.keys->aes(), /*read=*/false,
                                 d.ctrBase, d.payload.data(),
                                 d.payload.size());
        size_t off = 0;
        for (const dmachan::DmaSgEntry &e : d.sg) {
            dram_->write(e.addr,
                         ByteView(d.payload.data() + off, e.len));
            off += e.len;
        }
        statDmaBytes_ += d.payload.size();
        secureZero(d.payload);
    }
}

void
SmLogic::doDmaAck()
{
    uint64_t slotId = in_[0];
    if (slotId >= kSmMaxSessions || !sessions_[slotId].open) {
        ++statDmaRejected_;
        status_ = kSmStatusRejected;
        return;
    }
    const SessionSlot &slot = sessions_[slotId];
    out_[0] = slot.dmaExpectedSeq;
    out_[1] = dmachan::ackMac(slot.keys->gcm(),
                              static_cast<uint32_t>(slotId),
                              slot.dmaExpectedSeq);
    status_ = kSmStatusOk;
}

void
SmLogic::registerIp()
{
    static bool done = [] {
        fpga::IpCatalog::global().registerIp(
            fpga::kIpSmLogic,
            [](const netlist::Cell &cell, const netlist::Netlist &design,
               const fpga::FabricServices &services) {
                return std::make_unique<SmLogic>(cell, design, services);
            });
        return true;
    }();
    (void)done;
}

} // namespace salus::core

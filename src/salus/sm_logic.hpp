/**
 * @file
 * The SM logic (paper §5.1 / Fig. 5): the manufacturer-released HDK
 * block every Salus CL integrates. Runs in the fabric, fronted by an
 * AXI4-Lite window the shell exposes to the host.
 *
 * Subcomponents mirrored from Fig. 5:
 *  - isolated on-chip BRAM holding Key_attest / Key_session /
 *    Ctr_session, whose init values come from configuration memory —
 *    i.e. from whatever the (manipulated) bitstream carried;
 *  - a SipHash engine + DNA_PORTE2 readout for CL attestation;
 *  - transparent register protection (AES-CTR + HMAC + monotonic
 *    counter) in front of the accelerator's control interface.
 *
 * Register map (byte offsets within the SM window):
 *   0x00 CMD     (w)  1 = attest, 2 = secure register op, 3 = rekey,
 *                     4 = heartbeat, 5 = secure batch, 6 = open session
 *   0x08 STATUS  (r)  0 idle, 1 ok, 2 rejected
 *   0x10..0x2f   IN0..IN3  operands
 *   0x30..0x4f   OUT0..OUT3 results
 *   0x50 BURST_IN  (w) append one burst payload word
 *   0x58 BURST_OUT (r) pop one burst response word
 *   0x60 BURST_RESET (w) clear both burst FIFOs
 */

#ifndef SALUS_SALUS_SM_LOGIC_HPP
#define SALUS_SALUS_SM_LOGIC_HPP

#include <array>
#include <map>
#include <memory>

#include "fpga/device.hpp"
#include "fpga/dram.hpp"
#include "salus/dma_channel.hpp"
#include "salus/reg_channel.hpp"

namespace salus::core {

/** SM logic register offsets. */
constexpr uint32_t kSmRegCmd = 0x00;
constexpr uint32_t kSmRegStatus = 0x08;
constexpr uint32_t kSmRegIn0 = 0x10;
constexpr uint32_t kSmRegIn1 = 0x18;
constexpr uint32_t kSmRegIn2 = 0x20;
constexpr uint32_t kSmRegIn3 = 0x28;
constexpr uint32_t kSmRegOut0 = 0x30;
constexpr uint32_t kSmRegOut1 = 0x38;
constexpr uint32_t kSmRegOut2 = 0x40;

// Burst FIFO window (batched register channel). A write to BURST_IN
// appends one 64-bit payload word; a read from BURST_OUT pops the
// next response word; a write to BURST_RESET clears both FIFOs.
constexpr uint32_t kSmRegBurstIn = 0x50;
constexpr uint32_t kSmRegBurstOut = 0x58;
constexpr uint32_t kSmRegBurstReset = 0x60;

/** CMD codes. */
constexpr uint64_t kSmCmdAttest = 1;
constexpr uint64_t kSmCmdSecureReg = 2;
/** Session re-key (extension): roll Key_session forward from a MACed
 *  nonce; see regchan::deriveRekeyedKeys. */
constexpr uint64_t kSmCmdRekey = 3;
/** MAC'd liveness probe (fleet supervision): prove the CL is alive
 *  and still holds this deployment's Key_attest. */
constexpr uint64_t kSmCmdHeartbeat = 4;
/** Batched secure register burst (extension): IN0 = ctrBase, IN1 =
 *  op count, IN2 = session slot, IN3 = burst MAC, payload streamed
 *  through BURST_IN, responses through BURST_OUT. */
constexpr uint64_t kSmCmdSecureBatch = 5;
/** Open a derived session slot (extension): IN0 = slot, IN1 = open
 *  nonce, IN3 = MAC under the base session's MAC key. */
constexpr uint64_t kSmCmdOpenSession = 6;
/** Sealed-DMA-descriptor doorbell (bulk data plane): IN0 = DRAM
 *  staging address of the encoded descriptor, IN1 = encoded length.
 *  OUT0 = the slot's cumulative ack after processing. */
constexpr uint64_t kSmCmdDmaDoorbell = 7;
/** Cumulative DMA ack readback: IN0 = session slot; OUT0 = lowest
 *  sequence number not yet applied, OUT1 = its MAC. */
constexpr uint64_t kSmCmdDmaAck = 8;

/** Session slots the fabric multiplexes (slot 0 = injected base). */
constexpr uint32_t kSmMaxSessions = 8;

/** Read-only diagnostic counters (non-secret, like AXI status regs). */
constexpr uint32_t kSmRegStatAttestOk = 0x80;
constexpr uint32_t kSmRegStatAttestRejected = 0x88;
constexpr uint32_t kSmRegStatRegOpOk = 0x90;
constexpr uint32_t kSmRegStatRegOpRejected = 0x98;
constexpr uint32_t kSmRegStatHeartbeatOk = 0xa0;
constexpr uint32_t kSmRegStatHeartbeatRejected = 0xa8;
constexpr uint32_t kSmRegStatBatchOk = 0xb0;
constexpr uint32_t kSmRegStatBatchRejected = 0xb8;
constexpr uint32_t kSmRegStatBatchOps = 0xc0;
constexpr uint32_t kSmRegStatSessionsOpen = 0xc8;
constexpr uint32_t kSmRegStatDmaOk = 0xd0;
constexpr uint32_t kSmRegStatDmaRejected = 0xd8;
constexpr uint32_t kSmRegStatDmaBytes = 0xe0;

/** STATUS values. */
constexpr uint64_t kSmStatusIdle = 0;
constexpr uint64_t kSmStatusOk = 1;
constexpr uint64_t kSmStatusRejected = 2;

/** The fabric-side behaviour implementation. */
class SmLogic : public fpga::IpBehavior
{
  public:
    SmLogic(const netlist::Cell &cell, const netlist::Netlist &design,
            const fpga::FabricServices &services);

    uint64_t readRegister(uint32_t addr) override;
    void writeRegister(uint32_t addr, uint64_t value) override;
    void connect(fpga::LoadedDesign &design) override;
    void reset() override;

    /** Registers the SM logic in the global IP catalog (idempotent). */
    static void registerIp();

  private:
    /** One multiplexed register-channel session. Slot 0 holds the
     *  BRAM-injected base keys; further slots hold keys derived by
     *  kSmCmdOpenSession. */
    struct SessionSlot
    {
        bool open = false;
        /** The slot's key block with its AES schedule and keyed HMAC,
         *  replaced only when the keys change (construction,
         *  open-session, re-key); every register and DMA message
         *  reuses them. */
        std::unique_ptr<regchan::SessionKeys> keys;
        uint64_t lastCtr = 0;
        uint64_t openNonce = 0; ///< strictly increasing per slot
        /** DMA plane: lowest sequence number not yet applied — also
         *  the cumulative ack value the host reads back. */
        uint64_t dmaExpectedSeq = 0;
        /** Bounded reorder buffer for out-of-order but in-window
         *  descriptors (<= dmachan::kDmaMaxWindow entries). */
        std::map<uint64_t, dmachan::DmaDescriptor> dmaBuffer;
    };

    void execute(uint64_t cmd);
    void doAttest();
    void doSecureReg();
    void doSecureBatch();
    void doOpenSession();
    void doRekey();
    void doHeartbeat();
    void doDmaDoorbell();
    void doDmaAck();
    void applyDmaDescriptor(SessionSlot &slot, uint32_t slotId,
                            dmachan::DmaDescriptor &d);
    uint64_t executeOp(const regchan::RegOp &op, uint8_t &opStatus);

    // Secrets as configured in BRAM (bitstream-manipulated values).
    Bytes keyAttest_;
    std::array<SessionSlot, kSmMaxSessions> sessions_;

    std::string accelPath_;
    fpga::IpBehavior *accel_ = nullptr;
    uint64_t dna_ = 0;
    fpga::DeviceDram *dram_ = nullptr; ///< DMA descriptor staging

    uint64_t status_ = kSmStatusIdle;
    uint64_t in_[4] = {};
    uint64_t out_[4] = {};

    // Burst FIFOs for the batched channel (bounded on-chip buffers).
    Bytes burstIn_;
    Bytes burstOut_;
    size_t burstOutPos_ = 0;

    // Diagnostic counters (bus-readable, non-secret).
    uint64_t statAttestOk_ = 0;
    uint64_t statAttestRejected_ = 0;
    uint64_t statRegOpOk_ = 0;
    uint64_t statRegOpRejected_ = 0;
    uint64_t statHeartbeatOk_ = 0;
    uint64_t statHeartbeatRejected_ = 0;
    uint64_t statBatchOk_ = 0;
    uint64_t statBatchRejected_ = 0;
    uint64_t statBatchOps_ = 0;
    uint64_t statDmaOk_ = 0;
    uint64_t statDmaRejected_ = 0;
    uint64_t statDmaBytes_ = 0;
};

} // namespace salus::core

#endif // SALUS_SALUS_SM_LOGIC_HPP

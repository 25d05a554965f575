/**
 * @file
 * The FPGA device model: configuration memory, eFUSE key storage,
 * DNA, the internal bitstream decryption engine, and the ICAP-style
 * configuration port with its (disable-able) readback capability.
 *
 * Trust boundary notes (paper §2.3, §3.1, §5.1.2):
 *  - the decrypt engine lives inside the fabric; programmable logic
 *    and the shell never observe plaintext frames or the eFUSE key;
 *  - loading a partial bitstream overwrites EVERY frame of the target
 *    partition (Observation 2) — there is no partial splice;
 *  - `readback()` models the ICAP readback path. Salus requires it
 *    disabled; the flag exists so tests can demonstrate the attack
 *    that motivates the requirement.
 */

#ifndef SALUS_FPGA_DEVICE_HPP
#define SALUS_FPGA_DEVICE_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/format.hpp"
#include "fpga/dram.hpp"
#include "fpga/ip.hpp"

namespace salus::sim {
class FaultInjector;
}

namespace salus::fpga {

/** Static description of a device model (geometry + partitions). */
struct DeviceModelInfo
{
    std::string name;
    uint32_t frameSize = 256;
    uint32_t totalFrames = 0;
    size_t dramBytes = 0;
    std::vector<bitstream::PartitionGeometry> partitions;

    const bitstream::PartitionGeometry *
    findPartition(uint32_t partitionId) const;
};

/**
 * Paper-scale device: one super logic region of an Alveo U200
 * reserved as the reconfigurable partition (Table 5 capacities;
 * ~32 MiB partial bitstream as in §6.3's timing).
 */
DeviceModelInfo u200ScaledModel();

/** Small geometry for fast unit tests (same structure, ~64 KiB RP). */
DeviceModelInfo testModel();

/**
 * Test-scale device with several reconfigurable partitions — the
 * multi-RP architecture of paper §4.7. Each RP integrates its own SM
 * logic and is programmed/attested independently.
 */
DeviceModelInfo testModelMultiRp(uint32_t rpCount);

/** Outcome of a configuration attempt. */
enum class LoadStatus {
    Ok = 0,
    NoKeyFused,       ///< encrypted load without a programmed eFUSE
    WrongDeviceModel, ///< blob targets a different device model
    DecryptFailed,    ///< GCM authentication failed (tamper/wrong key)
    MalformedBitstream,
    GeometryMismatch, ///< frames don't match a declared partition
    DesignUnusable,   ///< configured, but frames carry no valid design
};

/** Human-readable name for a LoadStatus. */
const char *loadStatusName(LoadStatus s);

/** Per-frame SECDED signature, recorded as a frame is configured. */
struct FrameEcc
{
    uint32_t xorIndex = 0; ///< XOR of (bit position + 1) of set bits
    uint8_t parity = 0;    ///< total set-bit parity

    bool operator==(const FrameEcc &) const = default;
};

/**
 * The signature of one frame (bit b of byte j is position 8j + b;
 * frames are under 4 GiB, like every frame size in a geometry). A
 * single flipped bit changes parity and XORs its position + 1 into
 * xorIndex, which is how scrub() locates and corrects it.
 */
FrameEcc frameEcc(ByteView frame);

/**
 * A design reconstructed from configuration memory: instantiated
 * behaviours plus the netlist view they were built from.
 */
class LoadedDesign
{
  public:
    LoadedDesign(netlist::Netlist design, const FabricServices &services);

    /** The netlist as read back from configuration frames. */
    const netlist::Netlist &design() const { return design_; }

    /** Behaviour instance for a logic cell; nullptr if absent. */
    IpBehavior *behaviorAt(const std::string &cellPath);

    /** Paths of all instantiated logic cells in design order. */
    std::vector<std::string> behaviorPaths() const;

  private:
    netlist::Netlist design_;
    std::vector<std::pair<std::string, std::unique_ptr<IpBehavior>>>
        behaviors_;
};

/** The FPGA card. */
class FpgaDevice
{
  public:
    FpgaDevice(DeviceModelInfo model, DeviceDna dna);

    const DeviceModelInfo &model() const { return model_; }
    DeviceDna dna() const { return dna_; }
    DeviceDram &dram() { return dram_; }

    // ---- Manufacturing-time provisioning ---------------------------
    /**
     * Programs the AES-256 bitstream key into eFUSE. One-shot.
     * @throws DeviceError on re-fusing or wrong key size.
     */
    void fuseKey(ByteView key32);
    bool keyFused() const { return keyFused_; }

    /** Enables/disables ICAP readback (manufacturer-released ICAP IP
     *  with readback removed == permanently false). */
    void setReadbackEnabled(bool enabled) { readbackEnabled_ = enabled; }
    bool readbackEnabled() const { return readbackEnabled_; }

    // ---- Configuration port (used by the shell) ---------------------
    /**
     * Loads an encrypted partial bitstream: checks the GCM tag over
     * the blob, decrypts the body straight into the partition's frames
     * (it covers every frame), validates the CRC, and instantiates the
     * design. A failed tag, or a plaintext that does not parse or
     * fails its CRC, leaves the partition cleared.
     */
    LoadStatus loadEncryptedPartial(ByteView blob);

    /** Loads a plaintext partial bitstream (legacy/unsecure FaaS). */
    LoadStatus loadCleartextPartial(ByteView file);

    /**
     * ICAP readback of a partition's configuration frames.
     * @throws DeviceError when readback is disabled (Salus mode).
     */
    Bytes readback(uint32_t partitionId) const;

    /** The design currently loaded in a partition (may be null). */
    LoadedDesign *design(uint32_t partitionId);

    /** Clears a partition (device reset / tenant teardown). */
    void clearPartition(uint32_t partitionId);

    // ---- Configuration-memory ECC / SEU handling --------------------
    // Model of the frame-ECC + scrubber machinery (Xilinx SEM IP):
    // the configuration engine records a per-frame SECDED signature
    // at load time; radiation-induced single-event upsets (SEUs) can
    // later be corrected by scrubbing, double upsets are detected.

    /** Outcome of one scrub pass over a partition. */
    struct ScrubReport
    {
        uint32_t framesScanned = 0;
        uint32_t corrected = 0;     ///< single-bit upsets repaired
        uint32_t uncorrectable = 0; ///< multi-bit upsets detected
    };

    /**
     * Flips one configuration bit in a partition (test/fault
     * injection; a real SEU).
     * @param bitIndex bit offset within the partition's frames.
     */
    void injectSeu(uint32_t partitionId, uint64_t bitIndex);

    /**
     * Scrubs a partition against its frame ECC. Single-bit errors are
     * corrected in place; a frame with an uncorrectable error marks
     * the partition's design unusable (fatal, as with the SEM IP).
     */
    ScrubReport scrub(uint32_t partitionId);

    /**
     * Wires the deterministic fault fabric: scheduled radiation upsets
     * land in configuration memory, and bitstream loads can fail their
     * GCM check mid-stream (a bit flipped in flight).
     */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        fault_ = injector;
    }

    /** Fleet position of this device; scopes device-targeted fault
     *  rules (DeviceDead kills loads too, SEUs can be per-device). */
    void setDeviceIndex(uint32_t index) { deviceIndex_ = index; }
    uint32_t deviceIndex() const { return deviceIndex_; }

  private:
    /** Drains scheduled SEUs from the fault plan into config memory. */
    void applyPendingSeus();

    /** The partition with exactly this id and geometry, or null. */
    const bitstream::PartitionGeometry *
    matchPartition(uint32_t partitionId, uint32_t frameStart,
                   uint32_t frameCount, uint32_t frameSize) const;
    /** Records frame ECC and instantiates the design of a partition
     *  whose frames were just written. */
    LoadStatus configureFrames(const bitstream::PartitionGeometry &part);

    DeviceModelInfo model_;
    DeviceDna dna_;
    DeviceDram dram_;
    ZeroedBytes configMem_; ///< every frame; untouched pages unmapped
    uint8_t efuse_[32] = {};
    bool keyFused_ = false;
    bool readbackEnabled_ = false;
    std::map<uint32_t, std::unique_ptr<LoadedDesign>> designs_;
    std::map<uint32_t, std::vector<FrameEcc>> ecc_;
    sim::FaultInjector *fault_ = nullptr;
    uint32_t deviceIndex_ = 0;
};

} // namespace salus::fpga

#endif // SALUS_FPGA_DEVICE_HPP

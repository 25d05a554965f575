/**
 * @file
 * Calibrated cost model. Every constant is derived from the paper's
 * §6.3 measurements (Figure 9) or public component datasheets, so the
 * virtual-clock totals reproduce the paper's boot-time *shape*.
 *
 * Calibration anchors (paper, Xilinx U200 + Ice Lake SGX testbed):
 *   - total extra boot time:            18.8 s   (Fig. 9, axis 18835 ms)
 *   - bitstream manipulation:           73.2 % of total = ~13.79 s
 *     (RapidWright hosted by Occlum inside the enclave)
 *   - bitstream verification+encryption: 725 ms
 *   - device key distribution:           1709 ms (intra-cloud DCAP)
 *   - user enclave remote attestation:   2568 ms (WAN DCAP)
 *   - local attestation:                 836 us
 *   - CL attestation:                    1.3 ms
 */

#ifndef SALUS_SIM_COST_MODEL_HPP
#define SALUS_SIM_COST_MODEL_HPP

#include <cstddef>

#include "sim/clock.hpp"

namespace salus::sim {

/** Link classes used by the RPC layer. */
enum class LinkKind {
    IntraCloud, ///< manufacturer server <-> cloud instance
    Wan,        ///< user client <-> cloud instance / DCAP service
    Pcie,       ///< host <-> FPGA shell
};

/**
 * Named cost constants plus size-dependent helpers. Defaults are the
 * paper calibration; tests may zero fields for pure-logic runs.
 */
struct CostModel
{
    // ---- Network -----------------------------------------------------
    Nanos wanRtt = 150 * kMs;      ///< client <-> cloud round trip
    Nanos cloudRtt = 20 * kMs;     ///< intra-cloud round trip
    Nanos loopbackRtt = 100 * kUs; ///< same-host IPC round trip
    /** Register access through the shell's ioctl/driver path — the
     *  secure-window ops of the CL attestation (paper: 1.3 ms for a
     *  handful of transactions implies driver-mediated access). */
    Nanos pcieRtt = 160 * kUs;
    /** Userspace-mapped MMIO access (direct window, doorbells). */
    Nanos mmioLatency = 2 * kUs;
    /** Payload bandwidth per link, bytes per second. */
    double wanBandwidth = 12.5e6;    ///< ~100 Mbit/s
    double cloudBandwidth = 1.25e9;  ///< ~10 Gbit/s
    double pcieBandwidth = 3.0e9;    ///< effective PCIe Gen3 x8 DMA

    // ---- TEE ----------------------------------------------------------
    Nanos enclaveTransition = 10 * kUs; ///< ECALL/OCALL pair
    Nanos quoteGeneration = 200 * kMs;  ///< DCAP quote generation
    /** Quote verification at the verifying service (collateral
     *  validation, TCB evaluation; calibrated so user RA totals the
     *  paper's 2568 ms over the WAN). */
    Nanos quoteVerification = 850 * kMs;
    /** HSM access + audit path when the manufacturer releases a
     *  device key (calibrated to the paper's 1709 ms key phase). */
    Nanos keyEscrowProcessing = 480 * kMs;
    /** Extra round trips a verifier spends fetching collateral. */
    int dcapCollateralRoundTrips = 8;
    Nanos localAttestCompute = 300 * kUs; ///< ECDH + report per side

    // ---- Bitstream operations (inside SM enclave) ---------------------
    /** RapidWright-under-Occlum manipulation throughput (paper: a
     *  32 MiB SLR bitstream takes ~13.8 s). */
    double manipulationBytesPerSec = 2.433e6;
    /** SHA-256 digest + AES-GCM-256 encryption in-enclave (paper:
     *  725 ms for the same bitstream). */
    double verifyEncryptBytesPerSec = 46.3e6;

    // ---- FPGA ----------------------------------------------------------
    /** ICAP configuration rate including inline AES-GCM decryption. */
    double fpgaConfigBytesPerSec = 800e6;
    Nanos fpgaDnaReadout = 1 * kUs;   ///< DNA_PORTE2 shift-out
    Nanos smLogicMac = 2 * kUs;       ///< SipHash over a request
    Nanos efuseKeyLatch = 5 * kUs;    ///< key load into decrypt engine
    /** One SEM-IP style frame-ECC scrub pass over a partition. */
    Nanos seuScrubPass = 8 * kMs;

    // ---- Secure register channel crypto --------------------------------
    /** One AES-128-CTR block (en/decrypt 16 bytes) in the enclave or
     *  the fabric's AES engine. */
    Nanos aesCtrBlock = 120;
    /** Fixed HMAC-SHA256 cost per sealed message (key schedule +
     *  finalization); batches pay it once, not per op. */
    Nanos channelMacBase = 1 * kUs;
    /** Incremental HMAC cost per additional 16-byte payload block. */
    Nanos channelMacPerBlock = 60;

    // ---- Secure DMA data plane -----------------------------------------
    /** Bulk AES-CTR throughput of the pipelined DMA engines (wide
     *  datapath + precomputed keystream, so much faster than the
     *  per-block register-channel path). */
    double dmaCryptoBytesPerSec = 4.0e9;
    /** Fixed per-descriptor cost: header marshalling, scatter-gather
     *  list encode and the truncated-HMAC seal. */
    Nanos dmaDescriptorSeal = 2 * kUs;

    // ---- ShEF baseline (§6.3 comparison, boot 5.1 s) -------------------
    /** Bitstream hash/measurement on the embedded security kernel. */
    double shefMeasureBytesPerSec = 8e6;
    Nanos shefSignatureOp = 120 * kMs; ///< RSA/ECDSA on embedded core
    int shefCaRoundTrips = 2;          ///< certificate chain fetches

    // ---- Helpers -------------------------------------------------------
    /** One request/response over the given link carrying the given
     *  payload sizes. */
    Nanos rpc(LinkKind link, size_t requestBytes,
              size_t responseBytes) const;

    /** Manipulating a bitstream of the given size in the enclave. */
    Nanos bitstreamManipulation(size_t bytes) const;

    /** Digest check + AES-GCM encryption of a bitstream. */
    Nanos bitstreamVerifyEncrypt(size_t bytes) const;

    /** DMA of a bitstream to the card plus ICAP configuration. */
    Nanos bitstreamDeployment(size_t bytes) const;

    /** Full remote attestation as seen by the verifier on `link`. */
    Nanos remoteAttestation(LinkKind link) const;

    /** Local attestation between two enclaves on one host. */
    Nanos localAttestation() const;

    /** Salus CL attestation over PCIe (one challenge/response). */
    Nanos clAttestation() const;

    /** ShEF-style PKE remote attestation of a CL (baseline). */
    Nanos shefClAttestation(size_t bitstreamBytes) const;

    /** Host-side crypto for one sealed burst of `ops` register ops:
     *  one CTR block per op each way plus a single MAC pass over
     *  request and response payloads. */
    Nanos batchCrypto(size_t ops) const;

    /** Host-side crypto for one sealed DMA descriptor carrying `bytes`
     *  of payload: fixed seal cost plus bulk CTR keystream time. */
    Nanos dmaCrypto(size_t bytes) const;
};

/** Per-byte transfer time helper. */
Nanos transferTime(double bytesPerSec, size_t bytes);

} // namespace salus::sim

#endif // SALUS_SIM_COST_MODEL_HPP

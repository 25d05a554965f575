/**
 * @file
 * ShEF-style baseline (Zhao et al., ASPLOS'22) as characterized by the
 * paper (§1 Challenge 2, §3.2, Table 1): a *standalone* FPGA TEE that
 * needs extra secure hardware — an embedded security kernel whose
 * BootROM holds a manufacturing-injected device keypair — and attests
 * the CL with public-key remote attestation through a certificate
 * authority (the CL developer).
 *
 * Reproduced here so Table 1 and the §6.3 boot-time comparison run
 * against real code: the device measures the bitstream on its slow
 * embedded core, signs with the BootROM key, and the verifier walks
 * the certificate chain over the WAN.
 */

#ifndef SALUS_BASELINE_SHEF_HPP
#define SALUS_BASELINE_SHEF_HPP

#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"
#include "sim/clock.hpp"
#include "sim/cost_model.hpp"

namespace salus::baseline {

/** Virtual-clock phases of one ShEF boot. */
inline const char *const kShefMeasurePhase = "ShEF: CL measurement";
inline const char *const kShefSignPhase = "ShEF: signature";
inline const char *const kShefCaPhase = "ShEF: CA round trips";
inline const char *const kShefVerifyPhase = "ShEF: signature verification";

/** Certificate binding a device attestation key to the manufacturer. */
struct ShefDeviceCert
{
    std::string deviceId;
    Bytes devicePublicKey;
    Bytes signature; ///< by the manufacturer root

    Bytes signedPortion() const;
};

/** Signed measurement of a loaded CL. */
struct ShefAttestation
{
    Bytes measurement; ///< SHA-256 of the bitstream
    Bytes nonce;
    Bytes signature;   ///< by the device key
    ShefDeviceCert cert;

    Bytes signedPortion() const;
};

/** The FPGA with ShEF's extra security-kernel hardware. */
class ShefDevice
{
  public:
    ShefDevice(std::string deviceId, ByteView manufacturerRootSeed,
               crypto::RandomSource &rng);

    const ShefDeviceCert &cert() const { return cert_; }

    /**
     * Loads a CL and produces the signed measurement. Charges the
     * embedded core's hash + signature time to the clock.
     */
    ShefAttestation loadAndAttest(ByteView bitstream, ByteView nonce,
                                  sim::VirtualClock &clock,
                                  const sim::CostModel &cost);

  private:
    std::string deviceId_;
    crypto::Ed25519KeyPair deviceKey_; ///< BootROM-injected
    ShefDeviceCert cert_;
};

/** The CL developer acting as certificate authority (paper §1). */
class ShefVerifier
{
  public:
    ShefVerifier(Bytes manufacturerRootPub, Bytes expectedMeasurement);

    /**
     * Remote attestation check: cert chain + signature + measurement
     * + nonce. Charges WAN CA round trips to the clock.
     */
    bool verify(const ShefAttestation &att, ByteView nonce,
                sim::VirtualClock &clock,
                const sim::CostModel &cost) const;

  private:
    Bytes rootPub_;
    Bytes expectedMeasurement_;
};

/** Manufacturer root key derivation shared by device and verifier. */
crypto::Ed25519KeyPair shefManufacturerRoot(ByteView seed);

} // namespace salus::baseline

#endif // SALUS_BASELINE_SHEF_HPP

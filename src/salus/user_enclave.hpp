/**
 * @file
 * The user enclave application (paper Fig. 3 / Fig. 7, left).
 * Developed by the developer, deployed by the data owner; it anchors
 * the cascaded attestation (§4.4):
 *
 *   A remote-attestation request from the user client triggers, in
 *   order: local attestation of the SM enclave, metadata hand-off,
 *   the SM-driven secure CL boot, and the CL attestation — and only
 *   then does this enclave generate its RA quote, with report data
 *   binding the client nonce, the SM measurement, the CL metadata
 *   digest, the boot outcome, and a fresh key-wrap public key. One
 *   round trip attests the whole heterogeneous platform.
 */

#ifndef SALUS_SALUS_USER_ENCLAVE_HPP
#define SALUS_SALUS_USER_ENCLAVE_HPP

#include <functional>

#include "salus/messages.hpp"
#include "salus/reg_channel.hpp"
#include "salus/sim_hooks.hpp"
#include "tee/local_attest.hpp"
#include "tee/platform.hpp"

namespace salus::core {

/** Transport handles into the (co-located) SM application. All of
 *  these run through the untrusted host process. */
struct SmTransport
{
    std::function<Bytes(ByteView)> la1;     ///< msg1 -> msg2
    std::function<bool(ByteView)> la3;      ///< msg3 -> accepted
    std::function<Bytes(ByteView)> channel; ///< sealed req -> sealed rsp
};

/** Serialized RA request from the user client. */
struct RaRequest
{
    Bytes clientNonce;  ///< freshness challenge
    Bytes metadata;     ///< serialized ClMetadata

    Bytes serialize() const;
    static RaRequest deserialize(ByteView data);
};

/** Serialized RA response carrying the cascaded attestation report. */
struct RaResponse
{
    Bytes quote;        ///< serialized tee::Quote
    Bytes wrapPubKey;   ///< enclave X25519 key for the data key
    uint8_t clAttested = 0;
    uint8_t laAttested = 0;
    std::string failure;
    /** Nonzero when the failure is transport-class (garbled request,
     *  channel hiccup) and a fresh attempt may succeed. Security
     *  rejections leave it 0 so the client never retries them. */
    uint8_t retryable = 0;

    Bytes serialize() const;
    static RaResponse deserialize(ByteView data);
};

/** Computes the report-data binding both sides must agree on. */
Bytes cascadedReportData(ByteView clientNonce, ByteView metadataDigest,
                         const tee::Measurement &smMeasurement,
                         bool laOk, bool clOk, ByteView wrapPubKey);

/** The user enclave program. */
class UserEnclaveApp : public tee::Enclave
{
  public:
    /**
     * @param image the developer's enclave build (measured identity).
     * @param expectedSm the published SM enclave measurement to pin.
     */
    UserEnclaveApp(tee::TeePlatform &platform, tee::EnclaveImage image,
                   tee::Measurement expectedSm, SmTransport transport,
                   SimHooks sim);

    /** A reasonable default developer image for tests/examples. */
    static tee::EnclaveImage defaultImage();

    /**
     * Untrusted-host entry: handles the client's RA request by
     * running the full cascaded flow. Always returns a response;
     * failures are reported in it (and yield no usable quote).
     */
    Bytes handleRaRequest(ByteView request);

    /**
     * Untrusted-host entry: accepts the client's wrapped data key
     * after successful attestation. @return true when unwrapped.
     */
    bool acceptDataKey(ByteView sealedDataKey);

    /** True once the client's data key has been installed. */
    bool hasDataKey() const { return !dataKey_.empty(); }

    /**
     * Pushes the data key into the accelerator through the secure
     * register channel (the §4.5 usage pattern), as four 64-bit
     * writes starting at `baseAddr`.
     */
    bool pushDataKeyToCl(uint32_t baseAddr);

    /** Secure register ops proxied via the SM enclave (§4.5). */
    std::optional<uint64_t> secureRead(uint32_t addr);
    bool secureWrite(uint32_t addr, uint64_t data);

    /**
     * Tenant attach (extension): runs only the local attestation of
     * the SM enclave plus a status query — no metadata, no boot — for
     * peers joining an already-booted platform. @return true when the
     * LA pinned the expected SM and the CL reports attested.
     */
    bool attachToPlatform();

    /**
     * Sends a burst of register ops over the batched channel in one
     * sealed round trip. @return one result per op, in order; empty on
     * channel failure.
     */
    std::vector<regchan::BatchResult>
    secureBatch(const std::vector<regchan::RegOp> &ops);

    /** Requests a session re-key of the register channel. */
    bool rekeySession();

    /** Data key accessor for trusted in-enclave compute paths. */
    const Bytes &dataKey() const { return dataKey_; }

  private:
    Bytes channelRoundtrip(ByteView plainRequest);

    tee::Measurement expectedSm_;
    SmTransport transport_;
    SimHooks sim_;
    std::unique_ptr<tee::LocalAttestInitiator> la_;
    bool laOk_ = false;
    uint64_t channelSeq_ = 0;
    Bytes wrapPriv_, wrapPub_;
    Bytes dataKey_;
};

} // namespace salus::core

#endif // SALUS_SALUS_USER_ENCLAVE_HPP

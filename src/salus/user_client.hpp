/**
 * @file
 * The user client — the data owner's trusted machine (paper Fig. 6,
 * left). It issues one remote-attestation request, verifies the
 * cascaded report covering {user enclave, SM enclave, CL}, and only
 * then uploads the data key, wrapped to the attested enclave.
 */

#ifndef SALUS_SALUS_USER_CLIENT_HPP
#define SALUS_SALUS_USER_CLIENT_HPP

#include "crypto/random.hpp"
#include "net/network.hpp"
#include "salus/messages.hpp"
#include "salus/sim_hooks.hpp"
#include "tee/quote_verifier.hpp"

namespace salus::core {

/** Everything the data owner must know before deploying. */
struct ClientConfig
{
    tee::Measurement expectedUserEnclave; ///< from the developer
    tee::Measurement expectedSm;          ///< published SM SDK build
    ClMetadata metadata;                  ///< H + Loc_* from developer
    std::string selfEndpoint;
    std::string cloudEndpoint;
    /** Optional policy: pin the developer identity (MRSIGNER). */
    tee::Measurement expectedUserSigner;
    /** Optional policy: minimum user-enclave security version. */
    uint16_t minUserIsvSvn = 0;
    /** Retry schedule for transport-class failures. Each attempt uses
     *  a FRESH nonce (and the final key upload fresh key material), so
     *  retrying can never turn a replay into acceptance; security
     *  rejections are never retried. Default: no retries. */
    net::RetryPolicy retry;
};

/** The data owner's deployment driver. */
class UserClient
{
  public:
    /**
     * @param qvs the (remote) quote verification service; the client
     *            reaches it over the WAN, which the cost model charges.
     */
    UserClient(ClientConfig config,
               const tee::QuoteVerificationService &qvs,
               net::Network &network, crypto::RandomSource &rng,
               SimHooks sim);

    /** Result of the one-round-trip platform attestation. */
    struct Outcome
    {
        bool ok = false;
        std::string failure;
        Bytes dataKey; ///< uploaded key when ok
        /** Typed classification of the final failure (None on ok). */
        net::FailureClass failureClass = net::FailureClass::None;
        /** Deployment attempts consumed (>= 1 once run). */
        int attempts = 0;
    };

    /**
     * Runs the full cascaded attestation (paper Fig. 4b) and, on
     * success, uploads a fresh data key to the user enclave.
     * Transport-class failures are retried per config.retry, each
     * attempt with a fresh nonce; security rejections return
     * immediately and are never retried.
     */
    Outcome deployAndAttest();

  private:
    /** One full attestation round trip (one nonce). */
    Outcome attemptOnce();

    ClientConfig config_;
    const tee::QuoteVerificationService &qvs_;
    net::Network &network_;
    crypto::RandomSource &rng_;
    SimHooks sim_;
};

} // namespace salus::core

#endif // SALUS_SALUS_USER_CLIENT_HPP

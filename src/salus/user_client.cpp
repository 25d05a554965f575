#include "salus/user_client.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/ct.hpp"
#include "crypto/x25519.hpp"
#include "obs/trace.hpp"
#include "salus/user_enclave.hpp"

namespace salus::core {

UserClient::UserClient(ClientConfig config,
                       const tee::QuoteVerificationService &qvs,
                       net::Network &network, crypto::RandomSource &rng,
                       SimHooks sim)
    : config_(std::move(config)), qvs_(qvs), network_(network),
      rng_(rng), sim_(sim)
{
}

UserClient::Outcome
UserClient::deployAndAttest()
{
    obs::Span span(obs::Category::Attestation, "deploy_and_attest");
    Outcome out;
    int maxAttempts = std::max(1, config_.retry.maxAttempts);
    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
        if (attempt > 1) {
            sim_.spend(net::kRetryBackoffPhase,
                       config_.retry.backoffBefore(attempt));
        }
        out = attemptOnce();
        out.attempts = attempt;
        // Security rejections and broker policy verdicts are both
        // deterministic: retrying replays the same request into the
        // same refusal, so neither class is ever retried.
        if (out.ok || out.failureClass == net::FailureClass::Security ||
            out.failureClass == net::FailureClass::Policy)
            return out;
    }
    if (maxAttempts > 1)
        out.failure += " (after " + std::to_string(maxAttempts) +
                       " attempts)";
    return out;
}

UserClient::Outcome
UserClient::attemptOnce()
{
    obs::Span span(obs::Category::Attestation, "ra_attempt");
    Outcome out;
    sim::ScopedPhase phase(*sim_.clock, phases::kUserRa);

    // --- ② RA request (single round trip, Fig. 4b) -------------------
    // The nonce is fresh per attempt: a replayed response from an
    // earlier attempt can never satisfy the binding check below.
    RaRequest req;
    req.clientNonce = rng_.bytes(32);
    req.metadata = config_.metadata.serialize();

    Bytes respBytes;
    try {
        respBytes = network_.call(config_.selfEndpoint,
                                  config_.cloudEndpoint, "raRequest",
                                  req.serialize(), phases::kUserRa,
                                  config_.retry.deadline);
    } catch (const TimeoutError &e) {
        out.failure = std::string("RA timed out: ") + e.what();
        out.failureClass = net::FailureClass::Timeout;
        return out;
    } catch (const PolicyError &e) {
        // A broker fronting the cloud host refused admission
        // (quota/rate/overload). Non-retryable: the verdict is
        // deterministic until capacity frees or virtual time passes.
        out.failure = std::string("deployment refused by policy: ") +
                      e.what();
        out.failureClass = net::FailureClass::Policy;
        return out;
    } catch (const NetError &e) {
        out.failure = std::string("RA transport failure: ") + e.what();
        out.failureClass = net::FailureClass::Transport;
        return out;
    }

    RaResponse resp;
    tee::Quote quote;
    try {
        resp = RaResponse::deserialize(respBytes);
        if (!resp.failure.empty()) {
            out.failure = "platform reported: " + resp.failure;
            out.failureClass = resp.retryable
                                   ? net::FailureClass::Transport
                                   : net::FailureClass::Security;
            return out;
        }
        quote = tee::Quote::deserialize(resp.quote);
    } catch (const SalusError &) {
        // A response we cannot even parse was garbled in flight (or
        // forged — in which case retrying is equally useless and
        // equally safe, since nothing was accepted).
        out.failure = "malformed RA response";
        out.failureClass = net::FailureClass::Transport;
        return out;
    }

    // --- verify the quote via the (WAN) verification service ---------
    sim_.spend(phases::kUserRa,
               sim_.cost->quoteVerificationOver(sim::LinkKind::Wan));
    tee::QuoteVerdict verdict = qvs_.verify(quote);
    if (!verdict.ok) {
        out.failure = "quote verification failed: " + verdict.reason;
        out.failureClass = net::FailureClass::Security;
        return out;
    }
    if (verdict.body.mrenclave != config_.expectedUserEnclave) {
        out.failure = "user enclave measurement mismatch";
        out.failureClass = net::FailureClass::Security;
        return out;
    }
    if (!config_.expectedUserSigner.empty() &&
        verdict.body.mrsigner != config_.expectedUserSigner) {
        out.failure = "user enclave signer (MRSIGNER) mismatch";
        out.failureClass = net::FailureClass::Security;
        return out;
    }
    if (verdict.body.isvSvn < config_.minUserIsvSvn) {
        out.failure = "user enclave security version too old";
        out.failureClass = net::FailureClass::Security;
        return out;
    }

    // --- check the cascaded binding -----------------------------------
    // The report data must prove that THIS nonce, THIS metadata, the
    // pinned SM build, successful LA + CL attestation, and THIS wrap
    // key were all bound together inside the enclave.
    Bytes expect = tee::padReportData(cascadedReportData(
        req.clientNonce, config_.metadata.digest(), config_.expectedSm,
        true, true, resp.wrapPubKey));
    if (!crypto::ctEqual(verdict.body.reportData, expect)) {
        out.failure = "cascaded report binding mismatch";
        out.failureClass = net::FailureClass::Security;
        return out;
    }

    // --- upload the data key, wrapped to the attested enclave --------
    out.dataKey = rng_.bytes(32);
    crypto::X25519KeyPair eph = crypto::x25519Generate(rng_);
    Bytes wrapKey;
    try {
        wrapKey = crypto::deriveSessionKey(eph.privateKey,
                                           resp.wrapPubKey,
                                           "salus-datakey-v1", 32);
    } catch (const CryptoError &) {
        // The wrap key is attested (bound in the report data), so a
        // bad one got past verification — a security problem, not a
        // transport one.
        out.failure = "bad enclave wrap key";
        out.failureClass = net::FailureClass::Security;
        return out;
    }
    crypto::AesGcm gcm(wrapKey);
    secureZero(wrapKey);
    Bytes iv = rng_.bytes(12);
    crypto::GcmSealed sealed = gcm.seal(iv, ByteView(), out.dataKey);

    BinaryWriter w;
    w.writeBytes(eph.publicKey);
    w.writeBytes(iv);
    w.writeBytes(sealed.ciphertext);
    w.writeBytes(sealed.tag);

    // The upload is idempotent (re-installing the same wrapped key is
    // a no-op), so the transport layer may retry it directly.
    net::CallOutcome upload = network_.callWithRetry(
        config_.selfEndpoint, config_.cloudEndpoint, "dataKey", w.data(),
        config_.retry, phases::kUserRa);
    if (!upload.ok()) {
        out.failure = "data key upload failed: " + upload.error;
        out.failureClass = upload.failure;
        return out;
    }
    if (upload.response.size() != 1 || upload.response[0] != 1) {
        // GCM authentication inside the enclave rejects a garbled
        // blob; the key was NOT accepted, so a fresh outer attempt
        // (with fresh key material) is safe.
        out.failure = "enclave did not accept the data key";
        out.failureClass = net::FailureClass::Transport;
        return out;
    }

    out.ok = true;
    out.failureClass = net::FailureClass::None;
    return out;
}

} // namespace salus::core

#include "tee/local_attest.hpp"

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"

namespace salus::tee {

namespace {

constexpr size_t kNonceSize = 16;

/** Transcript hash binding a report to the DH exchange. */
Bytes
binding(ByteView nonce, ByteView ephA, ByteView ephB, const char *role)
{
    return crypto::Sha256::digest(concatBytes(
        {nonce, ephA, ephB, bytesFromString(role)}));
}

Bytes
sessionKey(ByteView shared, ByteView nonce, const Measurement &initiator,
           const Measurement &responder)
{
    Bytes info = concatBytes(
        {bytesFromString("salus-la-v1"), initiator, responder});
    return crypto::hkdf(nonce, shared, info, 32);
}

} // namespace

LocalAttestInitiator::LocalAttestInitiator(Enclave &self,
                                           Measurement expectedPeer)
    : self_(self), expectedPeer_(std::move(expectedPeer))
{
}

Bytes
LocalAttestInitiator::start()
{
    nonce_ = self_.rng().bytes(kNonceSize);
    crypto::X25519KeyPair kp = crypto::x25519Generate(self_.rng());
    ephPriv_ = kp.privateKey;
    ephPub_ = kp.publicKey;

    BinaryWriter w;
    w.writeBytes(self_.measurement());
    w.writeBytes(nonce_);
    w.writeBytes(ephPub_);
    return w.take();
}

std::optional<Bytes>
LocalAttestInitiator::finish(ByteView msg2)
{
    Report report;
    Bytes peerEph;
    try {
        BinaryReader r(msg2);
        report = Report::deserialize(r.readBytes());
        peerEph = r.readBytes();
    } catch (const SalusError &) {
        return std::nullopt;
    }
    if (peerEph.size() != crypto::kX25519KeySize)
        return std::nullopt;

    // 1. The report must be MACed with *our* report key (same
    //    platform), 2. carry the expected peer measurement, and
    //    3. bind this very DH exchange.
    if (!self_.verifyLocalReport(report))
        return std::nullopt;
    if (report.body.mrenclave != expectedPeer_)
        return std::nullopt;
    Bytes expectBind =
        padReportData(binding(nonce_, ephPub_, peerEph, "responder"));
    if (!crypto::ctEqual(report.body.reportData, expectBind))
        return std::nullopt;

    Bytes shared;
    try {
        shared = crypto::x25519Shared(ephPriv_, peerEph);
    } catch (const CryptoError &) {
        return std::nullopt;
    }
    session_.key = sessionKey(shared, nonce_, self_.measurement(),
                              report.body.mrenclave);
    session_.peer = report.body.mrenclave;
    established_ = true;
    secureZero(shared);

    Report confirm = self_.createReport(
        report.body.mrenclave,
        binding(nonce_, peerEph, ephPub_, "initiator"));
    BinaryWriter w;
    w.writeBytes(confirm.serialize());
    return w.take();
}

LocalAttestResponder::LocalAttestResponder(Enclave &self,
                                           Measurement expectedPeer)
    : self_(self), expectedPeer_(std::move(expectedPeer))
{
}

std::optional<Bytes>
LocalAttestResponder::answer(ByteView msg1)
{
    try {
        BinaryReader r(msg1);
        claimedPeer_ = r.readBytes();
        nonce_ = r.readBytes();
        peerEphPub_ = r.readBytes();
    } catch (const SalusError &) {
        return std::nullopt;
    }
    if (claimedPeer_.size() != 32 || nonce_.size() != kNonceSize ||
        peerEphPub_.size() != crypto::kX25519KeySize) {
        return std::nullopt;
    }

    crypto::X25519KeyPair kp = crypto::x25519Generate(self_.rng());
    ephPriv_ = kp.privateKey;
    ephPub_ = kp.publicKey;

    Report report = self_.createReport(
        claimedPeer_, binding(nonce_, peerEphPub_, ephPub_, "responder"));

    BinaryWriter w;
    w.writeBytes(report.serialize());
    w.writeBytes(ephPub_);
    return w.take();
}

bool
LocalAttestResponder::confirm(ByteView msg3)
{
    Report report;
    try {
        BinaryReader r(msg3);
        report = Report::deserialize(r.readBytes());
    } catch (const SalusError &) {
        return false;
    }

    if (!self_.verifyLocalReport(report))
        return false;
    // Empty expectedPeer_ = accept any same-platform enclave (the SM
    // enclave's policy: it serves whichever user enclave the instance
    // runs; the *user* side always pins the SM measurement).
    if (!expectedPeer_.empty() && report.body.mrenclave != expectedPeer_)
        return false;
    if (report.body.mrenclave != claimedPeer_)
        return false;
    Bytes expectBind =
        padReportData(binding(nonce_, ephPub_, peerEphPub_, "initiator"));
    if (!crypto::ctEqual(report.body.reportData, expectBind))
        return false;

    Bytes shared;
    try {
        shared = crypto::x25519Shared(ephPriv_, peerEphPub_);
    } catch (const CryptoError &) {
        return false;
    }
    session_.key = sessionKey(shared, nonce_, report.body.mrenclave,
                              self_.measurement());
    session_.peer = report.body.mrenclave;
    established_ = true;
    secureZero(shared);
    return true;
}

} // namespace salus::tee

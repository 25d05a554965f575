#include "salus/user_enclave.hpp"

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/serde.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "obs/trace.hpp"
#include "salus/sm_enclave.hpp"

namespace salus::core {

namespace {

const char *const kDirUp = "salus-chan-u2s";
const char *const kDirDown = "salus-chan-s2u";

} // namespace

Bytes
RaRequest::serialize() const
{
    BinaryWriter w;
    w.writeBytes(clientNonce);
    w.writeBytes(metadata);
    return w.take();
}

RaRequest
RaRequest::deserialize(ByteView data)
{
    BinaryReader r(data);
    RaRequest req;
    req.clientNonce = r.readBytes();
    req.metadata = r.readBytes();
    return req;
}

Bytes
RaResponse::serialize() const
{
    BinaryWriter w;
    w.writeBytes(quote);
    w.writeBytes(wrapPubKey);
    w.writeU8(clAttested);
    w.writeU8(laAttested);
    w.writeString(failure);
    w.writeU8(retryable);
    return w.take();
}

RaResponse
RaResponse::deserialize(ByteView data)
{
    BinaryReader r(data);
    RaResponse resp;
    resp.quote = r.readBytes();
    resp.wrapPubKey = r.readBytes();
    resp.clAttested = r.readU8();
    resp.laAttested = r.readU8();
    resp.failure = r.readString();
    resp.retryable = r.readU8();
    return resp;
}

Bytes
cascadedReportData(ByteView clientNonce, ByteView metadataDigest,
                   const tee::Measurement &smMeasurement, bool laOk,
                   bool clOk, ByteView wrapPubKey)
{
    uint8_t flags[2] = {uint8_t(laOk ? 1 : 0), uint8_t(clOk ? 1 : 0)};
    return crypto::Sha256::digest(concatBytes(
        {bytesFromString("salus-cascaded-v1"), clientNonce,
         metadataDigest, smMeasurement, ByteView(flags, 2), wrapPubKey}));
}

tee::EnclaveImage
UserEnclaveApp::defaultImage()
{
    tee::EnclaveImage image;
    image.name = "user-app";
    image.signer = "example-developer";
    image.isvSvn = 1;
    image.code = bytesFromString(
        "example user enclave v1.0: data decryption + accelerator "
        "driver");
    return image;
}

UserEnclaveApp::UserEnclaveApp(tee::TeePlatform &platform,
                               tee::EnclaveImage image,
                               tee::Measurement expectedSm,
                               SmTransport transport, SimHooks sim)
    : tee::Enclave(platform, std::move(image)),
      expectedSm_(std::move(expectedSm)), transport_(std::move(transport)),
      sim_(sim)
{
}

Bytes
UserEnclaveApp::channelRoundtrip(ByteView plainRequest)
{
    uint64_t seq = ++channelSeq_;
    Bytes sealed =
        channelSeal(la_->session().key, kDirUp, seq, plainRequest);
    Bytes sealedResponse = transport_.channel(sealed);
    auto plain = channelOpen(la_->session().key, kDirDown, seq,
                             sealedResponse);
    return plain ? *plain : Bytes();
}

Bytes
UserEnclaveApp::handleRaRequest(ByteView request)
{
    obs::Span span(obs::Category::Attestation, "ra_request");
    obs::count("attestation.ra_requests");
    RaResponse resp;
    RaRequest req;
    try {
        req = RaRequest::deserialize(request);
    } catch (const SalusError &) {
        // The client never sends garbage; this is corruption (or
        // tampering) in flight, and a fresh request may get through.
        resp.failure = "malformed RA request";
        resp.retryable = 1;
        return resp.serialize();
    }

    ClMetadata metadata;
    try {
        metadata = ClMetadata::deserialize(req.metadata);
    } catch (const SalusError &) {
        resp.failure = "malformed CL metadata";
        resp.retryable = 1;
        return resp.serialize();
    }

    // --- ③ Local attestation of the SM enclave ----------------------
    {
        obs::Span sub(obs::Category::Attestation, "local_attest");
        sim::ScopedPhase phase(*sim_.clock, phases::kLocalAttest);
        sim_.spend(phases::kLocalAttest, sim_.cost->localAttestation());
        // Fresh LA session => fresh channel sequence space (the peer
        // may be a restarted SM instance expecting seq 1).
        channelSeq_ = 0;
        la_ = std::make_unique<tee::LocalAttestInitiator>(*this,
                                                          expectedSm_);
        Bytes msg2 = transport_.la1(la_->start());
        auto msg3 = la_->finish(msg2);
        if (!msg3 || !transport_.la3(*msg3)) {
            // Either a wrong SM (terminal after bounded attempts) or
            // a garbled LA message; a fresh LA run resolves the
            // latter and can never admit the former.
            resp.failure = "SM enclave local attestation failed";
            resp.retryable = 1;
            return resp.serialize();
        }
        laOk_ = true;
    }

    // --- forward metadata over the sealed channel --------------------
    {
        obs::Span sub(obs::Category::Attestation, "forward_metadata");
        BinaryWriter w;
        w.writeU8(uint8_t(SmChannelMsg::SetMetadata));
        w.writeBytes(metadata.serialize());
        Bytes ack = channelRoundtrip(w.data());
        if (ack.empty() || ack[0] != 1) {
            resp.failure = "metadata transfer to SM enclave failed";
            resp.retryable = 1;
            return resp.serialize();
        }
    }

    // --- ④..⑦ secure boot + CL attestation, SM-driven ---------------
    ClBootStatus boot;
    {
        BinaryWriter w;
        w.writeU8(uint8_t(SmChannelMsg::RunSecureBoot));
        Bytes raw = channelRoundtrip(w.data());
        if (raw.empty()) {
            resp.failure = "secure boot channel failure";
            resp.retryable = 1;
            return resp.serialize();
        }
        try {
            boot = ClBootStatus::deserialize(raw);
        } catch (const SalusError &) {
            resp.failure = "malformed boot status";
            resp.retryable = 1;
            return resp.serialize();
        }
    }

    // --- ⑧ deferred RA report generation (cascaded attestation) ------
    {
        obs::Span sub(obs::Category::Attestation, "cascaded_report");
        sim::ScopedPhase phase(*sim_.clock, phases::kUserRa);
        sim_.spend(phases::kUserRa, sim_.cost->quoteCreation());
        crypto::X25519KeyPair wrap = crypto::x25519Generate(rng());
        wrapPriv_ = wrap.privateKey;
        wrapPub_ = wrap.publicKey;

        Bytes reportData = cascadedReportData(
            req.clientNonce, metadata.digest(), expectedSm_, laOk_,
            boot.ok(), wrapPub_);
        tee::Quote quote = createQuote(reportData);

        resp.quote = quote.serialize();
        resp.wrapPubKey = wrapPub_;
        resp.laAttested = laOk_ ? 1 : 0;
        resp.clAttested = boot.ok() ? 1 : 0;
        resp.failure = boot.ok() ? "" : boot.failure;
    }
    return resp.serialize();
}

bool
UserEnclaveApp::acceptDataKey(ByteView sealedDataKey)
{
    if (wrapPriv_.empty())
        return false;
    try {
        BinaryReader r(sealedDataKey);
        Bytes clientEph = r.readBytes();
        Bytes iv = r.readBytes();
        Bytes ct = r.readBytes();
        Bytes tag = r.readBytes();

        Bytes wrapKey = crypto::deriveSessionKey(
            wrapPriv_, clientEph, "salus-datakey-v1", 32);
        crypto::AesGcm gcm(wrapKey);
        secureZero(wrapKey);
        auto key = gcm.open(iv, ByteView(), ct, tag);
        if (!key)
            return false;
        dataKey_ = std::move(*key);
        return true;
    } catch (const SalusError &) {
        return false;
    }
}

std::optional<uint64_t>
UserEnclaveApp::secureRead(uint32_t addr)
{
    if (!laOk_)
        return std::nullopt;
    BinaryWriter w;
    w.writeU8(uint8_t(SmChannelMsg::SecureRegOp));
    w.writeU8(0);
    w.writeU32(addr);
    w.writeU64(0);
    Bytes raw = channelRoundtrip(w.data());
    if (raw.size() != 9 || raw[0] != 0)
        return std::nullopt;
    return loadLe64(raw.data() + 1);
}

bool
UserEnclaveApp::secureWrite(uint32_t addr, uint64_t data)
{
    if (!laOk_)
        return false;
    BinaryWriter w;
    w.writeU8(uint8_t(SmChannelMsg::SecureRegOp));
    w.writeU8(1);
    w.writeU32(addr);
    w.writeU64(data);
    Bytes raw = channelRoundtrip(w.data());
    return raw.size() == 9 && raw[0] == 0;
}

bool
UserEnclaveApp::attachToPlatform()
{
    obs::Span span(obs::Category::Attestation, "attach_to_platform");
    // Tenant peers join an already-booted platform: LA the SM enclave
    // (pinning the published measurement), then confirm the CL is up.
    {
        obs::Span sub(obs::Category::Attestation, "local_attest");
        sim::ScopedPhase phase(*sim_.clock, phases::kLocalAttest);
        sim_.spend(phases::kLocalAttest, sim_.cost->localAttestation());
        channelSeq_ = 0;
        la_ = std::make_unique<tee::LocalAttestInitiator>(*this,
                                                          expectedSm_);
        Bytes msg2 = transport_.la1(la_->start());
        auto msg3 = la_->finish(msg2);
        if (!msg3 || !transport_.la3(*msg3))
            return false;
        laOk_ = true;
    }
    BinaryWriter w;
    w.writeU8(uint8_t(SmChannelMsg::QueryStatus));
    Bytes raw = channelRoundtrip(w.data());
    if (raw.empty())
        return false;
    try {
        return ClBootStatus::deserialize(raw).ok();
    } catch (const SalusError &) {
        return false;
    }
}

std::vector<regchan::BatchResult>
UserEnclaveApp::secureBatch(const std::vector<regchan::RegOp> &ops)
{
    std::vector<regchan::BatchResult> results;
    if (!laOk_ || ops.empty())
        return results;
    BinaryWriter w;
    w.writeU8(uint8_t(SmChannelMsg::SecureRegBatch));
    w.writeU32(uint32_t(ops.size()));
    for (const regchan::RegOp &op : ops) {
        w.writeU8(op.isWrite ? 1 : 0);
        w.writeU32(op.addr);
        w.writeU64(op.data);
    }
    Bytes raw = channelRoundtrip(w.data());
    try {
        BinaryReader r(raw);
        uint32_t count = r.readU32();
        if (count != ops.size())
            return results;
        results.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
            regchan::BatchResult res;
            res.status = r.readU8();
            res.data = r.readU64();
            results.push_back(res);
        }
    } catch (const SalusError &) {
        results.clear();
    }
    return results;
}

bool
UserEnclaveApp::rekeySession()
{
    if (!laOk_)
        return false;
    BinaryWriter w;
    w.writeU8(uint8_t(SmChannelMsg::RekeySession));
    Bytes raw = channelRoundtrip(w.data());
    return raw.size() == 1 && raw[0] == 1;
}

bool
UserEnclaveApp::pushDataKeyToCl(uint32_t baseAddr)
{
    if (dataKey_.size() < 32)
        return false;
    for (int i = 0; i < 4; ++i) {
        uint64_t word = loadLe64(dataKey_.data() + 8 * i);
        if (!secureWrite(baseAddr + 8 * i, word))
            return false;
    }
    return true;
}

} // namespace salus::core

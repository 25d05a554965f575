#include "salus/sm_enclave.hpp"

#include <algorithm>
#include <memory>

#include "bitstream/encryptor.hpp"
#include "bitstream/manipulator.hpp"
#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/serde.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/ct.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "manufacturer/manufacturer.hpp"
#include "obs/trace.hpp"
#include "salus/sm_logic.hpp"

namespace salus::core {

namespace {

const char *const kDirUp = "salus-chan-u2s";   // user -> SM
const char *const kDirDown = "salus-chan-s2u"; // SM -> user

/** Platform monotonic counter backing the journal version. */
const char *const kJournalCounterId = "salus-sm-journal";

/** The base session's first register counter: the fabric accepts
 *  only counters above Ctr_session. At the 64-bit top there is none,
 *  and the span's bound refuses every request. */
uint64_t
firstBaseCtr(uint64_t ctrBase)
{
    return ctrBase == UINT64_MAX ? ctrBase : ctrBase + 1;
}

// ---- Secure DMA plane: device-DRAM layout ----------------------------
//
// Descriptors are staged into a ring of DRAM slots indexed by
// seq % kDmaMaxWindow; the doorbell consumes a slot synchronously, so
// slot reuse after kDmaMaxWindow sequence numbers can never clobber an
// unconsumed descriptor. Read responses land in a second ring the host
// drains before the window admits seq + kDmaMaxWindow.

constexpr uint64_t kDmaStagingBase = 0x200000;
constexpr uint64_t kDmaStagingStride = 0x14000;
constexpr uint64_t kDmaRespBase = 0x340000;
constexpr uint64_t kDmaRespStride = 0xc000;
/** Per-descriptor payload caps keeping an encoded write descriptor
 *  inside one staging slot and a sealed read response inside one
 *  response slot. */
constexpr size_t kDmaWriteChunkCap = 64 * 1024;
constexpr size_t kDmaReadChunkCap = 32 * 1024;
static_assert(dmachan::kDmaHeaderBytes +
                      dmachan::kDmaMaxSg * dmachan::kDmaSgEntryBytes +
                      kDmaWriteChunkCap + 8 <=
                  kDmaStagingStride,
              "encoded write descriptor must fit one staging slot");
static_assert(kDmaReadChunkCap + dmachan::kDmaRespOverhead <=
                  kDmaRespStride,
              "sealed read response must fit one response slot");

/** One descriptor's chunk of a transfer: its slice of the flattened
 *  data buffer plus the scatter-gather entries it covers. */
struct DmaChunk
{
    std::vector<dmachan::DmaSgEntry> sg;
    size_t bytes = 0;
    size_t dataOff = 0;
};

/** Splits a scatter-gather list into per-descriptor chunks of at most
 *  `chunkBytes` payload and kDmaMaxSg entries, splitting oversized
 *  entries across descriptors. */
std::vector<DmaChunk>
chunkSgList(const std::vector<dmachan::DmaSgEntry> &sg,
            size_t chunkBytes)
{
    std::vector<DmaChunk> chunks;
    DmaChunk cur;
    size_t off = 0;
    auto flush = [&]() {
        if (!cur.sg.empty())
            chunks.push_back(std::move(cur));
        cur = DmaChunk{};
    };
    for (const dmachan::DmaSgEntry &e : sg) {
        uint64_t addr = e.addr;
        size_t left = e.len;
        while (left > 0) {
            if (cur.sg.size() >= dmachan::kDmaMaxSg ||
                cur.bytes >= chunkBytes)
                flush();
            if (cur.sg.empty())
                cur.dataOff = off;
            size_t take = std::min(left, chunkBytes - cur.bytes);
            cur.sg.push_back({addr, uint32_t(take)});
            cur.bytes += take;
            addr += take;
            left -= take;
            off += take;
        }
    }
    flush();
    return chunks;
}

} // namespace

tee::EnclaveImage
SmEnclaveApp::defaultImage()
{
    tee::EnclaveImage image;
    image.name = "salus-sm-app";
    image.signer = "salus-hdk-vendor";
    image.isvSvn = 1;
    image.code = bytesFromString(
        "salus secure-manager enclave v1.0: bitstream verification, "
        "manipulation, encryption, CL attestation, register channel");
    return image;
}

tee::Measurement
SmEnclaveApp::defaultMeasurement()
{
    return defaultImage().measure();
}

SmEnclaveApp::SmEnclaveApp(tee::TeePlatform &platform, SmEnclaveDeps deps)
    : tee::Enclave(platform, defaultImage()), deps_(std::move(deps))
{
    if (!deps_.journal)
        throw SalusError("SM enclave needs host storage for its journal");
    createPeer(); // peer 0, the deployment owner
}

shell::Shell &
SmEnclaveApp::activeShell() const
{
    if (!inPool(activeDevice_))
        throw SalusError("SM enclave has no active device");
    return *deps_.devices[activeDevice_].shell;
}

uint64_t
SmEnclaveApp::activeDna() const
{
    if (activeDevice_ >= deps_.devices.size())
        return 0;
    return deps_.devices[activeDevice_].dna;
}

// ---- Peers -------------------------------------------------------------

uint32_t
SmEnclaveApp::createPeer()
{
    if (peers_.size() >= kSmMaxSessions)
        throw SalusError("SM enclave: fabric session slots exhausted");
    // Accept any same-platform initiator; policy pinning happens on
    // the user side (and at the manufacturer for key release).
    Peer p;
    p.la = std::make_unique<tee::LocalAttestResponder>(
        *this, tee::Measurement{});
    peers_.push_back(std::move(p));
    return uint32_t(peers_.size() - 1); // peer id == fabric slot
}

SmEnclaveApp::Peer *
SmEnclaveApp::findPeer(uint32_t peer)
{
    return peer < peers_.size() ? &peers_[peer] : nullptr;
}

Bytes
SmEnclaveApp::laAnswer(uint32_t peer, ByteView msg1)
{
    Peer *p = findPeer(peer);
    if (!p)
        return Bytes();
    auto msg2 = p->la->answer(msg1);
    return msg2 ? *msg2 : Bytes();
}

bool
SmEnclaveApp::laConfirm(uint32_t peer, ByteView msg3)
{
    Peer *p = findPeer(peer);
    if (!p || !p->la->confirm(msg3))
        return false;
    // New LA session => new session key => fresh sequence space.
    p->seq = 0;
    return true;
}

bool
SmEnclaveApp::laEstablished(uint32_t peer) const
{
    return peer < peers_.size() && peers_[peer].la->established();
}

Bytes
SmEnclaveApp::channelRequest(uint32_t peer, ByteView sealed)
{
    if (failClosed_) {
        logf(LogLevel::Warn, "sm-enclave",
             "refusing channel traffic: failed closed after journal "
             "rollback/corruption");
        return Bytes();
    }
    Peer *p = findPeer(peer);
    if (!p || !p->la->established())
        return Bytes();

    uint64_t seq = p->seq + 1;
    const Bytes &key = p->la->session().key;
    auto plain = channelOpen(key, kDirUp, seq, sealed);
    if (!plain) {
        logf(LogLevel::Warn, "sm-enclave",
             "rejecting channel request (bad seal/seq)");
        return Bytes();
    }
    p->seq = seq;

    Bytes response = handlePlainRequest(peer, *plain);
    return channelSeal(key, kDirDown, seq, response);
}

Bytes
SmEnclaveApp::handlePlainRequest(uint32_t peer, ByteView plain)
{
    BinaryWriter out;
    try {
        BinaryReader r(plain);
        auto type = SmChannelMsg(r.readU8());
        switch (type) {
          case SmChannelMsg::SetMetadata: {
            // Only the session owner (peer 0) configures the boot.
            if (peer != 0) {
                out.writeU8(0);
                break;
            }
            metadata_ = ClMetadata::deserialize(r.readBytes());
            haveMetadata_ = true;
            out.writeU8(1);
            break;
          }
          case SmChannelMsg::RunSecureBoot: {
            if (peer != 0) {
                ClBootStatus denied;
                denied.failure = "only the session owner may boot";
                out.writeRaw(denied.serialize());
                break;
            }
            runSecureBoot();
            out.writeRaw(status_.serialize());
            break;
          }
          case SmChannelMsg::SecureRegOp: {
            regchan::RegOp op;
            op.isWrite = r.readU8() != 0;
            op.addr = r.readU32();
            op.data = r.readU64();
            if (peer == 0) {
                auto [st, data] = secureRegOp(op);
                out.writeU8(st);
                out.writeU64(data);
            } else {
                // Tenant peers ride their own fabric session slot.
                auto results = secureRegBatch(peer, {op});
                out.writeU8(results.at(0).status);
                out.writeU64(results.at(0).data);
            }
            break;
          }
          case SmChannelMsg::SecureRegBatch: {
            uint32_t count = r.readU32();
            if (count == 0 || count > 4096)
                throw SerdeError("batch count out of range");
            std::vector<regchan::RegOp> ops;
            ops.reserve(count);
            for (uint32_t i = 0; i < count; ++i) {
                regchan::RegOp op;
                op.isWrite = r.readU8() != 0;
                op.addr = r.readU32();
                op.data = r.readU64();
                ops.push_back(op);
            }
            auto results = secureRegBatch(peer, ops);
            out.writeU32(uint32_t(results.size()));
            for (const regchan::BatchResult &res : results) {
                out.writeU8(res.status);
                out.writeU64(res.data);
            }
            break;
          }
          case SmChannelMsg::QueryStatus:
            out.writeRaw(status_.serialize());
            break;
          case SmChannelMsg::RekeySession:
            out.writeU8(peer == 0 && rekeySession() ? 1 : 0);
            break;
          default:
            out.writeU8(0xff);
            break;
        }
    } catch (const SmCrashError &) {
        // The SM process died mid-request; nothing replies. The
        // crash-recovery tests catch this at the deployment driver.
        throw;
    } catch (const SalusError &e) {
        logf(LogLevel::Warn, "sm-enclave", "bad channel request: ",
             e.what());
        out.writeU8(0xfe);
    }
    return out.take();
}

void
SmEnclaveApp::runSecureBoot()
{
    obs::Span span(obs::Category::Boot, "secure_boot");
    status_ = ClBootStatus{};
    if (failClosed_) {
        status_.failure = "SM enclave failed closed (journal rejected)";
        return;
    }
    if (!haveMetadata_) {
        status_.failure = "no bitstream metadata";
        return;
    }

    int maxAttempts = std::max(1, deps_.retry.maxAttempts);
    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
        if (attempt > 1) {
            deps_.sim.spend(net::kRetryBackoffPhase,
                            deps_.retry.backoffBefore(attempt));
            logf(LogLevel::Info, "sm-enclave", "secure boot attempt ",
                 attempt, " after: ", status_.failure);
        }
        obs::Span attemptSpan(obs::Category::Boot, "boot_attempt",
                              uint64_t(attempt));
        obs::count("boot.attempts");
        std::string failure;
        bool retryable = false;
        status_.deployed = false;
        status_.attested = false;
        if (attemptSecureBoot(failure, retryable)) {
            status_.failure.clear();
            return;
        }
        obs::count("boot.attempt_failures");
        status_.failure = failure;
        if (!retryable)
            return; // security rejection — never retried
    }
    // Bounded schedule exhausted by transport-class failures: surface
    // the device to the fleet supervisor instead of hammering on.
    reportDeviceFailure("secureBoot", maxAttempts);
}

void
SmEnclaveApp::reportDeviceFailure(const char *method, int attempts)
{
    if (!deps_.onDeviceFailure)
        return;
    ErrorContext ctx;
    ctx.from = deps_.selfEndpoint;
    ctx.to = "device-" + std::to_string(activeDevice_);
    ctx.method = method;
    ctx.attempt = attempts;
    deps_.onDeviceFailure(activeDevice_, ctx);
}

bool
SmEnclaveApp::attemptSecureBoot(std::string &failure, bool &retryable)
{
    if (!haveDeviceKey() && !fetchDeviceKey(failure, retryable))
        return false;
    if (!deployCl(failure, retryable))
        return false;
    status_.deployed = true;
    if (!attestCl(failure)) {
        // Transient bus faults and configuration upsets both land
        // here. A forged MAC can never pass by retrying, so a bounded
        // redeploy-and-reattest loop is safe; probe with a scrub pass
        // first in case a correctable SEU is the culprit.
        retryable = true;
        if (!tryScrubRecovery(failure))
            return false;
    }
    status_.attested = true;
    // Deployment complete: reserve a counter window and persist the
    // deployment so a crashed SM can resume this session.
    CounterSpan &reg = slots_[0].reg;
    reg.reserved =
        reg.next + std::min(reg.bound - reg.next, kCtrReserveStride);
    commitJournal();
    return true;
}

bool
SmEnclaveApp::tryScrubRecovery(std::string &failure)
{
    fpga::FpgaDevice::ScrubReport report;
    try {
        report = activeShell().scrubPartition();
    } catch (const SalusError &) {
        return false; // nothing configured to scrub
    }
    if (report.uncorrectable > 0) {
        failure += " (uncorrectable configuration upsets)";
        return false; // partition is down; the boot loop redeploys
    }
    if (report.corrected == 0)
        return false;
    logf(LogLevel::Info, "sm-enclave", "scrub corrected ",
         report.corrected, " upset(s); re-attesting CL");
    return attestCl(failure);
}

bool
SmEnclaveApp::fetchDeviceKey(std::string &failure, bool &retryable)
{
    obs::Span span(obs::Category::Boot, "device_key_dist");
    sim::ScopedPhase phase(*deps_.sim.clock, phases::kDeviceKeyDist);

    // Ephemeral wrap key; the quote binds its public half so the OS
    // cannot substitute its own.
    crypto::X25519KeyPair eph = crypto::x25519Generate(rng());

    deps_.sim.spend(phases::kDeviceKeyDist, deps_.sim.cost->quoteCreation());
    tee::Quote quote = createQuote(eph.publicKey);

    manufacturer::KeyRequest req;
    req.deviceDna = activeDna();
    req.quote = quote.serialize();
    req.wrapPubKey = eph.publicKey;

    net::CallOutcome call = deps_.network->callWithRetry(
        deps_.selfEndpoint, deps_.manufacturerEndpoint, "keyRequest",
        req.serialize(), deps_.retry, phases::kDeviceKeyDist);
    if (!call.ok()) {
        failure = "key request failed: " + call.error;
        retryable = true; // transport-class; a fresh quote may get through
        return false;
    }

    manufacturer::KeyResponse resp;
    try {
        resp = manufacturer::KeyResponse::deserialize(call.response);
    } catch (const SalusError &) {
        failure = "malformed key response";
        retryable = true; // corrupted in flight
        return false;
    }
    if (resp.status != 0) {
        failure = "manufacturer refused key: " + resp.reason;
        // Status 2 means the server could not even parse the request
        // (corrupted in flight); a policy refusal (status 1, e.g. a
        // revoked DNA) is terminal and must not be retried.
        retryable = resp.status == 2;
        return false;
    }

    Bytes wrapKey;
    try {
        wrapKey = crypto::deriveSessionKey(
            eph.privateKey, resp.serverEphPub, "salus-keydist-v1", 32);
    } catch (const CryptoError &) {
        failure = "bad server ephemeral key";
        retryable = true;
        return false;
    }
    crypto::AesGcm gcm(wrapKey);
    auto key = gcm.open(resp.iv, ByteView(), resp.wrappedKey, resp.tag);
    secureZero(wrapKey);
    if (!key || key->size() != 32) {
        // GCM authentication failure: a tampered or garbled wrap. The
        // key itself is never accepted, so re-fetching is safe.
        failure = "device key unwrap failed";
        retryable = true;
        return false;
    }
    deviceKeys_[activeDna()] = std::move(*key);
    // Key_device fetched: persist so a crashed SM skips the round trip.
    commitJournal();
    return true;
}

bool
SmEnclaveApp::deployCl(std::string &failure, bool &retryable)
{
    obs::Span span(obs::Category::Bitstream, "deploy_cl");
    ByteView stored =
        deps_.fetchBitstream ? deps_.fetchBitstream() : ByteView();
    if (stored.empty()) {
        failure = "bitstream not available";
        retryable = true;
        return false;
    }

    // The one bitstream buffer of this deployment: the untrusted
    // stored file is copied once, straight into the blob's layout.
    // Everything below reads and writes only this copy, so the bytes
    // digested against H are the bytes patched and sealed; storage
    // changing underneath cannot slip anything past the check.
    bitstream::EncryptedHeader header;
    header.deviceModel = activeShell().device().model().name;
    header.partitionId = activeShell().partitionId();
    bitstream::BitstreamEnvelope envelope(header, stored);
    std::span<uint8_t> file = envelope.file();

    // --- Verify against H (step: bitstream verification) -------------
    {
        obs::Span sub(obs::Category::Bitstream, "verify",
                      uint64_t(file.size()));
        sim::ScopedPhase phase(*deps_.sim.clock, phases::kBitstreamVerifEnc);
        deps_.sim.spend(phases::kBitstreamVerifEnc,
                        deps_.sim.cost->bitstreamVerifyEncrypt(file.size()) /
                            2);
        Bytes digest = crypto::Sha256::digest(file);
        if (!crypto::ctEqual(digest, metadata_.digestH)) {
            failure = "bitstream digest mismatch (tampered or wrong CL)";
            return false;
        }
    }

    // --- Inject fresh secrets (bitstream manipulation) ----------------
    bitstream::LogicLocationFile ll;
    try {
        ll = bitstream::LogicLocationFile::deserialize(
            metadata_.logicLocations);
    } catch (const BitstreamError &) {
        failure = "bad logic-location metadata";
        return false;
    }

    // Any prior secret set (earlier attempt, earlier device) is
    // retired before new material exists; the freshness check below
    // then guarantees no retired bytes ever serve again.
    retireCurrentSecrets();
    secrets_ = ClSecrets::generate(rng());
    haveSecrets_ = true;
    if (retiredFingerprints_.count(secretsFingerprint())) {
        // Astronomically improbable with an honest RNG; a hit means
        // key material from a dead device is about to be reused.
        retireCurrentSecrets();
        failure = "freshly generated secrets match a retired set";
        retryable = false;
        return false;
    }
    slots_[0].reg.next = firstBaseCtr(secrets_.ctrBase);
    try {
        obs::Span sub(obs::Category::Bitstream, "inject_secrets");
        sim::ScopedPhase phase(*deps_.sim.clock, phases::kBitstreamManip);
        deps_.sim.spend(phases::kBitstreamManip,
                        deps_.sim.cost->bitstreamManipulation(file.size()));
        bitstream::Manipulator::patchCell(
            file, ll, metadata_.keyAttestPath, secrets_.keyAttest);
        bitstream::Manipulator::patchCell(
            file, ll, metadata_.keySessionPath, secrets_.keySession);
        bitstream::Manipulator::patchCell(
            file, ll, metadata_.ctrSessionPath, secrets_.ctrBytes());
    } catch (const BitstreamError &e) {
        // A cell may already hold a secret; wipe before the buffer goes.
        secureZero(file.data(), file.size());
        failure = std::string("manipulation failed: ") + e.what();
        return false;
    }

    // --- Encrypt under Key_device, in place ---------------------------
    // Plaintext with secrets never leaves: sealing overwrites it.
    Bytes blob;
    {
        obs::Span sub(obs::Category::Bitstream, "encrypt");
        sim::ScopedPhase phase(*deps_.sim.clock, phases::kBitstreamVerifEnc);
        deps_.sim.spend(phases::kBitstreamVerifEnc,
                        deps_.sim.cost->bitstreamVerifyEncrypt(file.size()) /
                            2);
        blob = std::move(envelope).seal(deviceKeys_.at(activeDna()), rng());
    }

    // --- Hand to the (untrusted) shell for loading --------------------
    {
        obs::Span sub(obs::Category::Bitstream, "load",
                      uint64_t(blob.size()));
        sim::ScopedPhase phase(*deps_.sim.clock, phases::kClDeployment);
        fpga::LoadStatus st = activeShell().deployBitstream(blob);
        if (st != fpga::LoadStatus::Ok) {
            failure = std::string("device rejected bitstream: ") +
                      fpga::loadStatusName(st);
            // A failed load (e.g. bad CRC from a bit flipped in
            // flight) leaves the partition cleared; re-encrypting and
            // reloading is always safe, and persistent tampering just
            // exhausts the attempt budget.
            retryable = true;
            return false;
        }
    }
    return true;
}

bool
SmEnclaveApp::attestCl(std::string &failure)
{
    obs::Span span(obs::Category::Attestation, "attest_cl");
    obs::count("attestation.cl_attempts");
    sim::ScopedPhase phase(*deps_.sim.clock, phases::kClAuth);
    deps_.sim.spend(phases::kClAuth,
                    2 * deps_.sim.cost->smLogicMac +
                        2 * deps_.sim.cost->enclaveTransition +
                        2 * deps_.sim.cost->fpgaDnaReadout);

    uint64_t nonce = rng().nextU64();
    uint64_t dna = activeDna();
    uint64_t macReq =
        regchan::attestRequestMac(secrets_.keyAttest, nonce, dna);

    shell::Shell &sh = activeShell();
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn0, nonce);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn1, macReq);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegCmd, kSmCmdAttest);

    uint64_t status = sh.registerRead(pcie::Window::SmSecure,
                                      kSmRegStatus);
    uint64_t outNonce = sh.registerRead(pcie::Window::SmSecure,
                                        kSmRegOut0);
    uint64_t macRsp = sh.registerRead(pcie::Window::SmSecure,
                                      kSmRegOut1);

    if (status != kSmStatusOk) {
        failure = "CL refused attestation request";
        return false;
    }
    uint64_t expect =
        regchan::attestResponseMac(secrets_.keyAttest, nonce, dna);
    if (outNonce != nonce + 1 || !crypto::ctEqual64(macRsp, expect)) {
        failure = "CL attestation MAC mismatch";
        return false;
    }
    return true;
}

Bytes
SmEnclaveApp::exportSealedDeviceKey() const
{
    auto it = deviceKeys_.find(activeDna());
    if (it == deviceKeys_.end())
        return Bytes();
    return seal(it->second);
}

bool
SmEnclaveApp::importSealedDeviceKey(ByteView sealedBlob)
{
    auto key = unseal(sealedBlob);
    if (!key || key->size() != 32)
        return false;
    deviceKeys_[activeDna()] = std::move(*key);
    return true;
}

bool
SmEnclaveApp::rekeySession()
{
    if (!haveSecrets_ || !status_.ok())
        return false;
    obs::Span span(obs::Category::Channel, "rekey_session");
    obs::count("channel.rekeys");

    std::optional<uint64_t> ctr = take(slots_[0].reg, 1);
    if (!ctr)
        return false; // counter space exhausted
    uint64_t nonce = rng().nextU64();
    uint64_t mac = regchan::rekeyMac(slotKeys(0).mac(), *ctr, nonce);

    shell::Shell &sh = activeShell();
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn0, *ctr);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn1, nonce);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn3, mac);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegCmd, kSmCmdRekey);
    if (sh.registerRead(pcie::Window::SmSecure, kSmRegStatus) !=
        kSmStatusOk) {
        // Either the command never reached the fabric (keys unchanged
        // on both sides) or only the completion was lost (the fabric
        // already rolled). Keep what we need to converge on the
        // rolled keys if the channel starts rejecting us.
        ByteView current = slotKeys(0).macKey();
        pendingRekeyMacKey_.assign(current.begin(), current.end());
        pendingRekeyNonce_ = nonce;
        havePendingRekey_ = true;
        return false;
    }

    clearPendingRekey();
    installRolledKeys(slotKeys(0).macKey(), nonce);
    // Rolled keys are part of the session metadata — persist them, or
    // a recovered SM would hold the pre-roll keys the fabric rejects.
    commitJournal();
    return true;
}

void
SmEnclaveApp::installRolledKeys(ByteView macKey, uint64_t nonce)
{
    Bytes rolled = regchan::deriveRekeyedKeys(macKey, nonce);
    std::copy(rolled.begin(), rolled.end(), secrets_.keySession.begin());
    secureZero(rolled);
}

void
SmEnclaveApp::convergePendingRekey(RekeyProbe &probe, bool accepted)
{
    if (accepted) {
        if (probe.usingPendingKeys)
            clearPendingRekey(); // converged on the rolled keys
    } else if (havePendingRekey_ && !probe.usingPendingKeys) {
        probe.preAdoptSession = secrets_.keySession;
        installRolledKeys(pendingRekeyMacKey_, pendingRekeyNonce_);
        probe.usingPendingKeys = true;
    } else if (probe.usingPendingKeys) {
        secrets_.keySession = probe.preAdoptSession;
        secureZero(probe.preAdoptSession);
        probe.usingPendingKeys = false;
        clearPendingRekey();
    }
}

void
SmEnclaveApp::clearPendingRekey()
{
    secureZero(pendingRekeyMacKey_);
    pendingRekeyMacKey_.clear();
    pendingRekeyNonce_ = 0;
    havePendingRekey_ = false;
}

bool
SmEnclaveApp::reattestCl()
{
    if (!haveSecrets_)
        return false;
    std::string failure;
    bool ok = attestCl(failure);
    if (!ok) {
        logf(LogLevel::Warn, "sm-enclave",
             "runtime re-attestation failed: ", failure);
        status_.attested = false;
        status_.failure = failure;
    }
    return ok;
}

template <typename Attempt>
bool
SmEnclaveApp::runSealedAttempts(uint32_t slot, const char *method,
                                Attempt &&attempt)
{
    int maxAttempts = std::max(1, deps_.retry.maxAttempts);
    RekeyProbe probe;
    for (int n = 1; n <= maxAttempts; ++n) {
        if (n > 1) {
            deps_.sim.spend(net::kRetryBackoffPhase,
                            deps_.retry.backoffBefore(n));
        }
        // Every attempt reseals under fresh counters, so a lost or
        // garbled message can never be replayed into acceptance.
        bool accepted = attempt();
        // Only the base session ever re-keys.
        if (slot == 0)
            convergePendingRekey(probe, accepted);
        if (accepted)
            return true;
    }
    // Every sealed attempt was lost or rejected — the device is not
    // serving the channel. Tell the supervisor; it owns the decision
    // to quarantine and fail the session over.
    reportDeviceFailure(method, maxAttempts);
    return false;
}

std::pair<uint8_t, uint64_t>
SmEnclaveApp::secureRegOp(const regchan::RegOp &op)
{
    obs::Span span(obs::Category::Channel, "reg_op");
    obs::count("channel.single_ops");
    if (!haveSecrets_ || !status_.ok())
        return {0xfd, 0}; // no attested CL behind the channel

    std::pair<uint8_t, uint64_t> result{0xfc, 0};
    runSealedAttempts(0, "secureRegOp", [&] {
        result = secureRegOpOnce(op);
        return result.first != 0xfc && result.first != 0xfb;
    });
    return result;
}

const regchan::SessionKeys &
SmEnclaveApp::slotKeys(uint32_t slot)
{
    SessionSlot &s = slots_[slot];
    if (slot == 0 &&
        (!s.keys || !std::ranges::equal(s.keys->block(),
                                        secrets_.keySession))) {
        s.keys =
            std::make_unique<regchan::SessionKeys>(secrets_.keySession);
    }
    return *s.keys;
}

std::pair<uint8_t, uint64_t>
SmEnclaveApp::secureRegOpOnce(const regchan::RegOp &op)
{
    std::optional<uint64_t> ctr = take(slots_[0].reg, 1);
    if (!ctr)
        return {0xf7, 0}; // counter space exhausted
    const regchan::SessionKeys &keys = slotKeys(0);
    regchan::SealedRegRequest req;
    {
        obs::Span crypto(obs::Category::Channel, "op_crypto");
        req = regchan::sealRequest(keys.aes(), keys.mac(), *ctr, op);
    }

    shell::Shell &sh = activeShell();
    regchan::SealedRegResponse rsp;
    {
        obs::Span transport(obs::Category::Channel, "op_transport");
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn0, req.ctr);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn1, req.ct0);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn2, req.ct1);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn3, req.mac);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegCmd,
                         kSmCmdSecureReg);

        if (sh.registerRead(pcie::Window::SmSecure, kSmRegStatus) !=
            kSmStatusOk) {
            obs::count("channel.rejects");
            return {0xfc, 0}; // CL rejected (tamper/replay on the bus)
        }
        rsp.ct0 = sh.registerRead(pcie::Window::SmSecure, kSmRegOut0);
        rsp.ct1 = sh.registerRead(pcie::Window::SmSecure, kSmRegOut1);
        rsp.mac = sh.registerRead(pcie::Window::SmSecure, kSmRegOut2);
    }

    obs::Span crypto(obs::Category::Channel, "op_crypto");
    auto opened = regchan::openResponse(keys.aes(), keys.mac(), *ctr, rsp);
    if (!opened) {
        obs::count("channel.rejects");
        return {0xfb, 0}; // response forged or corrupted
    }
    return *opened;
}

// ---- Batched channel + multi-session fan-out --------------------------

bool
SmEnclaveApp::ensureFabricSession(uint32_t slot)
{
    if (slot >= kSmMaxSessions)
        return false;
    // The injected base session always exists.
    if (slot == 0 || slots_[slot].opened)
        return true;
    if (!haveSecrets_ || !status_.ok())
        return false;
    obs::Span span(obs::Category::Channel, "open_session",
                   uint64_t(slot));
    obs::count("channel.session_opens");

    // The open nonce rides the same monotone counter stream as the
    // base channel, so it strictly increases across re-opens (the
    // fabric refuses stale opens) and is covered by the journal's
    // write-ahead reservation.
    std::optional<uint64_t> nonce = take(slots_[0].reg, 1);
    if (!nonce)
        return false; // counter space exhausted
    uint64_t mac = regchan::sessionOpenMac(slotKeys(0).mac(), slot, *nonce);

    shell::Shell &sh = activeShell();
    sim::ScopedPhase transport(*deps_.sim.clock, phases::kChanTransport);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn0, slot);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn1, *nonce);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegIn3, mac);
    sh.registerWrite(pcie::Window::SmSecure, kSmRegCmd,
                     kSmCmdOpenSession);
    if (sh.registerRead(pcie::Window::SmSecure, kSmRegStatus) !=
        kSmStatusOk)
        return false;

    SessionSlot &s = slots_[slot];
    s.opened = true;
    Bytes derived =
        regchan::deriveSlotSessionKeys(secrets_.keySession, slot, *nonce);
    s.keys = std::make_unique<regchan::SessionKeys>(derived);
    secureZero(derived);
    s.openNonce = *nonce;
    // Persist: a recovered SM must hold the slot keys the fabric holds.
    commitJournal();
    return true;
}

std::vector<regchan::BatchResult>
SmEnclaveApp::secureRegBatch(uint32_t slot,
                             const std::vector<regchan::RegOp> &ops)
{
    std::vector<regchan::BatchResult> results;
    results.reserve(ops.size());
    if (ops.empty())
        return results;
    obs::Span span(obs::Category::Channel, "reg_batch",
                   uint64_t(ops.size()));
    obs::count("channel.batch_ops", ops.size());
    obs::observe("channel.batch_size", ops.size());
    if (!haveSecrets_ || !status_.ok() || slot >= kSmMaxSessions) {
        results.assign(ops.size(), regchan::BatchResult{0xfd, 0});
        return results;
    }

    size_t at = 0;
    while (at < ops.size()) {
        size_t n = std::min(ops.size() - at, regchan::kMaxBatchOps);
        std::vector<regchan::RegOp> chunk(ops.begin() + long(at),
                                          ops.begin() + long(at + n));
        std::vector<regchan::BatchResult> chunkResults;
        uint8_t code = 0xfc;
        runSealedAttempts(slot, "secureRegBatch", [&] {
            if (!ensureFabricSession(slot)) {
                code = 0xfc;
                return false;
            }
            std::optional<uint64_t> ctrBase = take(slots_[slot].reg, n);
            if (!ctrBase) {
                code = 0xf7; // counter space exhausted: not retried
                return true;
            }
            code = secureRegBatchOnce(slot, *ctrBase, chunk, chunkResults);
            return code == 0;
        });
        if (code != 0) {
            // Counters ran out, or the device is reported: fail the
            // remaining ops with the channel-level status.
            while (results.size() < ops.size())
                results.push_back(regchan::BatchResult{code, 0});
            return results;
        }
        results.insert(results.end(), chunkResults.begin(),
                       chunkResults.end());
        at += n;
    }
    return results;
}

uint8_t
SmEnclaveApp::secureRegBatchOnce(uint32_t slot, uint64_t ctrBase,
                                 const std::vector<regchan::RegOp> &ops,
                                 std::vector<regchan::BatchResult> &out)
{
    const regchan::SessionKeys &keys = slotKeys(slot);

    // Host-side crypto (seal + open) is one AES block per op each way
    // plus a single MAC pass per direction — the cost batching
    // amortizes the round trips against.
    regchan::SealedRegBatch batch;
    {
        obs::Span crypto(obs::Category::Channel, "batch_crypto",
                         uint64_t(ops.size()));
        deps_.sim.spend(phases::kChanCrypto,
                        deps_.sim.cost->batchCrypto(ops.size()));
        batch = regchan::sealBatch(keys.aes(), keys.mac(), slot, ctrBase,
                                   ops);
    }

    size_t nWords = batch.payload.size() / 8;
    std::vector<uint64_t> words(nWords);
    for (size_t i = 0; i < nWords; ++i)
        words[i] = loadLe64(batch.payload.data() + i * 8);

    shell::Shell &sh = activeShell();
    uint64_t status = 0;
    uint64_t rspMac = 0;
    std::vector<uint64_t> rspWords(nWords, 0);
    {
        obs::Span transport(obs::Category::Channel, "batch_transport",
                            uint64_t(ops.size()));
        sim::ScopedPhase transport_(*deps_.sim.clock, phases::kChanTransport);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegBurstReset, 1);
        sh.registerBurstWrite(pcie::Window::SmSecure, kSmRegBurstIn,
                              words.data(), words.size());
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn0, ctrBase);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn1, ops.size());
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn2, slot);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn3, batch.mac);
        sh.registerWrite(pcie::Window::SmSecure, kSmRegCmd,
                         kSmCmdSecureBatch);
        status = sh.registerRead(pcie::Window::SmSecure, kSmRegStatus);
        if (status == kSmStatusOk) {
            rspMac =
                sh.registerRead(pcie::Window::SmSecure, kSmRegOut2);
            sh.registerBurstRead(pcie::Window::SmSecure, kSmRegBurstOut,
                                 rspWords.data(), rspWords.size());
        }
    }
    if (status != kSmStatusOk) {
        obs::count("channel.rejects");
        return 0xfc; // CL rejected (tamper/replay/loss on the bus)
    }

    regchan::SealedBatchResponse rsp;
    rsp.payload.resize(nWords * 8);
    for (size_t i = 0; i < nWords; ++i)
        storeLe64(rsp.payload.data() + i * 8, rspWords[i]);
    rsp.mac = rspMac;

    obs::Span crypto(obs::Category::Channel, "batch_crypto",
                     uint64_t(ops.size()));
    auto opened = regchan::openBatchResponse(keys.aes(), keys.mac(), slot,
                                             ctrBase, ops.size(), rsp);
    if (!opened) {
        obs::count("channel.rejects");
        return 0xfb; // response forged or corrupted
    }
    out = std::move(*opened);
    return 0;
}

// ---- Bulk data plane (sealed DMA descriptors) ------------------------

dmachan::DmaTransferReport
SmEnclaveApp::dmaWrite(uint32_t slot, uint64_t addr, ByteView data,
                       const DmaOptions &opts)
{
    std::vector<dmachan::DmaSgEntry> sg;
    if (!data.empty())
        sg.push_back({addr, uint32_t(data.size())});
    return dmaTransfer(slot, false, sg, data, nullptr, opts);
}

dmachan::DmaTransferReport
SmEnclaveApp::dmaWriteSg(uint32_t slot,
                         const std::vector<dmachan::DmaSgEntry> &sg,
                         ByteView data, const DmaOptions &opts)
{
    return dmaTransfer(slot, false, sg, data, nullptr, opts);
}

dmachan::DmaTransferReport
SmEnclaveApp::dmaRead(uint32_t slot, uint64_t addr, size_t len,
                      Bytes &out, const DmaOptions &opts)
{
    if (len > UINT32_MAX) {
        dmachan::DmaTransferReport report;
        report.status = 0xfd; // one SG entry cannot name the span
        return report;
    }
    std::vector<dmachan::DmaSgEntry> sg;
    if (len > 0)
        sg.push_back({addr, uint32_t(len)});
    return dmaTransfer(slot, true, sg, ByteView(), &out, opts);
}

dmachan::DmaTransferReport
SmEnclaveApp::dmaTransfer(uint32_t slot, bool read,
                          const std::vector<dmachan::DmaSgEntry> &sg,
                          ByteView data, Bytes *out,
                          const DmaOptions &opts)
{
    dmachan::DmaTransferReport report;
    size_t total = 0;
    for (const dmachan::DmaSgEntry &e : sg)
        total += e.len;
    if (total == 0)
        return report; // empty transfer, trivially ok
    if (!read && data.size() != total) {
        report.status = 0xfd;
        return report;
    }
    if (!haveSecrets_ || !status_.ok() || !ensureFabricSession(slot)) {
        report.status = 0xfd; // no attested CL behind the channel
        return report;
    }

    // Sealing lambdas share the slot's keys, which outlive the window
    // engine's run() below.
    const regchan::SessionKeys *keys = &slotKeys(slot);

    size_t chunkBytes =
        std::clamp<size_t>(opts.descriptorBytes, dmachan::kDmaBlock,
                           read ? kDmaReadChunkCap : kDmaWriteChunkCap);
    std::vector<DmaChunk> chunks = chunkSgList(sg, chunkBytes);
    std::optional<uint64_t> seqSpan = take(slots_[slot].dma, chunks.size());
    if (!seqSpan) {
        report.status = 0xf7; // sequence space exhausted
        return report;
    }
    uint64_t seqBase = *seqSpan;
    if (out)
        out->assign(total, 0);

    shell::Shell &sh = activeShell();
    std::vector<dmachan::DmaDescriptorWork> work;
    work.reserve(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
        const DmaChunk &c = chunks[i];
        uint64_t seq = seqBase + i;
        uint64_t ctrBase = seq * dmachan::kDmaCtrStride;
        uint64_t respAddr =
            kDmaRespBase +
            (seq % dmachan::kDmaMaxWindow) * kDmaRespStride;
        bool sync = i == 0; // re-synchronises the fabric's window
        dmachan::DmaDescriptorWork w;
        w.seq = seq;
        w.payloadBytes = c.bytes;
        w.sgCount = c.sg.size();
        w.read = read;
        w.seal = [keys, slot, read, sync, seq, ctrBase, respAddr, &c,
                  data]() -> Bytes {
            dmachan::DmaDescriptor d;
            d.read = read;
            d.sync = sync;
            d.sessionId = slot;
            d.seq = seq;
            d.ctrBase = ctrBase;
            d.respAddr = read ? respAddr : 0;
            d.sg = c.sg;
            return dmachan::encodeDescriptor(
                keys->gcm(), d,
                read ? ByteView() : data.subspan(c.dataOff, c.bytes));
        };
        if (read) {
            size_t bytes = c.bytes;
            size_t dataOff = c.dataOff;
            w.complete = [keys, slot, seq, ctrBase, respAddr, bytes,
                          dataOff, out, &sh]() -> bool {
                Bytes blob;
                try {
                    blob = sh.dmaPostedRead(
                        respAddr, bytes + dmachan::kDmaRespOverhead);
                } catch (const SalusError &) {
                    return false;
                }
                auto plain = dmachan::openReadResponse(
                    keys->gcm(), slot, seq, ctrBase, blob);
                if (!plain || plain->size() != bytes)
                    return false;
                std::copy(plain->begin(), plain->end(),
                          out->begin() + long(dataOff));
                secureZero(*plain);
                return true;
            };
        }
        work.push_back(std::move(w));
    }

    // Stages one sealed descriptor into its DRAM slot and rings the
    // doorbell (posted: the engine owns all time attribution).
    auto stage = [&sh](uint64_t seq, const Bytes &encoded) {
        uint64_t addr =
            kDmaStagingBase +
            (seq % dmachan::kDmaMaxWindow) * kDmaStagingStride;
        sh.dmaPostedWrite(addr, encoded);
        sh.dmaPostedRegWrite(pcie::Window::SmSecure, kSmRegIn0, addr);
        sh.dmaPostedRegWrite(pcie::Window::SmSecure, kSmRegIn1,
                             encoded.size());
        sh.dmaPostedRegWrite(pcie::Window::SmSecure, kSmRegCmd,
                             kSmCmdDmaDoorbell);
    };

    // Reorder stash: a reorder fault holds one descriptor back until
    // the next delivery event, so it arrives behind a later sequence
    // number and exercises the fabric's reorder buffer.
    struct DeliverState
    {
        bool haveStash = false;
        uint64_t stashSeq = 0;
        Bytes stash;
    };
    auto state = std::make_shared<DeliverState>();

    dmachan::DmaWindowHooks hooks;
    hooks.sim = deps_.sim;
    hooks.deliver = [this, state, stage](uint64_t seq,
                                         const Bytes &encoded) {
        auto flushStash = [&]() {
            if (!state->haveStash)
                return;
            state->haveStash = false;
            Bytes held = std::move(state->stash);
            stage(state->stashSeq, held);
        };
        // The injector mutates its copy; the engine keeps the cached
        // original for retransmits.
        Bytes copy = encoded;
        if (deps_.fault) {
            sim::DmaFault f =
                deps_.fault->onDmaDescriptor(activeDevice_, seq, copy);
            if (f.drop) {
                flushStash();
                return;
            }
            if (f.reorder) {
                flushStash();
                state->stash = std::move(copy);
                state->stashSeq = seq;
                state->haveStash = true;
                return;
            }
        }
        stage(seq, copy);
        flushStash();
    };
    hooks.readAck = [&sh, slot, keys](uint64_t &ackSeq) -> bool {
        sh.dmaPostedRegWrite(pcie::Window::SmSecure, kSmRegIn0, slot);
        sh.dmaPostedRegWrite(pcie::Window::SmSecure, kSmRegCmd,
                             kSmCmdDmaAck);
        if (sh.dmaPostedRegRead(pcie::Window::SmSecure, kSmRegStatus) !=
            kSmStatusOk)
            return false;
        uint64_t seq =
            sh.dmaPostedRegRead(pcie::Window::SmSecure, kSmRegOut0);
        uint64_t mac =
            sh.dmaPostedRegRead(pcie::Window::SmSecure, kSmRegOut1);
        if (!crypto::ctEqual64(mac, dmachan::ackMac(keys->gcm(), slot, seq)))
            return false;
        ackSeq = seq;
        return true;
    };

    dmachan::DmaWindowEngine::Options engineOpts;
    engineOpts.window = opts.windowSize;
    engineOpts.maxAttempts = opts.maxAttempts;
    dmachan::DmaWindowEngine engine(std::move(hooks), engineOpts);
    report = engine.run(work);
    obs::count("dma.bytes", report.bytes);

    if (report.status == 0xf8) {
        // Every send of some descriptor was lost or rejected — the
        // same supervisor cue as an exhausted register channel.
        reportDeviceFailure("dmaTransfer", int(opts.maxAttempts));
    }
    return report;
}

// ---- Fleet supervision ----------------------------------------------

SmEnclaveApp::HeartbeatResult
SmEnclaveApp::heartbeatDevice(uint32_t deviceId)
{
    obs::Span span(obs::Category::Supervisor, "heartbeat_device",
                   uint64_t(deviceId));
    obs::count("supervisor.heartbeats");
    HeartbeatResult res;
    if (!inPool(deviceId)) {
        res.failure = "unknown device";
        return res;
    }
    shell::Shell &sh = *deps_.devices[deviceId].shell;

    if (deviceId == activeDevice_ && haveSecrets_ && status_.ok()) {
        // MAC'd probe under Key_attest: only the CL this enclave
        // deployed can answer, and the bound beat count makes every
        // answer unique — a recorded "alive" does not replay.
        uint64_t nonce = rng().nextU64();
        uint64_t dna = deps_.devices[deviceId].dna;
        sh.registerWrite(pcie::Window::SmSecure, kSmRegIn0, nonce);
        sh.registerWrite(
            pcie::Window::SmSecure, kSmRegIn1,
            regchan::heartbeatRequestMac(secrets_.keyAttest, nonce, dna));
        sh.registerWrite(pcie::Window::SmSecure, kSmRegCmd,
                         kSmCmdHeartbeat);

        uint64_t status =
            sh.registerRead(pcie::Window::SmSecure, kSmRegStatus);
        if (status != kSmStatusOk) {
            res.failure =
                "no heartbeat (status " + std::to_string(status) + ")";
            return res;
        }
        res.reachable = true;
        uint64_t outNonce =
            sh.registerRead(pcie::Window::SmSecure, kSmRegOut0);
        res.count = sh.registerRead(pcie::Window::SmSecure, kSmRegOut1);
        uint64_t mac =
            sh.registerRead(pcie::Window::SmSecure, kSmRegOut2);
        if (outNonce != nonce + 1 ||
            !crypto::ctEqual64(
                mac, regchan::heartbeatResponseMac(secrets_.keyAttest,
                                                   nonce, dna, res.count))) {
            res.failure = "heartbeat response MAC forged";
            return res; // reachable but inauthentic — quarantine-worthy
        }
        res.authentic = true;
        return res;
    }

    // Spare (or not-yet-booted) device: no injected Key_attest to MAC
    // with yet, so probe raw bus sanity. An idle partition answers
    // status reads with small well-known codes; a dead bus times out
    // and the driver surfaces garbage TLP residue.
    uint64_t a = sh.registerRead(pcie::Window::SmSecure, kSmRegStatus);
    uint64_t b = sh.registerRead(pcie::Window::SmSecure, kSmRegStatus);
    if (a > kSmStatusRejected || b > kSmStatusRejected) {
        res.failure = "bus returned garbage";
        return res;
    }
    res.reachable = true;
    res.authentic = true; // nothing to authenticate until deployed
    return res;
}

bool
SmEnclaveApp::setActiveDevice(uint32_t deviceId)
{
    if (!inPool(deviceId))
        return false;
    if (deviceId == activeDevice_)
        return true;
    switchDevice(deviceId);
    return true;
}

void
SmEnclaveApp::switchDevice(uint32_t deviceId)
{
    // The old device's session dies here: fingerprint + wipe its
    // secrets so nothing derived from them can ever serve again.
    retireCurrentSecrets();
    clearPendingRekey();
    status_ = ClBootStatus{};
    activeDevice_ = deviceId;
    commitJournal();
}

MigrationTicket
SmEnclaveApp::issueMigrationTicket(uint32_t toDevice)
{
    if (failClosed_)
        throw MigrationError("enclave is failed closed");
    if (!haveSecrets_ || !status_.attested)
        throw MigrationError("no live attested session to migrate");
    if (!inPool(toDevice))
        throw MigrationError("no such pool device " +
                             std::to_string(toDevice));
    if (toDevice == activeDevice_)
        throw MigrationError("target is already the active device");

    MigrationTicket t;
    t.fromDevice = activeDevice_;
    t.toDevice = toDevice;
    t.fromDna = deps_.devices[activeDevice_].dna;
    t.toDna = deps_.devices[toDevice].dna;
    t.nonce = rng().nextU64();
    t.sourceFingerprint = secrets_.fingerprint();
    t.mac = regchan::migrationTicketMac(
        secrets_.keyAttest, t.fromDevice, t.toDevice, t.fromDna,
        t.toDna, t.nonce, t.sourceFingerprint);
    return t;
}

bool
SmEnclaveApp::commitMigration(const MigrationTicket &ticket)
{
    // The ticket travels through the untrusted supervisor: every
    // field is attacker-influencable, so verification failures return
    // false instead of throwing.
    if (failClosed_ || !haveSecrets_ || !status_.attested)
        return false;
    if (ticket.fromDevice != activeDevice_)
        return false;
    if (!inPool(ticket.toDevice) || ticket.toDevice == activeDevice_)
        return false;
    if (ticket.fromDna != deps_.devices[activeDevice_].dna ||
        ticket.toDna != deps_.devices[ticket.toDevice].dna)
        return false;
    // Epoch binding: a ticket for an already-retired secret set (the
    // migration it authorized committed, or a failover rolled the
    // keys) no longer matches the live fingerprint — replay is dead.
    if (!crypto::ctEqual(ticket.sourceFingerprint, secrets_.fingerprint()))
        return false;
    if (!crypto::ctEqual64(
            ticket.mac, regchan::migrationTicketMac(
                            secrets_.keyAttest, ticket.fromDevice,
                            ticket.toDevice, ticket.fromDna, ticket.toDna,
                            ticket.nonce, ticket.sourceFingerprint)))
        return false;

    obs::count("sm.migrations");
    // Trusted half of the move — identical to a failover switch:
    // tombstone the source epoch so its key material can never serve
    // on two devices, reset the deployment state, make the target
    // active and journal the switch. The caller's next runSecureBoot
    // injects a fresh RoT and re-attests the target.
    switchDevice(ticket.toDevice);
    return true;
}

Bytes
SmEnclaveApp::secretsFingerprint() const
{
    return haveSecrets_ ? secrets_.fingerprint() : Bytes();
}

bool
SmEnclaveApp::everRetiredFingerprint(ByteView fp) const
{
    return retiredFingerprints_.count(Bytes(fp.begin(), fp.end())) != 0;
}

void
SmEnclaveApp::retireCurrentSecrets()
{
    // Every slot's keys are, or derive from, the retiring base keys:
    // wipe them. The next batch on each derived slot lazily re-opens
    // it under the fresh base session. Fresh keys mean a fresh
    // keystream space, so the counter and DMA sequence spaces restart
    // with them (the fabric's window resets on open). Dropping each
    // slot's SessionKeys wipes its block, round keys and HMAC
    // midstates.
    for (SessionSlot &s : slots_)
        s = SessionSlot{};
    if (!haveSecrets_)
        return;
    retiredFingerprints_.insert(secretsFingerprint());
    secrets_.wipe();
    haveSecrets_ = false;
}

// ---- Crash-recovery journal -----------------------------------------

SmJournal
SmEnclaveApp::buildJournal() const
{
    SmJournal j;
    j.haveMetadata = haveMetadata_ ? 1 : 0;
    if (haveMetadata_)
        j.metadata = metadata_.serialize();
    for (const auto &[dna, key] : deviceKeys_)
        j.deviceKeys.emplace_back(dna, key);
    j.activeDevice = activeDevice_;
    j.deployed = status_.deployed ? 1 : 0;
    j.attested = status_.attested ? 1 : 0;
    if (haveSecrets_) {
        j.haveSecrets = 1;
        j.keyAttest = secrets_.keyAttest;
        j.ctrBase = secrets_.ctrBase;
        if (havePendingRekey_) {
            j.havePendingRekey = 1;
            j.pendingRekeyMacKey = pendingRekeyMacKey_;
            j.pendingRekeyNonce = pendingRekeyNonce_;
        }
        for (uint32_t slot = 0; slot < kSmMaxSessions; ++slot) {
            const SessionSlot &s = slots_[slot];
            if (slot != 0 && !s.opened)
                continue;
            // Slot 0's SessionKeys are rebuilt lazily (slotKeys()), so
            // its key block is read from the secrets themselves.
            ByteView keys =
                slot == 0 ? ByteView(secrets_.keySession) : s.keys->block();
            SmJournalSession js;
            js.slot = slot;
            js.keys.assign(keys.begin(), keys.end());
            js.openNonce = s.openNonce;
            js.regReserved = s.reg.reserved;
            js.dmaReserved = s.dma.reserved;
            j.sessions.push_back(std::move(js));
        }
    }
    for (const Bytes &fp : retiredFingerprints_)
        j.retiredFingerprints.push_back(fp);
    return j;
}

void
SmEnclaveApp::commitJournal()
{
    obs::count("sm.journal_commits");

    uint64_t step = journalSeq_++;
    if (deps_.fault && deps_.fault->onSmJournalWrite(step, false))
        throw SmCrashError("before journal write " +
                           std::to_string(step));

    SmJournal j = buildJournal();
    // Store-then-increment: the stored version is one ahead of the
    // counter until the increment lands. Rehydration accepts exactly
    // that one-step window (monotonicAdvanceTo catches the counter
    // up); anything older is a rollback.
    j.version = platform().monotonicRead(kJournalCounterId) + 1;
    Bytes plain = j.serialize();
    *deps_.journal = seal(plain);
    secureZero(plain);
    platform().monotonicIncrement(kJournalCounterId);

    if (deps_.fault && deps_.fault->onSmJournalWrite(step, true))
        throw SmCrashError("after journal write " +
                           std::to_string(step));
}

SmEnclaveApp::RecoveryReport
SmEnclaveApp::rehydrate()
{
    obs::Span span(obs::Category::Boot, "rehydrate");
    obs::count("sm.rehydrations");
    RecoveryReport rep;
    rep.counter = platform().monotonicRead(kJournalCounterId);

    const Bytes &blob = *deps_.journal;
    if (blob.empty()) {
        if (rep.counter == 0) {
            rep.status = RecoveryStatus::NoJournal;
            return rep; // genuinely fresh platform
        }
        failClosed_ = true;
        rep.status = RecoveryStatus::RolledBack;
        rep.detail = "journal missing but monotonic counter is " +
                     std::to_string(rep.counter);
        return rep;
    }

    auto plain = unseal(blob);
    if (!plain) {
        failClosed_ = true;
        rep.status = RecoveryStatus::Corrupt;
        rep.detail = "journal seal authentication failed";
        return rep;
    }
    SmJournal j;
    try {
        j = SmJournal::deserialize(*plain);
    } catch (const SalusError &e) {
        failClosed_ = true;
        rep.status = RecoveryStatus::Corrupt;
        rep.detail = std::string("journal parse failed: ") + e.what();
        return rep;
    }
    if (j.version < rep.counter) {
        // The host handed us an OLD sealed journal: rollback attack
        // (or lost storage). Either way the session metadata in it is
        // stale — serving it could reuse counters/keys. Fail closed.
        failClosed_ = true;
        rep.version = j.version;
        rep.status = RecoveryStatus::RolledBack;
        rep.detail = "journal version " + std::to_string(j.version) +
                     " behind monotonic counter " +
                     std::to_string(rep.counter);
        return rep;
    }
    try {
        // version == counter: the increment landed before the crash.
        // version == counter + 1: crashed inside the store/increment
        // window — catch the counter up. Anything further ahead is a
        // fabricated future version.
        platform().monotonicAdvanceTo(kJournalCounterId, j.version);
    } catch (const TeeError &e) {
        failClosed_ = true;
        rep.status = RecoveryStatus::Corrupt;
        rep.detail = std::string("journal version implausible: ") +
                     e.what();
        return rep;
    }
    if (j.activeDevice >= deps_.devices.size()) {
        failClosed_ = true;
        rep.status = RecoveryStatus::Corrupt;
        rep.detail = "journal names a device outside the pool";
        return rep;
    }

    // ---- Adopt -------------------------------------------------------
    rep.version = j.version;
    journalSeq_ = j.version;
    if (j.haveMetadata) {
        metadata_ = ClMetadata::deserialize(j.metadata);
        haveMetadata_ = true;
    }
    deviceKeys_.clear();
    for (const auto &[dna, key] : j.deviceKeys)
        deviceKeys_[dna] = key;
    retiredFingerprints_.clear();
    for (const Bytes &fp : j.retiredFingerprints)
        retiredFingerprints_.insert(fp);
    activeDevice_ = j.activeDevice;
    status_ = ClBootStatus{};
    status_.deployed = j.deployed != 0;
    status_.attested = j.attested != 0;
    if (j.haveSecrets) {
        secrets_.keyAttest = j.keyAttest;
        secrets_.ctrBase = j.ctrBase;
        haveSecrets_ = true;
        if (j.havePendingRekey) {
            pendingRekeyMacKey_ = j.pendingRekeyMacKey;
            pendingRekeyNonce_ = j.pendingRekeyNonce;
            havePendingRekey_ = true;
        }
        // Resume every slot PAST its reservations: counters and DMA
        // sequence numbers inside them may already have hit the fabric
        // before the crash. The next transfer's sync descriptor jumps
        // the fabric's window forward over whatever part of the
        // reservation was never used.
        slots_ = {};
        for (const SmJournalSession &js : j.sessions) {
            if (js.slot >= kSmMaxSessions)
                continue; // implausible journal entry
            SessionSlot &s = slots_[js.slot];
            if (js.slot == 0) {
                secrets_.keySession = js.keys;
                s.reg.next = firstBaseCtr(j.ctrBase);
            } else {
                s.opened = true;
                s.keys = std::make_unique<regchan::SessionKeys>(js.keys);
                s.openNonce = js.openNonce;
            }
            s.reg.reserved = js.regReserved;
            s.reg.resume(s.reg.next);
            s.dma.reserved = js.dmaReserved;
            s.dma.resume(0);
        }
    }

    // ---- Re-attest before serving traffic ----------------------------
    if (status_.attested && haveSecrets_) {
        std::string failure;
        if (!attestCl(failure)) {
            status_.attested = false;
            status_.failure =
                "post-recovery re-attestation failed: " + failure;
            ++rep.reattestFailures;
        }
    }
    rep.status = RecoveryStatus::Recovered;
    return rep;
}

} // namespace salus::core

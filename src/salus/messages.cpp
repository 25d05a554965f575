#include "salus/messages.hpp"

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/sha256.hpp"

namespace salus::core {

Bytes
ClMetadata::serialize() const
{
    BinaryWriter w;
    w.writeBytes(digestH);
    w.writeBytes(logicLocations);
    w.writeString(keyAttestPath);
    w.writeString(keySessionPath);
    w.writeString(ctrSessionPath);
    return w.take();
}

ClMetadata
ClMetadata::deserialize(ByteView data)
{
    BinaryReader r(data);
    ClMetadata m;
    m.digestH = r.readBytes();
    m.logicLocations = r.readBytes();
    m.keyAttestPath = r.readString();
    m.keySessionPath = r.readString();
    m.ctrSessionPath = r.readString();
    return m;
}

Bytes
ClMetadata::digest() const
{
    return crypto::Sha256::digest(serialize());
}

namespace {

/** Magic prefix distinguishing journal blobs from other sealed state. */
constexpr uint32_t kJournalMagic = 0x534a524e; // "SJRN"
/** Sanity bound on every count field: the journal parser eats
 *  attacker-controlled storage, so absurd counts must die in serde,
 *  not in an allocation. */
constexpr uint32_t kJournalMaxEntries = 4096;

uint32_t
boundedCount(BinaryReader &r)
{
    uint32_t n = r.readU32();
    if (n > kJournalMaxEntries)
        throw SerdeError("journal count out of range");
    return n;
}

} // namespace

Bytes
SmJournal::serialize() const
{
    BinaryWriter w;
    w.writeU32(kJournalMagic);
    w.writeU64(version);
    w.writeU8(haveMetadata);
    w.writeBytes(metadata);
    w.writeU32(uint32_t(deviceKeys.size()));
    for (const auto &[dna, key] : deviceKeys) {
        w.writeU64(dna);
        w.writeBytes(key);
    }
    w.writeU32(activeDevice);
    w.writeU8(deployed);
    w.writeU8(attested);
    w.writeU8(haveSecrets);
    w.writeBytes(keyAttest);
    w.writeU64(ctrBase);
    w.writeU8(havePendingRekey);
    w.writeBytes(pendingRekeyMacKey);
    w.writeU64(pendingRekeyNonce);
    w.writeU32(uint32_t(sessions.size()));
    for (const SmJournalSession &s : sessions) {
        w.writeU32(s.slot);
        w.writeBytes(s.keys);
        w.writeU64(s.openNonce);
        w.writeU64(s.regReserved);
        w.writeU64(s.dmaReserved);
    }
    w.writeU32(uint32_t(retiredFingerprints.size()));
    for (const Bytes &fp : retiredFingerprints)
        w.writeBytes(fp);
    return w.take();
}

SmJournal
SmJournal::deserialize(ByteView data)
{
    BinaryReader r(data);
    if (r.readU32() != kJournalMagic)
        throw SerdeError("bad journal magic");
    SmJournal j;
    j.version = r.readU64();
    j.haveMetadata = r.readU8();
    if (j.haveMetadata > 1)
        throw SerdeError("bad journal flag");
    j.metadata = r.readBytes();
    uint32_t nKeys = boundedCount(r);
    for (uint32_t i = 0; i < nKeys; ++i) {
        uint64_t dna = r.readU64();
        Bytes key = r.readBytes();
        if (key.size() != 32)
            throw SerdeError("bad device-key size in journal");
        j.deviceKeys.emplace_back(dna, std::move(key));
    }
    j.activeDevice = r.readU32();
    j.deployed = r.readU8();
    j.attested = r.readU8();
    j.haveSecrets = r.readU8();
    if (j.deployed > 1 || j.attested > 1 || j.haveSecrets > 1)
        throw SerdeError("bad journal flag");
    j.keyAttest = r.readBytes();
    if (j.haveSecrets && j.keyAttest.size() != 16)
        throw SerdeError("bad secret sizes in journal");
    j.ctrBase = r.readU64();
    j.havePendingRekey = r.readU8();
    if (j.havePendingRekey > 1)
        throw SerdeError("bad journal flag");
    j.pendingRekeyMacKey = r.readBytes();
    j.pendingRekeyNonce = r.readU64();
    uint32_t nSessions = boundedCount(r);
    for (uint32_t k = 0; k < nSessions; ++k) {
        SmJournalSession s;
        s.slot = r.readU32();
        s.keys = r.readBytes();
        if (s.keys.size() != 48)
            throw SerdeError("bad session-key size in journal");
        s.openNonce = r.readU64();
        s.regReserved = r.readU64();
        s.dmaReserved = r.readU64();
        j.sessions.push_back(std::move(s));
    }
    if (j.haveSecrets &&
        (j.sessions.empty() || j.sessions.front().slot != 0))
        throw SerdeError("journal secrets without a base session");
    uint32_t nFps = boundedCount(r);
    for (uint32_t i = 0; i < nFps; ++i) {
        Bytes fp = r.readBytes();
        if (fp.size() != 32)
            throw SerdeError("bad fingerprint size in journal");
        j.retiredFingerprints.push_back(std::move(fp));
    }
    return j;
}

Bytes
ClBootStatus::serialize() const
{
    BinaryWriter w;
    w.writeU8(deployed ? 1 : 0);
    w.writeU8(attested ? 1 : 0);
    w.writeString(failure);
    return w.take();
}

ClBootStatus
ClBootStatus::deserialize(ByteView data)
{
    BinaryReader r(data);
    ClBootStatus s;
    s.deployed = r.readU8() != 0;
    s.attested = r.readU8() != 0;
    s.failure = r.readString();
    return s;
}

namespace {

Bytes
channelIv(const std::string &direction, uint64_t seq)
{
    // 12-byte IV: 4 bytes of direction hash + 8-byte sequence number.
    Bytes dirDigest = crypto::Sha256::digest(bytesFromString(direction));
    Bytes iv(12);
    std::copy(dirDigest.begin(), dirDigest.begin() + 4, iv.begin());
    storeLe64(iv.data() + 4, seq);
    return iv;
}

} // namespace

Bytes
channelSeal(ByteView sessionKey, const std::string &direction,
            uint64_t seq, ByteView plaintext)
{
    crypto::AesGcm gcm(sessionKey);
    Bytes iv = channelIv(direction, seq);
    Bytes aad = bytesFromString(direction);
    crypto::GcmSealed sealed = gcm.seal(iv, aad, plaintext);

    BinaryWriter w;
    w.writeU64(seq);
    w.writeBytes(sealed.ciphertext);
    w.writeBytes(sealed.tag);
    return w.take();
}

std::optional<Bytes>
channelOpen(ByteView sessionKey, const std::string &direction,
            uint64_t seq, ByteView sealed)
{
    try {
        BinaryReader r(sealed);
        uint64_t claimedSeq = r.readU64();
        if (claimedSeq != seq)
            return std::nullopt; // replay or reordering
        Bytes ciphertext = r.readBytes();
        Bytes tag = r.readBytes();

        crypto::AesGcm gcm(sessionKey);
        Bytes iv = channelIv(direction, seq);
        Bytes aad = bytesFromString(direction);
        return gcm.open(iv, aad, ciphertext, tag);
    } catch (const SerdeError &) {
        return std::nullopt;
    }
}

} // namespace salus::core
